"""Timed, untraced invocations of tempcoll's CLI in a process of their own.

bench/run.py starts this from the checkout root. It imports tempcoll
from ./src, prints ``ready`` and reads one line from stdin: ``quit``, or
a job ``{"argv": [...], "seconds": S, "report": PATH}``. For a job it
calls ``tempcoll.cli.run(argv)`` one invocation after another until S
seconds have passed (at least once), writes the first report to PATH,
and prints one JSON line: per-invocation wall times and reference
kernel times (bench/speed.py), exit codes, whether each report equals
the first byte for byte, errors, the module-level state of tempcoll that
the invocations changed, and the peak RSS of this process.
Nothing else runs here: no generator, no checker, no tracing.

All invocations run in this one warm process, where a real CLI user
starts one process per verdict. State that tempcoll keeps at module
level from one ``cli.run`` to the next (a cache in a global, on a class
or in a default argument) would serve later invocations in a way no
user gets, so :func:`module_state` is compared before the first
invocation and after the last, and bench/run.py counts every invocation
after the first as failed when it differs.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import FunctionType, ModuleType

import speed


def import_cli() -> ModuleType:
    """``tempcoll.cli``, imported from ./src and from nowhere else."""
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    from tempcoll import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tempcoll was imported from {cli.__file__}, not {src}")
    return cli


def invoke(run, argv: list[str]) -> tuple[int | None, str, str | None]:
    """(exit code or None if it raised, captured stdout, traceback or None)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            return run(argv), buf.getvalue(), None
    except Exception:
        return None, buf.getvalue(), traceback.format_exc(limit=5)


def module_state() -> dict[str, tuple[int, int]]:
    """Identity and size of every value tempcoll holds at module level: the
    globals of its modules, the attributes of its classes, the default
    arguments of its functions and the entries of functools caches."""

    def size(value) -> int:
        if hasattr(value, "cache_info"):
            return value.cache_info().currsize
        try:
            return len(value)
        except TypeError:
            return -1

    state = {}
    for name, module in list(sys.modules.items()):
        if name != "tempcoll" and not name.startswith("tempcoll."):
            continue
        for attr, value in vars(module).items():
            owned = getattr(value, "__module__", None) == name
            state[f"{name}.{attr}"] = (id(value), size(value))
            if isinstance(value, type) and owned:
                for cls_attr, cls_value in vars(value).items():
                    state[f"{name}.{attr}.{cls_attr}"] = (id(cls_value), size(cls_value))
            if isinstance(value, FunctionType) and owned:
                defaults = (value.__defaults__ or ()) + tuple((value.__kwdefaults__ or {}).values())
                state[f"{name}.{attr}.<defaults>"] = (id(value.__defaults__), sum(size(d) for d in defaults))
    return state


def main() -> int:
    cli = import_cli()
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if not line or line == "quit":
        return 0
    job = json.loads(line)

    times: list[float] = []
    refs: list[float] = []
    codes: list[int | None] = []
    same: list[bool] = []
    errors: list[str] = []
    first: str | None = None
    before = module_state()
    start = time.perf_counter()
    while not times or time.perf_counter() - start < job["seconds"]:
        gc.collect()  # each invocation starts from a settled heap, as a fresh process would
        (code, text, error), elapsed, kernel = speed.timed(lambda: invoke(cli.run, job["argv"]))
        times.append(elapsed)
        refs.append(kernel)
        codes.append(code)
        if error is not None:
            errors.append(error)
        if first is None:
            first = text
            Path(job["report"]).write_text(text, encoding="utf-8")
        same.append(text == first)
    after = module_state()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "times": times,
        "refs": refs,
        "codes": codes,
        "same": same,
        "errors": errors,
        "state_kept": sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k)),
        "peak_rss_mb": peak_kb / 1024,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
