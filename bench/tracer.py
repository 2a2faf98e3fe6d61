"""Traced invocations of tempcoll's CLI, and the per-layer numbers.

As a program (started by bench/run.py from the checkout root, in its own
process)::

    python3 bench/tracer.py '{"argv": [...], "report": PATH, "spans": PATH, "invocations": N}'

it imports tempcoll from ./src, runs one untraced warm-up invocation,
then wraps the public functions of every layer and runs N traced
invocations. Each wrapper records a span in memory: name, start, end,
the span that called it, and for some layers a note (result size, input
size, cache key). The spans are written to the ``spans`` file, one JSON
array per line, when the last invocation ends:

    [invocation, span id, parent id or -1, name, start_ns, end_ns, note]

Every traced report must equal the untraced report at ``report`` byte
for byte. The program prints one JSON line with the traced invocations'
exit codes, those comparisons, errors, and wall and reference kernel
times (bench/speed.py), and the wrapped import sites. It imports and
calls tempcoll through the same helpers as bench/worker.py.

Layers are tempcoll's modules. Functions are replaced at every place a
module imported them by name, found by identity, so a call through any
import site is seen. WorldBuilder's methods are wrapped on the class.
:func:`layer_metrics` turns a spans file into the metrics bench/run.py
reports. The timed worker (bench/worker.py) never imports this module.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import speed
import worker

LAYERS = ("dsl", "model", "core", "algebra", "readings", "cli")

# layer -> public functions wrapped at every import site
WRAPPED = {
    "dsl": ("parse_world", "parse_script"),
    "core": ("extension", "measure_value"),
    "algebra": ("instantiate", "filter_members", "ratio", "aggregate_sum"),
    "readings": (
        "decide_mode",
        "cohort_disjoint",
        "lifespan_check",
        "enumerate_readings",
        "evaluate_reading",
        "analyze",
    ),
    "cli": ("format_report",),
}
BUILDER_METHODS = (
    "add_entity",
    "add_predicate",
    "add_fact",
    "add_measure",
    "add_collection",
    "add_statement",
    "build",
)

Note = Callable[[tuple, dict, object], object]


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: object = None) -> object:
    return args[index] if len(args) > index else kwargs.get(name, default)


def _extension_note(args: tuple, kwargs: dict, result: object) -> tuple[int, int]:
    # (slices returned, facts of the predicate the scan had to visit)
    world, predicate = _arg(args, kwargs, 0, "world"), _arg(args, kwargs, 1, "predicate")
    return len(result), len(world.facts_for(predicate))


def _instantiate_note(args: tuple, kwargs: dict, result: object) -> str:
    # the (collection, tick, policy) key; a coerced Collection keeps its mode and anchor
    coll = _arg(args, kwargs, 1, "collection")
    if not isinstance(coll, str):
        coll = f"{coll.name}:{coll.mode}:{coll.anchor}"
    return f"{coll}|{_arg(args, kwargs, 2, 't')}|{_arg(args, kwargs, 3, 'policy', 'strict')}"


NOTES: dict[str, Note] = {
    "dsl.parse_world": lambda args, kwargs, result: _arg(args, kwargs, 0, "text").count("\n"),
    "core.extension": _extension_note,
    "algebra.instantiate": _instantiate_note,
    "cli.format_report": lambda args, kwargs, result: len(result.encode("utf-8")),
}


class Tracer:
    """Spans in memory, with the parent taken from a call stack."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (invocation, parent, name, start_ns, end_ns, note)
        self.invocation = 0
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Spans are tuples of atoms, which the cyclic GC stops tracking,
            # so a long trace adds little to the collections of the run.
            index, parent = len(spans), stack[-1]
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.invocation, parent, name, start, end, None)
            if note is not None:
                spans[index] = (self.invocation, parent, name, start, end, note(args, kwargs, result))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every public layer function where it is bound; returns the
        sites as ``module.attribute``."""
        sites = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "tempcoll" or n.startswith("tempcoll.")]
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"tempcoll.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            sites.append(f"{module.__name__}.{attr}")
        from tempcoll.model import WorldBuilder

        for name in BUILDER_METHODS:
            setattr(WorldBuilder, name, self.wrap(f"model.{name}", getattr(WorldBuilder, name)))
            sites.append(f"tempcoll.model.WorldBuilder.{name}")
        return sites

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for span_id, (inv, parent, name, start, end, note) in enumerate(self.spans):
                f.write(json.dumps([inv, span_id, parent, name, start, end, note]) + "\n")


# ---------------------------------------------------------------------------
# Aggregation


def unit(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.endswith("lines_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("reuse", "yield", "ratio")):
        return "ratio"
    if metric.endswith("bytes"):
        return "B"
    return "count"


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile of `values` (0.0 when there are none)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _invocation_metrics(spans: list[list]) -> tuple[dict[str, float], list[float]]:
    """Metrics of one invocation's spans, plus its analyze latencies."""
    duration = {s[1]: (s[5] - s[4]) / 1e9 for s in spans}
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[2] >= 0:
            children[s[2]] += duration[s[1]]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    for s in spans:
        name = s[3]
        calls[name] += 1
        self_s[name] += duration[s[1]] - children[s[1]]
        total_s[name] += duration[s[1]]
        if s[6] is not None:
            notes[name].append(s[6])

    ext = notes["core.extension"]
    slices_out = sum(n[0] for n in ext)
    scanned = sum(n[1] for n in ext)
    lines = sum(notes["dsl.parse_world"])
    inst_calls = calls["algebra.instantiate"]
    distinct = len(set(notes["algebra.instantiate"]))
    m = {
        "dsl.parse_world.self_s": self_s["dsl.parse_world"],
        "dsl.parse_world.lines_per_s": lines / total_s["dsl.parse_world"] if lines else 0.0,
        "dsl.parse_script.self_s": self_s["dsl.parse_script"],
        "model.builder.self_s": sum(v for k, v in self_s.items() if k.startswith("model.")),
        "model.add_statement.self_s": self_s["model.add_statement"],
        "model.build.self_s": self_s["model.build"],
        "model.add_fact.calls": calls["model.add_fact"],
        "core.extension.calls": calls["core.extension"],
        "core.extension.self_s": self_s["core.extension"],
        "core.extension.slices_out": slices_out,
        "core.extension.yield": slices_out / scanned if scanned else 0.0,
        "core.measure_value.calls": calls["core.measure_value"],
        "core.measure_value.self_s": self_s["core.measure_value"],
        "algebra.instantiate.calls": inst_calls,
        "algebra.instantiate.self_s": self_s["algebra.instantiate"],
        "algebra.instantiate.distinct_keys": distinct,
        "algebra.instantiate.reuse": 1 - distinct / inst_calls if inst_calls else 0.0,
        "algebra.filter_members.self_s": self_s["algebra.filter_members"],
        "algebra.aggregate_sum.self_s": self_s["algebra.aggregate_sum"],
        "algebra.ratio.calls": calls["algebra.ratio"],
        "readings.analyze.calls": calls["readings.analyze"],
        "readings.decide_mode.self_s": self_s["readings.decide_mode"],
        "readings.cohort_disjoint.self_s": self_s["readings.cohort_disjoint"],
        "readings.lifespan_check.self_s": self_s["readings.lifespan_check"],
        "readings.evaluate_reading.self_s": self_s["readings.evaluate_reading"],
        "cli.format_report.self_s": self_s["cli.format_report"],
        "cli.report_bytes": sum(notes["cli.format_report"]),
        "cli.run.self_s": self_s["cli.run"],
        "trace.cli_run_s": total_s["cli.run"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    analyze = [(s[5] - s[4]) / 1e9 for s in spans if s[3] == "readings.analyze"]
    return m, analyze


def layer_metrics(spans_path: Path) -> dict[str, float]:
    """Per-layer metrics from a spans file.

    Counts and times come from the median invocation by traced
    ``cli.run`` time (``trace.cli_run_s``), so they add up: the six
    ``<layer>.self_s``, each the self time of every span of that layer,
    sum to ``trace.cli_run_s``. The analyze latency percentiles pool the
    analyze spans of every traced invocation."""
    by_invocation: dict[int, list[list]] = defaultdict(list)
    with spans_path.open(encoding="utf-8") as f:
        for line in f:
            span = json.loads(line)
            by_invocation[span[0]].append(span)
    per_invocation = []
    analyze: list[float] = []
    for spans in by_invocation.values():
        m, latencies = _invocation_metrics(spans)
        per_invocation.append(m)
        analyze.extend(latencies)
    per_invocation.sort(key=lambda m: m["trace.cli_run_s"])
    metrics = per_invocation[(len(per_invocation) - 1) // 2]
    metrics["readings.analyze.p50_s"] = _quantile(analyze, 50)
    metrics["readings.analyze.p95_s"] = _quantile(analyze, 95)
    return metrics


# ---------------------------------------------------------------------------
# Traced child process


def main() -> int:
    job = json.loads(sys.argv[1])
    cli = worker.import_cli()
    expected = Path(job["report"]).read_text(encoding="utf-8")
    worker.invoke(cli.run, job["argv"])  # untraced warm-up, not reported
    gc.collect()
    tracer = Tracer()
    sites = tracer.install()
    run = tracer.wrap("cli.run", cli.run)
    codes: list[int | None] = []
    same: list[bool] = []
    errors: list[str] = []
    times: list[float] = []
    refs: list[float] = []
    for invocation in range(1, job["invocations"] + 1):
        tracer.invocation = invocation
        (code, text, error), elapsed, kernel = speed.timed(lambda: worker.invoke(run, job["argv"]))
        times.append(elapsed)
        refs.append(kernel)
        codes.append(code)
        same.append(text == expected)
        if error is not None:
            errors.append(error)
        gc.collect()  # as the timed worker does between invocations
    tracer.write(Path(job["spans"]))
    print(json.dumps({
        "codes": codes,
        "same": same,
        "errors": errors,
        "sites": sites,
        "times": times,
        "refs": refs,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
