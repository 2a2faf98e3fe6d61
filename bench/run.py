"""The tempcoll benchmark: one command per workload run.

    python3 bench/run.py --workload explain-all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; it works from the checkout root.
Set-up generates the workload's inputs and planned answers from the seed
(bench/gen.py) and starts a fresh worker process (bench/worker.py) that
imports tempcoll from ./src; set-up is repeated and its median reported
as ``setup_s``. The last worker then calls ``tempcoll.cli.run`` one
invocation after another for ``--seconds``. Every report must match the
plan and be byte-identical to the first; an invocation that raises, exits
with an unplanned code or reports anything else counts as failed. So does
every invocation after the first when tempcoll's module-level state
changed across the run (bench/worker.py): a real CLI user, with one
process per verdict, could not reuse it.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics; with ``--trace 1`` a traced process (bench/tracer.py) then runs
the workload again with a span at every layer boundary, and the last
line carries the per-layer metrics. bench/README.md explains both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent

# Input sizes as a share of the nominal ones (bench/gen.py): one
# invocation then takes about half a second on a 2-core machine, so a
# 30 s run holds enough invocations for a steady median. Each workload
# keeps its layer split at these sizes.
SCALE = {"check-large": 0.1, "explain-all": 0.1, "eval-mixed": 0.05}
SETUP_REPEATS = 5
TRACED_INVOCATIONS = 3
CHILD_SLACK_S = 150


def _start_worker() -> subprocess.Popen:
    worker = subprocess.Popen(
        [sys.executable, "bench/worker.py"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    if worker.stdout.readline().strip() != "ready":
        worker.kill()
        worker.communicate()
        raise RuntimeError("the worker could not import tempcoll from ./src")
    return worker


def _finish(worker: subprocess.Popen, line: str, timeout: float) -> str:
    try:
        out, _ = worker.communicate(line + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.communicate()
        raise
    if worker.returncode != 0:
        raise RuntimeError(f"worker exited with {worker.returncode}")
    return out


def _setup(workload: str, seed: int, out: Path) -> tuple[dict, subprocess.Popen, list[float], list[float]]:
    """Generate inputs and start a worker, SETUP_REPEATS times; the last
    worker is kept for the timed invocations. Returns the set-up times
    and the reference kernel times around them."""
    times, refs = [], []
    worker = None
    for _ in range(SETUP_REPEATS):
        if worker is not None:
            _finish(worker, "quit", CHILD_SLACK_S)
        (plan, worker), elapsed, kernel = speed.timed(
            lambda: (gen.generate(workload, seed, out, SCALE[workload]), _start_worker())
        )
        times.append(elapsed)
        refs.append(kernel)
    return plan, worker, times, refs


def _failures(plan: dict, codes: list, same: list, wrong_report: bool, state_kept: bool = False) -> int:
    """Invocations that raised (code None), exited with an unplanned code,
    reported other bytes than the first report, or reported the first
    report when that one is wrong. With ``state_kept``, every invocation
    after the first also fails: it may have reused what an earlier one
    left behind."""
    return sum(
        1
        for i, (code, identical) in enumerate(zip(codes, same))
        if code != plan["exit"] or not identical or wrong_report or (state_kept and i > 0)
    )


def _corrected_median(times: list[float], refs: list[float]) -> float:
    return statistics.median(speed.corrected(t, r) for t, r in zip(times, refs))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description="tempcoll benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    speed.pin()
    if not (ROOT / "src" / "tempcoll" / "cli.py").is_file():
        print(f"no tempcoll sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = Path("bench") / "out" / args.workload
    report_path = out / "report.txt"

    plan, worker, setups, setup_refs = _setup(args.workload, args.seed, out)
    job = {"argv": plan["argv"], "seconds": args.seconds, "report": str(report_path)}
    timed = json.loads(_finish(worker, json.dumps(job), args.seconds + CHILD_SLACK_S))
    problems = check.mismatches(plan, timed["codes"][0], report_path.read_text(encoding="utf-8"))
    attempted = len(timed["times"])
    failed = _failures(plan, timed["codes"], timed["same"], bool(problems), bool(timed["state_kept"]))
    errors = timed["errors"]
    wall_s = _corrected_median(timed["times"], timed["refs"])
    setup_s = _corrected_median(setups, setup_refs)

    print(f"workload {args.workload}, seed {args.seed}, scale {SCALE[args.workload]}")
    print(f"setup_s      {setup_s:.4f} s  (median of {len(setups)} set-ups; raw {statistics.median(setups):.4f} s)")
    print(f"wall_s       {wall_s:.4f} s  (median of {attempted} invocations of cli.run;"
          f" raw {statistics.median(timed['times']):.4f} s)")
    print(f"first call   {speed.corrected(timed['times'][0], timed['refs'][0]):.4f} s"
          f"  (raw {timed['times'][0]:.4f} s)")
    print(f"peak_rss_mb  {timed['peak_rss_mb']:.1f} MB")
    print(f"fail_ratio   {failed / attempted:.4f}  ({failed} of {attempted} invocations failed)")

    if args.trace:
        spans_path = out / "spans.jsonl"
        traced_job = {
            "argv": plan["argv"],
            "report": str(report_path),
            "spans": str(spans_path),
            "invocations": TRACED_INVOCATIONS,
        }
        proc = subprocess.run(
            [sys.executable, "bench/tracer.py", json.dumps(traced_job)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_SLACK_S,
            check=True,
        )
        traced = json.loads(proc.stdout)
        errors += traced["errors"]
        attempted += len(traced["codes"])
        failed += _failures(plan, traced["codes"], traced["same"], bool(problems))

        layers = tracer.layer_metrics(spans_path)
        layers["trace.overhead_ratio"] = _corrected_median(traced["times"], traced["refs"]) / wall_s
        print(f"traced: {TRACED_INVOCATIONS} invocations, spans in {spans_path}")
        for layer in tracer.LAYERS:
            print(f"  {layer + '.self_s':18} {layers[layer + '.self_s']:.4f} s")
        print(f"  {'sum':18} {sum(layers[f'{l}.self_s'] for l in tracer.LAYERS):.4f} s"
              f" = traced cli.run {layers['trace.cli_run_s']:.4f} s"
              f" ({layers['trace.overhead_ratio']:.3f} x untraced wall_s)")
        metrics = {name: _metric(value, tracer.unit(name)) for name, value in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "peak_rss_mb": _metric(timed["peak_rss_mb"], "MB"),
            "setup_s": _metric(setup_s, "s"),
        }

    for problem in problems[:20]:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    for error in errors[:3]:
        print(f"RAISED:\n{error}", file=sys.stderr)
    if timed["state_kept"]:
        print("STATE KEPT across cli.run calls, so invocations after the first count as failed: "
              + ", ".join(timed["state_kept"][:10]), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
