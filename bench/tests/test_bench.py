"""Tests of the benchmark itself: its answer key, its checker, its tracer.

    PYTHONPATH=src python -m pytest -q bench/tests

The generator's planned answers are cross-checked against the
brute-force oracle of tests/oracle.py (imported read-only), so a wrong
plan cannot hide a wrong engine or the reverse. The oracle is far too
slow for workload sizes, so these tests use small worlds and a prefix of
the statements and commands.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from tempcoll import TimeRef, parse_world  # noqa: E402
from tempcoll.cli import run  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "tests" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

SMALL = 0.03  # 60 entities per world, the generator's floor


def _generate(tmp_path: Path, workload: str, seed: int = 3, scale: float = SMALL) -> dict:
    return gen.generate(workload, seed, tmp_path / workload, scale)


def _world(plan: dict):
    text = Path(plan["argv"][-2 if plan["argv"][0] == "eval" else -1]).read_text()
    world, diagnostics = parse_world(text)
    assert world is not None and not diagnostics, [d.render() for d in diagnostics]
    return world


def _oracle_label(value: object) -> str:
    return value if value == "undefined" else str(value).lower()


def test_explain_plan_agrees_with_oracle(tmp_path):
    plan = _generate(tmp_path, "explain-all")
    world = _world(plan)
    for sid, mode, _, readings in plan["expect"]["statements"][:45]:
        stmt = world.statement(sid)
        if stmt.profile.compared_property in world.predicates:
            got = [("ratio_evolution", _oracle_label(oracle.ratio_reading(world, stmt, mode)))]
        elif mode == gen.DE_DICTO:
            got = [("ratio_evolution", "undefined")]
        else:
            got = [
                ("individual_evolution", _oracle_label(oracle.individual_reading(world, stmt))),
                ("global_aggregate", _oracle_label(oracle.global_reading(world, stmt))),
            ]
        assert got == [tuple(r) for r in readings], sid


def _oracle_value(world, expr: str):
    """Evaluate one generated script expression with the oracle."""

    def inst(text: str):
        text, _, filt = text.partition(" | ")
        name, tick = text.split("@")
        t = TimeRef.point(int(tick))
        members, dropped = oracle.instantiate_ids(world, world.collections[name], t)
        if filt:
            pred, args = filt.rstrip(")").split("(")
            members = oracle.filter_ids(world, members, pred, tuple(args.split(", ")), t)
        return members, dropped, int(tick)

    if expr.startswith("card("):
        return {"type": "natural", "value": len(inst(expr[5:-1])[0])}
    if expr.startswith("ratio("):
        part, whole = expr[6:-1].split(", ", 1) if " | " not in expr else _split_ratio(expr[6:-1])
        p, w = inst(part)[0], inst(whole)[0]
        if not w:
            return {"type": "undefined"}
        value = Fraction(len(p), len(w))
        return {"type": "rational", "num": value.numerator, "den": value.denominator}
    if expr.startswith("sum "):
        measure, rest = expr[4:].split(" over ")
        members, _, tick = inst(rest)
        total = oracle.sum_values(world, measure, members, tick)
        if total is None:
            return {"type": "undefined"}
        return {"type": "rational", "num": total.numerator, "den": total.denominator}
    members, dropped, tick = inst(expr)
    return {
        "type": "instantiation",
        "members": [f"{e}@{tick}" for e in sorted(members)],
        "dropped": sorted(dropped),
    }


def _split_ratio(body: str) -> tuple[str, str]:
    # "C@t | p(_, g1), C@t": the part ends at the filter's closing parenthesis
    close = body.index(")") + 1
    return body[:close], body[close + 2 :]


def _number(value: dict) -> Fraction:
    return Fraction(value["value"]) if value["type"] == "natural" else Fraction(value["num"], value["den"])


def test_eval_plan_agrees_with_oracle(tmp_path):
    plan = _generate(tmp_path, "eval-mixed")
    world = _world(plan)
    lines = Path(plan["argv"][-1]).read_text().splitlines()
    for line, want in list(zip(lines, plan["expect"]["commands"]))[:80]:
        if want["kind"] == "eval":
            assert _oracle_value(world, line[len("eval ") :]) == want["value"], line
            continue
        body = line[len("assert ") :]
        op = next(o for o in (" < ", " > ", " = ") if o in body)
        left, right = (_oracle_value(world, side) for side in body.split(op))
        if "undefined" in (left["type"], right["type"]):
            truth = "undefined"
        elif left["type"] == "instantiation":
            truth = str(left["members"] == right["members"]).lower()
        else:
            a, b = _number(left), _number(right)
            truth = str({" < ": a < b, " > ": a > b, " = ": a == b}[op]).lower()
        assert truth == want["truth"], line


def test_check_plan_counts_every_fact_once(tmp_path):
    plan = _generate(tmp_path, "check-large", scale=0.01)
    world = _world(plan)
    text = Path(plan["argv"][-1]).read_text()
    fact_lines = sum(1 for line in text.splitlines() if line.startswith("fact "))
    assert len(world.facts) == fact_lines
    assert f"facts={fact_lines}," in plan["expect"]["report"]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_engine_report_matches_plan(tmp_path, capsys, workload):
    plan = _generate(tmp_path, workload)
    code = run(plan["argv"])
    assert check.mismatches(plan, code, capsys.readouterr().out) == []


def test_checker_rejects_a_wrong_verdict(tmp_path, capsys):
    plan = _generate(tmp_path, "explain-all")
    code = run(plan["argv"])
    report = capsys.readouterr().out
    flipped = report.replace(": true\n", ": false\n", 1)
    assert flipped != report
    assert check.mismatches(plan, code, flipped)
    assert check.mismatches(plan, 1, report)


def test_every_decision_path_is_planned(tmp_path):
    plan = _generate(tmp_path, "explain-all")
    rules_of = {
        "r1_invariant": ["R1"],
        "r2_cohort": ["R2"],
        "r2_disjoint": ["R2"],
        "r3_bound": ["R3"],
        "e0_explicit": ["E0"],
    }
    labels = set()
    for k, (_, _, rules, readings) in enumerate(plan["expect"]["statements"]):
        kind = gen.EXPLAIN_KINDS[k % len(gen.EXPLAIN_KINDS)]
        assert rules == rules_of.get(kind, ["R0"]), (k, kind)
        if kind in ("dropped", "gap"):
            assert {label for _, label in readings} == {"undefined"}, (k, kind)
        labels.update(tuple(r) for r in readings)
    assert {label for _, label in labels} == {"true", "false", "undefined"}
    assert {kind for kind, _ in labels} == {"ratio_evolution", "individual_evolution", "global_aggregate"}


def test_generator_is_deterministic(tmp_path):
    def files(seed: int) -> dict[str, bytes]:
        gen.generate(workload, seed, tmp_path, SMALL)
        return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    for workload in gen.WORKLOADS:
        first = files(5)
        assert files(5) == first
        assert files(6)["world.tcw"] != first["world.tcw"]


def test_tracer_wraps_every_import_site_and_accounts_for_cli_run(tmp_path):
    plan = gen.generate("eval-mixed", 3, tmp_path, SMALL)
    report, spans = tmp_path / "report.txt", tmp_path / "spans.jsonl"
    with report.open("w") as f:
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src');"
             "from tempcoll.cli import run; sys.exit(run(sys.argv[1:]))", *plan["argv"]],
            cwd=ROOT, stdout=f, check=False,
        )
    job = {"argv": plan["argv"], "report": str(report), "spans": str(spans), "invocations": 2}
    proc = subprocess.run(
        [sys.executable, "bench/tracer.py", json.dumps(job)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["same"] == [True, True] and result["errors"] == []
    sites = set(result["sites"])
    for site in (
        "tempcoll.cli.parse_world",
        "tempcoll.cli.parse_script",
        "tempcoll.algebra.extension",
        "tempcoll.readings.extension",
        "tempcoll.algebra.measure_value",
        "tempcoll.readings.measure_value",
        "tempcoll.readings.instantiate",
        "tempcoll.cli.instantiate",
        "tempcoll.readings.filter_members",
        "tempcoll.cli.filter_members",
        "tempcoll.readings.ratio",
        "tempcoll.cli.ratio",
        "tempcoll.readings.aggregate_sum",
        "tempcoll.cli.aggregate_sum",
        "tempcoll.readings.decide_mode",
        "tempcoll.cli.decide_mode",
        "tempcoll.readings.cohort_disjoint",
        "tempcoll.readings.lifespan_check",
        "tempcoll.readings.enumerate_readings",
        "tempcoll.readings.evaluate_reading",
        "tempcoll.cli.analyze",
        "tempcoll.cli.format_report",
        "tempcoll.model.WorldBuilder.add_statement",
        "tempcoll.model.WorldBuilder.build",
    ):
        assert site in sites, site
    metrics = tracer.layer_metrics(spans)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_sum == pytest.approx(metrics["trace.cli_run_s"], rel=1e-9)
    assert metrics["algebra.instantiate.calls"] > metrics["algebra.instantiate.distinct_keys"] > 0
    world_lines = Path(plan["argv"][-2]).read_text().splitlines()
    assert metrics["model.add_fact.calls"] == sum(1 for line in world_lines if line.startswith("fact "))
    assert metrics["readings.analyze.calls"] == 0
    assert metrics["cli.report_bytes"] == len(report.read_bytes())


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = set(tracer._invocation_metrics([])[0]) | {
        "readings.analyze.p50_s",
        "readings.analyze.p95_s",
        "trace.overhead_ratio",
    }
    assert set(names) == reported
    assert all(tracer.unit(name) == u for name, u in names.items())


def test_only_the_failing_invocations_count_as_failed():
    plan = {"exit": 0}
    codes, same = [0, None, 0, 1], [True, False, True, True]
    assert bench_run._failures(plan, codes, same, wrong_report=False) == 2
    assert bench_run._failures(plan, codes, same, wrong_report=True) == 4
    assert bench_run._failures(plan, [0, 0, 0], [True] * 3, wrong_report=False, state_kept=True) == 2


def test_module_state_sees_a_cache_kept_across_calls(monkeypatch):
    import tempcoll.core

    before = worker.module_state()
    assert worker.module_state() == before
    cache: dict = {}
    monkeypatch.setattr(tempcoll.core, "_bench_cache", cache, raising=False)
    filled = worker.module_state()
    cache["key"] = 1
    assert worker.module_state()["tempcoll.core._bench_cache"] != filled["tempcoll.core._bench_cache"]
