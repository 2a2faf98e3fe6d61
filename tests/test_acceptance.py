"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete; a failed criterion raises before printing.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import oracle
from conftest import FIXTURES, fixture_text, load_world
from tempcoll import (
    MODE_RE,
    MissingMeasure,
    TimeRef,
    UnknownMeasure,
    aggregate_sum,
    analyze,
    cardinality,
    decide_mode,
    enumerate_readings,
    evaluate_reading,
    filter_members,
    instantiate,
    parse_script,
    parse_world,
    ratio,
    render_world,
)
from tempcoll.cli import run
from worldgen import random_statement_world, random_world

P = TimeRef.point

VALID_FIXTURES = (
    "youth.tcw",
    "friends.tcw",
    "sitin.tcw",
    "centuries.tcw",
    "origins.tcw",
    "missing.tcw",
)


def test_c1_sentence_fixture_decisions():
    """The encoded example sentences get the documented decisions."""
    expected = {
        ("sitin.tcw", "S1"): ("de_re", ("R0",)),
        ("origins.tcw", "S2"): ("de_dicto", ("R1",)),
        ("youth.tcw", "S3"): ("de_dicto", ("R2",)),
        ("friends.tcw", "S1"): ("de_re", ("R0",)),
        ("centuries.tcw", "S4"): ("de_dicto", ("R3",)),
    }
    for (name, sid), (mode, rules) in expected.items():
        world = load_world(name)
        decision = decide_mode(world, world.statements[sid])
        assert decision.mode == mode, (name, decision)
        assert decision.rule_ids == rules, (name, decision)
    friends = load_world("friends.tcw")
    decision = analyze(friends, friends.statements["S1"])
    assert [r.kind for r in decision.readings] == [
        "individual_evolution",
        "global_aggregate",
    ]
    print("criterion 1 (sentence fixture decisions): PASS")


def test_c2_ratio_formula_reproduction(capsys):
    """The cohort world asserts the exact rational inequality 2/5 < 1/2."""
    youth = load_world("youth.tcw")
    ratios = {}
    for tick in (2002, 2003):
        whole = instantiate(youth, "Y", tick)
        part = filter_members(youth, whole, "smokes", ("_", "tobacco"))
        ratios[tick] = ratio(part, whole)
    assert ratios[2003] == Fraction(2, 5)
    assert ratios[2002] == Fraction(1, 2)
    assert ratios[2003] < ratios[2002]
    code = run(["eval", str(FIXTURES / "youth.tcw"), str(FIXTURES / "youth.tcq")])
    out = capsys.readouterr().out
    assert code == 0
    assert "assert #1: true (2/5 < 1/2)" in out
    print("criterion 2 (ratio formula, 2/5 < 1/2 exactly): PASS")


def test_c3_evolution_formulas_reproduction():
    """Both de re readings hold on the friends world, with witnesses."""
    friends = load_world("friends.tcw")
    decision = analyze(friends, friends.statements["S1"])
    individual, aggregate = decision.readings
    assert individual.truth is True
    assert [(w.label, w.detail) for w in individual.witnesses] == [
        ("f1", "8 < 10"),
        ("f2", "4 < 5"),
    ]
    assert aggregate.truth is True
    assert {w.label: w.detail for w in aggregate.witnesses} == {
        "sum@2002": "15",
        "sum@2003": "12",
    }
    assert aggregate_sum(friends, "cons_tobacco", instantiate(friends, "F", 2002)) == 15
    assert aggregate_sum(friends, "cons_tobacco", instantiate(friends, "F", 2003)) == 12
    print("criterion 3 (individual and global evolution on W2): PASS")


def test_c4_de_re_composition_invariance():
    """Over 1000 generated worlds, a de re collection's composition
    (members plus dropped) is identical at any two ticks."""
    rng = random.Random(20020)
    checked = 0
    for _ in range(1000):
        world = random_world(rng)
        t1, t2 = rng.choice(range(2000, 2005)), rng.choice(range(2000, 2005))
        for coll in world.collections.values():
            if coll.mode != MODE_RE:
                continue
            a = instantiate(world, coll, t1, "lenient")
            b = instantiate(world, coll, t2, "lenient")
            assert a.member_ids() | a.dropped == b.member_ids() | b.dropped
            checked += 1
    assert checked >= 1000
    print(f"criterion 4 (de re composition invariance, {checked} collections): PASS")


def test_c5_oracle_equivalence():
    """instantiate/filter/cardinality/ratio/aggregate_sum agree exactly
    with the brute-force enumerator on bounded generated worlds."""
    rng = random.Random(20030)
    for _ in range(1000):
        world = random_world(rng)
        assert len(world.entities) <= 20 and len(world.ticks) <= 5
        tick = rng.choice(range(2000, 2005))
        t = P(tick)
        for coll in world.collections.values():
            inst = instantiate(world, coll, tick, "lenient")
            members, dropped = oracle.instantiate_ids(world, coll, t)
            assert inst.member_ids() == members
            assert inst.dropped == dropped
            assert cardinality(inst) == len(members)
            other = world.collections[rng.choice(("Cd", "Cr"))]
            part = filter_members(world, inst, other.predicate, other.pattern)
            expected_part = oracle.filter_ids(
                world, members, other.predicate, other.pattern, t
            )
            assert part.member_ids() == expected_part
            if members:
                assert ratio(part, inst) == Fraction(len(expected_part), len(members))
            if all(name != "m0" for name, _, _ in world.measures):
                # A name recorded for no one is an error to both, not a sum.
                with pytest.raises(UnknownMeasure):
                    oracle.sum_values(world, "m0", members, tick)
                with pytest.raises(UnknownMeasure):
                    aggregate_sum(world, "m0", inst)
                continue
            expected_sum = oracle.sum_values(world, "m0", members, tick)
            if expected_sum is None:
                try:
                    aggregate_sum(world, "m0", inst)
                    raise AssertionError("sum should have been undefined")
                except MissingMeasure:
                    pass
            else:
                assert aggregate_sum(world, "m0", inst) == expected_sum
    print("criterion 5 (oracle equivalence on 1000 worlds): PASS")


def test_c6_individual_implies_global():
    """A true individual evolution over non-empty membership forces the
    global aggregate, with zero counterexamples."""
    rng = random.Random(20040)
    positives = 0
    for _ in range(1000):
        world = random_statement_world(
            rng, measure_property=True, directions=("less", "more")
        )
        stmt = world.statements["S"]
        individual, aggregate = (
            evaluate_reading(world, stmt, r)
            for r in enumerate_readings(world, stmt, MODE_RE)
        )
        if individual.truth is not True or aggregate.truth is None:
            continue
        anchor = instantiate(
            world, world.collections["C"], stmt.eval_times[0], "lenient"
        )
        if not anchor.members:
            continue
        positives += 1
        assert aggregate.truth is True, (world, stmt)
    assert positives > 50
    print(f"criterion 6 (strict-sum implication, {positives} positive cases): PASS")


def test_c7_round_trip_and_fuzz():
    """parse-render-parse is identity on 1000 generated worlds; fuzzed
    fixtures never crash and always carry positioned diagnostics."""
    rng = random.Random(20050)
    for _ in range(1000):
        world = random_world(rng)
        rendered = render_world(world)
        reparsed, diagnostics = parse_world(rendered)
        assert not [d for d in diagnostics if d.severity == "error"]
        assert reparsed == world
        assert render_world(reparsed) == rendered
    sources = [fixture_text(name) for name in VALID_FIXTURES]
    sources += [fixture_text("youth.tcq"), fixture_text("friends.tcq")]
    for _ in range(400):
        data = bytearray(rng.choice(sources).encode())
        for _ in range(rng.randint(1, 15)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        text = data.decode("utf-8", errors="replace")
        for parse in (parse_world, parse_script):
            result, diagnostics = parse(text)
            for d in diagnostics:
                assert d.line >= 1 and d.column >= 1
            if result is None:
                assert any(d.severity == "error" for d in diagnostics)
    print("criterion 7 (round-trip on 1000 worlds, fuzz on 400 mutants): PASS")


def test_c8_explain_determinism(capsys):
    """Repeated explains are byte-identical in both formats."""
    targets = [
        ("youth.tcw", "S3"),
        ("friends.tcw", "S1"),
        ("sitin.tcw", "S1"),
        ("centuries.tcw", "S4"),
        ("origins.tcw", "S2"),
        ("missing.tcw", "S1"),
    ]
    for name, sid in targets:
        for fmt in ("text", "json"):
            outputs = set()
            for _ in range(3):
                code = run(["explain", str(FIXTURES / name), sid, "--format", fmt])
                assert code == 0
                outputs.add(capsys.readouterr().out.encode())
            assert len(outputs) == 1, (name, fmt)
            if fmt == "json":
                json.loads(outputs.pop())
    print("criterion 8 (byte-identical explain in both formats): PASS")
