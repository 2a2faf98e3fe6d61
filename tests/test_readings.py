from __future__ import annotations

import pickle
import random
from copy import deepcopy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import tempcoll.core
from conftest import int_digit_limit, load_world
from tempcoll import (
    Decision,
    FiredRule,
    Instantiation,
    LifespanCheck,
    MODE_DICTO,
    MODE_RE,
    MalformedStatement,
    Reading,
    Slice,
    TimeRef,
    UnknownCollection,
    Witness,
    WorldBuilder,
    analyze,
    cohort_disjoint,
    decide_mode,
    enumerate_readings,
    evaluate_reading,
    instantiate,
    lifespan_check,
    parse_world,
)
from worldgen import random_statement_world

P = TimeRef.point


# ---------------------------------------------------------------------------
# decide_mode on the sentence fixtures


def test_sitin_defaults_to_de_re(sitin):
    decision = decide_mode(sitin, sitin.statements["S1"])
    assert decision.mode == MODE_RE
    assert decision.rule_ids == ("R0",)


def test_origins_forced_by_fixed_property(origins):
    decision = decide_mode(origins, origins.statements["S2"])
    assert decision.mode == MODE_DICTO
    assert decision.rule_ids == ("R1",)


def test_youth_forced_by_cohort(youth):
    decision = decide_mode(youth, youth.statements["S3"])
    assert decision.mode == MODE_DICTO
    assert decision.rule_ids == ("R2",)


def test_centuries_forced_by_lifespan(centuries):
    decision = decide_mode(centuries, centuries.statements["S4"])
    assert decision.mode == MODE_DICTO
    assert decision.rule_ids == ("R3",)


def test_friends_defaults_to_de_re(friends):
    decision = decide_mode(friends, friends.statements["S1"])
    assert decision.mode == MODE_RE
    assert decision.rule_ids == ("R0",)


def test_explicit_mode_overrides(friends):
    stmt = friends.statements["S1"]._replace(explicit_mode=MODE_DICTO)
    decision = decide_mode(friends, stmt)
    assert decision.mode == MODE_DICTO
    assert decision.rule_ids == ("E0",)


def test_every_fired_rule_is_justified(youth, origins, centuries):
    for world, sid in ((youth, "S3"), (origins, "S2"), (centuries, "S4")):
        for rule in decide_mode(world, world.statements[sid]).fired_rules:
            assert rule.justification


def test_decide_is_deterministic(friends, youth):
    for world, sid in ((friends, "S1"), (youth, "S3")):
        stmt = world.statements[sid]
        assert analyze(world, stmt) == analyze(world, stmt)


def test_unknown_subject_is_malformed(friends):
    stmt = friends.statements["S1"]._replace(subject="nope")
    with pytest.raises(UnknownCollection, match=r"^unknown collection 'nope'$"):
        decide_mode(friends, stmt)


def test_all_applicable_rules_are_recorded_in_order():
    # cohort subject + fixed property + span past the bound: R1, R2, R3
    builder = WorldBuilder()
    for name, birth in (("x1", 1700), ("x2", 1800)):
        builder.add_entity(name, TimeRef(birth, birth + 80), species="human")
    builder.add_predicate("cohort_of", 1, invariant=False, cohort=True)
    builder.add_predicate("birthplace", 2, invariant=True)
    builder.add_fact("cohort_of", ("x1",), 1710)
    builder.add_fact("cohort_of", ("x2",), 1810)
    builder.add_fact("birthplace", ("x1", "north"), None)
    builder.add_collection("G", "cohort_of", ("_",))
    builder.add_statement(
        "S",
        "G",
        evolutive=True,
        compared_property="birthplace",
        direction="less",
        property_pattern=("_", "north"),
        eval_times=(1710, 1810),
        span=TimeRef(1700, 1950),
        species_bound=130,
    )
    world = builder.build()
    decision = decide_mode(world, world.statements["S"])
    assert decision.mode == MODE_DICTO
    assert decision.rule_ids == ("R1", "R2", "R3")


def test_unknown_reading_kind_is_rejected(friends):
    reading = Reading("bogus", MODE_RE, "formula")  # type: ignore[arg-type]
    with pytest.raises(MalformedStatement, match="unknown reading kind 'bogus'"):
        evaluate_reading(friends, friends.statements["S1"], reading)


def test_more_than_two_times_rejected_for_directional_readings(friends):
    with pytest.raises(MalformedStatement, match="exactly two evaluation times"):
        friends.statements["S1"]._replace(eval_times=(2002, 2003, 2004), span=TimeRef(2002, 2004))


def test_each_realization_is_looked_up_once(monkeypatch):
    # friends S1 realizes friend(_, paul) at 2002 and 2003: R2 and R3
    # both need it, and so do the readings, whose anchor is 2002. Each
    # key reaches the hole index once; every repeat is a memo hit, which
    # returns before the pattern's hole is checked.
    lookups = []
    hole_index = tempcoll.core.hole_index

    def spy(pattern):
        lookups.append(pattern)
        return hole_index(pattern)

    monkeypatch.setattr(tempcoll.core, "hole_index", spy)
    world = load_world("friends.tcw")
    decide_mode(world, world.statements["S1"])
    assert len(lookups) == 2
    lookups.clear()
    world = load_world("friends.tcw")
    analyze(world, world.statements["S1"])
    assert len(lookups) == 2


# ---------------------------------------------------------------------------
# cohort_disjoint


def test_cohorts_disjoint_in_youth(youth):
    stmt = youth.statements["S3"]
    assert cohort_disjoint(youth, "Y", stmt.eval_times)


def test_friends_share_members(friends):
    stmt = friends.statements["S1"]
    assert not cohort_disjoint(friends, "F", stmt.eval_times)


def test_single_shared_member_defeats_disjointness(origins):
    # s2 and s3 are enrolled in both years
    assert not cohort_disjoint(origins, "SC", (2002, 2003))


def test_empty_realization_is_not_a_cohort(centuries):
    # nobody is alive at 1950, which proves nothing about re-realization
    assert not cohort_disjoint(centuries, "A4", (1700, 1950))


# ---------------------------------------------------------------------------
# lifespan_check


def test_span_exceeds_declared_bound(centuries):
    check = lifespan_check(centuries, centuries.statements["S4"])
    assert check.exceeds
    assert check.bound == 130
    assert check.span_length == 250


def test_short_span_fits_bound(friends):
    stmt = friends.statements["S1"]._replace(species_bound=130)
    check = lifespan_check(friends, stmt)
    assert not check.exceeds
    assert check.span_length == 1


def test_member_lifespans_bound_when_undeclared(youth):
    check = lifespan_check(youth, youth.statements["S3"])
    assert not check.exceeds
    assert check.bound == 90


def test_open_span_without_bound_is_unbounded():
    builder = WorldBuilder()
    builder.add_predicate("p", 1, invariant=False)
    builder.add_collection("C", "p", ("_",))
    builder.add_statement(
        "S",
        "C",
        evolutive=False,
        compared_property="p",
        direction="changed",
        eval_times=(0, 1),
        span=TimeRef(0, None),
    )
    world = builder.build()
    assert lifespan_check(world, world.statements["S"]) == LifespanCheck(False, None, None)
    # with no finite comparison available, R3 stays quiet and R0 applies
    # (the extension is empty at both times, so R2 stays quiet too)
    assert decide_mode(world, world.statements["S"]).rule_ids == ("R0",)


def test_open_span_exceeds_any_declared_bound():
    builder = WorldBuilder()
    builder.add_entity("e0", TimeRef(0, 80))
    builder.add_predicate("p", 1, invariant=False)
    builder.add_fact("p", ("e0",), 0)
    builder.add_collection("C", "p", ("_",))
    builder.add_statement(
        "S",
        "C",
        evolutive=False,
        compared_property="p",
        direction="changed",
        eval_times=(0, 1),
        span=TimeRef(0, None),
        species_bound=130,
    )
    world = builder.build()
    check = lifespan_check(world, world.statements["S"])
    assert check.exceeds and check.bound == 130 and check.span_length is None


# ---------------------------------------------------------------------------
# enumerate_readings


def test_dicto_licenses_only_the_ratio(youth):
    readings = enumerate_readings(youth, youth.statements["S3"], MODE_DICTO)
    assert [r.kind for r in readings] == ["ratio_evolution"]


def test_de_re_measure_licenses_two_readings(friends):
    readings = enumerate_readings(friends, friends.statements["S1"], MODE_RE)
    assert [r.kind for r in readings] == ["individual_evolution", "global_aggregate"]


def test_de_re_predicate_licenses_only_the_ratio(sitin):
    readings = enumerate_readings(sitin, sitin.statements["S1"], MODE_RE)
    assert [r.kind for r in readings] == ["ratio_evolution"]


# ---------------------------------------------------------------------------
# evaluate_reading


def test_youth_ratio_reading_true(youth):
    decision = analyze(youth, youth.statements["S3"])
    (reading,) = decision.readings
    assert reading.truth is True
    details = {w.label: w.detail for w in reading.witnesses}
    assert details == {"ratio@2002": "2/4 = 1/2", "ratio@2003": "2/5"}


def test_friends_individual_reading_true_with_witnesses(friends):
    decision = analyze(friends, friends.statements["S1"])
    individual, aggregate = decision.readings
    assert individual.truth is True
    assert [(w.label, w.detail) for w in individual.witnesses] == [
        ("f1", "8 < 10"),
        ("f2", "4 < 5"),
    ]
    assert aggregate.truth is True
    assert [(w.label, w.detail) for w in aggregate.witnesses] == [
        ("sum@2002", "15"),
        ("sum@2003", "12"),
    ]


def test_reversed_direction_reports_counterexamples(friends):
    stmt = friends.statements["S1"]
    flipped = stmt._replace(profile=stmt.profile._replace(direction="more"))
    decision = analyze(friends, flipped)
    individual, aggregate = decision.readings
    assert individual.truth is False
    assert {w.label for w in individual.witnesses} == {"f1", "f2"}
    assert all("not >" in w.detail for w in individual.witnesses)
    assert aggregate.truth is False


def test_missing_measure_is_undefined_not_a_crash(missing):
    decision = analyze(missing, missing.statements["S1"])
    individual, aggregate = decision.readings
    assert individual.truth is None
    assert individual.reason == "missing measure cons_tobacco for f3@2003"
    assert aggregate.truth is None
    assert aggregate.reason == "missing measure cons_tobacco for f3@2003"


def test_measure_property_under_dicto_is_undefined(friends):
    stmt = friends.statements["S1"]._replace(explicit_mode=MODE_DICTO)
    decision = analyze(friends, stmt)
    (reading,) = decision.readings
    assert reading.kind == "ratio_evolution"
    assert reading.truth is None
    assert "measure" in (reading.reason or "")


# Member a lives at the anchor and at 0 but not at 10; b at the anchor
# and at 10 but not at 0, so each evaluation time drops one member.
_DROPS_AT_BOTH_TICKS = """\
entity a lifespan [0, 7]
entity b lifespan [3, 20]
pred p arity 1 mutable
fact p(a) @ 5
fact p(b) @ 5
measure m(a) @ 5 = 1
collection C re@5 := p(_)
statement S subject C profile evolutive property m direction less times 0, 10 span [0, 10]
"""


@pytest.mark.parametrize(
    "kind,reason",
    [
        ("ratio_evolution", "ratio reading needs a predicate property; 'm' is a measure"),
        ("individual_evolution", "member b has no slice at 0: life span is [3, 20]"),
        ("global_aggregate", "member b has no slice at 0: life span is [3, 20]"),
    ],
)
def test_undefined_reason_order_with_members_dropped_at_both_ticks(kind, reason):
    # A ratio reading over a measure is undefined before any member is
    # realized; otherwise the earlier tick's dropped member is named.
    world, diagnostics = parse_world(_DROPS_AT_BOTH_TICKS)
    assert diagnostics == []
    reading = evaluate_reading(world, world.statements["S"], Reading(kind, MODE_RE, "f"))
    assert (reading.truth, reading.reason, reading.witnesses) == (None, reason, ())


def test_individual_evolution_needs_fixed_membership(youth):
    reading = Reading("individual_evolution", MODE_DICTO, "f")
    reading = evaluate_reading(youth, youth.statements["S3"], reading)
    assert reading.truth is None
    assert reading.reason == (
        "membership is not fixed across the evaluation times; "
        "an individual evolution needs a de re subject"
    )


def test_measure_witnesses_write_numbers_past_the_digit_limit():
    # Each literal has the most digits that int() reads under the default
    # limit, so the world parses; the sum at 1 has one digit more, and so
    # has the denominator of the decimal at 2.
    nines, tiny = "9" * 4300, "0." + "0" * 4299 + "1"
    text = "".join(
        f"entity {e} lifespan [0, 10]\nfact p({e}) @ 1\nfact p({e}) @ 2\n"
        f"measure m({e}) @ 1 = {nines}\nmeasure m({e}) @ 2 = {tiny}\n"
        for e in ("a", "b")
    )
    text += (
        "pred p arity 1 mutable\ncollection C re@1 := p(_)\n"
        "statement S subject C profile evolutive property m direction less times 1, 2 span [1, 2]\n"
    )
    with int_digit_limit(4300):
        world, diagnostics = parse_world(text)
        assert diagnostics == []
        decision = analyze(world, world.statements["S"])
    individual, aggregate = decision.readings
    assert individual.truth is True and aggregate.truth is True
    assert [(w.label, w.detail) for w in individual.witnesses] == [
        (e, f"1/1{'0' * 4300} < {nines}") for e in ("a", "b")
    ]
    assert [(w.label, w.detail) for w in aggregate.witnesses] == [
        ("sum@1", "1" + "9" * 4299 + "8"),
        ("sum@2", f"1/5{'0' * 4299}"),
    ]


def test_analyze_writes_ticks_past_the_digit_limit():
    # A world built in code may hold ticks that str() cannot write; the
    # decision and the readings name them in full.
    t, early, late = 10**5000, "1" + "0" * 5000, "1" + "0" * 4999 + "1"
    builder = WorldBuilder()
    for e in ("a", "b"):
        builder.add_entity(e, TimeRef(t, t + 10))
    builder.add_predicate("p", 1)
    builder.add_predicate("q", 1)
    builder.add_predicate("r", 1, cohort=True)
    for e, late_value in (("a", 2), ("b", 3)):
        for tick in (t, t + 1):
            builder.add_fact("p", (e,), tick)
        builder.add_measure("m", e, t, Fraction(1))
        builder.add_measure("m", e, t + 1, Fraction(late_value))
    builder.add_fact("r", ("a",), t)
    builder.add_fact("r", ("b",), t + 1)
    builder.add_fact("q", ("b",), t + 1)
    builder.add_collection("C", "p", ("_",), t)
    builder.add_collection("D", "r", ("_",))
    for statement_id, subject, prop in (("S1", "C", "m"), ("S2", "D", "q")):
        builder.add_statement(
            statement_id, subject, True, prop, "more", (t, t + 1), TimeRef(t, t + 1)
        )
    world = builder.build()
    with int_digit_limit(4300):
        re_measure = analyze(world, world.statements["S1"])
        dicto_predicate = analyze(world, world.statements["S2"])
    assert re_measure.mode == MODE_RE and re_measure.rule_ids == ("R0",)
    assert [(r.formula, r.truth) for r in re_measure.readings] == [
        (f"for each member x of C fixed at {early}: m(x@{late}) > m(x@{early})", True),
        (f"sum m over C@{late} > sum m over C@{early}", True),
    ]
    assert [(w.label, w.detail) for w in re_measure.readings[1].witnesses] == [
        (f"sum@{early}", "2"),
        (f"sum@{late}", "5"),
    ]
    assert dicto_predicate.mode == MODE_DICTO
    assert dicto_predicate.fired_rules[0].justification == (
        f"'r' defines a fresh cohort at each time; realizations at {early}, {late} "
        "cannot share members"
    )
    (ratio_reading,) = dicto_predicate.readings
    assert ratio_reading.formula == (
        f"ratio(D@{late} | q(_), D@{late}) > ratio(D@{early} | q(_), D@{early})"
    )
    assert ratio_reading.truth is True
    assert [(w.label, w.detail) for w in ratio_reading.witnesses] == [
        (f"ratio@{early}", "0/1 = 0"),
        (f"ratio@{late}", "1/1 = 1"),
    ]


def test_sitin_static_claim_of_change_is_false(sitin):
    decision = analyze(sitin, sitin.statements["S1"])
    (reading,) = decision.readings
    assert reading.truth is False  # the sitting share stays 3/3


# ---------------------------------------------------------------------------
# rule soundness and reading properties on generated worlds


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_r2_soundness(seed):
    world = random_statement_world(random.Random(seed))
    stmt = world.statements["S"]
    decision = decide_mode(world, stmt)
    coll = world.collections[stmt.subject]
    if "R2" in decision.rule_ids and not world.predicates[coll.predicate].cohort:
        ids = [
            {
                s.entity_id
                for s in instantiate(
                    world,
                    coll._replace(anchor=None),
                    t,
                    "lenient",
                ).members
            }
            for t in stmt.eval_times
        ]
        assert not (ids[0] & ids[1])


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_r1_soundness(seed):
    # When R1 fires, the compared property's extension cannot flip for
    # anyone alive at both evaluation times.
    world = random_statement_world(random.Random(seed), measure_property=False)
    stmt = world.statements["S"]
    if "R1" not in decide_mode(world, stmt).rule_ids:
        return
    prop = stmt.profile.compared_property
    pattern = stmt.profile.property_pattern or ("_",)
    t1, t2 = (P(t) for t in stmt.eval_times)
    ids1 = oracle.extension_ids(world, prop, pattern, t1)
    ids2 = oracle.extension_ids(world, prop, pattern, t2)
    for entity in world.entities.values():
        if oracle.covers(entity.lifespan, t1) and oracle.covers(entity.lifespan, t2):
            assert (entity.id in ids1) == (entity.id in ids2)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_individual_implies_global(seed):
    world = random_statement_world(
        random.Random(seed), measure_property=True, directions=("less", "more")
    )
    stmt = world.statements["S"]
    individual, aggregate = (
        evaluate_reading(world, stmt, r)
        for r in enumerate_readings(world, stmt, MODE_RE)
    )
    if individual.truth is True and aggregate.truth is not None:
        anchor_members = instantiate(
            world, world.collections["C"], stmt.eval_times[0], "lenient"
        )
        if anchor_members.members:
            assert aggregate.truth is True


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_readings_agree_with_oracle(seed):
    world = random_statement_world(random.Random(seed))
    stmt = world.statements["S"]
    decision = analyze(world, stmt)
    for reading in decision.readings:
        if reading.kind == "ratio_evolution":
            expected = oracle.ratio_reading(world, stmt, decision.mode)
        elif reading.kind == "individual_evolution":
            expected = oracle.individual_reading(world, stmt)
        else:
            expected = oracle.global_reading(world, stmt)
        got = "undefined" if reading.truth is None else reading.truth
        assert got == expected, (reading.kind, reading.reason)


@given(st.integers(0, 10**9))
@settings(max_examples=300, deadline=None)
def test_analyze_agrees_with_oracle_decision(seed):
    world = random_statement_world(random.Random(seed))
    stmt = world.statements["S"]
    decision = analyze(world, stmt)
    mode, rule_ids = oracle.decide(world, stmt)
    assert (decision.mode, decision.rule_ids) == (mode, rule_ids)
    got = [
        (r.kind, "undefined" if r.truth is None else r.truth) for r in decision.readings
    ]
    assert got == oracle.readings(world, stmt, mode)


# ---------------------------------------------------------------------------
# the query records

_WITNESS = Witness("x", "1 < 2")
_READING = Reading("ratio_evolution", MODE_RE, "f", True, None, (_WITNESS,))
# (record, its pinned repr), for the three query modules' records.
_RECORDS = [
    (Slice("a", 2002, True), "Slice(entity_id='a', at=2002, invariant=True)"),
    (Slice("b", -3), "Slice(entity_id='b', at=-3, invariant=False)"),
    (
        Instantiation("C", 2002, frozenset({Slice("a", 2002)}), frozenset({"b"}), "C@2002"),
        "Instantiation(source='C', at=2002, members=frozenset({Slice(entity_id='a', "
        "at=2002, invariant=False)}), dropped=frozenset({'b'}), label='C@2002')",
    ),
    (
        Instantiation("C", 1, frozenset()),
        "Instantiation(source='C', at=1, members=frozenset(), dropped=frozenset(), label='')",
    ),
    (FiredRule("R0", "why"), "FiredRule(id='R0', justification='why')"),
    (_WITNESS, "Witness(label='x', detail='1 < 2')"),
    (
        _READING,
        "Reading(kind='ratio_evolution', mode='de_re', formula='f', truth=True, "
        "reason=None, witnesses=(Witness(label='x', detail='1 < 2'),))",
    ),
    (
        Decision(MODE_DICTO, (FiredRule("R2", "j"),), (_READING,)),
        "Decision(mode='de_dicto', fired_rules=(FiredRule(id='R2', justification='j'),), "
        "readings=(Reading(kind='ratio_evolution', mode='de_re', formula='f', truth=True, "
        "reason=None, witnesses=(Witness(label='x', detail='1 < 2'),)),))",
    ),
    (LifespanCheck(True, 3), "LifespanCheck(exceeds=True, bound=3, span_length=None)"),
]


@pytest.mark.parametrize("record, text", _RECORDS)
def test_query_records_keep_repr_hash_pickle_and_immutability(record, text):
    assert repr(record) == text
    for twin in (pickle.loads(pickle.dumps(record)), deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and not twin != record and hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, type(record).__match_args__[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize(
    "record",
    [r for r, _ in _RECORDS if not isinstance(r, (Slice, Instantiation))],
    ids=lambda r: type(r).__name__,
)
def test_readings_records_are_the_tuples_of_their_fields(record):
    # As a `Fact` is; a `Slice` or an `Instantiation` never is. So two
    # records of different types with equal fields are equal too.
    assert record == tuple(record) and hash(record) == hash(tuple(record))


def test_readings_records_of_different_types_with_equal_fields_are_equal():
    assert FiredRule("R0", "x") == Witness("R0", "x")
    assert hash(FiredRule("R0", "x")) == hash(Witness("R0", "x"))
    assert len({FiredRule("R0", "x"), Witness("R0", "x")}) == 1
