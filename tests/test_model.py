from __future__ import annotations

import pickle
import random
from copy import deepcopy
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_digit_limit, load_world
from tempcoll import (
    Collection,
    Fact,
    InvalidDeclaration,
    MalformedStatement,
    MultipleHoles,
    PredicateDecl,
    PredicationProfile,
    Slice,
    TimeRef,
    World,
    WorldBuilder,
    extension,
    instantiate,
)
from worldgen import random_statement_world, random_world


def _statement_builder() -> WorldBuilder:
    builder = WorldBuilder()
    builder.add_entity("a", TimeRef(1990, 2030))
    builder.add_predicate("p", 1)
    builder.add_fact("p", ("a",), 2002)
    builder.add_measure("m", "a", 2002, Fraction(3))
    builder.add_collection("C", "p", ("_",))
    return builder


def test_add_fact_returns_a_warning_outside_an_entity_life_span():
    builder = WorldBuilder()
    builder.add_entity("a", TimeRef(2000, 2001))
    builder.add_entity("b", TimeRef(1990, 2010))
    builder.add_predicate("p", 2)
    builder.add_predicate("q", 1, invariant=True)
    # The first entity argument whose life span misses the tick is named.
    assert builder.add_fact("p", ("b", "a"), 2004) == (
        "fact p(b, a) @ 2004 falls outside the life span of a ([2000, 2001])"
    )
    assert builder.add_fact("p", ("a", "b"), 2011) == (
        "fact p(a, b) @ 2011 falls outside the life span of a ([2000, 2001])"
    )
    assert builder.add_fact("q", ("a",), None) is None
    assert builder.add_fact("q", ("k",), 1800) is None
    assert builder.add_fact("p", ("k", "b"), 2010) is None
    assert builder.add_fact("p", ("a", "b"), 2000) is None


def test_texts_write_ticks_past_the_digit_limit():
    zeros = "0" * 5000
    builder = WorldBuilder()
    builder.add_entity("a", TimeRef(0, 10**5000))
    builder.add_predicate("p", 1)
    with int_digit_limit(4300):
        assert str(TimeRef(0, 10**5000)) == f"[0, 1{zeros}]"
        assert str(TimeRef.point(10**5000)) == f"1{zeros}"
        assert str(Slice("a", 10**5000)) == f"a@1{zeros}"
        with pytest.raises(InvalidDeclaration, match=rf"^empty interval \[1{zeros}, 0\]$"):
            TimeRef(10**5000, 0)
        assert builder.add_fact("p", ("a",), 10**5000 + 1) == (
            f"fact p(a) @ 1{zeros[1:]}1 falls outside the life span of a ([0, 1{zeros}])"
        )


def test_api_only_rejections():
    builder = WorldBuilder()
    builder.add_predicate("p", 1)
    with pytest.raises(InvalidDeclaration, match="facts are ground; '_' is not an argument"):
        builder.add_fact("p", ("_",), 2002)


@pytest.mark.parametrize(
    "declare",
    [
        lambda b: b.add_fact("p", ("a",), TimeRef.point(2002)),
        lambda b: b.add_fact("p", ("k",), TimeRef.point(2002)),
        lambda b: b.add_measure("m", "a", TimeRef.point(2002), Fraction(3)),
        lambda b: b.add_collection("R", "p", ("_",), TimeRef.point(2002)),
        lambda b: b.add_statement(
            "S",
            "C",
            evolutive=True,
            compared_property="m",
            direction="less",
            eval_times=(TimeRef.point(2002), 2003),
            span=TimeRef(2002, 2003),
        ),
    ],
    ids=["fact", "fact-of-constants", "measure", "anchor", "evaluation-time"],
)
def test_a_declared_tick_must_be_an_int(declare):
    # A TimeRef where a tick belongs would build a world whose lookups
    # quietly find nothing; it is refused, and nothing is recorded.
    builder = _statement_builder()
    with pytest.raises(TypeError, match=r"^a tick is an int, got TimeRef\(start=2002, end=2002\)$"):
        declare(builder)
    assert builder.build() == _statement_builder().build()


@pytest.mark.parametrize("value", [0.1, float("nan"), "1", 1], ids=["float", "nan", "str", "int"])
def test_a_measure_value_must_be_a_fraction(value):
    # A float would make sums inexact, and a str would fail later with a
    # bare comparison error; either is refused, and nothing is recorded.
    builder = _statement_builder()
    with pytest.raises(TypeError, match=rf"^a measure value is a Fraction, got {value!r}$"):
        builder.add_measure("m", "a", 2003, value)
    assert builder.build() == _statement_builder().build()


_BOUNDED = {
    "evolutive": True,
    "compared_property": "m",
    "direction": "less",
    "eval_times": (2002, 2003),
    "span": TimeRef(2002, 2003),
}


@pytest.mark.parametrize(
    "declare, message",
    [
        (lambda b: b.add_entity("b", TimeRef(2000.0, 2005)), "a tick is an int, got 2000.0"),
        (lambda b: b.add_entity("b", TimeRef(True, 3)), "a tick is an int, got True"),
        # The type is checked before the interval is found empty.
        (lambda b: b.add_entity("b", TimeRef(2005, 2000.0)), "a tick is an int, got 2000.0"),
        (
            lambda b: b.add_statement("S", "C", **{**_BOUNDED, "span": TimeRef(2002, 2003.0)}),
            "a tick is an int, got 2003.0",
        ),
        (lambda b: b.add_predicate("q", 1.0), "an arity is an int, got 1.0"),
        (lambda b: b.add_predicate("q", True), "an arity is an int, got True"),
        (lambda b: PredicateDecl("q", 1.0), "an arity is an int, got 1.0"),
        (
            lambda b: b.add_statement("S", "C", **_BOUNDED, species_bound=2.5),
            "a species bound is an int, got 2.5",
        ),
        (
            lambda b: b.add_statement("S", "C", **_BOUNDED, species_bound=True),
            "a species bound is an int, got True",
        ),
    ],
    ids=[
        "float-start",
        "bool-start",
        "float-end",
        "float-span",
        "float-arity",
        "bool-arity",
        "float-arity-decl",
        "float-bound",
        "bool-bound",
    ],
)
def test_a_number_render_world_cannot_write_back_is_refused(declare, message):
    # `render_world` writes `[2000.0, 2005]`, `arity True` or `bound 2.5`
    # as given, and `parse_world` rejects each; such a number is refused
    # by the object that holds it, and nothing is recorded.
    builder = _statement_builder()
    with pytest.raises(TypeError, match=rf"^{message}$"):
        declare(builder)
    assert builder.build() == _statement_builder().build()


@pytest.mark.parametrize(
    "declare, message",
    [
        (lambda b: b.add_entity("b", TimeRef(1, 2), invariant="no"), "a flag is a bool, got 'no'"),
        (lambda b: b.add_entity("b", TimeRef(1, 2), invariant=1), "a flag is a bool, got 1"),
        (lambda b: b.add_predicate("q", 1, invariant="no"), "a flag is a bool, got 'no'"),
        (lambda b: b.add_predicate("q", 1, cohort=0), "a flag is a bool, got 0"),
        (lambda b: PredicateDecl("q", 1, None), "a flag is a bool, got None"),
        (
            lambda b: b.add_statement("S", "C", **{**_BOUNDED, "evolutive": "static"}),
            "a flag is a bool, got 'static'",
        ),
    ],
    ids=["str-entity", "int-entity", "str-invariant", "int-cohort", "none-decl", "str-evolutive"],
)
def test_a_flag_that_is_not_a_bool_is_refused(declare, message):
    # `render_world` writes a flag by its truth, so `invariant="no"` would
    # parse back as a different world; the object that holds the flag
    # refuses it, and nothing is recorded.
    builder = _statement_builder()
    with pytest.raises(TypeError, match=rf"^{message}$"):
        declare(builder)
    assert builder.build() == _statement_builder().build()


@pytest.mark.parametrize(
    "declare, message",
    [
        (lambda b: b.add_entity("b", (1990, 2030)), "(1990, 2030)"),
        (
            lambda b: b.add_statement("S", "C", **{**_BOUNDED, "span": (2002, 2003)}),
            "(2002, 2003)",
        ),
    ],
    ids=["life-span", "statement-span"],
)
def test_a_span_that_is_not_a_timeref_is_refused(declare, message):
    # A tuple reads `t in span` by its items and has no bounds, so a
    # world holding one would leave members out of a realization or fail
    # to render; it is refused, and nothing is recorded.
    builder = _statement_builder()
    with pytest.raises(TypeError) as exc:
        declare(builder)
    assert str(exc.value) == f"a span is a TimeRef, got {message}"
    assert builder.build() == _statement_builder().build()


def test_a_record_made_with_lists_stores_tuples():
    # The builder passes tuples; a direct caller or `dataclasses.replace`
    # may pass lists, which the record stores as tuples, so it hashes.
    builder = _statement_builder()
    builder.add_statement("S", "C", True, "p", "less", (2002, 2003), TimeRef(2002, 2003))
    world = builder.build()
    stmt = world.statements["S"]
    profile = replace(stmt.profile, property_pattern=["_"])
    listed = replace(stmt, eval_times=[2002, 2003], profile=profile)
    assert listed == stmt and hash(listed) == hash(stmt)
    twin = replace(world, statements={"S": listed})
    assert twin == world and hash(twin) == hash(world)
    coll = Collection("D", "p", ["_"])
    assert coll == replace(world.collections["C"], name="D")
    assert instantiate(world, coll, 2002).members == instantiate(world, "C", 2002).members


def test_a_fact_keeps_its_repr_and_is_the_tuple_of_its_fields():
    fact = Fact("friend", ("paul", "mary"), 2002)
    assert repr(fact) == "Fact(predicate='friend', args=('paul', 'mary'), at=2002)"
    assert repr(Fact("q", ("a",))) == "Fact(predicate='q', args=('a',), at=None)"
    assert fact == ("friend", ("paul", "mary"), 2002)
    assert hash(fact) == hash(("friend", ("paul", "mary"), 2002))
    predicate, args, at = fact
    assert (predicate, args, at) == (fact.predicate, fact.args, fact.at)
    world = load_world("origins.tcw")  # with `always` facts
    for twin in (pickle.loads(pickle.dumps(world)), deepcopy(world)):
        assert twin == world and hash(twin) == hash(world)
        assert twin.facts == world.facts and all(type(f) is Fact for f in twin.facts)


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=60, deadline=None)
def test_built_facts_are_distinct_and_in_canonical_order(seed, statements):
    # Worlds with `always` facts and predicates of arity 1 and 2, in
    # the builder's order: (predicate, args, timed, tick or 0).
    world = (random_statement_world if statements else random_world)(random.Random(seed))
    facts = list(world.facts)
    assert all(type(f) is Fact for f in facts)
    canonical = sorted(set(facts), key=lambda f: (f.predicate, f.args, f.at is not None, f.at or 0))
    assert facts == canonical


@pytest.mark.parametrize(
    "pattern, anchor, error, message",
    [
        (("f1", "paul"), 2002, MultipleHoles, "needs exactly one '_', found 0"),
        (("_", "_"), None, MultipleHoles, "needs exactly one '_', found 2"),
    ],
    ids=["no-hole", "holes-before-mode"],
)
def test_collection_shape_is_checked_on_construction(pattern, anchor, error, message):
    with pytest.raises(error, match=message):
        Collection("X", "friend", pattern, anchor)


@pytest.mark.parametrize(
    "copy_world", [lambda w: pickle.loads(pickle.dumps(w)), deepcopy], ids=["pickle", "deepcopy"]
)
def test_world_pickles_and_deep_copies_without_its_lazy_state(copy_world):
    world = load_world("youth.tcw")
    queries = [
        (coll.predicate, coll.pattern, tick)
        for coll in world.collections.values()
        for tick in world.ticks
    ]
    realizations = [(name, tick) for name in world.collections for tick in world.ticks]
    answers = [extension(world, *query) for query in queries]
    instances = [instantiate(world, *key) for key in realizations]
    assert world._extensions and world._instantiations
    twin = copy_world(world)
    assert twin == world and hash(twin) == hash(world)
    assert set(vars(twin)) == {f.name for f in fields(World)}
    assert [extension(twin, *query) for query in queries] == answers
    assert [instantiate(twin, *key) for key in realizations] == instances


def test_world_mappings_are_read_only(friends):
    for mapping in (
        friends.entities,
        friends.predicates,
        friends.measures,
        friends.collections,
        friends.statements,
    ):
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]


def test_built_world_does_not_follow_its_builder():
    builder = _statement_builder()
    world = builder.build()
    builder.add_entity("b", TimeRef(1990, 2030))
    assert "b" not in world.entities


def test_two_parses_are_equal_and_hash_equal():
    for name in ("youth.tcw", "friends.tcw", "origins.tcw"):
        first, second = load_world(name), load_world(name)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


@pytest.mark.parametrize("times", [(2002,), (2001, 2002, 2003)])
def test_builder_needs_exactly_two_evaluation_times(times):
    builder = _statement_builder()
    with pytest.raises(MalformedStatement, match="exactly two evaluation times"):
        builder.add_statement(
            "S",
            "C",
            evolutive=True,
            compared_property="m",
            direction="less",
            eval_times=times,
            span=TimeRef(2000, 2005),
        )


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"eval_times": (2002,)}, "exactly two evaluation times, got 1"),
        ({"eval_times": (2003, 2003)}, "must be distinct"),
        ({"span": TimeRef(2002, 2002)}, "span 2002 does not cover evaluation time 2003"),
        ({"species_bound": 0}, "must be a positive tick count"),
        ({"explicit_mode": "sideways"}, "unknown mode 'sideways'"),
        (
            {"profile": PredicationProfile(True, "cons_tobacco", "up")},  # type: ignore[arg-type]
            "unknown direction 'up'",
        ),
    ],
    ids=["one-time", "repeated", "uncovered", "bound", "mode", "direction"],
)
def test_statement_shape_is_checked_on_construction(friends, changes, message):
    # `replace` re-runs the checks, so no statement can skip them.
    with pytest.raises(MalformedStatement, match=message):
        replace(friends.statements["S1"], **changes)


def test_builder_knows_measures_recorded_before_a_statement():
    builder = _statement_builder()
    builder.add_statement(
        "S",
        "C",
        evolutive=True,
        compared_property="m",
        direction="less",
        eval_times=(2002, 2003),
        span=TimeRef(2002, 2003),
    )
    with pytest.raises(MalformedStatement, match="neither a declared predicate"):
        builder.add_statement(
            "T",
            "C",
            evolutive=True,
            compared_property="m_unrecorded",
            direction="less",
            eval_times=(2002, 2003),
            span=TimeRef(2002, 2003),
        )
    assert set(builder.build().statements) == {"S"}


def test_builder_rejects_a_predicate_named_like_a_recorded_measure():
    # The reverse order is rejected by add_measure; without this check the
    # world would hold `m` as both, which render_world cannot round-trip.
    builder = _statement_builder()
    with pytest.raises(InvalidDeclaration, match="'m' is already a measure name"):
        builder.add_predicate("m", 1)
    assert "m" not in builder.build().predicates
