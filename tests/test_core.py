from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from tempcoll import (
    ArityMismatch,
    MissingMeasure,
    MultipleHoles,
    OutsideLifeSpan,
    TimeRef,
    UnknownEntity,
    UnknownPredicate,
    WorldBuilder,
    extension,
    measure_value,
    slice_at,
    within,
)
from worldgen import CONSTANTS, random_world

P = TimeRef.point


# ---------------------------------------------------------------------------
# within


def test_within_open_end():
    assert within(P(2002), TimeRef(1984, None))


def test_within_overhang():
    assert not within(TimeRef(1700, 1950), TimeRef(1700, 1830))


@given(st.integers(-(10**6), 10**6))
def test_within_identity_point(t):
    assert within(P(t), P(t))
    assert P(t) == TimeRef(t, t)  # a point is the degenerate interval


@given(
    st.integers(-100, 100),
    st.integers(0, 50),
    st.integers(-100, 100),
    st.integers(0, 50),
)
def test_within_is_interval_containment(a, da, b, db):
    t = TimeRef(a, a + da)
    span = TimeRef(b, b + db)
    expected = all(b <= tick <= b + db for tick in (a, a + da))
    assert within(t, span) == expected


def test_open_t_never_fits_closed_span():
    assert not within(TimeRef(0, None), TimeRef(0, 10))
    assert within(TimeRef(5, None), TimeRef(0, None))


# ---------------------------------------------------------------------------
# slice_at


def test_slice_inside_lifespan(friends):
    s = slice_at(friends, "f1", P(2002))
    assert s.entity_id == "f1" and s.at == P(2002) and not s.out_of_span


def test_slice_outside_lifespan_strict(centuries):
    assert centuries.entities["ab1"].lifespan == TimeRef(1700, 1780)
    with pytest.raises(OutsideLifeSpan):
        slice_at(centuries, "ab1", P(1950), "strict")


def test_slice_outside_lifespan_lenient(centuries):
    s = slice_at(centuries, "ab1", P(1950), "lenient")
    assert s.out_of_span


def test_slice_unknown_entity(friends):
    with pytest.raises(UnknownEntity):
        slice_at(friends, "nobody", P(2002))


def test_invariant_entity_slices_are_equal():
    builder = WorldBuilder()
    builder.add_entity("france", TimeRef(1500, None), invariant=True)
    world = builder.build()
    a = slice_at(world, "france", P(1900))
    b = slice_at(world, "france", P(2000))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_mutable_entity_slices_differ(friends):
    assert slice_at(friends, "f1", P(2002)) != slice_at(friends, "f1", P(2003))


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_slice_equality_laws(seed):
    world = random_world(random.Random(seed), max_entities=6)
    rng = random.Random(seed + 1)
    slices = [
        slice_at(world, e, P(rng.choice(range(2000, 2005))), "lenient")
        for e in world.entities
        for _ in range(2)
    ]
    # the same stages with the invariant flag flipped: never equal to the
    # originals, whichever side is asked
    slices += [replace(s, invariant=not s.invariant) for s in slices]
    for x in slices:
        assert x == x
        for y in slices:
            assert (x == y) == (y == x)
            if x.invariant != y.invariant:
                assert x != y
            if x == y:
                assert hash(x) == hash(y)
            for z in slices:
                if x == y and y == z:
                    assert x == z


# ---------------------------------------------------------------------------
# extension


def test_extension_cohort_2002(youth):
    got = extension(youth, "eighteen", ("_",), P(2002))
    assert {s.entity_id for s in got} == {"a", "b", "c", "d"}
    assert all(s.at == P(2002) for s in got)


def test_extension_smokers_2003(youth):
    got = extension(youth, "smokes", ("_", "tobacco"), P(2003))
    assert {s.entity_id for s in got} == {"e", "f"}


def test_extension_invariant_property_is_stable(origins):
    ids_by_tick = [
        {s.entity_id for s in extension(origins, "origin", ("_", "lower_class"), P(t))}
        for t in (2002, 2003)
    ]
    assert ids_by_tick[0] == ids_by_tick[1] == {"s1"}


def test_extension_errors(youth):
    with pytest.raises(UnknownPredicate):
        extension(youth, "drinks", ("_",), P(2002))
    with pytest.raises(ArityMismatch):
        extension(youth, "smokes", ("_",), P(2002))
    with pytest.raises(MultipleHoles):
        extension(youth, "smokes", ("_", "_"), P(2002))
    with pytest.raises(MultipleHoles):
        extension(youth, "smokes", ("a", "tobacco"), P(2002))


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_extension_matches_oracle_and_respects_lifespans(seed):
    world = random_world(random.Random(seed))
    for coll in world.collections.values():
        for tick in range(2000, 2005):
            got = extension(world, coll.predicate, coll.pattern, P(tick))
            assert {s.entity_id for s in got} == oracle.extension_ids(
                world, coll.predicate, coll.pattern, P(tick)
            )
            for s in got:
                assert oracle.covers(world.entities[s.entity_id].lifespan, P(tick))


# points inside and around the generated ticks, a closed interval, and an
# open-ended one
ORACLE_TIMES = tuple(P(tick) for tick in range(1999, 2006)) + (
    TimeRef(2001, 2003),
    TimeRef(2002, None),
)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_extension_index_matches_oracle_on_every_pattern(seed):
    # Every predicate, the hole in every position, the other positions
    # filled from the fact arguments and the constants, at point,
    # interval and open-ended times. random_world states invariant facts
    # at one tick or as always, and puts constants in hole positions.
    world = random_world(random.Random(seed))
    for decl in world.predicates.values():
        fillers = {a for f in world.facts_for(decl.name) for a in f.args}
        fillers.update(CONSTANTS)
        for hole in range(decl.arity):
            for others in itertools.product(sorted(fillers), repeat=decl.arity - 1):
                pattern = others[:hole] + ("_",) + others[hole:]
                for t in ORACLE_TIMES:
                    got = extension(world, decl.name, pattern, t)
                    ids = {s.entity_id for s in got}
                    assert ids == oracle.extension_ids(world, decl.name, pattern, t)
                    assert ids <= set(world.entities), "constants have no slices"
                    assert all(s.at == t for s in got)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_invariant_extension_stable_while_alive(seed):
    # For an invariant predicate, membership cannot flip between two
    # ticks that both fall inside an entity's life span.
    world = random_world(random.Random(seed))
    for decl in world.predicates.values():
        if not decl.invariant or decl.arity != 1:
            continue
        for t1 in range(2000, 2005):
            for t2 in range(t1 + 1, 2005):
                ids1 = {s.entity_id for s in extension(world, decl.name, ("_",), P(t1))}
                ids2 = {s.entity_id for s in extension(world, decl.name, ("_",), P(t2))}
                for entity in world.entities.values():
                    if within(P(t1), entity.lifespan) and within(P(t2), entity.lifespan):
                        assert (entity.id in ids1) == (entity.id in ids2)


# ---------------------------------------------------------------------------
# measure_value


def test_measure_values(friends):
    assert measure_value(friends, "cons_tobacco", slice_at(friends, "f1", P(2002))) == 10
    assert measure_value(friends, "cons_tobacco", slice_at(friends, "f2", P(2003))) == 4


def test_measure_missing_is_an_error_not_zero(friends):
    with pytest.raises(MissingMeasure) as exc:
        measure_value(friends, "cons_cannabis", slice_at(friends, "f1", P(2002)))
    assert str(exc.value) == "missing measure cons_cannabis for f1@2002"


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_measure_value_never_fabricates(seed):
    world = random_world(random.Random(seed))
    for measure in ("m0", "m1"):
        for entity_id in world.entities:
            for tick in range(2000, 2005):
                s = slice_at(world, entity_id, P(tick), "lenient")
                recorded = world.measures.get((measure, entity_id, tick))
                if recorded is None:
                    with pytest.raises(MissingMeasure):
                        measure_value(world, measure, s)
                else:
                    value = measure_value(world, measure, s)
                    assert value == recorded
                    assert isinstance(value, Fraction)
