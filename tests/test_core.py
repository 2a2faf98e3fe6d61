from __future__ import annotations

import gc
import itertools
import random
import sys
import threading
import weakref
from copy import copy
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
    Slice,
    TempcollError,
    TimeRef,
    UnknownEntity,
    UnknownPredicate,
    WorldBuilder,
    extension,
    instantiate,
    measure_value,
    parse_world,
    render_world,
    slice_at,
)
from conftest import load_world
from worldgen import CONSTANTS, random_world

P = TimeRef.point


# ---------------------------------------------------------------------------
# slice_at


def test_slice_inside_lifespan(friends):
    s = slice_at(friends, "f1", 2002)
    assert s.entity_id == "f1" and s.at == 2002


def test_slice_outside_lifespan_strict(centuries):
    assert centuries.entities["ab1"].lifespan == TimeRef(1700, 1780)
    with pytest.raises(OutsideLifeSpan):
        slice_at(centuries, "ab1", 1950)


def test_slice_unknown_entity(friends):
    with pytest.raises(UnknownEntity):
        slice_at(friends, "nobody", 2002)


def test_slice_rejects_a_timeref(friends):
    with pytest.raises(TypeError, match=r"^a tick is an int, got TimeRef\(start=2002"):
        slice_at(friends, "f1", P(2002))


def test_invariant_entity_slices_are_equal():
    builder = WorldBuilder()
    builder.add_entity("france", TimeRef(1500, None), invariant=True)
    world = builder.build()
    a = slice_at(world, "france", 1900)
    b = slice_at(world, "france", 2000)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_mutable_entity_slices_differ(friends):
    assert slice_at(friends, "f1", 2002) != slice_at(friends, "f1", 2003)


def test_a_slice_never_equals_its_text():
    # `__eq__` answers False itself: deferring to the other operand would
    # let `tuple.__eq__` compare a slice with a tuple field by field.
    assert Slice("a", 1).__eq__("a@1") is False
    assert Slice("a", 1) != "a@1"


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_slice_equality_laws(seed):
    world = random_world(random.Random(seed), max_entities=6)
    rng = random.Random(seed + 1)
    # stages inside and outside each life span alike
    slices = [
        Slice(e, rng.choice(range(2000, 2005)), entity.invariant)
        for e, entity in world.entities.items()
        for _ in range(2)
    ]
    # the same stages with the invariant flag flipped: never equal to the
    # originals, whichever side is asked
    slices += [s._replace(invariant=not s.invariant) for s in slices]
    for x in slices:
        assert x == x
        # never the plain tuple of its fields, whichever side is asked
        assert x != tuple(x) and tuple(x) != x
        assert not x == tuple(x) and not tuple(x) == x
        for y in slices:
            assert (x == y) == (y == x)
            assert (x != y) == (not x == y)
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
    got = extension(youth, "eighteen", ("_",), 2002)
    assert {s.entity_id for s in got} == {"a", "b", "c", "d"}
    assert all(s.at == 2002 for s in got)


def test_extension_smokers_2003(youth):
    got = extension(youth, "smokes", ("_", "tobacco"), 2003)
    assert {s.entity_id for s in got} == {"e", "f"}


def test_extension_invariant_property_is_stable(origins):
    ids_by_tick = [
        {s.entity_id for s in extension(origins, "origin", ("_", "lower_class"), t)}
        for t in (2002, 2003)
    ]
    assert ids_by_tick[0] == ids_by_tick[1] == {"s1"}


def test_extension_errors(youth):
    with pytest.raises(UnknownPredicate):
        extension(youth, "drinks", ("_",), 2002)
    with pytest.raises(ArityMismatch):
        extension(youth, "smokes", ("_",), 2002)
    with pytest.raises(MultipleHoles):
        extension(youth, "smokes", ("_", "_"), 2002)
    with pytest.raises(MultipleHoles):
        extension(youth, "smokes", ("a", "tobacco"), 2002)


def test_extension_rejects_a_timeref_and_keeps_nothing():
    world = load_world("youth.tcw")
    with pytest.raises(TypeError, match=r"^a tick is an int, got TimeRef\(start=2002"):
        extension(world, "eighteen", ("_",), P(2002))
    assert world._extensions == {}


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_extension_matches_oracle_and_respects_lifespans(seed):
    world = random_world(random.Random(seed))
    for coll in world.collections.values():
        for tick in range(2000, 2005):
            got = extension(world, coll.predicate, coll.pattern, tick)
            assert {s.entity_id for s in got} == oracle.extension_ids(
                world, coll.predicate, coll.pattern, P(tick)
            )
            for s in got:
                assert oracle.covers(world.entities[s.entity_id].lifespan, P(tick))


# ticks inside and around the generated ones
ORACLE_TIMES = tuple(range(1999, 2006))


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_extension_index_matches_oracle_on_every_pattern(seed):
    # Every predicate, the hole in every position, the other positions
    # filled from the fact arguments and the constants, at every tick in
    # and around the generated ones. random_world states invariant facts
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
                    assert ids == oracle.extension_ids(world, decl.name, pattern, P(t))
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
                ids1 = {s.entity_id for s in extension(world, decl.name, ("_",), t1)}
                ids2 = {s.entity_id for s in extension(world, decl.name, ("_",), t2)}
                for entity in world.entities.values():
                    if t1 in entity.lifespan and t2 in entity.lifespan:
                        assert (entity.id in ids1) == (entity.id in ids2)


def _answer(world, key):
    """What `extension` gives for `key`: the slices, each with its tick
    and invariant flag, or the error's type and message."""
    try:
        got = extension(world, *key)
    except TempcollError as e:
        return type(e), str(e)
    return sorted((s.entity_id, s.at, s.invariant) for s in got)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_extension_memo_answers_like_a_fresh_world(seed):
    # A shuffled run of valid keys, each asked twice, and invalid ones
    # (unknown predicate, wrong arity, two holes or none) on one world:
    # every answer and error equals the one a freshly parsed copy gives,
    # and the valid answers equal the oracle's.
    rng = random.Random(seed)
    world = random_world(rng)
    text, shown = render_world(world), repr(world)
    fillers = sorted({a for f in world.facts for a in f.args} | set(CONSTANTS))
    valid = []
    for decl in world.predicates.values():
        for _ in range(4):
            hole = rng.randrange(decl.arity)
            pattern = tuple(
                "_" if i == hole else rng.choice(fillers) for i in range(decl.arity)
            )
            valid.append((decl.name, pattern, rng.choice(ORACLE_TIMES)))
    invalid = [("nope", ("_",), 2002)]
    for decl in world.predicates.values():
        invalid.append((decl.name, ("_",) * (decl.arity + 1), 2001))
        invalid.append((decl.name, ("_", "_") if decl.arity == 2 else ("c0",), 2003))
    calls = valid * 2 + invalid * 2
    rng.shuffle(calls)
    for key in calls:
        got = _answer(world, key)
        fresh, _ = parse_world(text)
        assert got == _answer(fresh, key)
        if key in valid:
            predicate, pattern, t = key
            ids = oracle.extension_ids(world, predicate, pattern, P(t))
            assert {slice_[0] for slice_ in got} == ids
    fresh, _ = parse_world(text)
    assert world == fresh and hash(world) == hash(fresh)
    assert repr(world) == shown
    assert set(world._extensions) == set(valid)


def test_extension_memo_dies_with_the_world():
    world = load_world("youth.tcw")
    extension(world, "eighteen", ("_",), 2002)
    assert world._extensions
    ref = weakref.ref(world)
    del world
    gc.collect()
    assert ref() is None


def test_extension_memo_under_racing_threads():
    # More threads than cores, switching often, race on the first call
    # for each key of 50 fresh copies of one world: every answer is the
    # unshared one, and so is every answer the memos keep.
    base = load_world("youth.tcw")
    keys = [("eighteen", ("_",), t) for t in (2001, 2002, 2003)]
    keys += [("smokes", ("_", "tobacco"), t) for t in (2002, 2003)]
    expected = {key: _answer(load_world("youth.tcw"), key) for key in keys}
    worlds = [copy(base) for _ in range(50)]
    wrong = []

    def work():
        for world in worlds:
            wrong.extend(key for key in keys if _answer(world, key) != expected[key])

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    for world in worlds:
        assert all(_answer(world, key) == expected[key] for key in world._extensions)


def test_a_memo_hit_still_checks_the_tick():
    # 2002.0, Fraction(2002) and True equal and hash like the int keys
    # kept before them, so a lookup before the check would answer them.
    world = load_world("youth.tcw")
    extension(world, "eighteen", ("_",), 2002)
    extension(world, "eighteen", ("_",), 1)
    for tick in (2002.0, Fraction(2002), True):
        with pytest.raises(TypeError, match=r"^a tick is an int, got "):
            extension(world, "eighteen", ("_",), tick)
    assert set(world._extensions) == {("eighteen", ("_",), 2002), ("eighteen", ("_",), 1)}


# ---------------------------------------------------------------------------
# life-span edges: each inline life-span test agrees with `TimeRef.__contains__`

_HUGE = 10**5000  # past the default int digit limit
_SPANS = (
    TimeRef(2000, 2005),
    TimeRef(2003, 2003),
    TimeRef(2001, None),
    TimeRef(-5, -1),
    TimeRef(_HUGE, _HUGE + 3),
    TimeRef(_HUGE + 1, None),
)


def _edges(span: TimeRef) -> tuple[int, ...]:
    """start - 1, start, end and end + 1; for an open end, ticks past start."""
    start, end = span
    if end is None:
        return (start - 1, start, start + 1, start + _HUGE)
    return (start - 1, start, end, end + 1)


_EDGE_TICKS = sorted({t for span in _SPANS for t in _edges(span)})


def _edge_builder() -> WorldBuilder:
    b = WorldBuilder()
    for i, span in enumerate(_SPANS):
        b.add_entity(f"e{i}", span, invariant=i % 2 == 1)
    b.add_predicate("mut", 1)
    b.add_predicate("inv", 1, invariant=True)
    b.add_predicate("perm", 2, invariant=True)
    return b


def test_add_fact_warns_exactly_outside_the_life_span():
    # A timed fact warns iff its tick is outside the life span of its
    # entity argument, whether its predicate is mutable or invariant; an
    # `always` fact never warns.
    for i, span in enumerate(_SPANS):
        for t in _edges(span):
            b = _edge_builder()
            facts = (("mut", [f"e{i}"]), ("inv", [f"e{i}"]), ("perm", ["k", f"e{i}"]))
            for predicate, args in facts:
                warning = b.add_fact(predicate, args, t)
                assert (warning is None) == (t in span), (predicate, span, t)
                if warning is not None:
                    assert f"outside the life span of e{i}" in warning
            assert b.add_fact("inv", [f"e{i}"], None) is None
            assert b.add_fact("perm", ["k", f"e{i}"], None) is None


def _edge_world():
    # Each entity: a mutable fact at every edge tick of its life span, an
    # invariant fact stated at one tick (before its start, so outside),
    # and an `always` fact; one de re collection anchored at its start.
    b = _edge_builder()
    for i, span in enumerate(_SPANS):
        for t in _edges(span):
            b.add_fact("mut", [f"e{i}"], t)
        b.add_fact("inv", [f"e{i}"], span.start - 1)
        b.add_fact("perm", ["k", f"e{i}"], None)
        b.add_collection(f"R{i}", "perm", ["k", "_"], anchor=span.start)
    b.add_collection("D", "mut", ["_"])
    return b.build()


def _fields(slices) -> list[tuple]:
    return sorted(tuple(s) for s in slices)


def test_extension_keeps_exactly_the_live_members():
    world = _edge_world()
    entities = world.entities.values()
    for t in _EDGE_TICKS:
        stated = {e.id for e in entities if t in _edges(e.lifespan)}
        live = [e for e in entities if t in e.lifespan]
        expected = {
            "mut": _fields(Slice(e.id, t, e.invariant) for e in live if e.id in stated),
            "inv": _fields(Slice(e.id, t, e.invariant) for e in live),
        }
        assert _fields(extension(world, "mut", ("_",), t)) == expected["mut"]
        assert _fields(extension(world, "inv", ("_",), t)) == expected["inv"]
        assert _fields(extension(world, "perm", ("k", "_"), t)) == expected["inv"]
        assert _fields(instantiate(world, "D", t).members) == expected["mut"]


def test_instantiate_keeps_the_live_anchored_members_and_drops_the_rest():
    world = _edge_world()
    for i, anchor_span in enumerate(_SPANS):
        name = f"R{i}"
        anchored = [e for e in world.entities.values() if anchor_span.start in e.lifespan]
        for t in _EDGE_TICKS:
            live = [e for e in anchored if t in e.lifespan]
            dead = {e.id for e in anchored if t not in e.lifespan}
            lenient = instantiate(world, name, t, "lenient")
            assert _fields(lenient.members) == _fields(Slice(e.id, t, e.invariant) for e in live)
            assert lenient.dropped == dead
            if dead:
                with pytest.raises(OutsideLifeSpan, match=f"^member {min(dead)} of {name} "):
                    instantiate(world, name, t, "strict")
            else:
                assert instantiate(world, name, t, "strict") == lenient


# ---------------------------------------------------------------------------
# measure_value


def test_measure_values(friends):
    assert measure_value(friends, "cons_tobacco", slice_at(friends, "f1", 2002)) == 10
    assert measure_value(friends, "cons_tobacco", slice_at(friends, "f2", 2003)) == 4


def test_measure_missing_is_an_error_not_zero(friends):
    with pytest.raises(MissingMeasure) as exc:
        measure_value(friends, "cons_cannabis", slice_at(friends, "f1", 2002))
    assert str(exc.value) == "missing measure cons_cannabis for f1@2002"


def test_measure_value_rejects_a_timeref_tick(friends):
    # f1 has a value at 2002, so a miss here is the tick's type, not a data gap.
    with pytest.raises(TypeError, match=r"^a tick is an int, got TimeRef\(start=2002"):
        measure_value(friends, "cons_tobacco", Slice("f1", P(2002)))


@pytest.mark.parametrize("tick", [2002.0, Fraction(2002)])
def test_measure_value_rejects_a_tick_equal_to_a_recorded_one(friends, tick):
    # The measure key (cons_tobacco, f1, 2002) is recorded, and this tick
    # equals and hashes like 2002.
    with pytest.raises(TypeError, match=r"^a tick is an int, got "):
        measure_value(friends, "cons_tobacco", Slice("f1", tick))


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_measure_value_never_fabricates(seed):
    world = random_world(random.Random(seed))
    for measure in ("m0", "m1"):
        for entity_id in world.entities:
            for tick in range(2000, 2005):
                s = Slice(entity_id, tick, world.entities[entity_id].invariant)
                recorded = world.measures.get((measure, entity_id, tick))
                if recorded is None:
                    with pytest.raises(MissingMeasure):
                        measure_value(world, measure, s)
                else:
                    value = measure_value(world, measure, s)
                    assert value == recorded
                    assert isinstance(value, Fraction)
