from __future__ import annotations

import gc
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
    MODE_RE,
    Collection,
    EmptyDenominator,
    Instantiation,
    MissingMeasure,
    NotASubset,
    OutsideLifeSpan,
    TempcollError,
    TickMismatch,
    TimeRef,
    UnknownCollection,
    WorldBuilder,
    aggregate_sum,
    cardinality,
    filter_members,
    instantiate,
    parse_world,
    ratio,
    render_world,
)
from conftest import load_world
from worldgen import random_world

P = TimeRef.point


# ---------------------------------------------------------------------------
# instantiate


def test_dicto_instantiation_is_fresh_per_tick(youth):
    inst = instantiate(youth, "Y", 2003)
    assert {s.entity_id for s in inst.members} == {"e", "f", "g", "h", "i"}
    assert inst.dropped == frozenset()
    assert all(s.at == 2003 for s in inst.members)


def test_de_re_membership_fixed_at_anchor(friends):
    at_anchor = instantiate(friends, "F", 2002)
    off_anchor = instantiate(friends, "F", 2003)
    assert at_anchor.member_ids() == off_anchor.member_ids() == {"f1", "f2"}
    assert all(s.at == 2003 for s in off_anchor.members)


def test_empty_extension_instantiates_empty(youth):
    inst = instantiate(youth, "Y", 1999)
    assert inst.members == frozenset()
    assert cardinality(inst) == 0


def test_unknown_collection(youth):
    with pytest.raises(UnknownCollection):
        instantiate(youth, "Z", 2002)


def test_de_re_off_anchor_dead_member(centuries):
    coll = Collection("A", "aborigine", ("_",), 1700)
    with pytest.raises(OutsideLifeSpan):
        instantiate(centuries, coll, 1950, "strict")
    lenient = instantiate(centuries, coll, 1950, "lenient")
    assert lenient.members == frozenset()
    assert lenient.dropped == {"ab1"}  # only ab1 is alive at the anchor


def test_a_strict_instantiation_raises_at_the_least_dropped_member(centuries):
    # ab1 and ab2 are both alive at the anchor and both dead at 1850:
    # the error names ab1, whatever order the realization holds them in.
    coll = Collection("A", "aborigine", ("_",), 1750)
    message = r"^member ab1 of A has no slice at 1850: life span is \[1700, 1780\]$"
    with pytest.raises(OutsideLifeSpan, match=message):
        instantiate(centuries, coll, 1850, "strict")
    assert instantiate(centuries, coll, 1850, "lenient").dropped == {"ab1", "ab2"}


@pytest.mark.parametrize("policy", ["Strict", "lax", "", None])
def test_an_unknown_policy_raises_value_error(centuries, policy):
    # A misspelt policy must not act lenient: A4 drops ab1 at 1800.
    coll = Collection("A4", "aborigine", ("_",), 1750)
    with pytest.raises(ValueError, match=rf"^a policy is 'strict' or 'lenient', got {policy!r}$"):
        instantiate(centuries, coll, 1800, policy)
    with pytest.raises(OutsideLifeSpan):
        instantiate(centuries, coll, 1800, "strict")


@pytest.mark.parametrize("tick", [1750, 1800, 1850])
@pytest.mark.parametrize("order", [("strict", "lenient"), ("lenient", "strict")])
def test_strict_and_lenient_share_one_realization(tick, order):
    # Either policy first, the answers and errors are those of a world
    # asked once under each policy, and the memo keeps one entry.
    coll = Collection("A", "aborigine", ("_",), 1750)
    world = load_world("centuries.tcw")
    got = {policy: _inst_answer(world, (coll, tick, policy)) for policy in order}
    for policy in order:
        assert got[policy] == _inst_answer(load_world("centuries.tcw"), (coll, tick, policy))
    assert len(world._instantiations) == 1


# ---------------------------------------------------------------------------
# filter


def test_filter_smokers(youth):
    y02 = instantiate(youth, "Y", 2002)
    yt02 = filter_members(youth, y02, "smokes", ("_", "tobacco"))
    assert {s.entity_id for s in yt02.members} == {"a", "b"}
    y03 = instantiate(youth, "Y", 2003)
    yt03 = filter_members(youth, y03, "smokes", ("_", "tobacco"))
    assert {s.entity_id for s in yt03.members} == {"e", "f"}


def test_filter_labels_a_one_shot_pattern_in_full(youth):
    # The pattern is read for the extension and again for the label,
    # which a failed ratio's reason quotes.
    whole = filter_members(youth, instantiate(youth, "Yt", 2002), "eighteen", iter(("_",)))
    assert whole.label == "Yt@2002 | eighteen(_)"
    assert whole.member_ids() == {"a", "b"}
    with pytest.raises(NotASubset) as exc:
        ratio(instantiate(youth, "Y", 2002), whole)
    assert str(exc.value) == "Y@2002 is not a subset of Yt@2002 | eighteen(_): c, d"


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_filter_is_intersective_and_idempotent(seed):
    world = random_world(random.Random(seed))
    rng = random.Random(seed + 1)
    coll = world.collections[rng.choice(("Cd", "Cr"))]
    other = world.collections[rng.choice(("Cd", "Cr"))]
    inst = instantiate(world, coll, rng.choice(range(2000, 2005)), "lenient")
    once = filter_members(world, inst, other.predicate, other.pattern)
    assert once.members <= inst.members
    twice = filter_members(world, once, other.predicate, other.pattern)
    assert twice == once


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_instantiation_equality_laws(seed):
    world = random_world(random.Random(seed), max_entities=6)
    rng = random.Random(seed + 1)
    insts = [
        instantiate(world, name, rng.choice(range(2000, 2005)), "lenient")
        for name in ("Cd", "Cr")
        for _ in range(2)
    ]
    # the same realizations under another label: equal, as `label` is
    # display lineage only
    relabeled = [inst._replace(label=inst.label + " again") for inst in insts]
    for inst, twin in zip(insts, relabeled):
        assert inst == twin and twin == inst
        assert not inst != twin and not twin != inst
        assert hash(inst) == hash(twin)
    every = insts + relabeled
    for x in every:
        # never the plain tuple of its fields, whichever side is asked
        assert x != tuple(x) and tuple(x) != x
        assert not x == tuple(x) and not tuple(x) == x
        for y in every:
            assert (x == y) == (y == x)
            assert (x != y) == (not x == y)
            if x == y:
                assert hash(x) == hash(y)


# ---------------------------------------------------------------------------
# cardinality / ratio


def test_cardinalities(youth):
    assert cardinality(instantiate(youth, "Y", 2002)) == 4
    assert cardinality(instantiate(youth, "Y", 2003)) == 5


def test_ratio_values(youth):
    for tick, expected in ((2002, Fraction(1, 2)), (2003, Fraction(2, 5))):
        whole = instantiate(youth, "Y", tick)
        part = filter_members(youth, whole, "smokes", ("_", "tobacco"))
        assert ratio(part, whole) == expected


def test_ratio_identity(youth):
    whole = instantiate(youth, "Y", 2002)
    assert ratio(whole, whole) == 1


def test_ratio_errors(youth):
    y02 = instantiate(youth, "Y", 2002)
    y03 = instantiate(youth, "Y", 2003)
    empty = instantiate(youth, "Y", 1999)
    with pytest.raises(TickMismatch):
        ratio(y02, y03)
    with pytest.raises(NotASubset):
        ratio(y02, instantiate(youth, "Yt", 2002))
    with pytest.raises(EmptyDenominator):
        ratio(empty, empty)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_ratio_monotonicity(seed):
    world = random_world(random.Random(seed))
    rng = random.Random(seed + 1)
    whole = instantiate(world, "Cd", rng.choice(range(2000, 2005)), "lenient")
    if not whole.members:
        return
    members = sorted(whole.members, key=lambda s: s.entity_id)
    k = rng.randrange(len(members))
    sub = Instantiation(whole.source, whole.at, frozenset(members[:k]))
    base = ratio(sub, whole)
    if k < len(members):
        grown = Instantiation(
            whole.source, whole.at, frozenset(members[: k + 1])
        )
        assert ratio(grown, whole) >= base


# ---------------------------------------------------------------------------
# aggregate_sum


def test_sum_values(friends):
    assert aggregate_sum(friends, "cons_tobacco", instantiate(friends, "F", 2002)) == 15
    assert aggregate_sum(friends, "cons_tobacco", instantiate(friends, "F", 2003)) == 12


def test_sum_of_empty_is_zero(youth):
    assert aggregate_sum(youth, "smokes_nothing", instantiate(youth, "Y", 1999)) == 0


def test_sum_missing_measure_names_the_gap(missing):
    inst = instantiate(missing, "F", 2003)
    with pytest.raises(MissingMeasure) as exc:
        aggregate_sum(missing, "cons_tobacco", inst)
    assert str(exc.value) == "missing measure cons_tobacco for f3@2003"


def test_sum_names_the_first_member_without_a_value():
    builder = WorldBuilder()
    builder.add_predicate("p", 1)
    for entity_id in ("b", "a", "c"):
        builder.add_entity(entity_id, TimeRef(0, 10))
        builder.add_fact("p", (entity_id,), 1)
    builder.add_measure("m", "c", 1, Fraction(1, 3))
    builder.add_collection("C", "p", ("_",))
    world = builder.build()
    with pytest.raises(MissingMeasure, match=r"^missing measure m for a@1$"):
        aggregate_sum(world, "m", instantiate(world, "C", 1))


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_sum_additive_over_disjoint_split(seed):
    world = random_world(random.Random(seed))
    rng = random.Random(seed + 1)
    inst = instantiate(world, "Cd", rng.choice(range(2000, 2005)), "lenient")
    members = inst.sorted_members()
    k = rng.randint(0, len(members))
    left = Instantiation(inst.source, inst.at, frozenset(members[:k]))
    right = Instantiation(inst.source, inst.at, frozenset(members[k:]))
    try:
        total = aggregate_sum(world, "m0", inst)
    except MissingMeasure:
        return
    assert aggregate_sum(world, "m0", left) + aggregate_sum(world, "m0", right) == total


# ---------------------------------------------------------------------------
# invariants against the brute-force oracle


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_de_re_composition_never_varies(seed):
    world = random_world(random.Random(seed))
    rng = random.Random(seed + 1)
    t1, t2 = rng.choice(range(2000, 2005)), rng.choice(range(2000, 2005))
    for coll in world.collections.values():
        if coll.mode != MODE_RE:
            continue
        a = instantiate(world, coll, t1, "lenient")
        b = instantiate(world, coll, t2, "lenient")
        assert a.member_ids() | a.dropped == b.member_ids() | b.dropped


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_instantiate_agrees_with_oracle(seed):
    world = random_world(random.Random(seed))
    for coll in world.collections.values():
        for tick in range(2000, 2005):
            inst = instantiate(world, coll, tick, "lenient")
            members, dropped = oracle.instantiate_ids(world, coll, P(tick))
            assert inst.member_ids() == members
            assert inst.dropped == dropped


def test_instantiate_rejects_a_timeref(youth, friends):
    # de dicto (Y) and de re (F): neither may answer for a non-tick
    for world, name in ((youth, "Y"), (friends, "F")):
        with pytest.raises(TypeError, match=r"^a tick is an int, got TimeRef\(start=2002"):
            instantiate(world, name, TimeRef.point(2002))


# ---------------------------------------------------------------------------
# the instantiation memo


def _inst_answer(world, key):
    """What `instantiate` gives for `key`: every field of the
    instantiation, its label too, or the error's type and text."""
    try:
        inst = instantiate(world, *key)
    except (TempcollError, TypeError) as e:
        return type(e), str(e)
    members = sorted((s.entity_id, s.at, s.invariant) for s in inst.members)
    return inst.source, inst.at, inst.label, members, sorted(inst.dropped)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_instantiation_memo_answers_like_a_fresh_world(seed):
    # A shuffled run of keys, each asked twice, by name and by value, under
    # both policies, with strict raises, an unknown name and non-int ticks
    # equal to valid ones: every answer and error equals the one a freshly
    # parsed copy gives, and the memo keeps exactly the (collection, tick)
    # of each call past the tick check and the name lookup.
    rng = random.Random(seed)
    world = random_world(rng)
    text, shown = render_world(world), repr(world)
    keys = [
        (coll, t, policy)
        for name, value in world.collections.items()
        for coll in (name, value)
        for t in (1, 1999, 2000, 2002, 2004, 2005, True, 2002.0, Fraction(2004))
        for policy in ("strict", "lenient")
    ]
    keys += [("nope", 2002, "strict"), ("nope", 2002, "lenient")]
    calls = keys * 2
    rng.shuffle(calls)
    answered = set()
    for key in calls:
        got = _inst_answer(world, key)
        fresh, _ = parse_world(text)
        assert got == _inst_answer(fresh, key)
        if not isinstance(got[0], type) or got[0] is OutsideLifeSpan:
            coll, t, _ = key
            answered.add((world.collection(coll) if isinstance(coll, str) else coll, t))
    fresh, _ = parse_world(text)
    assert world == fresh and hash(world) == hash(fresh)
    assert repr(world) == shown
    assert set(world._instantiations) == answered


def test_instantiation_memo_keys_the_collection_not_its_name():
    # The subject coerced to de dicto shares the de re collection's name:
    # it gets its own answer, not the one kept for the name.
    world = load_world("friends.tcw")
    de_re = world.collection("F")
    de_dicto = Collection(de_re.name, de_re.predicate, de_re.pattern)
    assert instantiate(world, "F", 2004).member_ids() == {"f1", "f2"}
    assert instantiate(world, de_dicto, 2004).member_ids() == set()
    assert instantiate(world, de_re, 2004).member_ids() == {"f1", "f2"}


def test_instantiation_memo_dies_with_the_world():
    world = load_world("youth.tcw")
    instantiate(world, "Y", 2002)
    assert world._instantiations
    ref = weakref.ref(world)
    del world
    gc.collect()
    assert ref() is None


def test_instantiation_memo_under_racing_threads():
    # More threads than cores, switching often, race on the first call
    # for each key of 50 fresh copies of one world: every answer is the
    # unshared one, and each memo keeps one realization per (collection,
    # tick), the unshared lenient answer.
    base = load_world("centuries.tcw")
    keys = [("A4", t, policy) for t in (1700, 1750, 1800, 1850) for policy in ("strict", "lenient")]
    anchored = Collection("A4", "aborigine", ("_",), 1750)
    keys += [(anchored, t, policy) for t in (1750, 1800, 1850) for policy in ("strict", "lenient")]
    expected = {key: _inst_answer(load_world("centuries.tcw"), key) for key in keys}
    worlds = [copy(base) for _ in range(50)]
    wrong = []

    def work():
        for world in worlds:
            wrong.extend(key for key in keys if _inst_answer(world, key) != expected[key])

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
    answered = sum(not isinstance(answer[0], type) for answer in expected.values())
    assert answered < len(keys)  # the strict calls at 1800 and 1850 raise
    realized = {(base.collection(c) if isinstance(c, str) else c, t) for c, t, _ in keys}
    alone = load_world("centuries.tcw")
    for world in worlds:
        assert set(world._instantiations) == realized
        assert all(
            _inst_answer(world, (*key, "lenient")) == _inst_answer(alone, (*key, "lenient"))
            for key in world._instantiations
        )


def test_world_is_not_mutated_by_queries(youth):
    before = (youth.facts, dict(youth.entities), dict(youth.measures))
    instantiate(youth, "Y", 2002)
    filter_members(youth, instantiate(youth, "Y", 2003), "smokes", ("_", "tobacco"))
    assert (youth.facts, dict(youth.entities), dict(youth.measures)) == before
