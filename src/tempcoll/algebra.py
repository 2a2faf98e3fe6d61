"""Set algebra over collection instantiations.

An instantiation ``S@t`` realizes a collection at a time as a set of
slices. De dicto collections are re-extended at every time; de re
collections keep the membership fixed at their anchor and re-slice it,
so their composition never varies, only the stage under consideration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, NamedTuple

from .core import extension, measure_value
from .errors import EmptyDenominator, NotASubset, OutsideLifeSpan, TickMismatch
from .model import MODE_DICTO, Collection, Policy, Slice, World, check_int, number_text

__all__ = [
    "Instantiation",
    "instantiate",
    "filter_members",
    "cardinality",
    "ratio",
    "aggregate_sum",
]


class Instantiation(NamedTuple):
    """The realization of a collection at one tick.

    `members` are live slices sharing the tick `at`; `dropped` lists the
    entity ids a lenient de re instantiation had to exclude because their
    life spans do not reach `at`. `label` is a display lineage and never
    takes part in equality or hash. An instantiation never equals
    anything else, the plain tuple of its fields included. As a tuple,
    its `len`, `in` and iteration act on the five fields, not on the
    members: test membership with ``s in inst.members``.
    """

    source: str
    at: int
    members: frozenset[Slice]
    dropped: frozenset[str] = frozenset()
    label: str = ""

    def __eq__(self, other: object) -> bool:
        # False, not NotImplemented, for another type: `tuple.__eq__`
        # would answer then and compare the label too.
        if not isinstance(other, Instantiation):
            return False
        return self[:4] == other[:4]

    def __ne__(self, other: object) -> bool:
        # `tuple.__ne__` would compare the labels too.
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:4])

    def member_ids(self) -> frozenset[str]:
        return frozenset(s.entity_id for s in self.members)

    def sorted_members(self) -> list[Slice]:
        return sorted(self.members, key=itemgetter(0))


def instantiate(
    world: World,
    collection: Collection | str,
    t: int,
    policy: Policy = "strict",
) -> Instantiation:
    """Realize a collection at tick `t`.

    De dicto: a fresh extension at `t`. De re: the membership fixed at
    the anchor, re-sliced at `t`; members not alive at `t` are listed in
    `dropped` under lenient policy, and the least of them raises under
    strict policy. The World's instantiation memo keeps one realization
    per collection itself (a coerced subject shares its name, not its
    anchor) and tick: a strict call raises from the kept one. An invalid
    key is never kept: it raises on every call.
    """
    check_int(t)
    if policy not in ("strict", "lenient"):
        raise ValueError(f"a policy is 'strict' or 'lenient', got {policy!r}")
    coll = world.collection(collection) if isinstance(collection, str) else collection
    key = (coll, t)
    known = world._instantiations.get(key)
    if known is None:
        known = world._instantiations[key] = _realize(world, coll, t)
    if policy == "strict" and known.dropped:
        entity_id = min(known.dropped)
        raise OutsideLifeSpan(
            f"member {entity_id} of {coll.name} has no slice at {number_text(t)}: "
            f"life span is {world.entities[entity_id].lifespan}"
        )
    return known


def _realize(world: World, coll: Collection, t: int) -> Instantiation:
    label = f"{coll.name}@{number_text(t)}"
    if coll.mode == MODE_DICTO:
        members = extension(world, coll.predicate, coll.pattern, t)
        return Instantiation(coll.name, t, members, frozenset(), label)
    entities = world.entities
    members: list[Slice] = []
    dropped: list[str] = []
    for anchored_id, _, _ in extension(world, coll.predicate, coll.pattern, coll.anchor):
        entity_id, (start, end), invariant, _ = entities[anchored_id]
        # `t in lifespan` inline, as in `tempcoll.core.extension`.
        if start <= t and (end is None or t <= end):
            members.append(tuple.__new__(Slice, (entity_id, t, invariant)))
        else:
            dropped.append(entity_id)
    return Instantiation(coll.name, t, frozenset(members), frozenset(dropped), label)


def filter_members(
    world: World, inst: Instantiation, predicate: str, pattern: Iterable[str]
) -> Instantiation:
    """The sub-instantiation of members satisfying `predicate` at the
    instantiation's own time; time, source, and dropped set carry over."""
    pattern = tuple(pattern)  # read twice, so a one-shot iterator is read once
    members = inst.members & extension(world, predicate, pattern, inst.at)
    label = f"{inst.label or inst.source} | {predicate}({', '.join(pattern)})"
    return Instantiation(inst.source, inst.at, members, inst.dropped, label)


def cardinality(inst: Instantiation) -> int:
    return len(inst.members)


def ratio(part: Instantiation, whole: Instantiation) -> Fraction:
    """card(part)/card(whole) as an exact fraction.

    `part` must be a genuine sub-instantiation of `whole` at the same
    tick; anything else signals an encoding bug, not a zero.
    """
    if part.at != whole.at:
        raise TickMismatch(
            f"ratio across times: {number_text(part.at)} vs {number_text(whole.at)}"
        )
    if not part.members <= whole.members:
        strays = sorted(s.entity_id for s in part.members - whole.members)
        raise NotASubset(
            f"{part.label or part.source} is not a subset of "
            f"{whole.label or whole.source}: {', '.join(strays)}"
        )
    if not whole.members:
        raise EmptyDenominator(f"{whole.label or whole.source} has no members")
    return Fraction(len(part.members), len(whole.members))


def aggregate_sum(world: World, measure: str, inst: Instantiation) -> Fraction:
    """Sum of `measure` over every member; an empty instantiation sums to
    zero, a member without a recorded value raises MissingMeasure. The
    values are brought to their least common denominator, so the sum
    reduces once instead of once per member."""
    ratios = [measure_value(world, measure, s).as_integer_ratio() for s in inst.sorted_members()]
    common = math.lcm(*(d for _, d in ratios))
    return Fraction(sum(n * (common // d) for n, d in ratios), common)
