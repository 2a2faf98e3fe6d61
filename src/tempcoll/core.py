"""Ground operations over a World: slicing, extensions, measure lookup.

These are the primitive queries everything else is built from. A slice
``e@t`` is the stage of entity ``e`` at tick ``t``; the extension of a
predicate pattern at ``t`` is the set of slices filling its single hole.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import MissingMeasure, OutsideLifeSpan
from .model import Policy, Slice, World, check_tick, hole_index

__all__ = ["slice_at", "extension", "measure_value"]


def slice_at(
    world: World, entity_id: str, t: int, policy: Policy = "strict"
) -> Slice:
    """The slice of `entity_id` at `t`.

    Under strict policy the time must fall inside the entity's life span;
    under lenient policy an outside time yields a slice tagged
    ``out_of_span`` instead of an error.
    """
    check_tick(t)
    entity = world.entity(entity_id)
    inside = t in entity.lifespan
    if not inside and policy == "strict":
        raise OutsideLifeSpan(
            f"{entity_id} has no slice at {t}: life span is {entity.lifespan}"
        )
    return Slice(entity.id, t, invariant=entity.invariant, out_of_span=not inside)


def extension(
    world: World, predicate: str, pattern: tuple[str, ...], t: int
) -> frozenset[Slice]:
    """All slices ``e@t`` whose entity satisfies `predicate` at `t` in the
    hole position of `pattern`.

    A mutable fact holds exactly at its stated tick. A fact of an
    invariant predicate (stated at any tick, or as always) holds at every
    time inside the member's life span. Only declared entities can fill
    the hole; other symbols are constants and have no slices. Members are
    always clipped to their life spans, so every returned slice is a
    live stage. The World's hole index, built on the first call, makes
    the cost follow the output, not the number of facts of the
    predicate, and the World's extension memo keeps each answer, so a
    later call for the same (predicate, pattern, tick) returns it at
    once. An invalid key is never kept: it raises on every call.
    """
    pattern = tuple(pattern)
    key = (predicate, pattern, t)
    known = world._extensions.get(key)
    if known is not None:
        return known
    check_tick(t)
    world.predicate(predicate).check_arity(pattern)
    hole_index(pattern)
    by_tick, always = world._hole_index.get((predicate, pattern), ({}, ()))
    answer = frozenset(
        Slice(entity.id, t, invariant=entity.invariant)
        for entity in chain(by_tick.get(t, ()), always)
        if t in entity.lifespan
    )
    world._extensions[key] = answer
    return answer


def measure_value(world: World, measure: str, s: Slice) -> Fraction:
    """The recorded value of `measure` for the slice's entity at its tick.

    Raises :class:`MissingMeasure` when nothing is recorded; an absent
    value is never read as zero.
    """
    value = world.measures.get((measure, s.entity_id, s.at))
    if value is None:
        check_tick(s.at)  # only on a miss: a wrong-typed tick never hits
        raise MissingMeasure(measure, s.entity_id, s.at)
    return value
