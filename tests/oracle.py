"""Brute-force enumerators used as an independent check on the algebra.

Everything here recomputes results by scanning raw facts with plain
loops over all entities; nothing from tempcoll.core, tempcoll.algebra,
or tempcoll.readings is called. Results are plain id sets and fractions
so the comparison against the real implementation stays honest.
"""

from __future__ import annotations

from fractions import Fraction

from tempcoll import MODE_DICTO, MODE_RE, Collection, Statement, TimeRef, UnknownMeasure, World

HOLE = "_"


def covers(span: TimeRef, t: TimeRef) -> bool:
    if t.start < span.start:
        return False
    if span.end is None:
        return True
    return t.end is not None and t.end <= span.end


def extension_ids(
    world: World, predicate: str, pattern: tuple[str, ...], t: TimeRef
) -> set[str]:
    decl = world.predicates[predicate]
    hole = list(pattern).index(HOLE)
    found: set[str] = set()
    for entity in world.entities.values():
        for fact in world.facts:
            if fact.predicate != predicate:
                continue
            if fact.args[hole] != entity.id:
                continue
            if any(
                fact.args[i] != pattern[i]
                for i in range(len(pattern))
                if i != hole
            ):
                continue
            if not covers(entity.lifespan, t):
                continue
            if decl.invariant or fact.at is None or TimeRef.point(fact.at) == t:
                found.add(entity.id)
                break
    return found


def instantiate_ids(
    world: World, coll: Collection, t: TimeRef
) -> tuple[set[str], set[str]]:
    """(member ids, dropped ids) under lenient policy."""
    if coll.mode == MODE_DICTO:
        return extension_ids(world, coll.predicate, coll.pattern, t), set()
    assert coll.anchor is not None
    base = extension_ids(world, coll.predicate, coll.pattern, TimeRef.point(coll.anchor))
    members = {e for e in base if covers(world.entities[e].lifespan, t)}
    return members, base - members


def filter_ids(
    world: World,
    member_ids: set[str],
    predicate: str,
    pattern: tuple[str, ...],
    t: TimeRef,
) -> set[str]:
    satisfying = extension_ids(world, predicate, pattern, t)
    return {e for e in member_ids if e in satisfying}


def sum_values(
    world: World, measure: str, member_ids: set[str], tick: int
) -> Fraction | None:
    """Total over the members, or None when any value is unrecorded.
    A name recorded for no entity at any tick raises UnknownMeasure,
    whatever the members."""
    if all(name != measure for name, _, _ in world.measures):
        raise UnknownMeasure(f"unknown measure '{measure}'")
    total = Fraction(0)
    for entity_id in sorted(member_ids):
        value = world.measures.get((measure, entity_id, tick))
        if value is None:
            return None
        total += value
    return total


# ---------------------------------------------------------------------------
# Reading-level recomputation


def _compare(late: Fraction, early: Fraction, direction: str) -> bool:
    if direction == "less":
        return late < early
    if direction == "more":
        return late > early
    return late != early


def _effective(world: World, stmt: Statement, mode: str) -> Collection:
    coll = world.collections[stmt.subject]
    if mode == coll.mode:
        return coll
    if mode == MODE_DICTO:
        return Collection(coll.name, coll.predicate, coll.pattern, None)
    anchor = coll.anchor if coll.anchor is not None else min(stmt.eval_times)
    return Collection(coll.name, coll.predicate, coll.pattern, anchor)


def _two_ticks(stmt: Statement) -> tuple[int, int]:
    a, b = sorted(stmt.eval_times)
    return a, b


def ratio_reading(world: World, stmt: Statement, mode: str) -> bool | str:
    """True/False, or the string 'undefined'."""
    prop = stmt.profile.compared_property
    if prop not in world.predicates:
        return "undefined"
    pattern = stmt.profile.property_pattern or (HOLE,)
    coll = _effective(world, stmt, mode)
    ratios: list[Fraction] = []
    for tick in _two_ticks(stmt):
        t = TimeRef.point(tick)
        members, dropped = instantiate_ids(world, coll, t)
        if dropped or not members:
            return "undefined"
        sub = filter_ids(world, members, prop, pattern, t)
        ratios.append(Fraction(len(sub), len(members)))
    return _compare(ratios[1], ratios[0], stmt.profile.direction)


def individual_reading(world: World, stmt: Statement) -> bool | str:
    measure = stmt.profile.compared_property
    coll = _effective(world, stmt, MODE_RE)
    t1, t2 = _two_ticks(stmt)
    members1, dropped1 = instantiate_ids(world, coll, TimeRef.point(t1))
    members2, dropped2 = instantiate_ids(world, coll, TimeRef.point(t2))
    if dropped1 or dropped2:
        return "undefined"
    result = True
    for entity_id in sorted(members1):
        early = world.measures.get((measure, entity_id, t1))
        late = world.measures.get((measure, entity_id, t2))
        if early is None or late is None:
            return "undefined"
        if not _compare(late, early, stmt.profile.direction):
            result = False
    return result


def global_reading(world: World, stmt: Statement) -> bool | str:
    measure = stmt.profile.compared_property
    coll = _effective(world, stmt, MODE_RE)
    t1, t2 = _two_ticks(stmt)
    members1, dropped1 = instantiate_ids(world, coll, TimeRef.point(t1))
    members2, dropped2 = instantiate_ids(world, coll, TimeRef.point(t2))
    if dropped1 or dropped2:
        return "undefined"
    early = sum_values(world, measure, members1, t1)
    late = sum_values(world, measure, members2, t2)
    if early is None or late is None:
        return "undefined"
    return _compare(late, early, stmt.profile.direction)


# ---------------------------------------------------------------------------
# Mode decision, from the rule table in the README


def _exceeds_life_span(world: World, stmt: Statement, candidates: set[str]) -> bool:
    """R3: the span is longer than the members' possible life span.

    That life span is the declared species bound, else the longest life
    span among the candidate members. An open span is longer than any
    finite bound; no candidate, or one that lives on without end, leaves
    nothing to exceed.
    """
    bound = stmt.species_bound
    if bound is None:
        spans = [world.entities[e].lifespan for e in candidates]
        if not spans or any(span.end is None for span in spans):
            return False
        bound = max(span.end - span.start for span in spans)
    if stmt.span.end is None:
        return True
    return stmt.span.end - stmt.span.start > bound


def decide(world: World, stmt: Statement) -> tuple[str, tuple[str, ...]]:
    """(mode, fired rule ids in order).

    E0: an explicit mode overrides everything. R1: an evolutive
    statement over a predicate fixed per individual. R2: a subject
    declared as a cohort, or realizations at the two times that are both
    non-empty and share no member. R3: see `_exceeds_life_span`. Any of
    R1-R3 forces de dicto; with none, R0 records the de re default.
    """
    if stmt.explicit_mode is not None:
        return stmt.explicit_mode, ("E0",)
    coll = world.collections[stmt.subject]
    fired: list[str] = []
    prop = world.predicates.get(stmt.profile.compared_property)
    if stmt.profile.evolutive and prop is not None and prop.invariant:
        fired.append("R1")
    early, late = (
        extension_ids(world, coll.predicate, coll.pattern, TimeRef.point(t))
        for t in stmt.eval_times
    )
    if world.predicates[coll.predicate].cohort or (early and late and not early & late):
        fired.append("R2")
    if _exceeds_life_span(world, stmt, early | late):
        fired.append("R3")
    if fired:
        return MODE_DICTO, tuple(fired)
    return MODE_RE, ("R0",)


def readings(world: World, stmt: Statement, mode: str) -> list[tuple[str, bool | str]]:
    """(kind, truth or 'undefined') of each reading a mode licenses:
    individual and global over a measure read de re, the ratio otherwise."""
    if mode == MODE_RE and stmt.profile.compared_property not in world.predicates:
        return [
            ("individual_evolution", individual_reading(world, stmt)),
            ("global_aggregate", global_reading(world, stmt)),
        ]
    return [("ratio_evolution", ratio_reading(world, stmt, mode))]
