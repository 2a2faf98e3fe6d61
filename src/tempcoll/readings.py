"""Mode decision and reading evaluation for plural statements.

The default interpretation of a plural subject is de re: the members are
fixed and considered at each evaluation time. Three constraints force a
de dicto interpretation instead, where the subject is re-realized at
every time:

  R1  the statement compares or tracks evolution of a property that is
      fixed per individual, so the comparison cannot concern the same
      members;
  R2  the subject is a cohort: its realizations at the evaluation times
      cannot share members;
  R3  the statement span is longer than the members' possible life
      spans.

R0 records the default when nothing forces; E0 records an explicit mode
written on the statement itself. A decided statement licenses readings:
de dicto yields a ratio evolution; de re yields an individual evolution
plus a global aggregate when the property is a measure, and a
fixed-membership ratio when it is a predicate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Callable, Literal

from .algebra import Instantiation, aggregate_sum, filter_members, instantiate, ratio
from .core import extension, measure_value
from .errors import MalformedStatement, TempcollError, UnboundedSpan, UnknownCollection
from .model import (
    HOLE,
    MODE_DICTO,
    MODE_RE,
    Collection,
    Mode,
    Statement,
    World,
)

__all__ = [
    "FiredRule",
    "Witness",
    "Reading",
    "Decision",
    "LifespanCheck",
    "decide_mode",
    "cohort_disjoint",
    "lifespan_check",
    "enumerate_readings",
    "evaluate_reading",
    "analyze",
]

ReadingKind = Literal["ratio_evolution", "individual_evolution", "global_aggregate"]

# Direction -> (its symbol, the test of the later value against the earlier).
_CMP = {"less": ("<", operator.lt), "more": (">", operator.gt), "changed": ("!=", operator.ne)}


@dataclass(frozen=True)
class FiredRule:
    id: str
    justification: str


@dataclass(frozen=True)
class Witness:
    """One supporting or refuting datum: a member, a ratio, or a sum."""

    label: str
    detail: str


@dataclass(frozen=True)
class Reading:
    """A licensed interpretation with its condition and outcome.

    `truth` is None until evaluated; an evaluation that cannot complete
    (missing measure, member without a slice) sets `reason` instead of
    crashing.
    """

    kind: ReadingKind
    mode: Mode
    formula: str
    truth: bool | None = None
    reason: str | None = None
    witnesses: tuple[Witness, ...] = ()


@dataclass(frozen=True)
class Decision:
    mode: Mode
    fired_rules: tuple[FiredRule, ...]
    readings: tuple[Reading, ...] = ()

    @property
    def rule_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.fired_rules)


@dataclass(frozen=True)
class LifespanCheck:
    """Outcome of comparing a statement span against a life-span bound."""

    exceeds: bool
    bound: int | None = None
    span_length: int | None = None


def _subject(world: World, stmt: Statement) -> Collection:
    try:
        return world.collection(stmt.subject)
    except UnknownCollection as e:
        raise MalformedStatement(str(e)) from e


def _is_measure(world: World, stmt: Statement) -> bool:
    # The builder admits only a declared predicate or a recorded measure.
    return stmt.profile.compared_property not in world.predicates


def _two_ticks(stmt: Statement) -> tuple[int, int]:
    a, b = sorted(stmt.eval_times)
    return a, b


def cohort_disjoint(
    world: World, subject: Collection | str, eval_times: tuple[int, ...]
) -> bool:
    """True iff the subject's realizations at the evaluation times are
    pairwise disjoint and each non-empty.

    Empty realizations prove nothing about re-realization, so they do
    not count as disjoint cohorts.
    """
    if isinstance(subject, str):
        subject = world.collection(subject)
    id_sets = [
        {s.entity_id for s in extension(world, subject.predicate, subject.pattern, t)}
        for t in eval_times
    ]
    return all(id_sets) and not any(a & b for a, b in combinations(id_sets, 2))


def lifespan_check(world: World, stmt: Statement) -> LifespanCheck:
    """Compare the statement span against the declared species bound, or
    against the longest life span among candidate members when no bound
    is declared.

    An open span exceeds any finite bound; with no finite bound at all it
    raises :class:`UnboundedSpan`.
    """
    coll = _subject(world, stmt)
    span_length = stmt.span.length()
    bound = stmt.species_bound
    if bound is None:
        candidates: set[str] = set()
        for t in stmt.eval_times:
            candidates |= {s.entity_id for s in extension(world, coll.predicate, coll.pattern, t)}
        lengths = [world.entities[c].lifespan.length() for c in sorted(candidates)]
        if not lengths and span_length is None:
            raise UnboundedSpan(
                f"span {stmt.span} is open and no life-span bound is available"
            )
        if None not in lengths:
            bound = max(lengths, default=None)  # type: ignore[type-var]
    # No bound (no candidate, or one living through an open span): nothing to exceed.
    exceeds = bound is not None and (span_length is None or span_length > bound)
    return LifespanCheck(exceeds, bound, span_length)


def decide_mode(world: World, stmt: Statement) -> Decision:
    """Decide de re vs de dicto and record every rule that fired.

    Rules are checked in the order R1, R2, R3; any hit forces de dicto
    and all hits are recorded. With no hit, R0 records the de re
    default. An explicit mode on the statement short-circuits as E0.
    """
    coll = _subject(world, stmt)
    if stmt.explicit_mode is not None:
        return Decision(
            stmt.explicit_mode,
            (FiredRule("E0", f"mode '{stmt.explicit_mode}' set explicitly on the statement"),),
        )
    fired: list[FiredRule] = []
    prop = stmt.profile.compared_property
    prop_decl = world.predicates.get(prop)
    if stmt.profile.evolutive and prop_decl is not None and prop_decl.invariant:
        fired.append(
            FiredRule(
                "R1",
                f"'{prop}' is fixed per individual over its life span, so the "
                "comparison cannot concern the same members",
            )
        )
    subject_decl = world.predicates[coll.predicate]
    times = ", ".join(str(t) for t in stmt.eval_times)
    if subject_decl.cohort:
        fired.append(
            FiredRule(
                "R2",
                f"'{coll.predicate}' defines a fresh cohort at each time; "
                f"realizations at {times} cannot share members",
            )
        )
    elif cohort_disjoint(world, coll, stmt.eval_times):
        fired.append(
            FiredRule(
                "R2",
                f"realizations of '{coll.predicate}' at {times} share no members",
            )
        )
    try:
        check = lifespan_check(world, stmt)
    except UnboundedSpan:
        check = None
    if check is not None and check.exceeds:
        length = "unbounded" if check.span_length is None else str(check.span_length)
        fired.append(
            FiredRule(
                "R3",
                f"statement span of {length} tick(s) exceeds the life-span "
                f"bound of {check.bound}",
            )
        )
    if fired:
        return Decision(MODE_DICTO, tuple(fired))
    return Decision(
        MODE_RE,
        (
            FiredRule(
                "R0",
                "no forcing constraint applies; membership is read as fixed "
                "(a cohort subject or a life-span conflict would force fresh "
                "realizations per time)",
            ),
        ),
    )


def _effective_collection(world: World, stmt: Statement, mode: Mode) -> Collection:
    """The subject collection coerced to the decided mode.

    A de re decision over a subject declared de dicto anchors at the
    earliest evaluation time; a de dicto decision ignores any declared
    anchor.
    """
    coll = _subject(world, stmt)
    if mode == coll.mode:
        return coll
    if mode == MODE_DICTO:
        return Collection(coll.name, MODE_DICTO, coll.predicate, coll.pattern, None)
    return Collection(coll.name, MODE_RE, coll.predicate, coll.pattern, _two_ticks(stmt)[0])


def enumerate_readings(world: World, stmt: Statement, mode: Mode) -> tuple[Reading, ...]:
    """The readings licensed by a decided mode, unevaluated.

    De dicto licenses the ratio evolution. De re licenses individual
    evolution plus global aggregate when the property is a measure, and
    only the fixed-membership ratio when it is a predicate (nothing to
    sum without a measure).
    """
    coll = _effective_collection(world, stmt, mode)
    t1, t2 = _two_ticks(stmt)
    cmp = _CMP[stmt.profile.direction][0]
    name = coll.name
    prop = stmt.profile.compared_property
    if not _is_measure(world, stmt):
        pattern = ", ".join(stmt.profile.property_pattern or (HOLE,))
        sub1 = f"{name}@{t1} | {prop}({pattern})"
        sub2 = f"{name}@{t2} | {prop}({pattern})"
        formula = f"ratio({sub2}, {name}@{t2}) {cmp} ratio({sub1}, {name}@{t1})"
        if mode == MODE_RE:
            formula += f" with membership fixed at {coll.anchor}"
        return (Reading("ratio_evolution", mode, formula),)
    if mode == MODE_DICTO:
        # A measure cannot partition fresh realizations; the ratio reading
        # is still the licensed one and evaluates to undefined.
        formula = (
            f"ratio of members satisfying '{prop}' within {name}@{t2} {cmp} "
            f"the same ratio within {name}@{t1}"
        )
        return (Reading("ratio_evolution", mode, formula),)
    individual = Reading(
        "individual_evolution",
        mode,
        f"for each member x of {name} fixed at {coll.anchor}: "
        f"{prop}(x@{t2}) {cmp} {prop}(x@{t1})",
    )
    aggregate = Reading(
        "global_aggregate",
        mode,
        f"sum {prop} over {name}@{t2} {cmp} sum {prop} over {name}@{t1}",
    )
    return (individual, aggregate)


def _holds(late: Fraction, early: Fraction, direction: str) -> bool:
    return _CMP[direction][1](late, early)


def _undefined(reading: Reading, reason: str) -> Reading:
    return replace(reading, truth=None, reason=reason, witnesses=())


def _dropped_reason(inst: Instantiation, world: World) -> str | None:
    if not inst.dropped:
        return None
    entity_id = sorted(inst.dropped)[0]
    lifespan = world.entities[entity_id].lifespan
    return (
        f"member {entity_id} has no slice at {inst.at}: life span is {lifespan}"
    )


def _ratio_witness(part: Instantiation, whole: Instantiation) -> Witness:
    value = Fraction(len(part.members), len(whole.members))
    detail = f"{len(part.members)}/{len(whole.members)}"
    if str(value) != detail:
        detail += f" = {value}"
    return Witness(f"ratio@{whole.at}", detail)


# A body compares the subject realized at the earlier and the later
# evaluation time; it returns (truth, witnesses) and raises on a data gap.
_Outcome = tuple[bool, tuple[Witness, ...]]


def _ratio_body(
    world: World, stmt: Statement, early: Instantiation, late: Instantiation
) -> _Outcome:
    prop = stmt.profile.compared_property
    pattern = stmt.profile.property_pattern or (HOLE,)
    part1 = filter_members(world, early, prop, pattern)
    part2 = filter_members(world, late, prop, pattern)
    before = ratio(part1, early)
    after = ratio(part2, late)
    truth = _holds(after, before, stmt.profile.direction)
    return truth, (_ratio_witness(part1, early), _ratio_witness(part2, late))


def _individual_body(
    world: World, stmt: Statement, early: Instantiation, late: Instantiation
) -> _Outcome:
    if early.member_ids() != late.member_ids():
        raise TempcollError(
            "membership is not fixed across the evaluation times; "
            "an individual evolution needs a de re subject"
        )
    measure = stmt.profile.compared_property
    slices2 = {s.entity_id: s for s in late.members}
    cmp, holds = _CMP[stmt.profile.direction]
    supporting: list[Witness] = []
    refuting: list[Witness] = []
    for s1 in early.sorted_members():
        before = measure_value(world, measure, s1)
        after = measure_value(world, measure, slices2[s1.entity_id])
        if holds(after, before):
            supporting.append(Witness(s1.entity_id, f"{after} {cmp} {before}"))
        else:
            refuting.append(Witness(s1.entity_id, f"{after} not {cmp} {before}"))
    if refuting:
        return False, tuple(refuting)
    return True, tuple(supporting)


def _aggregate_body(
    world: World, stmt: Statement, early: Instantiation, late: Instantiation
) -> _Outcome:
    measure = stmt.profile.compared_property
    before = aggregate_sum(world, measure, early)
    after = aggregate_sum(world, measure, late)
    truth = _holds(after, before, stmt.profile.direction)
    witnesses = (Witness(f"sum@{early.at}", str(before)), Witness(f"sum@{late.at}", str(after)))
    return truth, witnesses


_BODIES: dict[str, Callable[..., _Outcome]] = {
    "ratio_evolution": _ratio_body,
    "individual_evolution": _individual_body,
    "global_aggregate": _aggregate_body,
}


def evaluate_reading(world: World, stmt: Statement, reading: Reading) -> Reading:
    """Evaluate one reading against the world.

    Every reading realizes the subject, in the decided mode, at both
    evaluation times. Data gaps (missing measures, members without a
    slice at a time, an empty denominator) come back as an undefined
    truth with a reason; only malformed statements raise.
    """
    if reading.kind == "ratio_evolution" and _is_measure(world, stmt):
        return _undefined(
            reading,
            f"ratio reading needs a predicate property; "
            f"'{stmt.profile.compared_property}' is a measure",
        )
    body = _BODIES.get(reading.kind)
    if body is None:
        raise MalformedStatement(f"unknown reading kind '{reading.kind}'")
    coll = _effective_collection(world, stmt, reading.mode)
    try:
        early, late = (instantiate(world, coll, t, "lenient") for t in _two_ticks(stmt))
        reason = _dropped_reason(early, world) or _dropped_reason(late, world)
        if reason is not None:
            return _undefined(reading, reason)
        truth, witnesses = body(world, stmt, early, late)
    except TempcollError as e:
        return _undefined(reading, str(e))
    return replace(reading, truth=truth, reason=None, witnesses=witnesses)


def analyze(world: World, stmt: Statement) -> Decision:
    """Decide the mode, enumerate the licensed readings, evaluate each."""
    decision = decide_mode(world, stmt)
    readings = tuple(
        evaluate_reading(world, stmt, r)
        for r in enumerate_readings(world, stmt, decision.mode)
    )
    return replace(decision, readings=readings)
