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
from fractions import Fraction
from itertools import combinations
from typing import Callable, Literal, NamedTuple

from .algebra import Instantiation, aggregate_sum, filter_members, instantiate, ratio
from .core import extension, measure_value
from .errors import MalformedStatement, OutsideLifeSpan, TempcollError
from .model import (
    HOLE,
    MODE_DICTO,
    MODE_RE,
    Collection,
    Mode,
    Statement,
    World,
    number_text,
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


class FiredRule(NamedTuple):
    id: str
    justification: str


class Witness(NamedTuple):
    """One supporting or refuting datum: a member, a ratio, or a sum."""

    label: str
    detail: str


class Reading(NamedTuple):
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


class Decision(NamedTuple):
    mode: Mode
    fired_rules: tuple[FiredRule, ...]
    readings: tuple[Reading, ...] = ()

    @property
    def rule_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.fired_rules)


class LifespanCheck(NamedTuple):
    """Outcome of comparing a statement span against a life-span bound."""

    exceeds: bool
    bound: int | None = None
    span_length: int | None = None


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

    An open span exceeds any finite bound; with no finite bound nothing
    is exceeded. An unknown subject raises :class:`UnknownCollection`.
    """
    coll = world.collection(stmt.subject)
    span_length = stmt.span.length()
    bound = stmt.species_bound
    if bound is None:
        candidates: set[str] = set()
        for t in stmt.eval_times:
            candidates |= {s.entity_id for s in extension(world, coll.predicate, coll.pattern, t)}
        lengths = [world.entities[c].lifespan.length() for c in candidates]
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
    coll = world.collection(stmt.subject)
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
    times = ", ".join(map(number_text, stmt.eval_times))
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
    check = lifespan_check(world, stmt)
    if check.exceeds:
        length = "unbounded" if check.span_length is None else number_text(check.span_length)
        fired.append(
            FiredRule(
                "R3",
                f"statement span of {length} tick(s) exceeds the life-span "
                f"bound of {number_text(check.bound)}",
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
    coll = world.collection(stmt.subject)
    if mode == coll.mode:
        return coll
    anchor = _two_ticks(stmt)[0] if mode == MODE_RE else None
    return Collection(coll.name, coll.predicate, coll.pattern, anchor)


def enumerate_readings(world: World, stmt: Statement, mode: Mode) -> tuple[Reading, ...]:
    """The readings licensed by a decided mode, unevaluated.

    De dicto licenses the ratio evolution. De re licenses individual
    evolution plus global aggregate when the property is a measure, and
    only the fixed-membership ratio when it is a predicate (nothing to
    sum without a measure).
    """
    coll = _effective_collection(world, stmt, mode)
    t1, t2 = map(number_text, _two_ticks(stmt))
    cmp = _CMP[stmt.profile.direction][0]
    name = coll.name
    prop = stmt.profile.compared_property
    if not _is_measure(world, stmt):
        pattern = ", ".join(stmt.profile.property_pattern or (HOLE,))
        sub1 = f"{name}@{t1} | {prop}({pattern})"
        sub2 = f"{name}@{t2} | {prop}({pattern})"
        formula = f"ratio({sub2}, {name}@{t2}) {cmp} ratio({sub1}, {name}@{t1})"
        if mode == MODE_RE:
            formula += f" with membership fixed at {number_text(coll.anchor)}"
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
        f"for each member x of {name} fixed at {number_text(coll.anchor)}: "
        f"{prop}(x@{t2}) {cmp} {prop}(x@{t1})",
    )
    aggregate = Reading(
        "global_aggregate",
        mode,
        f"sum {prop} over {name}@{t2} {cmp} sum {prop} over {name}@{t1}",
    )
    return (individual, aggregate)


def _ratio_witness(part: Instantiation, whole: Instantiation, value: Fraction) -> Witness:
    # `value` is `ratio(part, whole)`, already computed by the caller.
    detail = f"{len(part.members)}/{len(whole.members)}"
    if str(value) != detail:
        detail += f" = {value}"
    return Witness(f"ratio@{number_text(whole.at)}", detail)


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
    truth = _CMP[stmt.profile.direction][1](after, before)
    return truth, (_ratio_witness(part1, early, before), _ratio_witness(part2, late, after))


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
        after_text, before_text = number_text(after), number_text(before)
        if holds(after, before):
            supporting.append(Witness(s1.entity_id, f"{after_text} {cmp} {before_text}"))
        else:
            refuting.append(Witness(s1.entity_id, f"{after_text} not {cmp} {before_text}"))
    if refuting:
        return False, tuple(refuting)
    return True, tuple(supporting)


def _aggregate_body(
    world: World, stmt: Statement, early: Instantiation, late: Instantiation
) -> _Outcome:
    measure = stmt.profile.compared_property
    before = aggregate_sum(world, measure, early)
    after = aggregate_sum(world, measure, late)
    truth = _CMP[stmt.profile.direction][1](after, before)
    witnesses = (
        Witness(f"sum@{number_text(early.at)}", number_text(before)),
        Witness(f"sum@{number_text(late.at)}", number_text(after)),
    )
    return truth, witnesses


_BODIES: dict[str, Callable[..., _Outcome]] = {
    "ratio_evolution": _ratio_body,
    "individual_evolution": _individual_body,
    "global_aggregate": _aggregate_body,
}


def evaluate_reading(world: World, stmt: Statement, reading: Reading) -> Reading:
    """Evaluate one reading against the world.

    Every reading realizes the subject, in the decided mode, at both
    evaluation times. A :class:`TempcollError` raised on the way (a ratio
    reading over a measure, a member without a slice, a missing measure,
    an empty denominator) becomes an undefined truth with the error's
    text as its reason; an unknown subject or reading kind raises.
    """
    body = _BODIES.get(reading.kind)
    if body is None:
        raise MalformedStatement(f"unknown reading kind '{reading.kind}'")
    coll = _effective_collection(world, stmt, reading.mode)
    try:
        if reading.kind == "ratio_evolution" and _is_measure(world, stmt):
            raise TempcollError(
                f"ratio reading needs a predicate property; "
                f"'{stmt.profile.compared_property}' is a measure"
            )
        early, late = (instantiate(world, coll, t, "lenient") for t in _two_ticks(stmt))
        for inst in (early, late):
            if inst.dropped:
                entity_id = min(inst.dropped)
                lifespan = world.entities[entity_id].lifespan
                raise OutsideLifeSpan(
                    f"member {entity_id} has no slice at {number_text(inst.at)}: "
                    f"life span is {lifespan}"
                )
        truth, witnesses = body(world, stmt, early, late)
    except TempcollError as e:
        return Reading(reading.kind, reading.mode, reading.formula, None, str(e))
    return Reading(reading.kind, reading.mode, reading.formula, truth, None, witnesses)


def analyze(world: World, stmt: Statement) -> Decision:
    """Decide the mode, enumerate the licensed readings, evaluate each."""
    decision = decide_mode(world, stmt)
    readings = tuple(
        evaluate_reading(world, stmt, r)
        for r in enumerate_readings(world, stmt, decision.mode)
    )
    return Decision(decision.mode, decision.fired_rules, readings)
