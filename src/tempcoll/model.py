"""Domain model: time references, entities, slices, facts, and the World.

A World is a closed temporal knowledge base: entities with life spans,
predicate declarations, time-indexed facts, measure facts, named
collections, and plural statements. Construction goes through
:class:`WorldBuilder`, which enforces every structural invariant and
raises a typed error on violation. A built World is immutable and may be
shared freely across threads; every operation in the package is a pure
function of (World, arguments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Literal, Mapping, NamedTuple

from .errors import (
    ArityMismatch,
    InvalidDeclaration,
    MalformedStatement,
    MultipleHoles,
    UnknownCollection,
    UnknownEntity,
    UnknownPredicate,
    UnknownStatement,
)

if TYPE_CHECKING:
    from .algebra import Instantiation

__all__ = [
    "HOLE",
    "MODE_DICTO",
    "MODE_RE",
    "TimeRef",
    "LifeSpan",
    "Entity",
    "Slice",
    "PredicateDecl",
    "Fact",
    "Collection",
    "PredicationProfile",
    "Statement",
    "World",
    "WorldBuilder",
    "Policy",
    "Mode",
]

HOLE = "_"

Policy = Literal["strict", "lenient"]
Mode = Literal["de_re", "de_dicto"]
Direction = Literal["less", "more", "changed"]

MODE_RE: Mode = "de_re"
MODE_DICTO: Mode = "de_dicto"


def check_tick(tick: object) -> None:
    """Raise TypeError unless `tick` is an ``int``: a tick is never a
    TimeRef, and a wrong type would otherwise just match nothing."""
    if type(tick) is not int:
        raise TypeError(f"a tick is an int, got {tick!r}")


def check_flag(flag: object) -> None:
    """Raise TypeError unless `flag` is a ``bool``: `render_world` writes
    a flag by its truth, so a ``"no"`` would parse back as true."""
    if type(flag) is not bool:
        raise TypeError(f"a flag is a bool, got {flag!r}")


def number_text(value: int | Fraction) -> str:
    """``str(value)`` for an int or a Fraction, also past the digits that
    ``sys.get_int_max_str_digits()`` allows: there `str` raises
    ValueError, and an int is written as a ``Decimal``, which that limit
    does not bind."""
    try:
        return str(value)
    except ValueError:
        pass
    if isinstance(value, Fraction):
        text = number_text(value.numerator)
        return text if value.denominator == 1 else f"{text}/{number_text(value.denominator)}"
    return str(Decimal(value))


@dataclass(frozen=True)
class TimeRef:
    """A closed interval of integer ticks: a life span or a statement span.

    ``end is None`` marks an open right end. Every single time (a fact's
    or measure's tick, an anchor, an evaluation or query time) is a plain
    ``int``; a tick ``t`` lies in an interval iff ``t in interval``. Ticks
    are abstract units (years in most fixtures, but nothing depends on
    that).
    """

    start: int
    end: int | None

    def __post_init__(self) -> None:
        # `render_world` writes ints only, so a float or bool would not
        # parse back.
        check_tick(self.start)
        if self.end is not None:
            check_tick(self.end)
            if self.end < self.start:
                raise InvalidDeclaration(f"empty interval {self}")

    @classmethod
    def point(cls, tick: int) -> TimeRef:
        """The degenerate interval [tick, tick]."""
        return cls(tick, tick)

    def length(self) -> int | None:
        """Tick distance end - start, or None when open-ended."""
        return None if self.end is None else self.end - self.start

    def __contains__(self, tick: int) -> bool:
        return self.start <= tick and (self.end is None or tick <= self.end)

    def __str__(self) -> str:
        start = number_text(self.start)
        if self.end == self.start:
            return start
        return f"[{start}, {'*' if self.end is None else number_text(self.end)}]"


# An entity's life span is just an interval; the alias marks intent.
LifeSpan = TimeRef


def check_span(span: object) -> None:
    """Raise TypeError unless `span` is a TimeRef: a tuple would read
    ``t in span`` as false and has no bounds to render."""
    if not isinstance(span, TimeRef):
        raise TypeError(f"a span is a TimeRef, got {span!r}")


def hole_index(pattern: tuple[str, ...]) -> int:
    """Position of the single hole in an argument pattern."""
    holes = [i for i, a in enumerate(pattern) if a == HOLE]
    if len(holes) != 1:
        raise MultipleHoles(
            f"pattern ({', '.join(pattern)}) needs exactly one '{HOLE}', found {len(holes)}"
        )
    return holes[0]


@dataclass(frozen=True)
class Entity:
    """A named individual with a life span.

    `invariant` marks entities whose stages are indistinguishable across
    time: all their slices compare equal.
    """

    id: str
    lifespan: LifeSpan
    invariant: bool = False
    species: str | None = None

    def __post_init__(self) -> None:
        check_span(self.lifespan)
        check_flag(self.invariant)


@dataclass(frozen=True, eq=False)
class Slice:
    """A stage of an entity at a time, written ``e@t``.

    Two slices are equal iff they are stages of the same entity with the
    same `invariant` flag, at the same time or, when the entity is
    invariant, at any time (then all its stages are one). The queries
    in :mod:`tempcoll.core` only make slices inside the entity's life
    span, where the paper defines ``e@t``.
    """

    entity_id: str
    at: int
    invariant: bool = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Slice):
            return NotImplemented
        if self.entity_id != other.entity_id or self.invariant != other.invariant:
            return False
        return self.invariant or self.at == other.at

    def __hash__(self) -> int:
        # Invariant slices must collapse to one hash bucket per entity.
        if self.invariant:
            return hash((self.entity_id, "invariant"))
        return hash((self.entity_id, self.at))

    def __str__(self) -> str:
        return f"{self.entity_id}@{number_text(self.at)}"


@dataclass(frozen=True)
class PredicateDecl:
    """A predicate with arity and temporal profile.

    `invariant` means the truth value is fixed per argument tuple over
    each subject's life span; `cohort` marks defining predicates whose
    extensions at distinct evaluation times are necessarily disjoint
    (e.g. being exactly eighteen).
    """

    name: str
    arity: int
    invariant: bool = False
    cohort: bool = False

    def __post_init__(self) -> None:
        if type(self.arity) is not int:  # not a bool either: `render_world` writes ints
            raise TypeError(f"an arity is an int, got {self.arity!r}")
        if self.arity < 1:
            raise InvalidDeclaration(f"predicate '{self.name}' needs arity >= 1")
        check_flag(self.invariant)
        check_flag(self.cohort)

    def check_arity(self, args: tuple[str, ...]) -> None:
        if len(args) != self.arity:
            raise ArityMismatch(
                f"arity mismatch: {self.name} takes {self.arity} argument(s), got {len(args)}"
            )


class Fact(NamedTuple):
    """A ground atom holding at a tick, or always (``at is None``).

    `always` is only legal for invariant predicates and is clipped to the
    subject's life span when queried.
    """

    predicate: str
    args: tuple[str, ...]
    at: int | None = None


@dataclass(frozen=True)
class Collection:
    """A named intensional collection over one predicate pattern.

    A collection is de re exactly when it has an `anchor` tick: its
    membership is fixed there and those same members are re-sliced at
    other times. Without an anchor it is de dicto and gets a fresh
    realization at every time.
    """

    name: str
    predicate: str
    pattern: tuple[str, ...]
    anchor: int | None = None

    def __post_init__(self) -> None:
        # A tuple, so a record made directly with a list still hashes.
        object.__setattr__(self, "pattern", tuple(self.pattern))
        # Every check that needs no world lives here, as for `Statement`.
        hole_index(self.pattern)
        if self.anchor is not None:
            check_tick(self.anchor)

    @property
    def mode(self) -> Mode:
        return MODE_DICTO if self.anchor is None else MODE_RE


@dataclass(frozen=True)
class PredicationProfile:
    """How a statement predicates over its subject.

    `compared_property` names either a declared predicate (with an
    argument pattern when its arity exceeds one) or a recorded measure.
    """

    evolutive: bool
    compared_property: str
    direction: Direction
    property_pattern: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.property_pattern is not None:
            object.__setattr__(self, "property_pattern", tuple(self.property_pattern))
        check_flag(self.evolutive)


@dataclass(frozen=True)
class Statement:
    """A plural statement evaluated over exactly two situations."""

    id: str
    subject: str
    profile: PredicationProfile
    eval_times: tuple[int, ...]
    span: TimeRef
    species_bound: int | None = None
    explicit_mode: Mode | None = None

    def __post_init__(self) -> None:
        # Every check that needs no world lives here, so a statement made
        # by `dataclasses.replace` is as well-formed as a built one.
        times = tuple(self.eval_times)
        object.__setattr__(self, "eval_times", times)
        check_span(self.span)
        if len(times) != 2:
            raise MalformedStatement(
                f"a statement needs exactly two evaluation times, got {len(times)}"
            )
        if times[0] == times[1]:
            raise MalformedStatement("evaluation times must be distinct")
        for t in times:
            check_tick(t)
            if t not in self.span:
                raise MalformedStatement(
                    f"span {self.span} does not cover evaluation time {number_text(t)}"
                )
        if self.profile.direction not in ("less", "more", "changed"):
            raise MalformedStatement(f"unknown direction '{self.profile.direction}'")
        if self.species_bound is not None:
            if type(self.species_bound) is not int:  # not a bool either
                raise TypeError(f"a species bound is an int, got {self.species_bound!r}")
            if self.species_bound < 1:
                raise MalformedStatement("species bound must be a positive tick count")
        if self.explicit_mode not in (None, MODE_RE, MODE_DICTO):
            raise MalformedStatement(f"unknown mode '{self.explicit_mode}'")


@dataclass(frozen=True)
class World:
    """An immutable knowledge base; equality and hash are structural.

    The mappings are read-only views over private copies, so the lazy
    indices below can never go stale. Three of them are dicts that one
    function each reads and fills: the hole index, keyed (predicate,
    pattern), and the extension memo, keyed (predicate, pattern, tick),
    by :func:`tempcoll.core.extension`; the instantiation memo, keyed
    (Collection, tick), by :func:`tempcoll.algebra.instantiate`, which
    keeps one realization for both policies and raises a strict call's
    error from it. Each memo checks the tick before its lookup and keeps
    realized answers only, so an invalid key raises on every call. Like
    every lazy index they live only in the instance's ``__dict__``,
    outside equality, hash, ``repr`` and pickling, and die with the
    World. Two threads racing on one memo key both compute and store
    equal answers, so the race is harmless.
    """

    entities: Mapping[str, Entity] = field(default_factory=dict)
    predicates: Mapping[str, PredicateDecl] = field(default_factory=dict)
    facts: tuple[Fact, ...] = ()
    measures: Mapping[tuple[str, str, int], Fraction] = field(default_factory=dict)
    collections: Mapping[str, Collection] = field(default_factory=dict)
    statements: Mapping[str, Statement] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("entities", "predicates", "measures", "collections", "statements"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self.entities.items()),
                frozenset(self.predicates.items()),
                self.facts,
                frozenset(self.measures.items()),
                frozenset(self.collections.items()),
                frozenset(self.statements.items()),
            )
        )

    def __reduce__(self) -> tuple:
        # A read-only view does not pickle, so pickle and deepcopy rebuild
        # the World from plain copies, and the copy starts with no lazy
        # index or memo.
        return World, (
            dict(self.entities),
            dict(self.predicates),
            self.facts,
            dict(self.measures),
            dict(self.collections),
            dict(self.statements),
        )

    @cached_property
    def _facts_by_predicate(self) -> dict[str, tuple[Fact, ...]]:
        index: dict[str, list[Fact]] = {}
        for f in self.facts:
            index.setdefault(f.predicate, []).append(f)
        return {name: tuple(fs) for name, fs in index.items()}

    def facts_for(self, predicate: str) -> tuple[Fact, ...]:
        return self._facts_by_predicate.get(predicate, ())

    @cached_property
    def _hole_index(
        self,
    ) -> dict[tuple[str, tuple[str, ...]], tuple[dict[int, list[Entity]], list[Entity]]]:
        # Key: (predicate, pattern), a fact's arguments with one declared
        # entity replaced by the hole. Value: the entities filling that hole,
        # by tick for mutable facts, and at any tick for `always` facts and
        # every fact of an invariant predicate. An invariant fact stated at
        # several ticks lists its entity once per tick.
        index: dict = {}
        for f in self.facts:
            anytime = f.at is None or self.predicates[f.predicate].invariant
            for hole, arg in enumerate(f.args):
                entity = self.entities.get(arg)
                if entity is None:
                    continue
                pattern = f.args[:hole] + (HOLE,) + f.args[hole + 1 :]
                by_tick, always = index.setdefault((f.predicate, pattern), ({}, []))
                if anytime:
                    always.append(entity)
                else:
                    by_tick.setdefault(f.at, []).append(entity)
        return index

    @cached_property
    def _extensions(self) -> dict[tuple[str, tuple[str, ...], int], frozenset[Slice]]:
        # Filled by `tempcoll.core.extension`, with successful answers only.
        return {}

    @cached_property
    def _instantiations(self) -> dict[tuple[Collection, int], Instantiation]:
        # Filled by `tempcoll.algebra.instantiate`, with realized answers only.
        return {}

    @cached_property
    def ticks(self) -> tuple[int, ...]:
        """Distinct ticks mentioned by point facts and measures, sorted."""
        seen = {f.at for f in self.facts if f.at is not None}
        seen.update(tick for (_, _, tick) in self.measures)
        return tuple(sorted(seen))

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise UnknownEntity(f"unknown entity '{entity_id}'") from None

    def predicate(self, name: str) -> PredicateDecl:
        try:
            return self.predicates[name]
        except KeyError:
            raise UnknownPredicate(f"unknown predicate '{name}'") from None

    def collection(self, name: str) -> Collection:
        try:
            return self.collections[name]
        except KeyError:
            raise UnknownCollection(f"unknown collection '{name}'") from None

    def statement(self, statement_id: str) -> Statement:
        try:
            return self.statements[statement_id]
        except KeyError:
            raise UnknownStatement(f"unknown statement '{statement_id}'") from None


class WorldBuilder:
    """Accumulates declarations, validating each against what is known.

    Order matters only across kinds: facts and measures need their
    predicates and entities first, collections their predicates,
    statements their subject collections and properties. The DSL loader
    feeds records in that order; programmatic callers should too.
    """

    def __init__(self) -> None:
        self._entities: dict[str, Entity] = {}
        self._predicates: dict[str, PredicateDecl] = {}
        # Keyed by the canonical sort key, so duplicates collapse and
        # `build` sorts plain tuples: (predicate, args, timed, tick or 0).
        self._facts: dict[tuple[str, tuple[str, ...], bool, int], Fact] = {}
        self._measures: dict[tuple[str, str, int], Fraction] = {}
        self._measure_names: set[str] = set()
        self._collections: dict[str, Collection] = {}
        self._statements: dict[str, Statement] = {}

    def add_entity(
        self,
        entity_id: str,
        lifespan: LifeSpan,
        invariant: bool = False,
        species: str | None = None,
    ) -> None:
        if entity_id in self._entities:
            raise InvalidDeclaration(f"duplicate entity id '{entity_id}'")
        self._entities[entity_id] = Entity(entity_id, lifespan, invariant, species)

    def add_predicate(
        self, name: str, arity: int, invariant: bool = False, cohort: bool = False
    ) -> None:
        if name in self._predicates:
            raise InvalidDeclaration(f"duplicate predicate '{name}'")
        if name in self._measure_names:
            raise InvalidDeclaration(f"'{name}' is already a measure name")
        self._predicates[name] = PredicateDecl(name, arity, invariant, cohort)

    def add_fact(self, predicate: str, args: Iterable[str], at: int | None) -> str | None:
        """Record a fact. Returns a warning when a timed fact falls outside
        the life span of an entity argument (the first in order), else
        None; entities declared later are not checked."""
        args = tuple(args)
        decl = self._predicates.get(predicate)
        if decl is None:
            raise UnknownPredicate(f"unknown predicate '{predicate}' in fact")
        decl.check_arity(args)
        if HOLE in args:
            raise InvalidDeclaration(f"facts are ground; '{HOLE}' is not an argument")
        if at is None and not decl.invariant:
            raise InvalidDeclaration(
                f"'always' fact needs an invariant predicate; '{predicate}' is mutable"
            )
        if at is not None:
            check_tick(at)
        self._facts[(predicate, args, at is not None, 0 if at is None else at)] = Fact(
            predicate, args, at
        )
        if at is not None:
            for arg in args:
                entity = self._entities.get(arg)
                if entity is not None and at not in entity.lifespan:
                    return (
                        f"fact {predicate}({', '.join(args)}) @ {number_text(at)} falls "
                        f"outside the life span of {arg} ({entity.lifespan})"
                    )
        return None

    def add_measure(self, measure: str, entity_id: str, at: int, value: Fraction) -> None:
        check_tick(at)
        if not isinstance(value, Fraction):  # a float would break exact sums
            raise TypeError(f"a measure value is a Fraction, got {value!r}")
        if measure in self._predicates:
            raise InvalidDeclaration(f"'{measure}' is already a predicate name")
        if entity_id not in self._entities:
            raise UnknownEntity(f"unknown entity '{entity_id}' in measure")
        if value.numerator < 0:  # a Fraction keeps its sign there
            raise InvalidDeclaration(
                f"measure value must be non-negative, got {number_text(value)}"
            )
        key = (measure, entity_id, at)
        known = self._measures.get(key)
        if known is not None and known != value:
            raise InvalidDeclaration(
                f"conflicting values for {measure}({entity_id}) @ {number_text(at)}: "
                f"{number_text(known)} vs {number_text(value)}"
            )
        self._measures[key] = value
        self._measure_names.add(measure)

    def add_collection(
        self, name: str, predicate: str, pattern: Iterable[str], anchor: int | None = None
    ) -> None:
        pattern = tuple(pattern)
        if name in self._collections:
            raise InvalidDeclaration(f"duplicate collection '{name}'")
        decl = self._predicates.get(predicate)
        if decl is None:
            raise UnknownPredicate(f"unknown predicate '{predicate}' in collection '{name}'")
        decl.check_arity(pattern)
        self._collections[name] = Collection(name, predicate, pattern, anchor)

    def add_statement(
        self,
        statement_id: str,
        subject: str,
        evolutive: bool,
        compared_property: str,
        direction: Direction,
        eval_times: Iterable[int],
        span: TimeRef,
        property_pattern: Iterable[str] | None = None,
        species_bound: int | None = None,
        explicit_mode: Mode | None = None,
    ) -> None:
        if statement_id in self._statements:
            raise InvalidDeclaration(f"duplicate statement '{statement_id}'")
        if subject not in self._collections:
            raise UnknownCollection(f"unknown subject collection '{subject}'")
        pattern = tuple(property_pattern) if property_pattern is not None else None
        decl = self._predicates.get(compared_property)
        if decl is not None:
            if pattern is None:
                if decl.arity != 1:
                    raise MalformedStatement(
                        f"property '{compared_property}' has arity {decl.arity}; "
                        "give an argument pattern"
                    )
                pattern = (HOLE,)
            else:
                decl.check_arity(pattern)
                hole_index(pattern)
        elif compared_property in self._measure_names:
            if pattern is not None:
                raise MalformedStatement(
                    f"'{compared_property}' is a measure; it takes no argument pattern"
                )
        else:
            raise MalformedStatement(
                f"property '{compared_property}' is neither a declared predicate "
                "nor a recorded measure"
            )
        profile = PredicationProfile(evolutive, compared_property, direction, pattern)
        self._statements[statement_id] = Statement(
            statement_id, subject, profile, eval_times, span, species_bound, explicit_mode
        )

    def build(self) -> World:
        # World copies each mapping into a read-only view of its own.
        return World(
            entities=self._entities,
            predicates=self._predicates,
            facts=tuple(self._facts[key] for key in sorted(self._facts)),
            measures=self._measures,
            collections=self._collections,
            statements=self._statements,
        )
