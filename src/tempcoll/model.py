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

from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Literal, Mapping, NamedTuple, TypeVar

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
    # An entity as the hole index keeps it: (id, invariant, life-span start, end).
    HoleEntry = tuple[str, bool, int, int | None]
    # A record that `_find` looks up by its name.
    _Record = TypeVar("_Record")

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


def check_int(value: object, what: str = "a tick") -> None:
    """Raise TypeError unless `value` is an ``int``, not a bool either:
    `render_world` writes ints only, and a tick of a wrong type would
    otherwise just match nothing (a tick is never a TimeRef)."""
    if type(value) is not int:
        raise TypeError(f"{what} is an int, got {value!r}")


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


class CheckedRecord:
    """Base of a record whose ``__new__`` checks its fields, put before its
    ``namedtuple`` base: ``_replace`` builds through ``_make``, which here
    goes through ``__new__``, so a replaced record is checked as a new one."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable) -> CheckedRecord:
        return cls(*iterable)


class TimeRef(CheckedRecord, namedtuple("TimeRef", "start end")):
    """A closed interval of integer ticks: a life span or a statement span.

    ``end is None`` marks an open right end. Every single time (a fact's
    or measure's tick, an anchor, an evaluation or query time) is a plain
    ``int``; a tick ``t`` lies in an interval iff ``t in interval``. Ticks
    are abstract units (years in most fixtures, but nothing depends on
    that).
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int | None) -> TimeRef:
        check_int(start)
        self = tuple.__new__(cls, (start, end))
        if end is not None:
            check_int(end)
            if end < start:
                raise InvalidDeclaration(f"empty interval {self}")
        return self

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


class Entity(CheckedRecord, namedtuple("Entity", "id lifespan invariant species")):
    """A named individual with a life span.

    `invariant` marks entities whose stages are indistinguishable across
    time: all their slices compare equal.
    """

    __slots__ = ()

    def __new__(
        cls, id: str, lifespan: LifeSpan, invariant: bool = False, species: str | None = None
    ) -> Entity:
        check_span(lifespan)
        check_flag(invariant)
        return tuple.__new__(cls, (id, lifespan, invariant, species))


class Slice(NamedTuple):
    """A stage of an entity at a time, written ``e@t``.

    Two slices are equal iff they are stages of the same entity with the
    same `invariant` flag, at the same time or, when the entity is
    invariant, at any time (then all its stages are one). A slice never
    equals anything else, the plain tuple of its fields included. As a
    tuple, it orders by its fields, so `sorted` puts two stages of one
    invariant entity in tick order though they are equal. The queries in
    :mod:`tempcoll.core` only make slices inside the entity's life span,
    where the paper defines ``e@t``.
    """

    entity_id: str
    at: int
    invariant: bool = False

    def __eq__(self, other: object) -> bool:
        # False, not NotImplemented, for another type: `tuple.__eq__`
        # would answer then and compare the fields one by one.
        if not isinstance(other, Slice):
            return False
        if self.entity_id != other.entity_id or self.invariant != other.invariant:
            return False
        return self.invariant or self.at == other.at

    def __ne__(self, other: object) -> bool:
        # `tuple.__ne__` would compare the fields, so two stages of one
        # invariant entity would be both equal and unequal.
        return not self == other

    def __hash__(self) -> int:
        # Invariant slices must collapse to one hash bucket per entity.
        entity_id, at, invariant = self
        if invariant:
            return hash((entity_id, "invariant"))
        return hash((entity_id, at))

    def __str__(self) -> str:
        return f"{self.entity_id}@{number_text(self.at)}"


class PredicateDecl(CheckedRecord, namedtuple("PredicateDecl", "name arity invariant cohort")):
    """A predicate with arity and temporal profile.

    `invariant` means the truth value is fixed per argument tuple over
    each subject's life span; `cohort` marks defining predicates whose
    extensions at distinct evaluation times are necessarily disjoint
    (e.g. being exactly eighteen).
    """

    __slots__ = ()

    def __new__(
        cls, name: str, arity: int, invariant: bool = False, cohort: bool = False
    ) -> PredicateDecl:
        check_int(arity, "an arity")
        if arity < 1:
            raise InvalidDeclaration(f"predicate '{name}' needs arity >= 1")
        check_flag(invariant)
        check_flag(cohort)
        return tuple.__new__(cls, (name, arity, invariant, cohort))

    def check_arity(self, args: tuple[str, ...]) -> None:
        if len(args) != self.arity:
            raise ArityMismatch(
                f"arity mismatch: {self.name} takes {self.arity} argument(s), got {len(args)}"
            )


class Fact(CheckedRecord, namedtuple("Fact", "predicate args at")):
    """A ground atom holding at a tick, or always (``at is None``).

    `always` is only legal for invariant predicates and is clipped to the
    subject's life span when queried. `args` is stored as a tuple, so a
    fact made directly with a list still hashes and equals the built one.
    """

    __slots__ = ()

    def __new__(cls, predicate: str, args: Iterable[str], at: int | None = None) -> Fact:
        if at is not None:
            check_int(at)
        return tuple.__new__(cls, (predicate, tuple(args), at))


class Collection(CheckedRecord, namedtuple("Collection", "name predicate pattern anchor")):
    """A named intensional collection over one predicate pattern.

    A collection is de re exactly when it has an `anchor` tick: its
    membership is fixed there and those same members are re-sliced at
    other times. Without an anchor it is de dicto and gets a fresh
    realization at every time.
    """

    __slots__ = ()

    def __new__(
        cls, name: str, predicate: str, pattern: Iterable[str], anchor: int | None = None
    ) -> Collection:
        # A tuple, so a record made directly with a list still hashes.
        pattern = tuple(pattern)
        # Every check that needs no world lives here, as for `Statement`.
        hole_index(pattern)
        if anchor is not None:
            check_int(anchor)
        return tuple.__new__(cls, (name, predicate, pattern, anchor))

    @property
    def mode(self) -> Mode:
        return MODE_DICTO if self.anchor is None else MODE_RE


class PredicationProfile(
    CheckedRecord,
    namedtuple("PredicationProfile", "evolutive compared_property direction property_pattern"),
):
    """How a statement predicates over its subject.

    `compared_property` names either a declared predicate (with an
    argument pattern when its arity exceeds one) or a recorded measure.
    """

    __slots__ = ()

    def __new__(
        cls,
        evolutive: bool,
        compared_property: str,
        direction: Direction,
        property_pattern: Iterable[str] | None = None,
    ) -> PredicationProfile:
        if property_pattern is not None:
            property_pattern = tuple(property_pattern)
        check_flag(evolutive)
        return tuple.__new__(cls, (evolutive, compared_property, direction, property_pattern))


class Statement(
    CheckedRecord,
    namedtuple("Statement", "id subject profile eval_times span species_bound explicit_mode"),
):
    """A plural statement evaluated over exactly two situations."""

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        subject: str,
        profile: PredicationProfile,
        eval_times: Iterable[int],
        span: TimeRef,
        species_bound: int | None = None,
        explicit_mode: Mode | None = None,
    ) -> Statement:
        # Every check that needs no world lives here, so a statement made
        # by `_replace` is as well-formed as a built one.
        times = tuple(eval_times)
        check_span(span)
        if len(times) != 2:
            raise MalformedStatement(
                f"a statement needs exactly two evaluation times, got {len(times)}"
            )
        if times[0] == times[1]:
            raise MalformedStatement("evaluation times must be distinct")
        for t in times:
            check_int(t)
            if t not in span:
                raise MalformedStatement(
                    f"span {span} does not cover evaluation time {number_text(t)}"
                )
        if profile.direction not in ("less", "more", "changed"):
            raise MalformedStatement(f"unknown direction '{profile.direction}'")
        if species_bound is not None:
            check_int(species_bound, "a species bound")
            if species_bound < 1:
                raise MalformedStatement("species bound must be a positive tick count")
        if explicit_mode not in (None, MODE_RE, MODE_DICTO):
            raise MalformedStatement(f"unknown mode '{explicit_mode}'")
        return tuple.__new__(cls, (id, subject, profile, times, span, species_bound, explicit_mode))


def _find(records: Mapping[str, _Record], name: str, error: type[Exception], noun: str) -> _Record:
    """The record `name` of `records`, else `error` with no context."""
    try:
        return records[name]
    except KeyError:
        raise error(f"unknown {noun} '{name}'") from None


class World:
    """An immutable knowledge base; equality and hash are structural.

    A built World's `facts` are distinct and in the canonical order that
    equality and :func:`tempcoll.dsl.render_world` rely on: by predicate,
    then arguments, then the `always` fact before the timed ones in tick
    order. A World made directly keeps its facts as given.

    The mappings are read-only views over private copies, so nothing
    derived from them can go stale. A World is made with two memos, empty
    dicts that one function each reads and fills:
    :func:`tempcoll.core.extension` the extension memo, keyed (predicate,
    pattern, tick), and :func:`tempcoll.algebra.instantiate` the
    instantiation memo, keyed (Collection, tick), which keeps one
    realization for both policies and raises a strict call's error from
    it. Each checks the tick before its lookup and keeps realized answers
    only, so an invalid key raises on every call. The indices below are
    lazy, so a World that answers no query never builds them; the one
    that :func:`tempcoll.core.extension` reads is the hole index, a dict
    keyed (predicate, pattern) that holds each entity as a plain (id,
    invariant, life-span start, end) entry. Memos and indices live only
    in the instance's ``__dict__``, outside equality, hash, ``repr`` and
    pickling, so a copy starts with empty memos and no index, and they
    die with the World. Two threads racing on one memo key both compute
    and store equal answers, so the race is harmless.
    """

    _FIELDS = ("entities", "predicates", "facts", "measures", "collections", "statements")

    def __init__(
        self,
        entities: Mapping[str, Entity] = MappingProxyType({}),
        predicates: Mapping[str, PredicateDecl] = MappingProxyType({}),
        facts: Iterable[Fact] = (),
        measures: Mapping[tuple[str, str, int], Fraction] = MappingProxyType({}),
        collections: Mapping[str, Collection] = MappingProxyType({}),
        statements: Mapping[str, Statement] = MappingProxyType({}),
    ) -> None:
        # Assignment raises, so the fields go into `__dict__` directly.
        vars(self).update(
            entities=MappingProxyType(dict(entities)),
            predicates=MappingProxyType(dict(predicates)),
            facts=tuple(facts),
            measures=MappingProxyType(dict(measures)),
            collections=MappingProxyType(dict(collections)),
            statements=MappingProxyType(dict(statements)),
            # The two memos: see the class docstring.
            _extensions={},
            _instantiations={},
        )

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        # Each read-only view hashes as the frozenset of its items.
        return hash(tuple(v if v is self.facts else frozenset(v.items()) for v in self._values()))

    def __reduce__(self) -> tuple:
        # A read-only view does not pickle, so pickle and deepcopy rebuild
        # the World from plain copies, and the copy starts with no lazy
        # index or memo.
        return World, tuple(v if v is self.facts else dict(v) for v in self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self._FIELDS, self._values()))
        return f"World({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

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
    ) -> dict[tuple[str, tuple[str, ...]], tuple[dict[int, list[HoleEntry]], list[HoleEntry]]]:
        # Key: (predicate, pattern), a fact's arguments with one declared
        # entity replaced by the hole. Value: the entries of the entities
        # filling that hole, by tick for mutable facts, and at any tick for
        # `always` facts and every fact of an invariant predicate. An entry
        # is the plain tuple (entity id, invariant, life-span start, end),
        # one per entity, so a query reads it with no attribute lookup. An
        # invariant fact stated at several ticks lists its entry once per tick.
        invariant = {name for name, decl in self.predicates.items() if decl.invariant}
        entries = {
            entity_id: (entity.id, entity.invariant, *entity.lifespan)
            for entity_id, entity in self.entities.items()
        }
        index: dict = {}
        for predicate, args, at in self.facts:
            anytime = at is None or predicate in invariant
            for hole, arg in enumerate(args):
                entry = entries.get(arg)
                if entry is None:
                    continue
                key = (predicate, args[:hole] + (HOLE,) + args[hole + 1 :])
                slot = index.get(key)
                if slot is None:
                    slot = index[key] = ({}, [])
                if anytime:
                    slot[1].append(entry)
                else:
                    slot[0].setdefault(at, []).append(entry)
        return index

    @cached_property
    def ticks(self) -> tuple[int, ...]:
        """Distinct ticks mentioned by point facts and measures, sorted."""
        seen = {f.at for f in self.facts}  # one read per fact
        seen.discard(None)
        seen.update(tick for (_, _, tick) in self.measures)
        return tuple(sorted(seen))

    def entity(self, entity_id: str) -> Entity:
        return _find(self.entities, entity_id, UnknownEntity, "entity")

    def predicate(self, name: str) -> PredicateDecl:
        return _find(self.predicates, name, UnknownPredicate, "predicate")

    def collection(self, name: str) -> Collection:
        return _find(self.collections, name, UnknownCollection, "collection")

    def statement(self, statement_id: str) -> Statement:
        return _find(self.statements, statement_id, UnknownStatement, "statement")


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
        # Each fact once, in a bucket per (predicate, tick or None), so
        # duplicates collapse and `build` sorts only arguments.
        self._facts: dict[tuple[str, int | None], dict[Fact, None]] = {}
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
        if at is None:
            if not decl.invariant:
                raise InvalidDeclaration(
                    f"'always' fact needs an invariant predicate; '{predicate}' is mutable"
                )
        else:
            check_int(at)
        bucket = self._facts.get((predicate, at))
        if bucket is None:
            bucket = self._facts[predicate, at] = {}
        # `args` is a tuple already, so `Fact.__new__` need not convert it again.
        bucket[tuple.__new__(Fact, (predicate, args, at))] = None
        if at is not None:
            for arg in args:
                entity = self._entities.get(arg)
                if entity is None:
                    continue
                # `at not in entity.lifespan`, inline: see `TimeRef.__contains__`.
                start, end = entity.lifespan
                if not (start <= at and (end is None or at <= end)):
                    return (
                        f"fact {predicate}({', '.join(args)}) @ {number_text(at)} falls "
                        f"outside the life span of {arg} ({entity.lifespan})"
                    )
        return None

    def add_measure(self, measure: str, entity_id: str, at: int, value: Fraction) -> None:
        check_int(at)
        if not isinstance(value, Fraction):  # a float would break exact sums
            raise TypeError(f"a measure value is a Fraction, got {value!r}")
        if measure in self._predicates:
            raise InvalidDeclaration(f"'{measure}' is already a predicate name")
        if entity_id not in self._entities:
            raise UnknownEntity(f"unknown entity '{entity_id}' in measure")
        if entity_id == HOLE:
            raise InvalidDeclaration(f"measures are ground; '{HOLE}' is not an entity")
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
        # The canonical fact order (see `World`) in three steps: sort the
        # buckets by (predicate, timed, tick), join each predicate's buckets
        # in that order, and sort that run by arguments alone. The sort is
        # stable, so equal arguments keep the bucket order, and it makes or
        # compares no tuple per fact.
        buckets = self._facts
        order = sorted(buckets, key=lambda key: (key[0], key[1] is not None, key[1] or 0))
        facts: list[Fact] = []
        for _, keys in groupby(order, itemgetter(0)):
            run = [fact for key in keys for fact in buckets[key]]
            run.sort(key=itemgetter(1))
            facts += run
        # World copies each mapping into a read-only view of its own.
        return World(
            entities=self._entities,
            predicates=self._predicates,
            facts=facts,
            measures=self._measures,
            collections=self._collections,
            statements=self._statements,
        )
