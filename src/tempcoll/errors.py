"""Typed errors raised by world construction and the algebra operations."""

from __future__ import annotations


class TempcollError(Exception):
    """Base class for every domain error in this package."""


class InvalidDeclaration(TempcollError):
    """A declaration breaks a structural rule: duplicate id, empty interval,
    conflicting measure value, ground-ness violation, missing anchor."""


class UnknownEntity(TempcollError):
    pass


class UnknownPredicate(TempcollError):
    pass


class UnknownCollection(TempcollError):
    pass


class UnknownStatement(TempcollError):
    pass


class OutsideLifeSpan(TempcollError):
    """A slice was requested at a time the entity does not live through."""


class ArityMismatch(TempcollError):
    pass


class MultipleHoles(TempcollError):
    """An argument pattern did not contain exactly one hole."""


class MissingMeasure(TempcollError):
    """No measure fact is recorded for (measure, entity, tick).

    Deliberately distinct from a recorded zero.
    """

    def __init__(self, measure: str, entity_id: str, at: int) -> None:
        super().__init__(f"missing measure {measure} for {entity_id}@{at}")
        self.measure = measure
        self.entity_id = entity_id
        self.at = at


class EmptyDenominator(TempcollError):
    pass


class NotASubset(TempcollError):
    pass


class TickMismatch(TempcollError):
    pass


class MalformedStatement(TempcollError):
    pass


class UnboundedSpan(TempcollError):
    """A statement span has an open end and there is no finite bound to
    compare it against."""
