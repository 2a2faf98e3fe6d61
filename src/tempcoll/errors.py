"""Typed errors raised by world construction and the algebra operations."""

from __future__ import annotations

__all__ = [
    "TempcollError",
    "InvalidDeclaration",
    "UnknownEntity",
    "UnknownPredicate",
    "UnknownCollection",
    "UnknownStatement",
    "OutsideLifeSpan",
    "ArityMismatch",
    "MultipleHoles",
    "MissingMeasure",
    "EmptyDenominator",
    "NotASubset",
    "TickMismatch",
    "MalformedStatement",
]


class TempcollError(Exception):
    """Base class for every domain error in this package."""


class InvalidDeclaration(TempcollError):
    """A declaration breaks a structural rule: duplicate id, empty interval,
    conflicting measure value, ground-ness violation."""


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


class EmptyDenominator(TempcollError):
    pass


class NotASubset(TempcollError):
    pass


class TickMismatch(TempcollError):
    pass


class MalformedStatement(TempcollError):
    pass
