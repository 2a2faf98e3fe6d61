"""Temporal collections: a calculus of time-sliced sets.

Worlds hold entities with life spans, time-indexed facts, and exact
measures. Collections over them are either de dicto (re-realized at
every time) or de re (membership fixed at an anchor). A rule engine
decides which interpretation a plural statement takes and evaluates
every licensed reading; a small DSL and CLI make worlds and queries
scriptable.
"""

from __future__ import annotations

from .algebra import (
    Instantiation,
    aggregate_sum,
    cardinality,
    filter_members,
    instantiate,
    ratio,
)
from .core import extension, measure_value, slice_at
from .dsl import Diagnostic, Script, parse_script, parse_world, render_world
from .errors import (
    ArityMismatch,
    EmptyDenominator,
    InvalidDeclaration,
    MalformedStatement,
    MissingMeasure,
    MultipleHoles,
    NotASubset,
    OutsideLifeSpan,
    TempcollError,
    TickMismatch,
    UnboundedSpan,
    UnknownCollection,
    UnknownEntity,
    UnknownPredicate,
    UnknownStatement,
)
from .model import (
    HOLE,
    MODE_DICTO,
    MODE_RE,
    Collection,
    Entity,
    Fact,
    LifeSpan,
    Mode,
    Policy,
    PredicateDecl,
    PredicationProfile,
    Slice,
    Statement,
    TimeRef,
    World,
    WorldBuilder,
)
from .readings import (
    Decision,
    FiredRule,
    LifespanCheck,
    Reading,
    Witness,
    analyze,
    cohort_disjoint,
    decide_mode,
    enumerate_readings,
    evaluate_reading,
    lifespan_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
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
    # core ops
    "slice_at",
    "extension",
    "measure_value",
    # algebra
    "Instantiation",
    "instantiate",
    "filter_members",
    "cardinality",
    "ratio",
    "aggregate_sum",
    # readings
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
    # dsl
    "Diagnostic",
    "Script",
    "parse_world",
    "parse_script",
    "render_world",
    # errors
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
    "UnboundedSpan",
]
