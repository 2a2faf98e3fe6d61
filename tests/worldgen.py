"""Deterministic random worlds for property and acceptance tests.

All generation is driven by a seeded random.Random so bulk runs are
reproducible; hypothesis tests feed seeds through the same functions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tempcoll import (
    HOLE,
    MODE_DICTO,
    MODE_RE,
    InvalidDeclaration,
    TimeRef,
    World,
    WorldBuilder,
)

TICKS = (2000, 2001, 2002, 2003, 2004)
CONSTANTS = ("c0", "c1")
MEASURES = ("m0", "m1")


def random_world(rng: random.Random, *, max_entities: int = 20, n_ticks: int = 5) -> World:
    """A small world with one de dicto and one de re collection.

    Bounded by max_entities entities and n_ticks distinct ticks, matching
    the scale the brute-force oracle is comfortable with.
    """
    ticks = list(TICKS[:n_ticks])
    builder = WorldBuilder()
    names = [f"e{i}" for i in range(rng.randint(1, max_entities))]
    for name in names:
        start = rng.randint(ticks[0] - 5, ticks[-1] - 1)
        if rng.random() < 0.2:
            lifespan = TimeRef(start, None)
        else:
            lifespan = TimeRef(start, start + rng.randint(0, 12))
        builder.add_entity(
            name,
            lifespan,
            invariant=rng.random() < 0.15,
            species="human" if rng.random() < 0.2 else None,
        )

    arities: dict[str, int] = {}
    invariants: dict[str, bool] = {}
    for j in range(rng.randint(1, 3)):
        name = f"p{j}"
        arities[name] = 1 if rng.random() < 0.6 else 2
        invariants[name] = rng.random() < 0.3
        builder.add_predicate(
            name,
            arities[name],
            invariant=invariants[name],
            cohort=rng.random() < 0.15,
        )
    predicates = list(arities)

    facts: list[tuple[str, tuple[str, ...]]] = []
    for _ in range(rng.randint(0, 25)):
        pred = rng.choice(predicates)
        args = tuple(
            rng.choice(names) if rng.random() < 0.75 else rng.choice(CONSTANTS)
            for _ in range(arities[pred])
        )
        at = None
        if not invariants[pred] or rng.random() < 0.5:
            at = rng.choice(ticks)
        builder.add_fact(pred, args, at)
        facts.append((pred, args))

    for _ in range(rng.randint(0, 15)):
        value = Fraction(rng.randint(0, 24), rng.randint(1, 4))
        try:
            builder.add_measure(
                rng.choice(MEASURES),
                rng.choice(names),
                rng.choice(ticks),
                value,
            )
        except InvalidDeclaration:
            pass  # conflicting re-draw for the same key; keep the first

    def pattern_for(pred: str) -> tuple[str, ...]:
        arity = arities[pred]
        templates = [args for p, args in facts if p == pred]
        if templates:
            template = rng.choice(templates)
        else:
            template = tuple(rng.choice(CONSTANTS) for _ in range(arity))
        hole = rng.randrange(arity)
        return tuple(HOLE if i == hole else template[i] for i in range(arity))

    pred = rng.choice(predicates)
    builder.add_collection("Cd", pred, pattern_for(pred))
    pred = rng.choice(predicates)
    builder.add_collection("Cr", pred, pattern_for(pred), rng.choice(ticks))
    return builder.build()


def random_statement_world(
    rng: random.Random,
    *,
    measure_property: bool | None = None,
    directions: tuple[str, ...] = ("less", "more", "changed"),
) -> World:
    """A world carrying one statement S over a collection C.

    Membership facts sit at the two evaluation times; measures are
    recorded with a gap now and then so undefined readings occur. The
    subject predicate `p0` is sometimes a cohort and sometimes takes a
    second argument (a constant, not always the collection's); life spans
    are sometimes open. The statement compares `m0`, `p0` or a second
    predicate `p1`, and its span may outlast the life spans or stay open,
    with or without a declared bound and an explicit mode, so every rule
    of the mode decision fires now and then.
    """
    t1, t2 = sorted(rng.sample(TICKS, 2))
    builder = WorldBuilder()
    names = [f"e{i}" for i in range(rng.randint(1, 6))]
    for name in names:
        start = t1 - rng.randint(0, 5)
        roll = rng.random()
        if roll < 0.1:
            lifespan = TimeRef(start, None)
        elif roll < 0.8:
            lifespan = TimeRef(start, t2 + rng.randint(0, 5))
        else:
            lifespan = TimeRef(start, max(start, t2 - rng.randint(1, 2)))
        builder.add_entity(name, lifespan, invariant=rng.random() < 0.1)

    arity = 2 if rng.random() < 0.25 else 1
    hole = rng.randrange(arity)
    pattern = tuple(HOLE if i == hole else CONSTANTS[0] for i in range(arity))
    builder.add_predicate(
        "p0", arity, invariant=rng.random() < 0.3, cohort=rng.random() < 0.2
    )
    builder.add_predicate("p1", 1, invariant=rng.random() < 0.5)
    for name in names:
        for tick in (t1, t2):
            if rng.random() < 0.8:
                other = CONSTANTS[0] if rng.random() < 0.85 else CONSTANTS[1]
                args = tuple(name if i == hole else other for i in range(arity))
                builder.add_fact("p0", args, tick)
            if rng.random() < 0.5:
                builder.add_fact("p1", (name,), tick)
    recorded = 0
    for name in names:
        for tick in (t1, t2):
            if rng.random() < 0.92:
                builder.add_measure(
                    "m0",
                    name,
                    tick,
                    Fraction(rng.randint(0, 20), rng.randint(1, 3)),
                )
                recorded += 1
    if not recorded:
        # the statement below may name m0; it must exist somewhere
        builder.add_measure("m0", names[0], t1, Fraction(1))

    if rng.random() < 0.5:
        builder.add_collection("C", "p0", pattern, t1)
    else:
        builder.add_collection("C", "p0", pattern)

    if measure_property is None:
        measure_property = rng.random() < 0.5
    if measure_property:
        compared, property_pattern = "m0", None
    elif rng.random() < 0.6:
        compared, property_pattern = "p0", pattern
    else:
        compared, property_pattern = "p1", None
    roll = rng.random()
    if roll < 0.6:
        span = TimeRef(t1, t2)
    elif roll < 0.85:
        span = TimeRef(t1 - rng.randint(0, 20), t2 + rng.randint(0, 20))
    else:
        span = TimeRef(t1, None)
    builder.add_statement(
        "S",
        "C",
        evolutive=rng.random() < 0.8,
        compared_property=compared,
        direction=rng.choice(directions),  # type: ignore[arg-type]
        eval_times=(t1, t2),
        span=span,
        property_pattern=property_pattern,
        # sometimes exactly the span's length, which R3 must not exceed
        species_bound=rng.choice((None, None, 30, rng.randint(1, 12), span.length())),
        explicit_mode=rng.choice((None, None, None, None, MODE_RE, MODE_DICTO)),
    )
    return builder.build()
