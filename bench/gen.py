"""Seeded input generator for the tempcoll benchmark.

For each workload it writes a world (``world.tcw``), a script
(``script.tcq``) where the workload has one, and ``plan.json``: the argv
of the invocation and every answer the engine must give. The answers
come from the generator's own record of what it wrote (:class:`Model`),
evaluated with plain set arithmetic that follows the semantics the
tempcoll modules document. tempcoll is never imported here, so a wrong
engine cannot make its own answer key.

    python3 bench/gen.py --seed 7 --out bench/out/gen [--scale 1.0]

writes one directory per workload under ``--out``. ``--scale`` multiplies
the entity counts; 1.0 gives the nominal sizes named in bench/README.md.
The same seed and scale always give byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HOLE = "_"
DE_RE = "de_re"
DE_DICTO = "de_dicto"
WORKLOADS = ("check-large", "explain-all", "eval-mixed")
_SECTIONS = ("entity", "pred", "fact", "measure", "collection", "statement")
_CMP = {"less": "<", "more": ">", "changed": "!="}


def _interval(start: int, end: int | None) -> str:
    return f"[{start}, {'*' if end is None else end}]"


def _rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _holds(late: Fraction, early: Fraction, direction: str) -> bool:
    if direction == "less":
        return late < early
    if direction == "more":
        return late > early
    return late != early


def _label(truth: bool | None) -> str:
    return "undefined" if truth is None else str(truth).lower()


class Model:
    """What the generator wrote, and the answers that follow from it.

    Declarations are recorded as they are emitted; emitting a duplicate
    fact or measure, or a timed fact outside an argument's life span
    (which the parser would report as a warning), raises ValueError.
    """

    def __init__(self) -> None:
        self.lifespans: dict[str, tuple[int, int | None]] = {}
        self.preds: dict[str, tuple[int, bool, bool]] = {}
        self.facts: set[tuple[str, tuple[str, ...], int | None]] = set()
        self._timed: dict[tuple[str, int], list[tuple[str, ...]]] = defaultdict(list)
        self._always: dict[str, list[tuple[str, ...]]] = defaultdict(list)
        self.measures: dict[tuple[str, str, int], Fraction] = {}
        self.collections: dict[str, tuple[str, str, tuple[str, ...], int | None]] = {}
        self.statements: list[dict] = []
        self.lines: dict[str, list[str]] = {kind: [] for kind in _SECTIONS}

    # -- declarations -----------------------------------------------------

    def entity(self, eid: str, start: int, end: int | None) -> None:
        if eid in self.lifespans:
            raise ValueError(f"duplicate entity {eid}")
        self.lifespans[eid] = (start, end)
        self.lines["entity"].append(f"entity {eid} lifespan {_interval(start, end)}")

    def pred(self, name: str, arity: int, *, invariant: bool = False, cohort: bool = False) -> None:
        self.preds[name] = (arity, invariant, cohort)
        line = f"pred {name} arity {arity} {'invariant' if invariant else 'mutable'}"
        self.lines["pred"].append(line + (" cohort" if cohort else ""))

    def fact(self, pred: str, args: tuple[str, ...], tick: int | None) -> None:
        key = (pred, args, tick)
        if key in self.facts:
            raise ValueError(f"duplicate fact {key}")
        if tick is not None:
            for arg in args:
                if arg in self.lifespans and not self.alive(arg, tick):
                    raise ValueError(f"fact {key} falls outside the life span of {arg}")
        self.facts.add(key)
        if self.preds[pred][1]:
            self._always[pred].append(args)
        else:
            self._timed[(pred, tick)].append(args)
        at = "*" if tick is None else str(tick)
        self.lines["fact"].append(f"fact {pred}({', '.join(args)}) @ {at}")

    def measure(self, name: str, eid: str, tick: int, value: Fraction) -> None:
        key = (name, eid, tick)
        if key in self.measures or value < 0:
            raise ValueError(f"bad measure {key} = {value}")
        self.measures[key] = value
        self.lines["measure"].append(f"measure {name}({eid}) @ {tick} = {_rational(value)}")

    def collection(
        self, name: str, mode: str, pred: str, pattern: tuple[str, ...], anchor: int | None = None
    ) -> None:
        self.collections[name] = (mode, pred, pattern, anchor)
        flavor = "dicto" if mode == DE_DICTO else f"re@{anchor}"
        self.lines["collection"].append(
            f"collection {name} {flavor} := {pred}({', '.join(pattern)})"
        )

    def statement(
        self,
        sid: str,
        subject: str,
        *,
        evolutive: bool,
        prop: str,
        direction: str,
        times: tuple[int, int],
        span: tuple[int, int | None],
        pattern: tuple[str, ...] | None = None,
        bound: int | None = None,
        mode: str | None = None,
    ) -> None:
        stmt = {
            "id": sid,
            "subject": subject,
            "evolutive": evolutive,
            "property": prop,
            "pattern": pattern,
            "direction": direction,
            "times": times,
            "span": span,
            "bound": bound,
            "mode": mode,
        }
        self.statements.append(stmt)
        prop_text = prop if pattern is None else f"{prop}({', '.join(pattern)})"
        line = (
            f"statement {sid} subject {subject} "
            f"profile {'evolutive' if evolutive else 'static'} property {prop_text} "
            f"direction {direction} times {times[0]}, {times[1]} span {_interval(*span)}"
        )
        if bound is not None:
            line += f" bound {bound}"
        if mode is not None:
            line += f" mode {'re' if mode == DE_RE else 'dicto'}"
        self.lines["statement"].append(line)

    def world_text(self) -> str:
        return "".join(line + "\n" for kind in _SECTIONS for line in self.lines[kind])

    # -- semantics --------------------------------------------------------

    def alive(self, eid: str, tick: int) -> bool:
        start, end = self.lifespans[eid]
        return start <= tick and (end is None or tick <= end)

    def ticks(self) -> set[int]:
        seen = {tick for (_, _, tick) in self.facts if tick is not None}
        seen.update(tick for (_, _, tick) in self.measures)
        return seen

    def extension(self, pred: str, pattern: tuple[str, ...], tick: int) -> set[str]:
        """Entities filling the hole at `tick`: a timed fact of a mutable
        predicate holds at its tick only, any fact of an invariant one
        holds throughout; only live declared entities count."""
        hole = pattern.index(HOLE)
        rows = self._always[pred] if self.preds[pred][1] else self._timed.get((pred, tick), ())
        return {
            args[hole]
            for args in rows
            if args[hole] in self.lifespans
            and self.alive(args[hole], tick)
            and all(a == p for i, (a, p) in enumerate(zip(args, pattern)) if i != hole)
        }

    def instantiate(self, coll: tuple, tick: int) -> tuple[set[str], set[str]]:
        """(members, dropped) under the lenient policy."""
        mode, pred, pattern, anchor = coll
        if mode == DE_DICTO:
            return self.extension(pred, pattern, tick), set()
        base = self.extension(pred, pattern, anchor)
        members = {e for e in base if self.alive(e, tick)}
        return members, base - members

    def decide(self, stmt: dict) -> tuple[str, list[str]]:
        """Mode and fired rule ids, in the order the engine records them."""
        if stmt["mode"] is not None:
            return stmt["mode"], ["E0"]
        rules = []
        prop = stmt["property"]
        if stmt["evolutive"] and prop in self.preds and self.preds[prop][1]:
            rules.append("R1")
        _, pred, pattern, _ = self.collections[stmt["subject"]]
        t1, t2 = stmt["times"]
        if self.preds[pred][2]:
            rules.append("R2")
        else:
            early, late = self.extension(pred, pattern, t1), self.extension(pred, pattern, t2)
            if early and late and not early & late:
                rules.append("R2")
        if self._span_exceeds(stmt, pred, pattern):
            rules.append("R3")
        return (DE_DICTO, rules) if rules else (DE_RE, ["R0"])

    def _span_exceeds(self, stmt: dict, pred: str, pattern: tuple[str, ...]) -> bool:
        start, end = stmt["span"]
        span_length = None if end is None else end - start
        bound = stmt["bound"]
        if bound is None:
            candidates: set[str] = set()
            for t in stmt["times"]:
                candidates |= self.extension(pred, pattern, t)
            lengths = [
                None if e_end is None else e_end - e_start
                for e_start, e_end in (self.lifespans[c] for c in candidates)
            ]
            if not lengths or None in lengths:
                return False
            bound = max(lengths)
        return span_length is None or span_length > bound

    def _effective(self, stmt: dict, mode: str) -> tuple:
        coll_mode, pred, pattern, anchor = self.collections[stmt["subject"]]
        if mode == coll_mode:
            return coll_mode, pred, pattern, anchor
        if mode == DE_DICTO:
            return DE_DICTO, pred, pattern, None
        return DE_RE, pred, pattern, anchor if anchor is not None else min(stmt["times"])

    def readings(self, stmt: dict, mode: str) -> list[tuple[str, str]]:
        """(reading kind, truth label) for every licensed reading."""
        prop, direction = stmt["property"], stmt["direction"]
        t1, t2 = stmt["times"]
        coll = self._effective(stmt, mode)
        (m1, d1), (m2, d2) = self.instantiate(coll, t1), self.instantiate(coll, t2)
        if prop in self.preds:
            pattern = stmt["pattern"] or (HOLE,)
            truth = None
            if not (d1 or d2) and m1 and m2:
                early = Fraction(len(m1 & self.extension(prop, pattern, t1)), len(m1))
                late = Fraction(len(m2 & self.extension(prop, pattern, t2)), len(m2))
                truth = _holds(late, early, direction)
            return [("ratio_evolution", _label(truth))]
        if mode == DE_DICTO:
            return [("ratio_evolution", "undefined")]
        individual = aggregate = None
        if not (d1 or d2):
            v1 = [self.measures.get((prop, e, t1)) for e in m1]
            v2 = [self.measures.get((prop, e, t2)) for e in m2]
            if None not in v1 and None not in v2:
                aggregate = _holds(sum(v2, Fraction(0)), sum(v1, Fraction(0)), direction)
                if m1 == m2:
                    individual = all(
                        _holds(self.measures[(prop, e, t2)], self.measures[(prop, e, t1)], direction)
                        for e in m1
                    )
        return [("individual_evolution", _label(individual)), ("global_aggregate", _label(aggregate))]

    # -- script expressions -----------------------------------------------
    # inst: ("inst", collection, tick, filter | None), filter: (pred, pattern)
    # expr: inst | ("card", inst) | ("ratio", inst, inst) | ("sum", measure, inst)

    def _inst(self, expr: tuple) -> tuple[set[str], set[str], int]:
        _, name, tick, filt = expr
        members, dropped = self.instantiate(self.collections[name], tick)
        if filt is not None:
            members = members & self.extension(filt[0], filt[1], tick)
        return members, dropped, tick

    def value(self, expr: tuple) -> dict:
        """The JSON value the engine reports, less its display fields."""
        kind = expr[0]
        if kind == "inst":
            members, dropped, tick = self._inst(expr)
            return {
                "type": "instantiation",
                "members": [f"{e}@{tick}" for e in sorted(members)],
                "dropped": sorted(dropped),
            }
        if kind == "card":
            return {"type": "natural", "value": len(self._inst(expr[1])[0])}
        if kind == "ratio":
            part, whole = self._inst(expr[1])[0], self._inst(expr[2])[0]
            if not part <= whole:
                raise ValueError(f"ratio part is not a subset: {expr}")
            if not whole:
                return {"type": "undefined"}
            return _rational_json(Fraction(len(part), len(whole)))
        members, _, tick = self._inst(expr[2])
        values = [self.measures.get((expr[1], e, tick)) for e in members]
        if None in values:
            return {"type": "undefined"}
        return _rational_json(sum(values, Fraction(0)))

    def compare(self, left: tuple, op: str, right: tuple) -> str:
        lv, rv = self.value(left), self.value(right)
        if "undefined" in (lv["type"], rv["type"]):
            return "undefined"
        if lv["type"] == "instantiation":
            if op != "=" or rv["type"] != "instantiation":
                raise ValueError("instantiations only compare with '='")
            return _label(lv["members"] == rv["members"])
        a, b = _number(lv), _number(rv)
        return _label(a < b if op == "<" else a > b if op == ">" else a == b)


def _rational_json(value: Fraction) -> dict:
    return {"type": "rational", "num": value.numerator, "den": value.denominator}


def _number(value: dict) -> Fraction:
    if value["type"] == "natural":
        return Fraction(value["value"])
    return Fraction(value["num"], value["den"])


def _expr_text(expr: tuple) -> str:
    kind = expr[0]
    if kind == "inst":
        _, name, tick, filt = expr
        text = f"{name}@{tick}"
        return text if filt is None else f"{text} | {filt[0]}({', '.join(filt[1])})"
    if kind == "card":
        return f"card({_expr_text(expr[1])})"
    if kind == "ratio":
        return f"ratio({_expr_text(expr[1])}, {_expr_text(expr[2])})"
    return f"sum {expr[1]} over {_expr_text(expr[2])}"


# ---------------------------------------------------------------------------
# Workloads


def _score_series(rng: random.Random, trend: str) -> tuple[Fraction, Fraction]:
    """(base, step) of a per-tick score that stays non-negative over ten
    ticks and moves strictly in the trend's direction."""
    base = Fraction(rng.randint(60, 120), rng.choice((1, 2)))
    step = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
    return base, {"inc": step, "dec": -step, "flat": Fraction(0)}[trend]


def _check_large(rng: random.Random, scale: float) -> Model:
    """~15 lines per entity: 9 facts, 5 measures; 60 collections and 200
    statements that are parsed and validated, never evaluated."""
    m = Model()
    ticks = range(2000, 2005)
    n = max(10, round(6600 * scale))
    n_groups = 60
    for name, arity, invariant in (
        ("member", 2, False),
        ("active", 1, False),
        ("knows", 2, False),
        ("native", 1, True),
    ):
        m.pred(name, arity, invariant=invariant)
    ids = [f"e{i}" for i in range(n)]
    for eid in ids:
        end = None if rng.random() < 0.1 else 2010 + rng.randrange(60)
        m.entity(eid, 1930 + rng.randrange(60), end)
    for eid in ids:
        groups = rng.sample(range(n_groups), 2)
        candidates = [("native", (eid,), None)]
        candidates += [("active", (eid,), t) for t in ticks]
        candidates += [("member", (eid, f"g{g}"), t) for g in groups for t in ticks]
        others = {(rng.choice(ids), rng.choice(ticks)) for _ in range(5)}
        candidates += [("knows", (eid, o), t) for o, t in sorted(others) if o != eid]
        for pred, args, tick in rng.sample(candidates, 9):
            m.fact(pred, args, tick)
    for eid in ids:
        base, step = _score_series(rng, rng.choice(("inc", "dec", "flat")))
        for t in ticks:
            m.measure("score", eid, t, base + step * (t - 2000))
    for g in range(n_groups):
        if rng.random() < 0.5:
            m.collection(f"K{g}", DE_DICTO, "member", (HOLE, f"g{g}"))
        else:
            m.collection(f"K{g}", DE_RE, "member", (HOLE, f"g{g}"), rng.choice(ticks))
    properties = (("score", None), ("active", None), ("active", (HOLE,)), ("native", None))
    for k in range(200):
        prop, pattern = rng.choice(properties)
        if rng.random() < 0.2:
            prop, pattern = "member", (HOLE, f"g{rng.randrange(n_groups)}")
        t1, t2 = sorted(rng.sample(ticks, 2))
        span = rng.choice(((t1, t2), (t1 - 30, t2 + 30), (t1, None)))
        m.statement(
            f"S{k}",
            f"K{rng.randrange(n_groups)}",
            evolutive=rng.random() < 0.7,
            prop=prop,
            pattern=pattern,
            direction=rng.choice(tuple(_CMP)),
            times=(t1, t2),
            span=span,
            bound=rng.choice((None, None, 40)),
            mode=rng.choice((None, None, None, DE_RE, DE_DICTO)),
        )
    return m


# Statement kinds of the explain-all workload, one per decision path.
EXPLAIN_KINDS = (
    "re_measure",    # R0: de re over a measure, individual and aggregate readings
    "re_ratio",      # R0: de re ratio over a mutable predicate
    "r1_invariant",  # R1: evolution of an invariant property
    "r2_cohort",     # R2: subject over a cohort predicate
    "r2_disjoint",   # R2: realizations at the two times share no member
    "r3_bound",      # R3: span longer than the declared species bound
    "e0_explicit",   # E0: explicit mode on the statement
    "dropped",       # R0: a member dies before t2, readings undefined
    "gap",           # R0: a member has no score at t1 or t2, readings undefined
)


def _explain_all(rng: random.Random, scale: float) -> tuple[Model, list[str]]:
    """About 15 lines per entity and 200 statements (at scale 1), each over
    its own subject collection and tick pair; the script explains every
    one. Statements shrink slower than entities, because each `analyze`
    scans every membership fact, so evaluation keeps outweighing parsing."""
    m = Model()
    ticks = list(range(2000, 2010))
    n = max(60, round(1000 * scale))
    n_statements = max(2 * len(EXPLAIN_KINDS), round(200 * scale**0.25))
    group_size = max(3, round(10 * scale**0.5))
    m.pred("member", 2)
    m.pred("cohort_of", 2, cohort=True)
    m.pred("active", 1)
    m.pred("native", 1, invariant=True)

    trends: dict[str, str] = {}
    dying: list[str] = []
    gappy: list[str] = []
    # Pools, fact counts and each statement's variant follow indexes, so
    # every seed asks for the same amount of work; members, ticks and
    # values are drawn.
    for i in range(n):
        eid = f"p{i}"
        if i % 25 < 3:
            m.entity(eid, 1950 + rng.randrange(40), 2000 + i % 8)
            dying.append(eid)
            continue
        end = None if i % 10 == 9 else 2060 + rng.randrange(30)
        m.entity(eid, 1940 + rng.randrange(40), end)
        trends[eid] = rng.choice(("inc", "dec", "flat"))
        if i % 25 < 5:
            gappy.append(eid)
    # Gappy entities serve only the gap statements.
    long_lived = [e for e in trends if e not in gappy]
    by_trend = {t: [e for e in long_lived if trends[e] == t] for t in ("inc", "dec", "flat")}
    missing = {e: set(rng.sample(ticks, 3)) for e in gappy}

    for i, eid in enumerate(m.lifespans):
        alive = [t for t in ticks if m.alive(eid, t)]
        for t in sorted(rng.sample(alive, round(0.4 * len(alive)))):
            m.fact("active", (eid,), t)
        if i % 10 < 3:
            m.fact("native", (eid,), rng.choice(alive) if i % 10 == 0 else None)
        base, step = _score_series(rng, trends.get(eid, "flat"))
        for t in alive:
            if t not in missing.get(eid, ()):
                m.measure("score", eid, t, base + step * (t - 2000))

    def sample(pool: list[str], k: int) -> list[str]:
        return rng.sample(pool, min(k, len(pool)))

    def members_at(pred: str, group: str, tick: int, ids: list[str]) -> None:
        for eid in ids:
            m.fact(pred, (eid, group), tick)

    script = []
    for k in range(n_statements):
        kind = EXPLAIN_KINDS[k % len(EXPLAIN_KINDS)]
        variant = k // len(EXPLAIN_KINDS)
        group, coll = f"g{k}", f"C{k}"
        t1, t2 = sorted(rng.sample(ticks, 2))
        size = 2 + variant % (group_size - 1)
        direction = rng.choice(tuple(_CMP))
        prop, pattern, evolutive = "active", rng.choice((None, (HOLE,))), rng.random() < 0.6
        span: tuple[int, int | None] = (t1, t2)
        bound = mode = None
        pred, coll_mode = "member", DE_RE
        if kind == "re_measure":
            if variant % 2 == 0:
                trend = {"more": "inc", "less": "dec"}.get(direction, rng.choice(("inc", "dec")))
                ids = sample(by_trend[trend], size)
            else:
                ids = sample(long_lived, size)
            members_at(pred, group, t1, ids)
            members_at(pred, group, t2, ids)
            prop, pattern, evolutive = "score", None, True
        elif kind in ("re_ratio", "r3_bound", "r1_invariant"):
            ids = sample(long_lived, size + 1)
            members_at(pred, group, t1, ids[:-1] if kind == "r1_invariant" else ids)
            members_at(pred, group, t2, ids[1:] if kind == "r1_invariant" else ids)
            if kind == "r1_invariant":
                prop, evolutive = "native", True
                coll_mode = (DE_RE, DE_DICTO)[variant % 2]
            elif kind == "r3_bound":
                span, bound = (t1 - 40, t2 + 40), rng.randint(20, 60)
                coll_mode = (DE_RE, DE_DICTO)[variant % 2]
        elif kind in ("r2_cohort", "r2_disjoint"):
            ids = sample(long_lived, 2 * size)
            if kind == "r2_cohort":
                pred, coll_mode = "cohort_of", DE_DICTO
            members_at(pred, group, t1, ids[:size])
            members_at(pred, group, t2, ids[size:])
            if kind == "r2_disjoint" and variant % 3 == 0:
                prop, pattern = "score", None
        elif kind == "e0_explicit":
            ids = sample(long_lived, size)
            members_at(pred, group, t1, ids)
            members_at(pred, group, t2, ids)
            mode = DE_DICTO if variant % 3 == 0 else DE_RE
            coll_mode = DE_DICTO if variant % 3 == 1 else DE_RE
            if variant % 3 < 2:
                prop, pattern = "score", None
        elif kind == "dropped":
            victim = rng.choice(dying)
            end = m.lifespans[victim][1]
            t1 = rng.choice([t for t in ticks if m.alive(victim, t)])
            t2 = rng.randint(end + 1, 2009)
            span = (t1, t2)
            ids = sample(long_lived, size)
            members_at(pred, group, t1, ids + [victim])
            members_at(pred, group, t2, ids)
            if variant % 5 < 3:
                prop, pattern = "score", None
        else:  # gap
            hole_owner = rng.choice(gappy)
            t1 = rng.choice(sorted(missing[hole_owner]))
            t2 = rng.choice([t for t in ticks if t != t1])
            t1, t2 = sorted((t1, t2))
            span = (t1, t2)
            ids = sample([e for e in long_lived if e != hole_owner], size) + [hole_owner]
            members_at(pred, group, t1, ids)
            members_at(pred, group, t2, ids)
            prop, pattern = "score", None
        if coll_mode == DE_RE:
            m.collection(coll, DE_RE, pred, (HOLE, group), t1)
        else:
            m.collection(coll, DE_DICTO, pred, (HOLE, group))
        m.statement(
            f"S{k}",
            coll,
            evolutive=evolutive,
            prop=prop,
            pattern=pattern,
            direction=direction,
            times=(t1, t2),
            span=span,
            bound=bound,
            mode=mode,
        )
        script.append(f"explain S{k}")
    return m, script


# One round of eval-mixed commands; "|" marks a filtered instantiation.
_EVAL_CYCLE = (
    "card", "sum", "ratio", "inst", "assert card",
    "card|", "sum|", "assert sum", "ratio", "inst|",
    "assert ratio", "card", "sum", "assert card|", "inst",
    "assert sum|", "sum|", "card|", "assert inst", "ratio",
)


def _eval_mixed(rng: random.Random, scale: float) -> tuple[Model, list[tuple]]:
    """About 2k entities, eight collections and 300 commands whose
    (collection, tick) instantiations repeat many times."""
    m = Model()
    ticks = list(range(2000, 2010))
    n = max(60, round(2000 * scale))
    m.pred("member", 2)
    m.pred("active", 1)
    m.pred("native", 1, invariant=True)
    # Life-span kinds, group counts and fact counts follow the entity's
    # index, so every seed asks for the same amount of work; which
    # entities, groups and ticks is drawn.
    ids = [f"x{i}" for i in range(n)]
    for i, eid in enumerate(ids):
        kind = i % 20
        if kind < 14:  # alive at every tick
            start, end = 1940 + rng.randrange(50), None if kind == 0 else 2040 + rng.randrange(40)
        elif kind < 17:  # dies at a tick
            start, end = 1940 + rng.randrange(50), 2000 + i % 9
        else:  # born at a tick
            start = 2001 + i % 9
            end = None if kind == 17 else start + 40 + rng.randrange(40)
        m.entity(eid, start, end)
    for i, eid in enumerate(ids):
        alive = [t for t in ticks if m.alive(eid, t)]
        for g in sorted(rng.sample(range(6), 2 if i % 3 == 0 else 1)):
            # g0 has no members at 2009, so Club@2009 is empty.
            candidates = [t for t in alive if not (g == 0 and t == 2009)]
            for t in sorted(rng.sample(candidates, len(candidates) // 2)):
                m.fact("member", (eid, f"g{g}"), t)
        for t in sorted(rng.sample(alive, round(0.4 * len(alive)))):
            m.fact("active", (eid,), t)
        if i % 5 == 0:
            m.fact("native", (eid,), None)
    # A few Guild members lack a score now and then: sums over them are undefined.
    guild = sorted(m.extension("member", ("_", "g5"), 2002))
    gaps = {(e, t) for e in rng.sample(guild, min(3, len(guild))) for t in rng.sample(ticks, 2)}
    for eid in ids:
        base, step = _score_series(rng, rng.choice(("inc", "dec", "flat")))
        for t in ticks:
            if m.alive(eid, t) and (eid, t) not in gaps:
                m.measure("score", eid, t, base + step * (t - 2000))
    m.collection("Club", DE_DICTO, "member", (HOLE, "g0"))
    m.collection("Team", DE_DICTO, "member", (HOLE, "g1"))
    m.collection("Staff", DE_RE, "member", (HOLE, "g2"), 2003)
    m.collection("Crew", DE_RE, "member", (HOLE, "g3"), 2000)
    m.collection("Panel", DE_RE, "member", (HOLE, "g4"), 2006)
    m.collection("Guild", DE_RE, "member", (HOLE, "g5"), 2002)
    m.collection("Active", DE_DICTO, "active", (HOLE,))
    m.collection("Natives", DE_DICTO, "native", (HOLE,))
    names = list(m.collections)
    filters = (("active", (HOLE,)), ("native", (HOLE,)), ("member", (HOLE, "g1")))
    draws = itertools.count()

    def inst(filtered: bool = False) -> tuple:
        # Collections and filters come round in a fixed order, so every
        # seed asks for the same mix of work; only the ticks are drawn.
        i = next(draws)
        filt = filters[i % len(filters)] if filtered else None
        return ("inst", names[i % len(names)], rng.choice(ticks), filt)

    def ratio() -> tuple:
        whole = inst()
        return ("ratio", ("inst", whole[1], whole[2], filters[whole[2] % len(filters)]), whole)

    make = {
        "card": lambda: ("card", inst()),
        "card|": lambda: ("card", inst(True)),
        "sum": lambda: ("sum", "score", inst()),
        "sum|": lambda: ("sum", "score", inst(True)),
        "ratio": ratio,
        "inst": inst,
        "inst|": lambda: inst(True),
    }
    commands: list[tuple] = []
    for i in range(300):
        kind = _EVAL_CYCLE[i % len(_EVAL_CYCLE)]
        if kind == "assert inst":
            left = inst()
            right = left if rng.random() < 0.5 else inst()
            commands.append(("assert", left, "=", right))
        elif kind.startswith("assert "):
            left, right = make[kind[7:]](), make[kind[7:]]()
            commands.append(("assert", left, rng.choice("<>="), right))
        else:
            commands.append(("eval", make[kind]()))
    return m, commands


def generate(workload: str, seed: int, out_dir: Path, scale: float = 1.0) -> dict:
    """Write the inputs of one workload under `out_dir` and return its plan.

    The argv in the plan names the files by `out_dir` as given, so the
    engine must run from the directory `out_dir` is relative to.
    """
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    world_path, script_path = out_dir / "world.tcw", out_dir / "script.tcq"
    if workload == "check-large":
        m = _check_large(rng, scale)
        argv = ["check", str(world_path)]
        counts = (
            f"entities={len(m.lifespans)}, predicates={len(m.preds)}, facts={len(m.facts)}, "
            f"measures={len(m.measures)}, ticks={len(m.ticks())}, "
            f"collections={len(m.collections)}, statements={len(m.statements)}"
        )
        expect = {"report": f"check {world_path}: ok ({counts})\nstatus: ok\n"}
        exit_code = 0
        script_text = None
    elif workload == "explain-all":
        m, lines = _explain_all(rng, scale)
        argv = ["eval", str(world_path), str(script_path)]
        statements = []
        for stmt in m.statements:
            mode, rules = m.decide(stmt)
            statements.append([stmt["id"], mode, rules, m.readings(stmt, mode)])
        expect = {"statements": statements}
        exit_code = 0
        script_text = "".join(line + "\n" for line in lines)
    elif workload == "eval-mixed":
        m, commands = _eval_mixed(rng, scale)
        argv = ["eval", "--format", "json", "--policy", "lenient", str(world_path), str(script_path)]
        planned, lines = [], []
        for index, cmd in enumerate(commands, start=1):
            if cmd[0] == "eval":
                lines.append(f"eval {_expr_text(cmd[1])}")
                planned.append({"kind": "eval", "index": index, "value": m.value(cmd[1])})
            else:
                _, left, op, right = cmd
                lines.append(f"assert {_expr_text(left)} {op} {_expr_text(right)}")
                truth = m.compare(left, op, right)
                planned.append({"kind": "assert", "index": index, "truth": truth})
        failed = any(c.get("truth") in ("false", "undefined") for c in planned)
        exit_code = 1 if failed else 0
        expect = {"status": "fail" if failed else "ok", "commands": planned}
        script_text = "".join(line + "\n" for line in lines)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    world_path.write_text(m.world_text(), encoding="utf-8")
    if script_text is not None:
        script_path.write_text(script_text, encoding="utf-8")
    plan = {"workload": workload, "seed": seed, "scale": scale, "argv": argv, "exit": exit_code, "expect": expect}
    (out_dir / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    return plan


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    for workload in WORKLOADS:
        generate(workload, args.seed, args.out / workload, args.scale)


if __name__ == "__main__":
    main()
