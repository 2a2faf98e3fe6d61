from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text
from tempcoll import TimeRef, parse_script, parse_world, render_world
from tempcoll.dsl import (
    AssertCommand,
    CardExpr,
    DisambiguateCommand,
    EvalCommand,
    ExplainCommand,
    InstExpr,
    RatioExpr,
    SumExpr,
)
from worldgen import random_statement_world, random_world

FIXTURE_WORLDS = (
    "youth.tcw",
    "friends.tcw",
    "sitin.tcw",
    "centuries.tcw",
    "origins.tcw",
    "missing.tcw",
)
FIXTURE_SCRIPTS = ("youth.tcq", "friends.tcq", "origins.tcq")


# ---------------------------------------------------------------------------
# parse_world


def test_parse_youth_counts(youth):
    assert len(youth.entities) == 9
    assert len(youth.ticks) == 2
    assert len(youth.predicates) == 2


def test_empty_input_is_an_empty_world():
    world, diagnostics = parse_world("")
    assert world is not None
    assert diagnostics == []
    assert not world.entities and not world.facts


def test_comments_and_blank_lines_are_ignored():
    world, diagnostics = parse_world("; nothing here\n\n   \n")
    assert world is not None and not diagnostics


def test_malformed_world_reports_every_problem():
    text = fixture_text("malformed.tcw")
    world, diagnostics = parse_world(text, source_name="malformed.tcw")
    assert world is None
    messages = [d.message for d in diagnostics]
    assert any("empty interval" in m for m in messages)
    assert any("arity mismatch" in m for m in messages)
    assert any("unknown predicate 'drinks'" in m for m in messages)
    assert any("'always' fact needs an invariant predicate" in m for m in messages)
    assert any("needs an anchor" in m for m in messages)
    assert any("duplicate entity id 'a'" in m for m in messages)
    for d in diagnostics:
        assert d.severity == "error"
        assert d.line >= 1 and d.column >= 1
        assert d.source_name == "malformed.tcw"


def test_arity_mismatch_points_at_the_fact_line():
    text = "pred smokes arity 2 mutable\nfact smokes(a) @ 2002\n"
    world, diagnostics = parse_world(text)
    assert world is None
    (d,) = diagnostics
    assert "arity mismatch" in d.message
    assert d.line == 2


def test_fact_outside_lifespan_is_a_warning():
    text = (
        "entity a lifespan [2000, 2001]\n"
        "pred p arity 1 mutable\n"
        "fact p(a) @ 2004\n"
    )
    world, diagnostics = parse_world(text)
    assert world is not None
    (d,) = diagnostics
    assert d.severity == "warning"
    assert d.line == 3
    assert "outside the life span" in d.message


def test_unknown_declaration_keyword():
    world, diagnostics = parse_world("entety a lifespan [0, 1]\n")
    assert world is None
    (d,) = diagnostics
    assert "unknown declaration" in d.message
    assert (d.line, d.column) == (1, 1)


def test_lines_end_only_at_newlines():
    # Form feed, vertical tab, \x1c-\x1e, \x85, U+2028 and U+2029 are
    # whitespace inside a line: they neither end a comment nor shift
    # the line numbers of later diagnostics.
    for char in "\x0b\x0c\x1c\x1d\x1e\x85  ":
        text = f"; a comment with {char} inside\nentity a lifespan [0, 1]{char}\r\nentety b\rentety c\n"
        world, diagnostics = parse_world(text)
        assert world is None
        assert [(d.line, d.column, d.message) for d in diagnostics] == [
            (3, 1, "unknown declaration 'entety'"),
            (4, 1, "unknown declaration 'entety'"),
        ], repr(char)


def test_only_ascii_digits_are_numbers():
    world, diagnostics = parse_world("entity a lifespan [٢٠٠٠, 2005]\n")
    assert world is None
    (d,) = diagnostics
    assert (d.line, d.column, d.message) == (1, 20, "unexpected character '٢'")
    script, diagnostics = parse_script("eval card(C@٢)\n")
    assert script is None
    assert [(d.column, d.message) for d in diagnostics] == [(13, "unexpected character '٢'")]


def test_duplicate_measure_conflict():
    text = (
        "entity a lifespan [2000, 2005]\n"
        "measure m(a) @ 2002 = 3\n"
        "measure m(a) @ 2002 = 4\n"
    )
    world, diagnostics = parse_world(text)
    assert world is None
    assert any("conflicting values" in d.message for d in diagnostics)


# ---------------------------------------------------------------------------
# render_world


def test_round_trip_on_fixtures():
    for name in FIXTURE_WORLDS:
        first, _ = parse_world(fixture_text(name))
        assert first.statements, name
        rendered = render_world(first)
        second, diagnostics = parse_world(rendered)
        assert not diagnostics, (name, [d.render() for d in diagnostics])
        assert second == first, name
        assert render_world(second) == rendered, name


def test_canonical_render_ignores_declaration_order():
    text = fixture_text("friends.tcw")
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith(";")]
    entities = [l for l in lines if l.startswith("entity")]
    preds = [l for l in lines if l.startswith("pred")]
    rest = [l for l in lines if not l.startswith(("entity", "pred"))]
    shuffled = "\n".join(list(reversed(entities)) + preds + list(reversed(rest)))
    original, _ = parse_world(text)
    scrambled, diagnostics = parse_world(shuffled)
    assert not diagnostics
    assert render_world(scrambled) == render_world(original)
    assert scrambled == original


def test_open_lifespan_renders_star():
    world, _ = parse_world("entity e lifespan [1990, *]\n")
    assert world.entities["e"].lifespan == TimeRef(1990, None)
    assert "lifespan [1990, *]" in render_world(world)


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_round_trip_on_generated_worlds(seed):
    world = random_world(random.Random(seed))
    rendered = render_world(world)
    reparsed, diagnostics = parse_world(rendered)
    assert not [d for d in diagnostics if d.severity == "error"]
    assert reparsed == world
    assert render_world(reparsed) == rendered


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_round_trip_on_generated_statement_worlds(seed):
    world = random_statement_world(random.Random(seed))
    rendered = render_world(world)
    reparsed, diagnostics = parse_world(rendered)
    assert not [d for d in diagnostics if d.severity == "error"]
    assert reparsed == world
    assert render_world(reparsed) == rendered


# ---------------------------------------------------------------------------
# parse_script


def test_parse_youth_script():
    script, diagnostics = parse_script(fixture_text("youth.tcq"))
    assert not diagnostics
    kinds = [type(c) for c in script.commands]
    assert kinds == [
        AssertCommand,
        EvalCommand,
        EvalCommand,
        EvalCommand,
        DisambiguateCommand,
    ]
    first = script.commands[0]
    assert first.op == "<"
    assert first.left == RatioExpr(
        InstExpr("Yt", TimeRef.point(2003)), InstExpr("Y", TimeRef.point(2003))
    )
    assert first.right == RatioExpr(
        InstExpr("Yt", TimeRef.point(2002)), InstExpr("Y", TimeRef.point(2002))
    )


def test_parse_script_expressions():
    script, diagnostics = parse_script(
        "eval card(Y@2002 | smokes(_, tobacco))\n"
        "eval sum cons_tobacco over F @ 2002\n"
        "eval ratio(Yt@2003, Y@2003)\n"
        "explain S1\n"
    )
    assert not diagnostics
    card, total, rat, explain = script.commands
    assert card.expr == CardExpr(
        InstExpr("Y", TimeRef.point(2002), "smokes", ("_", "tobacco"))
    )
    assert total.expr == SumExpr("cons_tobacco", InstExpr("F", TimeRef.point(2002)))
    assert rat.expr == RatioExpr(
        InstExpr("Yt", TimeRef.point(2003)), InstExpr("Y", TimeRef.point(2003))
    )
    assert isinstance(explain, ExplainCommand) and explain.statement_id == "S1"


def test_collections_named_like_expression_keywords():
    world, diagnostics = parse_world(
        "pred p arity 1 mutable\n"
        "collection card dicto := p(_)\n"
        "collection ratio re@2 := p(_)\n"
        "collection sum dicto := p(_)\n"
    )
    assert world is not None and not diagnostics
    script, diagnostics = parse_script(
        "eval card@2\n"
        "eval ratio @ 2\n"
        "eval sum@2 | p(_)\n"
        "assert card@2 = sum@2\n"
        "eval card(card@2)\n"
        "eval ratio(card@2, ratio@2)\n"
        "eval sum sum over sum@2\n"
    )
    assert not diagnostics, [d.render() for d in diagnostics]
    at = TimeRef.point(2)
    card, ratio, total = InstExpr("card", at), InstExpr("ratio", at), InstExpr("sum", at)
    assert [c.expr for c in script.commands[:3]] == [
        card,
        ratio,
        InstExpr("sum", at, "p", ("_",)),
    ]
    assertion = script.commands[3]
    assert (assertion.left, assertion.op, assertion.right) == (card, "=", total)
    assert [c.expr for c in script.commands[4:]] == [
        CardExpr(card),
        RatioExpr(card, ratio),
        SumExpr("sum", total),
    ]


def test_unbalanced_paren_reported_at_opening_column():
    script, diagnostics = parse_script("eval card(")
    assert script is None
    (d,) = diagnostics
    assert d.column == len("eval card(")  # the '(' position
    assert "unbalanced" in d.message


def test_unknown_command_and_bad_tick():
    script, diagnostics = parse_script("evaluate card(Y@2002)\neval card(Y@now)\n")
    assert script is None
    assert len(diagnostics) == 2
    assert "unknown command" in diagnostics[0].message
    assert diagnostics[0].line == 1
    assert "expected an integer" in diagnostics[1].message
    assert diagnostics[1].line == 2


def test_fixture_scripts_parse():
    for name in FIXTURE_SCRIPTS:
        script, diagnostics = parse_script(fixture_text(name), source_name=name)
        assert script is not None and not diagnostics, name
        assert script.commands


# ---------------------------------------------------------------------------
# nothing crashes the parsers


@given(st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_fuzzed_fixtures_never_crash(seed):
    rng = random.Random(seed)
    name = rng.choice(FIXTURE_WORLDS + FIXTURE_SCRIPTS)
    data = bytearray(fixture_text(name).encode())
    for _ in range(rng.randint(1, 12)):
        if not data:
            break
        data[rng.randrange(len(data))] = rng.randrange(256)
    text = data.decode("utf-8", errors="replace")
    for parse in (parse_world, parse_script):
        result, diagnostics = parse(text)
        for d in diagnostics:
            assert d.line >= 1 and d.column >= 1
        if result is None:
            assert any(d.severity == "error" for d in diagnostics)
