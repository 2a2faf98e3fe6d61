from __future__ import annotations

import gc
import inspect
import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_dsl_corpus as corpus
from conftest import FIXTURES, fixture_text, int_digit_limit
from tempcoll import TimeRef, WorldBuilder, dsl, parse_script, parse_world, render_world
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
        assert d.source == "malformed.tcw"


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
    # An error anywhere drops the warnings along with the world.
    world, diagnostics = parse_world(text + "fact p(a, a) @ 2001\n")
    assert world is None
    (d,) = diagnostics
    assert d.severity == "error"
    assert d.line == 4
    assert "arity mismatch" in d.message


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


def test_facts_render_deduplicated_in_canonical_order():
    # By predicate, then arguments, then `*` before any tick, then tick;
    # measures by measure, then entity, then tick, with exact values.
    world, diagnostics = parse_world(
        "entity a lifespan [-9, 9]\nentity b lifespan [-9, 9]\n"
        "pred q arity 1 invariant\npred p arity 2 mutable\n"
        "fact q(b) @ 3\nfact p(b, a) @ 1\nfact q(b) @ -2\nfact q(b) @ *\nfact p(a, b) @ 2\n"
        "fact q(a) @ -1\nfact p(a, b) @ -4\nfact q(b) @ 3\n"
        "measure n(b) @ 3 = 7\nmeasure m(b) @ -1 = 1/2\nmeasure n(a) @ -9 = 2.5\n"
        "measure m(a) @ 4 = 0.125\nmeasure m(b) @ -9 = 12/8\nmeasure n(b) @ 3 = 7\n"
        "measure m(a) @ -1 = 0\n"
    )
    assert world is not None and not diagnostics
    assert [line for line in render_world(world).splitlines() if line.startswith("fact")] == [
        "fact p(a, b) @ -4",
        "fact p(a, b) @ 2",
        "fact p(b, a) @ 1",
        "fact q(a) @ -1",
        "fact q(b) @ *",
        "fact q(b) @ -2",
        "fact q(b) @ 3",
    ]
    assert [line for line in render_world(world).splitlines() if line.startswith("measure")] == [
        "measure m(a) @ -1 = 0",
        "measure m(a) @ 4 = 1/8",
        "measure m(b) @ -9 = 3/2",
        "measure m(b) @ -1 = 1/2",
        "measure n(a) @ -9 = 5/2",
        "measure n(b) @ 3 = 7",
    ]


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
# the full-line patterns: accept with the cursor parser's value, or refuse


def _patterns(table):
    """(word, pattern, maker) for each row of `table` that has a line pattern."""
    return [(word, *row[2]) for word, row in table.items() if row[2] is not None]


def _drop_patterns(mp, table):
    """Leave every line of `table`'s format to the tokenizer path."""
    for word, row in list(table.items()):
        mp.setitem(table, word, (*row[:2], None))


def _outcomes(text: str, parser: str = "world") -> list[tuple[object, list[str]]]:
    """The world (or the script's repr) and rendered diagnostics of
    `text`, with the line patterns in use and with them dropped."""
    table = dsl._DECLARATIONS if parser == "world" else dsl._COMMANDS
    results = []
    for drop in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if drop:
                _drop_patterns(mp, table)
            if parser == "world":
                result, diagnostics = parse_world(text, source_name="w.tcw")
            else:
                script, diagnostics = parse_script(text, source_name="s.tcq")
                result = repr(script)
        results.append((result, [d.render() for d in diagnostics]))
    return results


_SPACES = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000"]
_DIGITS_2001 = "\u0662\u0660\u0660\u0661"  # Arabic-Indic
# slot: (valid choices, near misses)
_SLOTS = {
    "space": (_SPACES, [""]),
    "name": (
        ["a", "b", "z", "p", "q", "m", "n", "_x", "e1", "invariant", "fact"],
        ["_", "1", "a-1", "\u00e9"],
    ),
    "tick": (
        ["2001", "2003", "0", "-0", "-7", "*"],
        ["2002abc", "2002/3", "1.5", _DIGITS_2001, "200\u0661", "x"],
    ),
    "value": (
        ["1", "0", "-0", "-2", "1/2", "-0/5", "0.25"],
        ["1/0", "0/0", "1.", "3 4", "x", "\u0663"],
    ),
    "tail": (["", " ", " ; a comment", ";c", "\u00a0;\u2028c"], [" x", " $", ")", "invariant"]),
    # an argument of a collection or statement pattern
    "pattern": (["_", "a", "c0", "_x"], ["1", "*", "a-1", "\u00e9"]),
    # a collection's mode, `{}` standing for its anchor tick
    "mode": (
        ["dicto", "re@{}", "re @ {}", "re\u00a0@{}"],
        ["re", "re@", "re {}", "redicto", "dicto@{}", "re@@{}", "RE@{}", "re:{}"],
    ),
    "profile": (["evolutive", "static"], ["dynamic", "Static", "evolutives"]),
    "direction": (["less", "more", "changed"], ["fewer", "Less", "lessmore"]),
    "option_mode": (["re", "dicto"], ["de_re", "re@2001", "redicto", "dicto2"]),
}


@st.composite
def _declaration_line(draw, near_misses: bool = True) -> str:
    """An entity, fact, measure, collection or statement line, reversed
    intervals, `-0` and odd whitespace included; with `near_misses`, most
    are near misses in one kind of slot: glued words, `_` or bad names, bad
    numbers, argument counts, misspelt keywords, junk."""
    broken = draw(st.sampled_from([None, "args", "word", *_SLOTS])) if near_misses else None

    def pick(slot: str) -> str:
        valid, misses = _SLOTS[slot]
        return draw(st.sampled_from(misses if slot == broken and draw(st.booleans()) else valid))

    def gap() -> str:
        return draw(st.sampled_from(["", pick("space")]))

    def word(text: str) -> str:
        if broken == "word" and draw(st.booleans()):
            return draw(st.sampled_from([text.upper(), text + "s", text[:-1], text + "1"]))
        return text

    def args(slot: str, counts: list[int]) -> str:
        names = [pick(slot) for _ in range(draw(st.sampled_from(counts)))]
        return f"{gap()}({gap()}{(gap() + ',' + gap()).join(names)}{gap()})"

    def interval() -> str:
        return f"{gap()}[{gap()}{pick('tick')}{gap()},{gap()}{pick('tick')}{gap()}]"

    kind = draw(st.sampled_from(["entity", "fact", "measure", "collection", "statement"]))
    indent = draw(st.sampled_from(["", " ", "\t", "   ", "\u00a0"]))
    line = indent + kind + pick("space") + pick("name")
    if kind == "entity":
        line += pick("space") + word("lifespan") + interval()
        if draw(st.booleans()):
            line += pick("space") + word("invariant")
        if draw(st.booleans()):
            line += f"{pick('space')}{word('species')}{pick('space')}{pick('name')}"
    elif kind == "collection":
        mode = pick("mode").replace("{}", pick("tick"))
        line += f"{pick('space')}{mode}{gap()}:={gap()}{pick('name')}"
        line += args("pattern", [0, 3] if broken == "args" else [1, 2])
    elif kind == "statement":
        line += f"{pick('space')}{word('subject')}{pick('space')}{pick('name')}"
        line += f"{pick('space')}{word('profile')}{pick('space')}{pick('profile')}"
        line += f"{pick('space')}{word('property')}{pick('space')}{pick('name')}"
        if draw(st.booleans()):
            line += args("pattern", [0, 3] if broken == "args" else [1, 2])
        line += f"{pick('space')}{word('direction')}{pick('space')}{pick('direction')}"
        line += f"{pick('space')}{word('times')}{pick('space')}{pick('tick')}"
        line += f"{gap()},{gap()}{pick('tick')}{pick('space')}{word('span')}{interval()}"
        if draw(st.booleans()):
            line += f"{pick('space')}{word('bound')}{pick('space')}{pick('tick')}"
        if draw(st.booleans()):
            line += f"{pick('space')}{word('mode')}{pick('space')}{pick('option_mode')}"
    else:
        counts = [0, 2] if broken == "args" else {"fact": [1, 2, 3], "measure": [1]}[kind]
        line += f"{args('name', counts)}{gap()}@{gap()}{pick('tick')}"
        if kind == "measure":
            line += f"{gap()}={gap()}{pick('value')}"
    return line + pick("tail")


@given(st.lists(_declaration_line(), min_size=1, max_size=6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_line_patterns_agree_with_the_tokenizer(lines, prelude):
    text = (corpus.WORLD_PRELUDE if prelude else "") + "\n".join(lines)
    fast, slow = _outcomes(text)
    assert fast == slow


_SCRIPT_SLOTS = {
    "space": (_SPACES, [""]),
    "name": (["Y", "C", "card", "ratio", "sum", "over", "_", "e1"], ["1", "\u00e9", "a-1", "("]),
    "tick": (["2002", "0", "-0", "-3"], ["x", "1.5", "2002/3", _DIGITS_2001, "2002abc", "*", ""]),
    "op": (["<", ">", "="], ["==", ":=", "<=", "x", "|"]),
    "tail": _SLOTS["tail"],
}


@st.composite
def _command_line(draw, near_misses: bool = True) -> str:
    """An `eval` or `assert` line over every expression form, collections
    named `card`, `ratio`, `sum` or `over` included; with `near_misses`,
    most are near misses in one kind of slot: glued or misspelt words, a
    dropped `over` or `)`, bad names, rational or decimal ticks, `==` or
    `:=`, junk."""
    broken = draw(st.sampled_from([None, "paren", "word", *_SCRIPT_SLOTS])) if near_misses else None

    def pick(slot: str) -> str:
        valid, misses = _SCRIPT_SLOTS[slot]
        return draw(st.sampled_from(misses if slot == broken and draw(st.booleans()) else valid))

    def gap() -> str:
        return draw(st.sampled_from(["", pick("space")]))

    def word(text: str) -> str:
        if broken == "word" and draw(st.booleans()):
            return draw(st.sampled_from([text.upper(), text + "s", text[:-1], text + "1", ""]))
        return text

    def close() -> str:
        return "" if broken == "paren" and draw(st.booleans()) else ")"

    def inst() -> str:
        text = f"{pick('name')}{gap()}@{gap()}{pick('tick')}"
        if draw(st.booleans()):
            count = draw(st.sampled_from([0, 1, 2] if broken == "paren" else [1, 2]))
            args = [draw(st.sampled_from(["_", "a", "c0"])) for _ in range(count)]
            joined = (gap() + "," + gap()).join(args)
            text += f"{gap()}|{gap()}{pick('name')}{gap()}({gap()}{joined}{gap()}{close()}"
        return text

    def expr() -> str:
        kind = draw(st.sampled_from(["inst", "card", "ratio", "sum"]))
        if kind == "inst":
            return inst()
        if kind == "card":
            return f"{word('card')}{gap()}({gap()}{inst()}{gap()}{close()}"
        if kind == "ratio":
            return f"{word('ratio')}{gap()}({gap()}{inst()}{gap()},{gap()}{inst()}{gap()}{close()}"
        measure = f"{pick('space')}{pick('name')}{pick('space')}{word('over')}"
        return f"{word('sum')}{measure}{pick('space')}{inst()}"

    head = draw(st.sampled_from(["eval", "assert"]))
    indent = draw(st.sampled_from(["", " ", "\t", "\u00a0"]))
    line = indent + word(head) + pick("space") + expr()
    if head == "assert":
        line += gap() + pick("op") + gap() + expr()
    return line + pick("tail")


@given(st.lists(_command_line(), min_size=1, max_size=6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_command_patterns_agree_with_the_tokenizer(lines, prelude):
    text = (corpus.SCRIPT_PRELUDE if prelude else "") + "\n".join(lines)
    fast, slow = _outcomes(text, "script")
    assert fast == slow


_STATEMENT = "statement S subject C profile static property p direction less times 2001, 2002"
_AFTER_PROPERTY = " direction less times 1, 2 span [1, 2]"

# Lines where a pattern that read a name or number glued to a word
# would part from the tokenizer.
GLUED_LINES = (
    ("world", "collection Cdicto := p(_)"),
    ("world", "collection C redicto := p(_)"),
    ("world", "collection C re2001 := p(_)"),
    ("world", "collection C re@2001:=p(_)"),
    ("world", "statement Ssubject C profile static property p" + _AFTER_PROPERTY),
    ("world", "statement S subject C profile static property p" + _AFTER_PROPERTY.lstrip()),
    ("world", "statement S subject C profile static property p(_)" + _AFTER_PROPERTY.lstrip()),
    ("world", _STATEMENT + "span [2000, 2005]"),
    ("world", _STATEMENT + " span [2000, 2005]bound 5mode re"),
    ("world", _STATEMENT + " span [2000, 2005] bound5"),
    ("world", _STATEMENT + " span [2000, 2005] bound -5"),
    ("world", _STATEMENT + " span [2000, 2005] bound-5"),
    ("world", _STATEMENT + " span [2000, 2005] mode dicto2"),
    ("world", _STATEMENT + " span [2000, 2005] modere"),
    ("script", "evalY@1"),
    ("script", "eval card@2"),
    ("script", "eval card (Y@1)"),
    ("script", "eval card2(Y@1)"),
    ("script", "eval ratio(card@1,sum@1)"),
    ("script", "eval sum m overY@1"),
    ("script", "eval summ over Y@1"),
    ("script", "eval sum mover Y@1"),
    ("script", "eval sum over over C@1"),
    ("script", "eval sum over@1"),
    ("script", "eval Y@1|p(_)"),
    ("script", "eval Y@1 2"),
    ("script", "assert Y@1<Y@2"),
    ("script", "assert Y@1==Y@2"),
    ("script", "assert Y@1<>Y@2"),
)


@pytest.mark.parametrize("parser, line", GLUED_LINES)
def test_line_patterns_agree_on_glued_lines(parser, line):
    fast, slow = _outcomes(line, parser)
    assert fast == slow


@pytest.mark.parametrize(
    "rest, matched",
    [
        (" S1", True),
        ("  S1 ; why S2", True),
        ("\tS1;x", True),
        (" card", True),
        (" _", True),
        (" 12", False),
        (" S1 S2", False),
        ("S1", False),
        (" S1 @", False),
        (" \u00e9", False),
        ("", False),
    ],
)
def test_explain_pattern_agrees_with_the_tokenizer(rest, matched):
    # An `explain` line gives the same command or the same diagnostic on
    # both paths; a line the pattern declines ends in the tokenizer's
    # diagnostic.
    for indent in ("", " \t"):
        line = indent + "explain" + rest
        pattern = dsl._EXPLAIN_LINE
        assert (pattern.fullmatch(line) is not None) == matched, line
        fast, slow = _outcomes(line, "script")
        assert fast == slow, line
        assert (fast[0] != "None") == matched and bool(fast[1]) != matched, line


_TWO_ENTITIES = "entity a lifespan [0, 9]\nentity b lifespan [0, 9]\npred p arity 2 mutable\n"
_PQ_WORLD = _TWO_ENTITIES + "pred q arity 2 mutable\nfact p(a, b) @ 1\nfact q(b, a) @ 1\n"


@pytest.mark.parametrize("space", ["\t", "\u00a0"], ids=["tab", "nbsp"])
@pytest.mark.parametrize(
    "parser, head, line",
    [
        ("world", _TWO_ENTITIES, "fact p(a,{}b) @ 1"),
        ("world", _TWO_ENTITIES, "fact p({}a, b) @ 1"),
        ("world", _PQ_WORLD, "collection C dicto := p(_,{}b)"),
        (
            "world",
            _PQ_WORLD + "collection C dicto := p(_, b)\n",
            "statement S subject C profile static property q(_,{}b) direction less "
            "times 1, 2 span [1, 2]",
        ),
        ("script", "", "eval card(C @ 1 | p(_,{}b))"),
        ("script", "", "assert card(C @ 1 | p(_, b)) < card(C @ 2 | p(_{}, b))"),
    ],
    ids=["fact", "fact-open", "collection", "statement", "eval", "assert"],
)
def test_argument_whitespace_but_spaces_takes_the_tokenizer_path(parser, head, line, space):
    # Argument lists in the line patterns are split on spaces only, so
    # any other whitespace there declines the line, with the same value.
    line = line.format(space)
    table = dsl._DECLARATIONS if parser == "world" else dsl._COMMANDS
    assert all(pattern.fullmatch(line) is None for _, pattern, _ in _patterns(table))
    fast, slow = _outcomes(head + line, parser)
    assert fast == slow
    assert fast[0] not in (None, "None") and not fast[1]


_STATEMENT = "statement S{} subject C profile static property p direction less times 1, 2 span [{}]"
_STATEMENT_WORLD = "entity a lifespan [0, 9]\npred p arity 1 mutable\ncollection C dicto := p(_)\n"


@pytest.mark.parametrize(
    "parser, text, built",
    [
        # Spaces around a name or a comma are accepted.
        ("world", _TWO_ENTITIES + "fact p(a ,b) @ 1", True),
        ("world", _TWO_ENTITIES + "fact p( a , b ) @ 1", True),
        ("world", _PQ_WORLD + "collection C dicto := p( _ ,b )", True),
        # Alternating kinds: the previous line's pattern is the wrong one.
        (
            "world",
            "entity a lifespan [0, 9]\npred p arity 1 mutable\nfact p(a) @ 1\n"
            "measure m(a) @ 1 = 2\nfact p(a) @ 2\ncollection C dicto := p(_)\n"
            "measure m(a) @ 2 = 1/2\nstatement S subject C profile evolutive property m "
            "direction less times 1, 2 span [1, 2]",
            True,
        ),
        # A line declined right after a fact line, then a fact line again.
        ("world", _TWO_ENTITIES + "fact p(a, b) @ 1\nfact p(a, _) @ 2\nfact p(b, a) @ 3", False),
        # A tokenizer-path line between two statements, then an entity.
        *(
            (
                "world",
                f"{_STATEMENT_WORLD}{_STATEMENT.format(1, '1, 2')}\n{between}\n"
                f"{_STATEMENT.format(2, '1, 2')}\nentity b lifespan [0, 9]",
                True,
            )
            for between in ("pred q arity 1 mutable", "; a comment", "")
        ),
        # A statement with a reversed span, an error line, then a valid one.
        (
            "world",
            f"{_STATEMENT_WORLD}{_STATEMENT.format(1, '2, 1')}\n{_STATEMENT.format(2, '1, 2')}",
            False,
        ),
        ("script", "explain S1\ndisambiguate S1\nexplain S2", True),
        # An `eval` no pattern matches (a `card` of two), then a valid one.
        ("script", "eval card(C@1, C@2)\neval card(C@1)", False),
    ],
    ids=[
        "space-before-comma",
        "spaces-inside",
        "collection-spaces",
        "alternating-kinds",
        "declined-after-fact",
        "pred-between-statements",
        "comment-between-statements",
        "blank-between-statements",
        "reversed-span-statement",
        "disambiguate-between-explains",
        "card-of-two-eval",
    ],
)
def test_argument_spaces_and_kind_order_keep_the_value(parser, text, built):
    fast, slow = _outcomes(text, parser)
    assert fast == slow
    assert (fast[0] not in (None, "None")) == built


# Indentation -> the 1-based column of the word after it. `parse_world`
# finds a builder diagnostic's column again from the line's text. Every
# whitespace character that does not end a line indents by itself.
_INDENTS = {
    "   ": 4,
    "\t": 2,
    "\u00a0": 2,
    "\x0c": 2,
    " \t\u00a0\x0c ": 6,
    **{c: 2 for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\r\n"},
}
_DIAGNOSED_PRELUDE = "entity ann lifespan [0, 9]\npred p arity 1 mutable\n"
# A line for each declaration word that draws a builder error after the
# prelude, and its message; a tab in an argument list declines a pattern.
_BUILDER_ERRORS = [
    ("entity ann lifespan [0, 9]", "duplicate entity id 'ann'"),
    ("pred p arity 1 mutable", "duplicate predicate 'p'"),
    ("fact q(ann) @ 1", "unknown predicate 'q' in fact"),
    ("fact q(\tann) @ 1", "unknown predicate 'q' in fact"),
    ("measure m(bob) @ 1 = 2", "unknown entity 'bob' in measure"),
    ("collection C dicto := q(_)", "unknown predicate 'q' in collection 'C'"),
    ("collection C dicto := q(\t_)", "unknown predicate 'q' in collection 'C'"),
    (
        "statement S subject D profile static property p direction less times 1, 2 span [1, 2]",
        "unknown subject collection 'D'",
    ),
    (
        "statement S subject D profile static property p(\t_) direction less "
        "times 1, 2 span [1, 2]",
        "unknown subject collection 'D'",
    ),
]


@pytest.mark.parametrize("severity", ["error", "warning"])
def test_builder_diagnostics_point_at_the_indented_word(severity):
    # Each line is indented, and its diagnostic has the line's number and
    # its word's column, on the pattern path and on the tokenizer path.
    lines, expected = _DIAGNOSED_PRELUDE.splitlines(), []
    for indent, column in _INDENTS.items():
        if severity == "error":
            drawn = _BUILDER_ERRORS
        else:  # facts outside `ann`'s life span, one with a tab in its arguments
            warning = "fact p(ann) @ {0} falls outside the life span of ann ([0, 9])"
            drawn = [
                (f"fact p{args} @ {tick}", warning.format(tick))
                for args, tick in (("(ann)", 10 + len(lines)), ("(\tann)", 11 + len(lines)))
            ]
        for line, message in drawn:
            lines.append(indent + line)
            expected.append(f"w.tcw:{len(lines)}:{column}: {severity}: {message}")
    fast, slow = _outcomes("\n".join(lines) + "\n")
    assert fast == slow
    assert (fast[0] is None) == (severity == "error")
    assert fast[1] == expected


def _cursor_value(word: str, line: str) -> tuple:
    """The tuple that `word`'s cursor parser gives for `line`."""
    table = dsl._DECLARATIONS if word in dsl._DECLARATIONS else dsl._COMMANDS
    cur = dsl._Cursor(line, {})
    cur.take(word)
    value = table[word][0](cur)
    cur.expect_end()
    return value


_DIGIT_RUN = st.one_of(
    st.text("0123456789", min_size=1, max_size=3),
    st.builds(
        lambda n, digits: (digits * n)[:n],
        st.integers(1, 641),
        st.text("0123456789", min_size=1, max_size=3),
    ),
)
_LITERALS = st.builds(
    lambda sign, run, tail: sign + run + tail,
    st.sampled_from(["", "-"]),
    _DIGIT_RUN,
    st.one_of(st.just(""), st.tuples(st.sampled_from("/."), _DIGIT_RUN).map("".join)),
)
_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,2}", fullmatch=True)


@given(
    st.sampled_from(["fact", "measure"]),
    _NAMES,
    st.lists(_NAMES, min_size=1, max_size=3),
    st.sampled_from(["", " "]),
    st.sampled_from(["1", "-0", "*"]),
    _LITERALS,
    st.sampled_from([640, 4300]),
)
@settings(max_examples=300, deadline=None)
def test_a_matched_fact_or_measure_line_gives_the_cursor_tuple(
    word, name, args, space, tick, literal, limit
):
    # The `fact` and `measure` patterns refuse what their cursor parsers
    # reject (the hole, a zero denominator, a digit run past 640), so a
    # line they match gives the cursor parser's tuple.
    if word == "fact":
        line = f"fact {name}({space}{f'{space},{space}'.join(args)}{space}) @ {tick}"
    else:
        line = f"measure {name}({space}{args[0]}{space}) @ 2 = {literal}"
    pattern, make = dsl._DECLARATIONS[word][2]
    with int_digit_limit(limit):
        m = pattern.fullmatch(line)
        if m is not None:
            assert make(m, {}) == _cursor_value(word, line)


def _value_or_error(build, *args) -> tuple:
    """("value", what `build(*args)` returns) or ("error", its `_LineError`'s args)."""
    try:
        return "value", build(*args)
    except dsl._LineError as e:
        return "error", e.args


_EXPLAIN_LINES = st.builds(
    "{}explain{}{}{}".format,
    st.sampled_from(["", "\t"]),
    st.sampled_from(_SPACES),
    st.sampled_from(_SLOTS["name"][0]),
    st.sampled_from(_SLOTS["tail"][0]),
)


@given(
    st.one_of(_declaration_line(near_misses=False), _command_line(near_misses=False), _EXPLAIN_LINES)
)
@settings(max_examples=1000, deadline=None)
def test_a_matched_line_gives_the_cursor_tuple_or_its_error(line):
    # A line a pattern matches gives the tuple its cursor parser gives, or,
    # for an interval whose end comes before its start, the same error.
    for word, pattern, make in _patterns(dsl._DECLARATIONS) + _patterns(dsl._COMMANDS):
        m = pattern.fullmatch(line)
        if m is not None:
            assert _value_or_error(make, m, {}) == _value_or_error(_cursor_value, word, line)


_EDGE_LITERALS = [
    "1",
    "-0",
    "1/2",
    "0.25",
    "1" * 640,
    "1" * 641,
    "1/0",
    "3/00",
    "-0/7",
    "0." + "5" * 640,
    "0." + "5" * 641,
    "7" * 700 + "/3",
    "2/" + "0" * 639 + "1",
    "2/" + "0" * 640 + "1",
]


@pytest.mark.parametrize("limit", [640, 4300])
@pytest.mark.parametrize("arg", ["e", "_", "_e"])
@pytest.mark.parametrize(
    "literal", _EDGE_LITERALS, ids=lambda t: t if len(t) < 9 else f"{t[:3]}...{len(t)}"
)
def test_fact_and_measure_edges_agree_with_the_tokenizer(literal, arg, limit):
    text = (
        "entity e lifespan [0, 9]\nentity _ lifespan [0, 9]\nentity _e lifespan [0, 9]\n"
        f"pred p arity 1 mutable\nfact p({arg}) @ 1\nmeasure m({arg}) @ 1 = {literal}\n"
    )
    with int_digit_limit(limit):
        fast, slow = _outcomes(text)
    assert fast == slow


def test_line_patterns_agree_on_fixtures_and_corpus_cases():
    shapes = Path(__file__).parent.glob("shapes.tc[wq]")
    paths = sorted(FIXTURES.glob("*.tc[wq]")) + sorted(shapes)
    cases = [(p.suffix, p.read_text(encoding="utf-8")) for p in paths]
    cases += [
        (".tcw" if c["parser"] == "world" else ".tcq", corpus._full_text(c))
        for c in corpus.hand_cases()
    ]
    cases += [
        (Path(name).suffix, corpus.fuzz_text(name, index))
        for name in corpus.fuzz_fixtures()
        for index in range(corpus.FUZZ_PER_FIXTURE)
    ]
    for suffix, text in cases:
        fast, slow = _outcomes(text, "world" if suffix == ".tcw" else "script")
        assert fast == slow, text


@pytest.mark.parametrize(
    "table, words",
    [
        ("_DECLARATIONS", ["entity", "fact", "measure", "collection", "statement"]),
        ("_COMMANDS", ["eval", "assert", "explain"]),
    ],
)
def test_line_tables_keep_their_contract(table, words):
    # The common kinds have a pattern; each starts with its row's word, so
    # no pattern shadows another word; the indentation is an uncaptured
    # `\s*`, so every group is a value; a pattern ends like a line may,
    # comment included.
    patterns = _patterns(getattr(dsl, table))
    assert [word for word, _, _ in patterns] == words
    for word, pattern, _ in patterns:
        assert pattern.pattern.startswith(rf"\s*{word}\s+"), word
        assert pattern.pattern.endswith(dsl._END), word


_FIXTURE_SCRIPT_PATHS = sorted(FIXTURES.glob("*.tcq")) + [Path(__file__).parent / "shapes.tcq"]


def _made_tuples(table, parse, texts):
    """The (word, tuple) pairs that the line patterns' makers and the
    cursor parsers give for `texts`, parsed with the patterns in use and
    with them dropped."""
    made: dict[str, list[tuple[str, tuple]]] = {"pattern": [], "cursor": []}

    def recorded(path, word, parse_line):
        def record(*args):
            value = parse_line(*args)
            if value is not None:
                made[path].append((word, value))
            return value

        return record

    with pytest.MonkeyPatch.context() as mp:
        for word, (parse_line, target, line_pattern) in list(table.items()):
            if line_pattern is not None:
                line_pattern = (line_pattern[0], recorded("pattern", word, line_pattern[1]))
            mp.setitem(table, word, (recorded("cursor", word, parse_line), target, line_pattern))
        for drop in (False, True):
            if drop:
                _drop_patterns(mp, table)
            for text in texts:
                parse(text)
    return made


def test_build_table_names_positional_builder_methods():
    # Each world kind names a builder method that takes its argument
    # tuple positionally, and each command class takes its tuple and then
    # (line, text) positionally; every tuple that a cursor parser or a
    # maker gives for a fixture binds to its call.
    builder = WorldBuilder()
    worlds = [fixture_text(name) for name in FIXTURE_WORLDS]
    scripts = [path.read_text(encoding="utf-8") for path in _FIXTURE_SCRIPT_PATHS]
    for table, parse, texts, calls, after in (
        (
            dsl._DECLARATIONS,
            parse_world,
            worlds,
            {kind: getattr(builder, name) for kind, (_, name, _) in dsl._DECLARATIONS.items()},
            (),
        ),
        (
            dsl._COMMANDS,
            parse_script,
            scripts,
            {word: command for word, (_, command, _) in dsl._COMMANDS.items()},
            (1, "text"),
        ),
    ):
        signatures = {word: inspect.signature(call) for word, call in calls.items()}
        for word, signature in signatures.items():
            kinds = {p.kind for p in signature.parameters.values()}
            assert kinds == {inspect.Parameter.POSITIONAL_OR_KEYWORD}, word
        made = _made_tuples(table, parse, texts)
        assert {word for word, _ in made["pattern"]} == {word for word, _, _ in _patterns(table)}
        assert {word for word, _ in made["cursor"]} == set(calls)
        for word, args in made["pattern"] + made["cursor"]:
            signatures[word].bind(*args, *after)


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=60, deadline=None)
def test_generated_declarations_take_the_line_patterns(seed, statements):
    world = (random_statement_world if statements else random_world)(random.Random(seed))
    text = render_world(world)
    kinds = ("entity", "fact", "measure", "collection", "statement")
    accepted = {kind: 0 for kind in kinds}
    slow = []

    def counted(kind, make):
        def count(m, shared):
            value = make(m, shared)
            accepted[kind] += value is not None
            return value

        return count

    def spied(parse):
        def spy(cur):
            slow.append(parse.__name__)
            return parse(cur)

        return spy

    with pytest.MonkeyPatch.context() as mp:
        for kind in kinds:
            parse, method, (pattern, make) = dsl._DECLARATIONS[kind]
            row = (spied(parse), method, (pattern, counted(kind, make)))
            mp.setitem(dsl._DECLARATIONS, kind, row)
        reparsed, _ = parse_world(text)
    assert reparsed == world
    assert slow == []
    lines = text.splitlines()
    assert accepted == {kind: sum(l.startswith(kind + " ") for l in lines) for kind in kinds}


def test_fixture_commands_take_the_line_patterns():
    def refused(cur):
        raise AssertionError("an eval or assert line reached its cursor parser")

    with pytest.MonkeyPatch.context() as mp:
        for word in ("eval", "assert"):
            mp.setitem(dsl._COMMANDS, word, (refused, *dsl._COMMANDS[word][1:]))
        for path in _FIXTURE_SCRIPT_PATHS:
            script, diagnostics = parse_script(path.read_text(encoding="utf-8"))
            assert script is not None and not diagnostics, path.name


@pytest.mark.parametrize(
    "line",
    [
        "eval card(C@1, C@2)",
        "eval ratio(C@1)",
        "eval C@1)",
        "eval card(C@1",
        "eval sum m over C@1, D@2",
        "assert card(C@1, C@2) = C@1",
    ],
)
def test_an_expression_of_no_form_is_refused_by_its_pattern(line):
    pattern = dsl._COMMANDS[line.split()[0]][2][0]
    assert pattern.fullmatch(line) is None
    fast, slow = _outcomes(line, "script")
    assert fast == slow
    assert fast[0] == "None" and len(fast[1]) == 1


@pytest.mark.parametrize("space", [" ", "\t", "\u00a0"], ids=["space", "tab", "nbsp"])
@pytest.mark.parametrize(
    "word, line",
    [
        ("entity", "entity z lifespan{}[5, 1] species s"),
        (
            "statement",
            "statement S subject C profile static property p(_, b) direction less "
            "times 1, 2 span{}[5, 1] bound 3",
        ),
    ],
    ids=["entity", "statement"],
)
def test_an_empty_interval_is_diagnosed_on_the_pattern_path(word, line, space):
    line = line.format(space)

    def refused(cur):
        raise AssertionError(f"an {word} line reached its cursor parser")

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(dsl._DECLARATIONS, word, (refused, *dsl._DECLARATIONS[word][1:]))
        world, diagnostics = parse_world(line, source_name="w.tcw")
    assert world is None
    column = line.index("[") + 1
    assert [d.render() for d in diagnostics] == [f"w.tcw:1:{column}: error: empty interval [5, 1]"]


@pytest.mark.parametrize("seed", [3, 11])
def test_generated_workloads_take_the_line_patterns(tmp_path, monkeypatch, seed):
    # Every line of the benchmark's inputs but `pred` is one the line
    # patterns accept; the inputs have no `disambiguate` line.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from gen import WORKLOADS, generate

    reached = []

    def spied(word, parse):
        def spy(cur):
            reached.append(word)
            return parse(cur)

        return spy

    for table, words in (
        (dsl._DECLARATIONS, ("entity", "fact", "measure", "collection", "statement")),
        (dsl._COMMANDS, ("eval", "assert", "explain")),
    ):
        for word in words:
            parse, *rest = table[word]
            monkeypatch.setitem(table, word, (spied(word, parse), *rest))
    for workload in WORKLOADS:
        out = tmp_path / workload
        generate(workload, seed, out, scale=0.01)
        world, _ = parse_world((out / "world.tcw").read_text(encoding="utf-8"))
        assert world is not None, workload
        if (out / "script.tcq").exists():
            script, _ = parse_script((out / "script.tcq").read_text(encoding="utf-8"))
            assert script is not None, workload
    assert reached == []


# Names of two or more characters, as CPython already keeps one string
# per one-character string.
_NAMED_WORLD = """\
entity ann lifespan [1, 9]
entity bob lifespan [1, 9]
pred likes arity 2 mutable
fact likes(ann, bob) @ 2
fact likes(bob, ann) @ 3
measure height(ann) @ 2 = 3
measure height(bob) @ 2 = 4/3
measure height(ann) @ 3 = 4/3
"""


def _shared_objects(world) -> list[object]:
    """Every entity id, fact name and argument, measure name and entity,
    and measure value that `world` holds."""
    names = [entity.id for entity in world.entities.values()]
    names += [name for fact in world.facts for name in (fact.predicate, *fact.args)]
    names += [name for measure, entity_id, _ in world.measures for name in (measure, entity_id)]
    return names + list(world.measures.values())


def test_a_parse_keeps_one_string_per_name_and_one_value_per_literal():
    world, diagnostics = parse_world(_NAMED_WORLD)
    assert diagnostics == []
    entity_ids = {entity.id: entity.id for entity in world.entities.values()}
    assert {id(fact.predicate) for fact in world.facts} == {id(world.facts[0].predicate)}
    for fact in world.facts:
        assert all(arg is entity_ids[arg] for arg in fact.args)
    assert len({id(measure) for measure, _, _ in world.measures}) == 1
    assert all(entity_id is entity_ids[entity_id] for _, entity_id, _ in world.measures)
    assert world.measures["height", "bob", 2] is world.measures["height", "ann", 3]


def test_two_parses_share_no_name_or_value():
    # The table belongs to one parse: nothing is interned or cached.
    first, _ = parse_world(_NAMED_WORLD)
    second, _ = parse_world(_NAMED_WORLD)
    assert first == second
    assert not {id(name) for name in _shared_objects(first)} & {
        id(name) for name in _shared_objects(second)
    }


def test_facts_with_one_argument_text_share_one_tuple():
    # An argument text is keyed up to its `)`, so a one-argument text never
    # meets its name's key in the parse's table: the arguments stay a tuple.
    text = _NAMED_WORLD + (
        "pred tall arity 1 mutable\nfact tall(ann) @ 2\nfact tall(ann) @ 3\n"
        "fact likes(ann, bob) @ 4\nfact likes(ann,bob) @ 5\n"
    )
    first, second = parse_world(text)[0], parse_world(text)[0]
    args = {(fact.predicate, fact.at): fact.args for fact in first.facts}
    assert args["tall", 2] == ("ann",) and args["tall", 2] is args["tall", 3]
    assert args["likes", 2] is args["likes", 4]
    assert args["likes", 5] == args["likes", 2] and args["likes", 5] is not args["likes", 2]
    # The table dies with its parse.
    again = {(fact.predicate, fact.at): fact.args for fact in second.facts}
    assert again == args
    assert all(again[key] is not args[key] for key in args)


def test_tokenizer_path_lines_share_the_parse_strings():
    # A `pred` line always takes the tokenizer path, and a fact line with
    # a tab in its argument list does too.
    world, diagnostics = parse_world(fixture_text("friends.tcw"))
    assert world is not None and not diagnostics
    for fact in world.facts:
        assert fact.predicate is world.predicates[fact.predicate].name
    world, diagnostics = parse_world(_NAMED_WORLD + "fact likes(ann,\tbob) @ 4\n")
    assert world is not None and not diagnostics
    entity_ids = {entity.id: entity.id for entity in world.entities.values()}
    (slow,) = [fact for fact in world.facts if fact.at == 4]
    assert all(arg is entity_ids[arg] for arg in slow.args)
    assert slow.predicate is world.predicates["likes"].name


_FRESH_WORLDS = itertools.count()


def _fresh_world_text(entities: int) -> str:
    """A world whose names no earlier call made."""
    tag = f"fresh{next(_FRESH_WORLDS)}"
    lines = [f"pred {tag}_p arity 1 mutable"]
    for i in range(entities):
        name = f"{tag}_e{i}"
        lines.append(f"entity {name} lifespan [1, 9]")
        lines.append(f"fact {tag}_p({name}) @ 2")
        lines.append(f"measure {tag}_m({name}) @ 2 = 1")
    return "\n".join(lines) + "\n"


def test_a_dropped_world_keeps_no_name_alive():
    # A name interned for good (sys.intern on CPython 3.12) or kept in a
    # module-level table would outlive the world: 3,000 entity names take
    # far more than 64 KB.
    parse_world(_fresh_world_text(3))  # the first call's one-off allocations
    text = _fresh_world_text(3000)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world, diagnostics = parse_world(text)
        assert diagnostics == [] and len(world.entities) == 3000
        del world
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


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
    assert first.left == RatioExpr(InstExpr("Yt", 2003), InstExpr("Y", 2003))
    assert first.right == RatioExpr(InstExpr("Yt", 2002), InstExpr("Y", 2002))


def test_parse_script_expressions():
    script, diagnostics = parse_script(
        "eval card(Y@2002 | smokes(_, tobacco))\n"
        "eval sum cons_tobacco over F @ 2002\n"
        "eval ratio(Yt@2003, Y@2003)\n"
        "explain S1\n"
    )
    assert not diagnostics
    card, total, rat, explain = script.commands
    assert card.expr == CardExpr(InstExpr("Y", 2002, "smokes", ("_", "tobacco")))
    assert total.expr == SumExpr("cons_tobacco", InstExpr("F", 2002))
    assert rat.expr == RatioExpr(InstExpr("Yt", 2003), InstExpr("Y", 2003))
    assert isinstance(explain, ExplainCommand) and explain.statement_id == "S1"


@pytest.mark.parametrize(
    "predicate, pattern",
    [("smokes", None), (None, ("_", "tobacco"))],
    ids=["no-pattern", "no-predicate"],
)
def test_inst_expr_filter_needs_predicate_and_pattern(predicate, pattern):
    with pytest.raises(ValueError, match="^a filter needs both a predicate and a pattern$"):
        InstExpr("Y", 2002, predicate, pattern)


def test_inst_expr_made_with_a_list_pattern_stores_a_tuple():
    # As every model record does, so a direct record hashes and equals the parsed one.
    script, diagnostics = parse_script("eval C@1 | p(_)")
    assert not diagnostics
    parsed = script.commands[0].expr
    listed = InstExpr("C", 1, "p", ["_"])
    assert type(listed.filter_pattern) is tuple
    assert listed == parsed and hash(listed) == hash(parsed)
    assert listed._replace(filter_pattern=["_"]) == parsed


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
    at = 2
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


def test_a_line_cut_after_any_token_is_diagnosed_at_its_end():
    # Every valid fixture line, cut after each of its tokens but the last,
    # takes the tokenizer path and ends at its end-of-line handling: an
    # `at end of line` error one column past the cut, an unclosed `(`, or a
    # `re` with no anchor, reported at the `re` it follows.
    paths = [p for p in sorted(FIXTURES.glob("*.tc[wq]")) if p.name != "malformed.tcw"]
    paths += sorted(Path(__file__).parent.glob("shapes.tc[wq]"))
    cuts = 0
    for path in paths:
        noun, table = (
            ("declaration", dsl._DECLARATIONS) if path.suffix == ".tcw"
            else ("command", dsl._COMMANDS)
        )
        for line in path.read_text(encoding="utf-8").splitlines():
            ends = [
                m.end() for m in dsl._TOKEN_RE.finditer(line.split(";")[0])
                if m.lastgroup not in ("ws", "comment")
            ]
            for end in ends[:-1]:
                cut = line[:end]
                cuts += 1
                diagnostics = dsl._parse_lines(cut, "cut", noun, table)[1]
                if not diagnostics:
                    continue
                (d,) = diagnostics
                if d.message == "unbalanced '('":
                    assert cut[d.column - 1] == "(", cut
                elif d.message.startswith("de re collection "):
                    assert d.message.endswith("needs an anchor: re@TICK"), cut
                else:
                    assert d.message.endswith(" at end of line"), (cut, d)
                    assert d.column == len(cut) + 1, cut
    assert cuts > 1000


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


_BIG = "1" * 5000
_BIG_VALUE = (10**5000 - 1) // 9  # the value of _BIG, with no str-to-int limit


@pytest.mark.parametrize(
    "parser, line, column",
    [
        ("script", f"eval Y@{_BIG}", 8),
        ("world", f"fact p(a) @ {_BIG}", 13),
        ("world", f"pred p arity {_BIG} mutable", 14),
        ("world", f"entity a lifespan [0, {_BIG}]", 23),
    ],
    ids=["eval-tick", "fact-tick", "pred-arity", "lifespan-end"],
)
def test_overlong_integer_literal_is_a_diagnostic(parser, line, column):
    with int_digit_limit(4300):
        fast, slow = _outcomes(line, parser)
    assert fast == slow
    result, rendered = fast
    assert result in (None, "None")
    source = "w.tcw" if parser == "world" else "s.tcq"
    assert rendered == [f"{source}:1:{column}: error: bad integer literal '{_BIG}'"]


def test_overlong_integer_literal_parses_without_a_digit_limit():
    with int_digit_limit(0):
        world, diagnostics = parse_world(
            f"entity a lifespan [0, {_BIG}]\npred p arity 1 mutable\nfact p(a) @ {_BIG}\n"
        )
        script, script_diagnostics = parse_script(f"eval Y@{_BIG}\n")
    assert diagnostics == [] and script_diagnostics == []
    assert world.entities["a"].lifespan == TimeRef(0, _BIG_VALUE)
    assert world.facts[0].at == _BIG_VALUE
    assert script.commands[0].expr == InstExpr("Y", _BIG_VALUE)


def test_render_writes_numbers_past_the_digit_limit():
    builder = WorldBuilder()
    builder.add_entity("a", TimeRef(-(10**5000), 10**5000))
    builder.add_measure("m", "a", 0, Fraction(10**5000 + 1, 3))
    zeros = "0" * 5000
    with int_digit_limit(4300):
        rendered = render_world(builder.build())
    assert rendered == (
        f"entity a lifespan [-1{zeros}, 1{zeros}]\n"
        f"measure m(a) @ 0 = 1{zeros[1:]}1/3\n"
    )
