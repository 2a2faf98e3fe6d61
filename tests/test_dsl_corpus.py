"""Diagnostics corpus: parser outcomes replayed against stored bytes.

`dsl_corpus.json` holds, for every case in `hand_cases()`, the rendered
diagnostics, whether the parse result is None, and a sha256 of
`render_world(world)` or `repr(script)`. For `FUZZ_PER_FIXTURE` seeded
byte-fuzzes of each fixture it holds one short digest of that same
outcome, to keep the file small. Regenerate it only when a diagnostic is
meant to change:

    PYTHONPATH=src python tests/test_dsl_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from tempcoll import parse_script, parse_world, render_world

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CORPUS = Path(__file__).resolve().parent / "dsl_corpus.json"
FUZZ_PER_FIXTURE = 500

WORLD_PRELUDE = """\
; a small valid world
entity a lifespan [2000, 2010]
entity b lifespan [2000, *] invariant species s
pred p arity 1 mutable
pred q arity 2 invariant cohort
fact p(a) @ 2001
fact q(a, b) @ *
measure m(a) @ 2001 = 1/2
collection C dicto := p(_)
collection D re@2001 := q(_, b)
statement S subject C profile evolutive property p direction less times 2001, 2002 span [2000, 2005]
"""

SCRIPT_PRELUDE = """\
; a small valid script
eval card(C@2001)
assert sum m over C@2001 < ratio(C@2001, C@2001)
explain S
"""

_STATEMENT = "statement T subject C profile static property p"

WORLD_LINES = (
    # blank lines, comments, indentation
    "",
    "   ",
    "\t",
    "\n\n",
    "; only a comment",
    "   entity z lifespan [0, 1]",
    "entity z lifespan [0, 1] ; trailing comment with $ inside",
    # tokenizer
    "entity z lifespan [0, 1] $",
    "entity z lifespan [0, 1] \u00e9",
    "\ufeffentity z lifespan [0, 1]",
    "entity z lifespan [0, 1] #",
    "entity z-1 lifespan [0, 1]",
    # declaration head
    "entety z lifespan [0, 1]",
    "42 z",
    "(entity z)",
    ":= z",
    "ENTITY z lifespan [0, 1]",
    # entity
    "entity",
    "entity 5 lifespan [0, 1]",
    "entity z",
    "entity z span [0, 1]",
    "entity z lifespan",
    "entity z lifespan (0, 1)",
    "entity z lifespan [",
    "entity z lifespan [x, 1]",
    "entity z lifespan [0.5, 1]",
    "entity z lifespan [1/2, 1]",
    "entity z lifespan [0",
    "entity z lifespan [0 1]",
    "entity z lifespan [0,",
    "entity z lifespan [0, ]",
    "entity z lifespan [0, *",
    "entity z lifespan [0, 1",
    "entity z lifespan [0, 1)",
    "entity z lifespan [0, 1] [2, 3]",
    "entity z lifespan [5, 1]",
    "entity z lifespan [-5, -1]",
    "entity z lifespan [-1, -5]",
    "entity z lifespan [0, *] invariant",
    "entity z lifespan [0, *] species",
    "entity z lifespan [0, *] species 3",
    "entity z lifespan [0, *] species s invariant",
    "entity z lifespan [0, *] invariant species s extra",
    "entity z lifespan [0, *] invariant invariant",
    "entity _ lifespan [0, 1]",
    # predicate
    "pred",
    "pred 1",
    "pred r",
    "pred r arity",
    "pred r arity x",
    "pred r arity 2",
    "pred r arity 2 sometimes",
    "pred r arity 2 mutable cohort",
    "pred r arity 2 invariant cohort extra",
    "pred r arity 2 mutable mutable",
    "pred r arity 1/2 mutable",
    "pred r arity 2.0 mutable",
    "pred r arity 0 mutable",
    "pred r arity -1 invariant",
    "pred r size 2 mutable",
    # fact
    "fact",
    "fact r",
    "fact r z",
    "fact r(",
    "fact r()",
    "fact r() @ 1",
    "fact r(z",
    "fact r(z,",
    "fact r(z b)",
    "fact r(z,)",
    "fact r(z,,b)",
    "fact r(1)",
    "fact r(_)",
    "fact r(z, _)",
    "fact r(z) 2001",
    "fact r(z) @",
    "fact r(z) @ x",
    "fact r(z) @ *",
    "fact r(z) @ * extra",
    "fact r(z) @ 2001 2002",
    "fact r(z) @ [2001, 2002]",
    "fact r(z) = 1",
    "fact p(a) @ 2001",
    "fact p(a) @ 1999",
    "fact p(b) @ *",
    "fact q(a, b) @ 2003",
    # measure
    "measure",
    "measure n",
    "measure n(a, b) @ 1 = 2",
    "measure n() @ 1 = 2",
    "measure n(_) @ 1 = 2",
    "measure n(a)",
    "measure n(a) @",
    "measure n(a) @ *",
    "measure n(a) @ 1",
    "measure n(a) @ 1 2",
    "measure n(a) @ 1 =",
    "measure n(a) @ 1 = x",
    "measure n(a) @ 1 = 1/0",
    "measure n(a) @ 1 = 0/0",
    "measure n(a) @ 2001 = 1.5",
    "measure n(a) @ 2001 = 0",
    "measure n(a) @ 2001 = -2",
    "measure n(a) @ 2001 = -1/3",
    "measure n(a) @ 1 = 3 4",
    "measure n(a) @ 1 = (3)",
    "measure m(a) @ 2001 = 1/2",
    "measure m(a) @ 2001 = 2/4",
    "measure m(a) @ 2001 = 3",
    "measure p(a) @ 2001 = 3",
    "measure n(zz) @ 2001 = 3",
    # collection
    "collection",
    "collection E",
    "collection E maybe := p(_)",
    "collection E re := p(_)",
    "collection E re@ := p(_)",
    "collection E re@x := p(_)",
    "collection E re@2001",
    "collection E re 2001 := p(_)",
    "collection E dicto",
    "collection E dicto = p(_)",
    "collection E dicto :=",
    "collection E dicto := 5",
    "collection E dicto := p",
    "collection E dicto := p(_",
    "collection E dicto := p(_) extra",
    "collection E dicto@2001 := p(_)",
    "collection E dicto := p(_)",
    "collection E re@2001 := p(_)",
    "collection E dicto := zz(_)",
    "collection E dicto := q(_)",
    "collection E dicto := q(a, b)",
    "collection E dicto := q(_, _)",
    "collection E dicto := p(a)",
    "collection C dicto := p(_)",
    "collection card dicto := p(_)",
    "collection ratio re@2001 := p(_)",
    "collection sum dicto := q(_, b)",
    # statement
    "statement",
    "statement T",
    "statement T subject",
    "statement T subject C",
    "statement T subject C profile",
    "statement T subject C profile dynamic",
    "statement T subject C profile static",
    "statement T subject C profile static property",
    _STATEMENT,
    _STATEMENT + "(",
    _STATEMENT + "(_",
    _STATEMENT + "(_) direction",
    _STATEMENT + " direction up",
    _STATEMENT + " direction less",
    _STATEMENT + " direction less times",
    _STATEMENT + " direction less times 2001",
    _STATEMENT + " direction less times 2001,",
    _STATEMENT + " direction less times 2001 2002",
    _STATEMENT + " direction less times 2001, 2002",
    _STATEMENT + " direction less times 2001, 2002 span",
    _STATEMENT + " direction less times 2001, 2002 span [2005, 2000]",
    _STATEMENT + " direction less times 2001, 2002 span [2000, 2005]",
    _STATEMENT + " direction more times 2001, 2002 span [2000, *]",
    _STATEMENT + " direction changed times 2002, 2001 span [2000, 2005] bound 3 mode re",
    _STATEMENT + " direction less times 2001, 2002 span [2000, 2005] bound",
    _STATEMENT + " direction less times 2001, 2002 span [2000, 2005] bound x",
    _STATEMENT + " direction less times 2001, 2002 span [2000, 2005] bound 0",
    _STATEMENT + " direction less times 2001, 2002 span [2000, 2005] bound -1",
    _STATEMENT + " direction less times 2001, 2002 span [2000, 2005] mode",
    _STATEMENT + " direction less times 2001, 2002 span [2000, 2005] mode maybe",
    _STATEMENT + " direction less times 2001, 2002 span [2000, 2005] mode dicto extra",
    _STATEMENT + " direction less times 2001, 2002 span [2000, 2005] mode re bound 2",
    _STATEMENT + " direction less times 2001, 2001 span [2000, 2005]",
    _STATEMENT + " direction less times 2001, 2009 span [2000, 2005]",
    _STATEMENT + " direction less times 1999, 2001 span [2000, 2005]",
    "statement T subject C profile static property q direction less times 2001, 2002 span [2000, 2005]",
    "statement T subject C profile static property q(_) direction less times 2001, 2002 span [2000, 2005]",
    "statement T subject C profile static property q(a, b) direction less times 2001, 2002 span [2000, 2005]",
    "statement T subject C profile static property q(_, b) direction less times 2001, 2002 span [2000, 2005]",
    "statement T subject C profile static property m direction less times 2001, 2002 span [2000, 2005]",
    "statement T subject C profile static property m(_) direction less times 2001, 2002 span [2000, 2005]",
    "statement T subject C profile static property zz direction less times 2001, 2002 span [2000, 2005]",
    "statement T subject ZZ profile static property p direction less times 2001, 2002 span [2000, 2005]",
    "statement S subject C profile static property p direction less times 2001, 2002 span [2000, 2005]",
    "statement T subject C profile static property p direction less times 2001, 2002 span [2000, 2005] "
    "bound 0 mode re",
    # builder errors and their order across kinds and lines
    "entity z lifespan [0, 1]\nentity z lifespan [0, 2]",
    "pred r arity 1 mutable\npred r arity 2 invariant",
    "fact r(z) @ 1\npred r arity 1 mutable",
    "pred r arity 2 mutable\nfact r(z) @ 1",
    "pred r arity 1 mutable\nfact r(z) @ *",
    "pred r arity 1 invariant\nfact r(z) @ *\nfact r(z) @ 3",
    "measure r(z) @ 1 = 2\npred r arity 1 mutable\nentity z lifespan [0, 5]",
    "pred r arity 1 mutable\nentity z lifespan [0, 5]\nmeasure r(z) @ 1 = 2",
    "measure n(z) @ 1 = 2",
    "entity z lifespan [0, 5]\nmeasure n(z) @ 1 = -2",
    "entity z lifespan [0, 5]\nmeasure n(z) @ 1 = 3\nmeasure n(z) @ 1 = 4",
    "entity z lifespan [0, 5]\nmeasure n(z) @ 1 = 3\nmeasure n(z) @ 1 = 6/2",
    "pred r arity 1 mutable\ncollection E dicto := r(_)\ncollection E dicto := r(_)",
    "collection E dicto := r(_)",
    "pred r arity 2 mutable\ncollection E dicto := r(_)",
    "pred r arity 2 mutable\ncollection E dicto := r(_, _)",
    "pred r arity 2 mutable\ncollection E dicto := r(x, y)",
    "pred r arity 1 mutable\ncollection E dicto := r(_)\n"
    "statement T subject E profile static property r direction less times 1, 2 span [0, 3]\n"
    "statement T subject E profile static property r direction less times 1, 2 span [0, 3]",
    "statement T subject E profile static property r direction less times 1, 2 span [0, 3]",
    "pred r arity 1 mutable\npred s arity 2 mutable\ncollection E dicto := r(_)\n"
    "statement T subject E profile static property s direction less times 1, 2 span [0, 3]",
    "pred r arity 1 mutable\npred s arity 2 mutable\ncollection E dicto := r(_)\n"
    "statement T subject E profile static property s(_) direction less times 1, 2 span [0, 3]",
    "pred r arity 1 mutable\npred s arity 2 mutable\ncollection E dicto := r(_)\n"
    "statement T subject E profile static property s(x, y) direction less times 1, 2 span [0, 3]",
    "pred r arity 1 mutable\nentity z lifespan [0, 5]\nmeasure n(z) @ 1 = 1\n"
    "collection E dicto := r(_)\n"
    "statement T subject E profile static property n(_) direction less times 1, 2 span [0, 3]",
    "pred r arity 1 mutable\nentity z lifespan [0, 5]\nmeasure n(z) @ 1 = 1\n"
    "collection E dicto := r(_)\n"
    "statement T subject E profile static property n direction less times 1, 2 span [0, 3]",
    "pred r arity 1 mutable\ncollection E dicto := r(_)\n"
    "statement T subject E profile static property zz direction less times 1, 2 span [0, 3]",
    "pred r arity 1 mutable\ncollection E dicto := r(_)\n"
    "statement T subject E profile static property r direction less times 2, 2 span [0, 3]",
    "pred r arity 1 mutable\ncollection E dicto := r(_)\n"
    "statement T subject E profile static property r direction less times 1, 4 span [0, 3]",
    "pred r arity 1 mutable\ncollection E dicto := r(_)\n"
    "statement T subject E profile static property r direction less times 1, 2 span [0, 3] bound 0",
    "pred r arity 1 mutable\ncollection E dicto := r(_)\n"
    "statement T subject E profile static property zz direction less times 1, 1 span [0, 3]",
    "   statement T subject E profile static property r direction less times 1, 2 span [0, 3]\n"
    "  pred r arity 0 mutable\n entity z lifespan [9, 1]\n\tfact r(z) @ 2",
    "entity z lifespan [0, 1] $ and more\nentety y\nfact r(z) @ 1 2\npred r arity 1 mutable",
    # fact-outside-life-span warnings
    "entity z lifespan [2000, 2001]\npred r arity 1 mutable\nfact r(z) @ 2004",
    "entity z lifespan [2000, 2001]\npred r arity 1 mutable\nfact r(z) @ 1999",
    "entity z lifespan [2000, 2001]\npred r arity 1 mutable\nfact r(z) @ 2001",
    "entity z lifespan [2000, *]\npred r arity 1 mutable\nfact r(z) @ 2999",
    "entity z lifespan [2000, 2001]\npred r arity 1 invariant\nfact r(z) @ *",
    "entity z lifespan [2000, 2001]\nentity y lifespan [1990, 1995]\n"
    "pred r arity 2 mutable\nfact r(z, y) @ 2000\nfact r(y, z) @ 2002\nfact r(z, zz) @ 2003",
    "entity z lifespan [2000, 2001]\npred r arity 2 mutable\nfact r(tobacco, z) @ 2003\n"
    "   fact r(z, tobacco) @ 2005",
    "entity z lifespan [2000, 2001]\npred r arity 1 mutable\nfact r(z) @ 2004\nfact r(z) @ 2004",
    "entity z lifespan [2000, 2001]\npred r arity 1 mutable\nfact r(z) @ 2004\nentity z lifespan [0, 1]",
    "entity z lifespan [2000, 2001]\npred r arity 1 invariant\nfact r(z) @ 2004",
    # boundaries of the one-pattern-per-kind lines (entity, fact, measure)
    "entity z lifespan [0, 1]invariant",
    "entity z lifespan [0, *]invariant species s",
    "entity z lifespan[0,*] invariant species s;c",
    "entity z lifespan [*, 1]",
    "entityz lifespan [0, 1]",
    "fact p(a) @2002abc",
    "fact p(a) @ 2002/3",
    "fact p(a) @ 2002.5",
    "fact p(a) @ 200١",
    "fact p(a) @ ٢٠٠١",
    "fact\u00a0p(a)\u00a0@\u00a02001",
    "fact p(a) @\u20282001",
    "fact p(a)@2001;c",
    "fact p(a) @ 2001 x",
    "fact q(a, _) @ *",
    "factp(a) @ 2001",
    "measure n(a) @ 2001 = 10/0",
    "measure n(a) @ 2001 = -0",
    "measure n(a) @ 2001 = -0/5",
    "measure n(a) @ 2001 = 0.25 ; c",
    "measure n(a) @ 2001abc = 1",
    "measure n(a)@2001=1/3",
    "entity z lifespan [0, 1]\n   entity z lifespan [0, 2]",
    "\tentity a lifespan [0, 1]",
    "  fact zz(a) @ 2001",
    "  measure p(a) @ 2001 = 1",
)

SCRIPT_LINES = (
    # blank lines, comments, stripped text
    "",
    "   ",
    "; only a comment",
    "  eval Y@1   ; trailing comment",
    "eval Y@1;x",
    "\teval Y@1\n\n  explain S1  ",
    # tokenizer
    "eval Y@2002 $",
    "eval Y@2002 ; ok $",
    "\ufeffeval Y@1",
    "eval Y@2002 \u00e9",
    "eval Y@2002 & Z@2002",
    # command head
    "evaluate Y@1",
    "5 eval",
    "@",
    "(eval Y@1)",
    "EVAL Y@1",
    "entity z lifespan [0, 1]",
    # expressions
    "eval",
    "eval Y",
    "eval Y@",
    "eval Y@x",
    "eval Y@1.5",
    "eval Y@-3",
    "eval Y@2002",
    "eval Y @ 2002",
    "eval Y@2002 |",
    "eval Y@2002 | 5",
    "eval Y@2002 | p",
    "eval Y@2002 | p(",
    "eval Y@2002 | p(_)",
    "eval Y@2002 | p(_, tobacco)",
    "eval Y@2002 | p(tobacco)",
    "eval Y@2002 | p(_) extra",
    "eval Y@2002 p(_)",
    "eval 5",
    "eval (Y@2002)",
    "eval Y@2002 Y@2003",
    "eval card",
    "eval card Y@2002",
    "eval card(",
    "eval card()",
    "eval card(Y",
    "eval card(Y@",
    "eval card(Y@x)",
    "eval card(Y@2002",
    "eval card(Y@2002 extra",
    "eval card(Y@2002)",
    "eval card(Y@2002))",
    "eval card(Y@2002) extra",
    "eval card(Y@2002 | p(_)",
    "eval card(Y@2002 | p(_",
    "eval card(Y@2002 | p(_))",
    "eval card(Y@2002 | (_))",
    "eval card(card(Y@2002))",
    "eval ratio",
    "eval ratio(",
    "eval ratio()",
    "eval ratio(A@1",
    "eval ratio(A@1,",
    "eval ratio(A@1, B@1",
    "eval ratio(A@1 B@1)",
    "eval ratio(A@1, B@1)",
    "eval ratio(A@1 | p(_), B@1)",
    "eval ratio(A@1, B@1, C@1)",
    "eval ratio(A@1; B@1)",
    "eval ratio A@1, B@1",
    "eval sum",
    "eval sum m",
    "eval sum m over",
    "eval sum m over F",
    "eval sum m over F@2002",
    "eval sum m over F@2002 | p(_)",
    "eval sum m F@2002",
    "eval sum 5 over F@1",
    "eval sum(m) over F@1",
    "eval sum m over card(F@1)",
    # collections named like the expression keywords
    "eval card@2",
    "eval card @ 2",
    "eval ratio@2",
    "eval sum@2",
    "eval sum@2 | p(_)",
    "assert card@2 = sum@2",
    "assert ratio@2 < card(card@2)",
    "eval card(card@2)",
    "eval ratio(card@2, ratio@2)",
    "eval sum m over sum@2",
    "eval sum sum over sum@2",
    "eval card@",
    "eval card@x",
    # assert
    "assert",
    "assert Y@1",
    "assert Y@1 <",
    "assert Y@1 < Y@2",
    "assert Y@1 > Y@2",
    "assert Y@1 = Y@2",
    "assert Y@1 := Y@2",
    "assert Y@1 x Y@2",
    "assert Y@1 | Y@2",
    "assert Y@1 < Y@2 extra",
    "assert Y@1 < Y@2 < Y@3",
    "assert Y@1 5 Y@2",
    "assert card(Y@1) < ratio(A@1, B@1)",
    "assert sum m over Y@1 > sum m over Y@2",
    "assert card(Y@1 < card(Y@2)",
    # disambiguate and explain
    "disambiguate",
    "disambiguate S1",
    "disambiguate 5",
    "disambiguate S1 S2",
    "disambiguate (S1)",
    "explain",
    "explain S1",
    "explain 5",
    "explain (S1)",
    "explain S1 ; comment",
    "explain S1 extra",
    # several problems at once
    "evaluate Y@1\neval card(Y@now)\n\neval ratio(A@1,\nexplain S1\ndisambiguate",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(parser: str, text: str) -> dict:
    """What a parse shows: diagnostics, None-ness, and a hash of the result."""
    if parser == "world":
        result, diagnostics = parse_world(text, source_name="c.tcw")
        body = None if result is None else render_world(result)
    else:
        result, diagnostics = parse_script(text, source_name="c.tcq")
        body = None if result is None else repr(result)
    return {
        "diagnostics": [d.render() for d in diagnostics],
        "none": result is None,
        "sha256": None if body is None else _sha(body),
    }


def _full_text(case: dict) -> str:
    if not case["prelude"]:
        return case["text"]
    return (WORLD_PRELUDE if case["parser"] == "world" else SCRIPT_PRELUDE) + case["text"]


def hand_cases() -> list[dict]:
    """Each world line alone and after the world prelude, the same for
    each script line, and every line alone through the other parser."""
    cases = []
    for own, other, lines in (("world", "script", WORLD_LINES), ("script", "world", SCRIPT_LINES)):
        for text in lines:
            cases.append({"parser": own, "prelude": False, "text": text})
            cases.append({"parser": own, "prelude": True, "text": text})
            cases.append({"parser": other, "prelude": False, "text": text})
    return cases


def fuzz_fixtures() -> list[str]:
    return sorted(p.name for p in FIXTURES.glob("*.tc[wq]"))


def fuzz_text(name: str, index: int) -> str:
    """Fixture `name` with 1-12 bytes overwritten, seeded by (name, index)."""
    rng = random.Random(f"{name}:{index}")
    data = bytearray((FIXTURES / name).read_bytes())
    for _ in range(rng.randint(1, 12)):
        data[rng.randrange(len(data))] = rng.randrange(256)
    return data.decode("utf-8", errors="replace")


def fuzz_digest(name: str, index: int) -> str:
    parser = "world" if name.endswith(".tcw") else "script"
    payload = json.dumps(outcome(parser, fuzz_text(name, index)), sort_keys=True)
    return _sha(payload)[:12]


def _key(case: dict) -> tuple:
    return (case["parser"], case["prelude"], case["text"])


@cache
def _corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_every_case():
    corpus = _corpus()
    assert [_key(c) for c in corpus["hand"]] == [_key(c) for c in hand_cases()]
    assert sorted(corpus["fuzz"]) == fuzz_fixtures()
    assert all(len(d) == FUZZ_PER_FIXTURE for d in corpus["fuzz"].values())


@pytest.mark.parametrize("index", range(len(hand_cases())))
def test_hand_case_matches_corpus(index):
    stored = _corpus()["hand"][index]
    expected = {k: stored[k] for k in ("diagnostics", "none", "sha256")}
    assert outcome(stored["parser"], _full_text(stored)) == expected, stored["text"]


@pytest.mark.parametrize("name", fuzz_fixtures())
def test_fuzzed_fixture_matches_corpus(name):
    stored = _corpus()["fuzz"][name]
    changed = [i for i in range(FUZZ_PER_FIXTURE) if fuzz_digest(name, i) != stored[i]]
    assert not changed, {i: fuzz_text(name, i) for i in changed[:3]}


def _capture() -> None:
    hand = [{**case, **outcome(case["parser"], _full_text(case))} for case in hand_cases()]
    fuzz = {
        name: [fuzz_digest(name, i) for i in range(FUZZ_PER_FIXTURE)]
        for name in fuzz_fixtures()
    }
    def line(value: object) -> str:
        return json.dumps(value, ensure_ascii=False, separators=(",", ":"))

    # One hand case and one fixture per line, so a changed entry shows in a diff.
    hand_lines = ",\n".join(line(case) for case in hand)
    fuzz_lines = ",\n".join(f"{line(name)}:{line(digests)}" for name, digests in fuzz.items())
    CORPUS.write_text(
        f'{{"hand":[\n{hand_lines}\n],\n"fuzz":{{\n{fuzz_lines}\n}}}}\n', encoding="utf-8"
    )
    print(
        f"wrote {len(hand)} hand cases and {len(fuzz)} x {FUZZ_PER_FIXTURE} fuzzes to {CORPUS}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    _capture()
