"""Text formats: world files (.tcw), script files (.tcq), and rendering.

Both formats are line-oriented; `;` starts a comment. World files hold
declarations (entities, predicates, facts, measures, collections,
statements), script files hold commands (eval, assert, disambiguate,
explain). Parsing never raises: every problem becomes a positioned
Diagnostic, and a world is only produced when no error was seen.

World grammar, one declaration per line:

    entity ID lifespan [TICK, TICK|*] [invariant] [species ID]
    pred ID arity INT (mutable|invariant) [cohort]
    fact ID(ARGS) @ (TICK|*)
    measure ID(ID) @ TICK = RATIONAL
    collection ID (dicto|re@TICK) := ID(PATTERN)
    statement ID subject ID profile (evolutive|static) property ID[(PATTERN)]
        direction (less|more|changed) times TICK, TICK span [TICK, TICK|*]
        [bound INT] [mode (re|dicto)]

Script grammar:

    eval EXPR
    assert EXPR (<|>|=) EXPR
    disambiguate ID
    explain ID
    EXPR := card(INST) | ratio(INST, INST) | sum ID over INST | INST
    INST := ID @ TICK [| ID(PATTERN)]

`card`, `ratio` and `sum` start an expression only when no `@` follows
them; `card@2` is the bare instantiation of a collection named `card`.

A line's cursor tokenizes it for its word's cursor parser (the tokenizer
path), and ends its tokens with an `end` token one column past the
line. The world kinds `entity`, `fact`, `measure`, `collection` and
`statement` and the commands `eval`, `assert` and `explain` also have
one full-line pattern each, built from the tokenizer's pieces; `pred`
and `disambiguate` lines always take the tokenizer path, as does a line
that no pattern matches. A match gives the value its cursor parser
would, and a pattern captures only the values its maker converts. The
`fact` and `measure` patterns refuse the hole `_` as an argument, and a
literal with a zero denominator or a digit run past 640; the `eval` and
`assert` patterns match whole forms only; an argument list takes only
spaces around its commas and parentheses. A matched line whose interval
ends before it starts (`entity`, `statement`) is valid up to that
interval, so its maker raises the cursor parser's error at the `[`;
every other diagnostic comes from the tokenizer path. A line tries
first the pattern that took the line before it, then every pattern in
table order: a file comes in runs of one kind, and each pattern starts
with its own word, so at most one matches and the order changes no
value.

Each format has one table, with one row per line word. A world kind's
row holds its cursor parser, its `WorldBuilder` method and its pattern,
if any, in build order; a command word's row holds its cursor parser,
its command class and its pattern, if any. On either path a line's
value is an argument tuple: the builder method's, or the command's
before (line number, text). The line loop keeps, for each word, a list
of argument tuples and a list of line numbers, with no column and no
line text: `parse_world` frees each kind's lists once applied, and
finds a builder diagnostic's column again from the line's text (one
past its leading whitespace, the word's column on both paths), and
`parse_script` reads a command's text from the lines again. Commands
keep their order in the file. Within one parse, every name (entity id,
predicate, fact argument, measure name, and each name token of a
tokenizer-path line) is one string, each measure literal one
`Fraction` and each fact argument text one argument tuple, from one table
that dies with the parse; nothing is interned.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Iterable, Literal, Mapping, NamedTuple, Sequence

from .errors import TempcollError
from .model import (
    HOLE,
    MODE_DICTO,
    MODE_RE,
    CheckedRecord,
    Mode,
    TimeRef,
    World,
    WorldBuilder,
    check_int,
    number_text,
)

__all__ = [
    "Diagnostic",
    "Script",
    "InstExpr",
    "CardExpr",
    "RatioExpr",
    "SumExpr",
    "EvalCommand",
    "AssertCommand",
    "DisambiguateCommand",
    "ExplainCommand",
    "parse_world",
    "parse_script",
    "render_world",
]


class Diagnostic(NamedTuple):
    """A positioned problem; its fields, in order, are its JSON entry."""

    severity: Literal["error", "warning"]
    message: str
    line: int
    column: int
    source: str

    def render(self) -> str:
        return f"{self.source}:{self.line}:{self.column}: {self.severity}: {self.message}"


# ---------------------------------------------------------------------------
# Script AST


class InstExpr(
    CheckedRecord, namedtuple("InstExpr", "collection at filter_predicate filter_pattern")
):
    __slots__ = ()

    def __new__(
        cls,
        collection: str,
        at: int,
        filter_predicate: str | None = None,
        filter_pattern: Iterable[str] | None = None,
    ) -> InstExpr:
        check_int(at)
        if (filter_predicate is None) != (filter_pattern is None):
            raise ValueError("a filter needs both a predicate and a pattern")
        if filter_pattern is not None:
            # A tuple, so a record made directly with a list still hashes.
            filter_pattern = tuple(filter_pattern)
        return tuple.__new__(cls, (collection, at, filter_predicate, filter_pattern))


class CardExpr(NamedTuple):
    inst: InstExpr


class RatioExpr(NamedTuple):
    part: InstExpr
    whole: InstExpr


class SumExpr(NamedTuple):
    measure: str
    inst: InstExpr


Expr = InstExpr | CardExpr | RatioExpr | SumExpr


# A command's `kind`, its line word, is a class attribute, not a field.
class EvalCommand(NamedTuple):
    kind = "eval"
    expr: Expr
    line: int
    text: str


class AssertCommand(NamedTuple):
    kind = "assert"
    left: Expr
    op: Literal["<", ">", "="]
    right: Expr
    line: int
    text: str


class DisambiguateCommand(NamedTuple):
    kind = "disambiguate"
    statement_id: str
    line: int
    text: str


class ExplainCommand(NamedTuple):
    kind = "explain"
    statement_id: str
    line: int
    text: str


Command = EvalCommand | AssertCommand | DisambiguateCommand | ExplainCommand


class Script(NamedTuple):
    commands: tuple[Command, ...]


# ---------------------------------------------------------------------------
# Tokenizer

# Token pieces, shared with the full-line declaration patterns below.
# Numbers take ASCII digits only; `\s` is Unicode whitespace.
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_INT = r"-?[0-9]+"
_FRACTION = r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)"
_COMMENT = r";.*"

_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<comment>{_COMMENT})
      | (?P<fraction>{_FRACTION})
      | (?P<int>{_INT})
      | (?P<id>{_ID})
      | (?P<punct>:=|[()\[\],@=|<>*])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    column: int  # 1-based


# A parse's one table of shared values, keyed by their text: a name's one
# string, a measure literal's one Fraction, and a fact's one argument tuple,
# keyed by its argument text up to its `)`. No two kinds share a key: a
# name has no `)`, and a literal starts with a digit or `-`.
_Shared = dict[str, str | Fraction | tuple[str, ...]]


class _LineError(Exception):
    """A problem that ends its line; args are (message, 1-based column)."""


_EXPECTED_KIND = {"id": "a name", "int": "an integer"}


class _Cursor:
    """A cursor on a line's tokens, each name the parse's one string for it.
    The tokens end with an `end` token one column past the line, which
    `take` never passes, so `peek` always gives a token."""

    def __init__(self, line: str, shared: _Shared) -> None:
        self._tokens: list[_Token] = []
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup or ""
            if kind == "bad":
                raise _LineError(f"unexpected character {m.group()!r}", m.start() + 1)
            if kind not in ("ws", "comment"):
                text = m.group()
                if kind == "id":
                    text = shared.setdefault(text, text)
                self._tokens.append(_Token(kind, text, m.start() + 1))
        self._tokens.append(_Token("end", "", len(line) + 1))
        self._idx = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self._tokens[self._idx + ahead]

    def take(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind == "end":
            raise _LineError(f"expected {what} at end of line", tok.column)
        self._idx += 1
        return tok

    def expect(self, *words: str, kind: str = "id") -> _Token:
        """The next token: one of `words` when given, else any `kind` token.
        A word's text fixes its kind, as punctuation and names never share one."""
        what = " or ".join(f"'{w}'" for w in words) or _EXPECTED_KIND[kind]
        tok = self.take(what)
        if tok.text not in words if words else tok.kind != kind:
            raise _LineError(f"expected {what}, got {tok.text!r}", tok.column)
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self._idx += 1
            return True
        return False

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise _LineError(f"unexpected trailing input {tok.text!r}", tok.column)


def _parse_int(cur: _Cursor) -> int:
    tok = cur.expect(kind="int")
    try:
        return int(tok.text)
    except ValueError as e:  # more digits than `sys.get_int_max_str_digits()`
        raise _LineError(f"bad integer literal {tok.text!r}", tok.column) from e


def _parse_interval(cur: _Cursor) -> TimeRef:
    opening = cur.expect("[").column
    start = _parse_int(cur)
    cur.expect(",")
    if cur.accept("*"):
        end: int | None = None
    else:
        end = _parse_int(cur)
    cur.expect("]")
    try:
        return TimeRef(start, end)
    except TempcollError as e:
        raise _LineError(str(e), opening) from e


def _parse_args(cur: _Cursor, *, allow_hole: bool) -> tuple[str, ...]:
    opening = cur.expect("(").column
    args: list[str] = []
    if not cur.accept(")"):
        while True:
            tok = cur.peek()
            if tok.kind == "end":
                raise _LineError("unbalanced '('", opening)
            if tok.kind != "id":
                raise _LineError(f"expected an argument, got {tok.text!r}", tok.column)
            if tok.text == HOLE and not allow_hole:
                raise _LineError(f"'{HOLE}' is not allowed here", tok.column)
            args.append(tok.text)
            cur.take("argument")
            if cur.accept(")"):
                break
            if not cur.accept(","):
                raise _LineError("unbalanced '('", opening)
    return tuple(args)


def _parse_rational(cur: _Cursor) -> Fraction:
    tok = cur.take("a rational number")
    if tok.kind not in ("int", "fraction"):
        raise _LineError(f"expected a rational number, got {tok.text!r}", tok.column)
    try:
        return Fraction(tok.text)
    except (ValueError, ZeroDivisionError) as e:
        raise _LineError(f"bad rational literal {tok.text!r}", tok.column) from e


# A word's full-line pattern, whose groups are the values its maker
# converts, and its maker, which builds from a match and the parse's shared
# values what the word's cursor parser would, or raises its `_LineError`.
_LinePattern = tuple[re.Pattern[str], Callable[[re.Match[str], _Shared], tuple]]


def _lines(text: str) -> list[str]:
    """A text's lines. Lines end only at \\r\\n, \\r or \\n; str.splitlines
    would also end them at a form feed or U+2028, even inside a comment."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _word_column(line: str) -> int:
    """The 1-based column of a line's first word: one past its leading
    whitespace, which a line pattern's leading `\\s*` and the tokenizer's
    first `ws` token both take (`str.isspace` is the `\\s` of `re`)."""
    return len(line) - len(line.lstrip()) + 1


def _parse_lines(
    text: str,
    source_name: str,
    noun: str,
    table: Mapping[str, tuple[Callable[[_Cursor], tuple], object, _LinePattern | None]],
) -> tuple[dict[str, tuple[list[tuple], list[int]]], list[Diagnostic]]:
    """The one line loop of both formats. A line that holds a token
    starts with a word from `table`, whose cursor parser must take the
    rest of the line, unless a row's pattern matches the whole line: then
    its maker builds the tuple, or raises the cursor parser's error, from
    the match and `shared`, the parse's one table of shared values, which
    dies with the parse; a tokenizer-path line takes its names from
    `shared` too. Returns, for each word, its lines' argument tuples and
    line numbers, in file order, and a diagnostic for each line an error
    ended: a `_LineError` from a maker or from the tokenizer path."""
    records: dict[str, tuple[list[tuple], list[int]]] = {word: ([], []) for word in table}
    diagnostics: list[Diagnostic] = []
    shared: _Shared = {}
    # A row per pattern: the pattern, its maker and its word's appenders.
    # The row that took the previous line goes first (see the module
    # docstring); the row loop's target leaves bound the row that took a
    # line, or after a tokenizer-path line the last row, which costs at most
    # one failed match.
    rows = [
        (*row[2], *(found.append for found in records[word]))
        for word, row in table.items() if row[2] is not None
    ]
    pattern, make, add_value, add_line = re.compile("(?!)"), None, None, None  # matches no line
    for lineno, line in enumerate(_lines(text), start=1):
        try:
            m = pattern.fullmatch(line)
            if m is None:
                for pattern, make, add_value, add_line in rows:
                    m = pattern.fullmatch(line)
                    if m is not None:
                        break
                else:
                    cur = _Cursor(line, shared)
                    head = cur.peek()
                    if head.kind != "end":
                        if head.text not in table:
                            raise _LineError(f"unknown {noun} {head.text!r}", head.column)
                        cur.take(noun)
                        value = table[head.text][0](cur)
                        cur.expect_end()
                        values, linenos = records[head.text]
                        values.append(value)
                        linenos.append(lineno)
                    continue
            add_value(make(m, shared))
            add_line(lineno)
        except _LineError as e:
            message, column = e.args
            diagnostics.append(Diagnostic("error", message, lineno, column, source_name))
    return records, diagnostics


# ---------------------------------------------------------------------------
# World parsing

def _parse_entity(cur: _Cursor) -> tuple:
    entity_id = cur.expect().text
    cur.expect("lifespan")
    lifespan = _parse_interval(cur)
    invariant = cur.accept("invariant")
    species = None
    if cur.accept("species"):
        species = cur.expect().text
    return entity_id, lifespan, invariant, species


def _parse_predicate(cur: _Cursor) -> tuple:
    name = cur.expect().text
    cur.expect("arity")
    arity = _parse_int(cur)
    invariant = cur.expect("mutable", "invariant").text == "invariant"
    cohort = cur.accept("cohort")
    return name, arity, invariant, cohort


def _parse_fact(cur: _Cursor) -> tuple:
    name = cur.expect().text
    args = _parse_args(cur, allow_hole=False)
    cur.expect("@")
    at = None if cur.accept("*") else _parse_int(cur)
    return name, args, at


def _parse_measure(cur: _Cursor) -> tuple:
    name = cur.expect().text
    args = _parse_args(cur, allow_hole=False)
    if len(args) != 1:
        raise _LineError("a measure is recorded for exactly one entity", cur.peek().column)
    cur.expect("@")
    at = _parse_int(cur)
    cur.expect("=")
    return name, args[0], at, _parse_rational(cur)


def _parse_collection(cur: _Cursor) -> tuple:
    name = cur.expect().text
    mode_tok = cur.expect("dicto", "re")
    anchor: int | None = None
    if mode_tok.text == "re":
        if not cur.accept("@"):
            raise _LineError(
                f"de re collection '{name}' needs an anchor: re@TICK", mode_tok.column
            )
        anchor = _parse_int(cur)
    cur.expect(":=")
    predicate = cur.expect().text
    pattern = _parse_args(cur, allow_hole=True)
    return name, predicate, pattern, anchor


def _parse_statement(cur: _Cursor) -> tuple:
    stmt_id = cur.expect().text
    cur.expect("subject")
    subject = cur.expect().text
    cur.expect("profile")
    evolutive = cur.expect("evolutive", "static").text == "evolutive"
    cur.expect("property")
    compared = cur.expect().text
    pattern: tuple[str, ...] | None = None
    if cur.peek().text == "(":
        pattern = _parse_args(cur, allow_hole=True)
    cur.expect("direction")
    direction = cur.expect("less", "more", "changed").text
    cur.expect("times")
    t1 = _parse_int(cur)
    cur.expect(",")
    t2 = _parse_int(cur)
    cur.expect("span")
    span = _parse_interval(cur)
    bound = None
    if cur.accept("bound"):
        bound = _parse_int(cur)
    mode: Mode | None = None
    if cur.accept("mode"):
        mode = MODE_RE if cur.expect("re", "dicto").text == "re" else MODE_DICTO
    return stmt_id, subject, evolutive, compared, direction, (t1, t2), span, pattern, bound, mode


# One full-line pattern per common line kind (see the module docstring);
# a line it matches gets its value straight from the match groups, which
# are only the values its maker converts: the indentation is a bare `\s*`.
# Where the tokenizer needs whitespace between two tokens, a pattern takes
# `\s+`, so it never splits what the tokenizer reads as one token. A digit
# run has at most 640 digits, which int() converts under any
# `sys.set_int_max_str_digits` limit, as does Fraction(str), one int() per
# run; a longer run, or a denominator with no nonzero digit, is left to
# the tokenizer path.
_END = rf"\s*(?:{_COMMENT})?"
_LINE_INT = r"-?[0-9]{1,640}"
_LITERAL = r"-?[0-9]{1,640}(?:/(?=[0-9]*[1-9])[0-9]{1,640}|\.[0-9]{1,640})?"
_GROUND = rf"(?!{HOLE}\b){_ID}"  # a name that is not the hole
# An argument list takes only spaces as separators (`[ ]`, which a
# verbose pattern keeps), so its text splits without `strip`.
_ARGS = rf"\([ ]*({_ID}(?:[ ]*,[ ]*{_ID})*)[ ]*\)"  # one group: the argument text
_GROUND_ARGS = rf"\([ ]*({_GROUND}(?:[ ]*,[ ]*{_GROUND})*[ ]*\))"
_INTERVAL = rf"\[\s*({_LINE_INT})\s*,\s*(?:({_LINE_INT})|\*)\s*\]"  # two groups: start, end
_ENTITY_LINE = re.compile(
    rf"""\s*entity\s+({_ID})\s+lifespan\s*{_INTERVAL}
         (?:\s+(invariant))?(?:\s+species\s+({_ID}))?{_END}""",
    re.VERBOSE,
)
_FACT_LINE = re.compile(rf"\s*fact\s+({_ID})\s*{_GROUND_ARGS}\s*@\s*(?:({_LINE_INT})|\*){_END}")
_MEASURE_LINE = re.compile(
    rf"\s*measure\s+({_ID})\s*\(\s*({_GROUND})\s*\)\s*@\s*({_LINE_INT})\s*=\s*({_LITERAL}){_END}"
)
_COLLECTION_LINE = re.compile(
    rf"""\s*collection\s+({_ID})\s+(?:dicto|re\s*@\s*({_LINE_INT}))
         \s*:=\s*({_ID})\s*{_ARGS}{_END}""",
    re.VERBOSE,
)
_STATEMENT_LINE = re.compile(
    rf"""\s*statement\s+({_ID})\s+subject\s+({_ID})\s+profile\s+(evolutive|static)
         \s+property\s+({_ID})(?:\s*{_ARGS})?\s+direction\s+(less|more|changed)
         \s+times\s+({_LINE_INT})\s*,\s*({_LINE_INT})
         \s+span\s*{_INTERVAL}
         (?:\s*bound\s+({_LINE_INT}))?(?:\s*mode\s+(re|dicto))?{_END}""",
    re.VERBOSE,
)


# A maker raises only on an interval whose end comes before its start
# (`entity`, `statement`), which no pattern refuses: `_parse_interval`'s
# error, at a `[` found only then. A maker takes each name as
# `shared.setdefault(s, s)`, the parse's one string equal to `s`, and a
# fact's arguments as the one tuple in `shared` for their text.


def _entity_line(m: re.Match[str], shared: _Shared) -> tuple:
    entity_id, start, end, invariant, species = m.groups()
    try:
        lifespan = TimeRef(int(start), None if end is None else int(end))
    except TempcollError as e:
        raise _LineError(str(e), m.string.rindex("[", 0, m.start(2)) + 1) from e
    return shared.setdefault(entity_id, entity_id), lifespan, invariant is not None, species


def _fact_line(m: re.Match[str], shared: _Shared) -> tuple:
    name, arg_text, tick = m.groups()
    args = shared.get(arg_text)  # a tuple, as an argument text ends in `)`
    if args is None:
        names = arg_text[:-1].replace(" ", "").split(",")
        args = shared[arg_text] = tuple(map(shared.setdefault, names, names))
    return shared.setdefault(name, name), args, None if tick is None else int(tick)


def _measure_line(m: re.Match[str], shared: _Shared) -> tuple:
    name, entity_id, tick, literal = m.groups()
    value = shared.get(literal)  # a Fraction, as a literal is no name
    if value is None:
        value = shared[literal] = Fraction(literal)
    return shared.setdefault(name, name), shared.setdefault(entity_id, entity_id), int(tick), value


def _collection_line(m: re.Match[str], shared: _Shared) -> tuple:
    name, anchor, predicate, arg_text = m.groups()
    pattern = tuple(arg_text.replace(" ", "").split(","))
    return name, predicate, pattern, None if anchor is None else int(anchor)


def _statement_line(m: re.Match[str], shared: _Shared) -> tuple:
    statement_id, subject, profile, compared, pattern_text, direction, *rest = m.groups()
    t1, t2, start, end, bound_text, mode_word = rest
    try:
        span = TimeRef(int(start), None if end is None else int(end))
    except TempcollError as e:
        raise _LineError(str(e), m.string.rindex("[", 0, m.start(9)) + 1) from e
    evolutive, times = profile == "evolutive", (int(t1), int(t2))
    pattern = None if pattern_text is None else tuple(pattern_text.replace(" ", "").split(","))
    bound = None if bound_text is None else int(bound_text)
    mode = None if mode_word is None else MODE_RE if mode_word == "re" else MODE_DICTO
    return statement_id, subject, evolutive, compared, direction, times, span, pattern, bound, mode


# Kind -> (cursor parser, WorldBuilder method name, line pattern or None),
# in build order: each kind needs only kinds above it; within a kind, file
# order. The method takes the parsed tuple positionally and returns a
# warning or None; it is looked up per parse, not at import, so a method
# wrapped on WorldBuilder (as by the benchmark's tracer) is the one run.
_DECLARATIONS: dict[str, tuple[Callable[[_Cursor], tuple], str, _LinePattern | None]] = {
    "entity": (_parse_entity, "add_entity", (_ENTITY_LINE, _entity_line)),
    "pred": (_parse_predicate, "add_predicate", None),
    "fact": (_parse_fact, "add_fact", (_FACT_LINE, _fact_line)),
    "measure": (_parse_measure, "add_measure", (_MEASURE_LINE, _measure_line)),
    "collection": (_parse_collection, "add_collection", (_COLLECTION_LINE, _collection_line)),
    "statement": (_parse_statement, "add_statement", (_STATEMENT_LINE, _statement_line)),
}


def parse_world(
    text: str, source_name: str = "<world>"
) -> tuple[World | None, list[Diagnostic]]:
    """Parse a world file.

    Returns (world, diagnostics); the world is None iff any diagnostic
    is an error. Warnings come from the builder (facts timed outside an
    entity argument's life span); they do not block the build and are
    kept only when there is no error.
    """
    records, diagnostics = _parse_lines(text, source_name, "declaration", _DECLARATIONS)
    builder = WorldBuilder()
    warnings: list[Diagnostic] = []
    lines: list[str] = []  # the text's lines, split again for the first builder diagnostic

    def diagnostic(severity: Literal["error", "warning"], message: str, lineno: int) -> Diagnostic:
        if not lines:
            lines.extend(_lines(text))
        return Diagnostic(severity, message, lineno, _word_column(lines[lineno - 1]), source_name)

    # Each kind's records are popped as they are applied, so only the
    # builder is left when the world is built.
    for kind, (_, method, _) in _DECLARATIONS.items():
        build = getattr(builder, method)
        values, linenos = records.pop(kind)
        for args, lineno in zip(values, linenos):
            try:
                message = build(*args)
            except TempcollError as e:
                diagnostics.append(diagnostic("error", str(e), lineno))
                continue
            if message is not None:
                warnings.append(diagnostic("warning", message, lineno))

    world = None
    if not diagnostics:  # only errors so far
        world = builder.build()
        diagnostics = warnings
    diagnostics.sort(key=lambda d: (d.line, d.column))
    return world, diagnostics


# ---------------------------------------------------------------------------
# Script parsing


def _parse_inst(cur: _Cursor) -> InstExpr:
    name = cur.expect().text
    cur.expect("@")
    at = _parse_int(cur)
    if cur.accept("|"):
        predicate = cur.expect().text
        return InstExpr(name, at, predicate, _parse_args(cur, allow_hole=True))
    return InstExpr(name, at)


def _parse_insts(cur: _Cursor, count: int) -> list[InstExpr]:
    """`count` comma-separated instantiations in parentheses."""
    # A body that dies at end of line means the '(' was never closed;
    # report that at the opening column, as mid-line errors stay put.
    opening = cur.expect("(").column
    try:
        insts = [_parse_inst(cur)]
        while len(insts) < count:
            cur.expect(",")
            insts.append(_parse_inst(cur))
    except _LineError as e:
        if cur.peek().kind == "end":
            raise _LineError("unbalanced '('", opening) from e
        raise
    if not cur.accept(")"):
        raise _LineError("unbalanced '('", opening)
    return insts


def _parse_expr(cur: _Cursor) -> Expr:
    tok = cur.peek()
    if tok.kind == "end":
        raise _LineError("expected an expression at end of line", tok.column)
    # `card`, `ratio` and `sum` are also collection names when `@` follows.
    if tok.text not in ("card", "ratio", "sum") or cur.peek(1).text == "@":
        return _parse_inst(cur)
    cur.take(tok.text)
    if tok.text == "card":
        return CardExpr(*_parse_insts(cur, 1))
    if tok.text == "ratio":
        return RatioExpr(*_parse_insts(cur, 2))
    measure = cur.expect().text
    cur.expect("over")
    return SumExpr(measure, _parse_inst(cur))


def _parse_assert(cur: _Cursor) -> tuple:
    left = _parse_expr(cur)
    op = cur.take("a comparison (<, > or =)")
    if op.text not in ("<", ">", "="):
        raise _LineError(f"expected '<', '>' or '=', got {op.text!r}", op.column)
    return left, op.text, _parse_expr(cur)


def _parse_reference(cur: _Cursor) -> tuple:
    return (cur.expect().text,)


# The full-line patterns of `eval` and `assert`, from one instantiation
# piece (4 groups: name, tick, filter predicate, filter arguments) and one
# expression piece (11 groups: `card`, `ratio`, a sum's measure, two
# instantiations), which matches whole forms only: regex conditionals on
# its `card` and `ratio` groups take a `card`'s `)` and a `ratio`'s second
# instantiation and `)`, and a sum or a bare instantiation takes nothing
# more. `card`, `ratio` or `sum` followed by `@` is a bare instantiation,
# as in `_parse_expr`.
_INST = rf"({_ID})\s*@\s*({_LINE_INT})(?:\s*\|\s*({_ID})\s*{_ARGS})?"


def _expr_piece(first: int) -> str:
    """The expression piece whose groups start at group `first`."""
    return (
        rf"(?:(card)\s*\(\s*|(ratio)\s*\(\s*|sum\s+({_ID})\s+over\s+)?{_INST}"
        rf"(?({first})\s*\))(?({first + 1})\s*,\s*{_INST}\s*\))"
    )


_EVAL_LINE = re.compile(rf"\s*eval\s+{_expr_piece(1)}{_END}")
_ASSERT_LINE = re.compile(rf"\s*assert\s+{_expr_piece(1)}\s*([<>=])\s*{_expr_piece(13)}{_END}")
# `explain` takes one name (group 1), as `_parse_reference` does.
_EXPLAIN_LINE = re.compile(rf"\s*explain\s+({_ID}){_END}")


def _inst(name: str, tick: str, predicate: str | None, args: str | None) -> InstExpr:
    if predicate is None:
        return InstExpr(name, int(tick))
    return InstExpr(name, int(tick), predicate, tuple(args.replace(" ", "").split(",")))


def _expr(g: Sequence[str | None]) -> Expr:
    """The expression of one expression piece's match, from its 11 groups."""
    card, ratio, measure = g[:3]
    inst = _inst(*g[3:7])
    if card is not None:
        return CardExpr(inst)
    if ratio is not None:
        return RatioExpr(inst, _inst(*g[7:11]))
    return inst if measure is None else SumExpr(measure, inst)


def _eval_line(m: re.Match[str], shared: _Shared) -> tuple:
    return (_expr(m.groups()),)


def _assert_line(m: re.Match[str], shared: _Shared) -> tuple:
    g = m.groups()
    return _expr(g[:11]), g[11], _expr(g[12:])


def _explain_line(m: re.Match[str], shared: _Shared) -> tuple:
    statement_id = m.group(1)
    return (shared.setdefault(statement_id, statement_id),)


# Command word (the class's `kind`) -> (cursor parser, command class,
# line pattern or None); a command is built from the parsed tuple and
# then the line number and text.
_COMMANDS: dict[str, tuple[Callable[[_Cursor], tuple], type[Command], _LinePattern | None]] = {
    command.kind: (parse, command, line_pattern)
    for parse, command, line_pattern in (
        (lambda cur: (_parse_expr(cur),), EvalCommand, (_EVAL_LINE, _eval_line)),
        (_parse_assert, AssertCommand, (_ASSERT_LINE, _assert_line)),
        (_parse_reference, DisambiguateCommand, None),
        (_parse_reference, ExplainCommand, (_EXPLAIN_LINE, _explain_line)),
    )
}


def parse_script(
    text: str, source_name: str = "<script>"
) -> tuple[Script | None, list[Diagnostic]]:
    """Parse a script file into an ordered command list.

    Statement and collection references are resolved later, against a
    loaded world; here only the syntax is checked.
    """
    records, diagnostics = _parse_lines(text, source_name, "command", _COMMANDS)
    if diagnostics:
        return None, diagnostics
    lines = _lines(text)
    commands = [
        _COMMANDS[word][1](*args, lineno, lines[lineno - 1].split(";")[0].strip())
        for word, (values, linenos) in records.items()
        for args, lineno in zip(values, linenos)
    ]
    commands.sort(key=lambda command: command.line)
    return Script(tuple(commands)), diagnostics


# ---------------------------------------------------------------------------
# Rendering


def _render_interval(t: TimeRef) -> str:
    return f"[{number_text(t.start)}, {'*' if t.end is None else number_text(t.end)}]"


def render_world(world: World) -> str:
    """Canonical text for a world: sections in a fixed order, each sorted,
    so that semantically equal worlds render byte-identically and
    ``parse(render(w)) == w``. Every number is written in full, also past
    ``sys.get_int_max_str_digits()``."""
    lines: list[str] = []
    for entity in sorted(world.entities.values(), key=lambda e: e.id):
        line = f"entity {entity.id} lifespan {_render_interval(entity.lifespan)}"
        if entity.invariant:
            line += " invariant"
        if entity.species is not None:
            line += f" species {entity.species}"
        lines.append(line)
    for decl in sorted(world.predicates.values(), key=lambda p: p.name):
        line = (
            f"pred {decl.name} arity {number_text(decl.arity)} "
            f"{'invariant' if decl.invariant else 'mutable'}"
        )
        if decl.cohort:
            line += " cohort"
        lines.append(line)
    for fact in world.facts:  # in the canonical order: see `World`
        at = "*" if fact.at is None else number_text(fact.at)
        lines.append(f"fact {fact.predicate}({', '.join(fact.args)}) @ {at}")
    for (measure, entity_id, tick), value in sorted(world.measures.items()):
        lines.append(
            f"measure {measure}({entity_id}) @ {number_text(tick)} = {number_text(value)}"
        )
    for coll in sorted(world.collections.values(), key=lambda c: c.name):
        mode = "dicto" if coll.mode == MODE_DICTO else f"re@{number_text(coll.anchor)}"
        lines.append(
            f"collection {coll.name} {mode} := {coll.predicate}({', '.join(coll.pattern)})"
        )
    for stmt in sorted(world.statements.values(), key=lambda s: s.id):
        prop = stmt.profile.compared_property
        if stmt.profile.property_pattern is not None:
            prop += f"({', '.join(stmt.profile.property_pattern)})"
        ticks = ", ".join(map(number_text, stmt.eval_times))
        line = (
            f"statement {stmt.id} subject {stmt.subject} "
            f"profile {'evolutive' if stmt.profile.evolutive else 'static'} "
            f"property {prop} direction {stmt.profile.direction} "
            f"times {ticks} span {_render_interval(stmt.span)}"
        )
        if stmt.species_bound is not None:
            line += f" bound {number_text(stmt.species_bound)}"
        if stmt.explicit_mode is not None:
            line += f" mode {'re' if stmt.explicit_mode == MODE_RE else 'dicto'}"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")
