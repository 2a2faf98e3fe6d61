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

Every line goes through one tokenizer and cursor parser, except that
the world kinds `entity`, `fact`, `measure`, `collection` and
`statement` and the commands `eval` and `assert` also have one
full-line pattern each, built from the tokenizer's pieces. A line that
pattern matches is either accepted, with the value its cursor parser
would give, or declined and left to the tokenizer path. A pattern never
rejects a line, so every diagnostic comes from the tokenizer path. An
argument list in a pattern takes only spaces around its commas and
parentheses, so a line with other whitespace there is declined. A line
tries first the pattern that took the line before it, then the others
in table order: a file comes in runs of one kind, and each pattern
starts with its own word, so at most one matches and the order changes
no value.

Each format has one table, with one row per line word. A world kind's
row holds its cursor parser, its `WorldBuilder` method and its pattern,
if any, in build order; a command word's row holds its cursor parser,
its command class and its pattern, if any. On either path a line's
value is an argument tuple: the builder method's, or the command's
before (line number, text). Commands keep their order in the file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Literal, Mapping, NamedTuple, Sequence

from .errors import TempcollError
from .model import (
    HOLE,
    MODE_DICTO,
    MODE_RE,
    Mode,
    TimeRef,
    World,
    WorldBuilder,
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


@dataclass(frozen=True)
class Diagnostic:
    severity: Literal["error", "warning"]
    message: str
    line: int
    column: int
    source_name: str

    def render(self) -> str:
        return f"{self.source_name}:{self.line}:{self.column}: {self.severity}: {self.message}"


# ---------------------------------------------------------------------------
# Script AST


@dataclass(frozen=True)
class InstExpr:
    collection: str
    at: int
    filter_predicate: str | None = None
    filter_pattern: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if (self.filter_predicate is None) != (self.filter_pattern is None):
            raise ValueError("a filter needs both a predicate and a pattern")


@dataclass(frozen=True)
class CardExpr:
    inst: InstExpr


@dataclass(frozen=True)
class RatioExpr:
    part: InstExpr
    whole: InstExpr


@dataclass(frozen=True)
class SumExpr:
    measure: str
    inst: InstExpr


Expr = InstExpr | CardExpr | RatioExpr | SumExpr


@dataclass(frozen=True)
class EvalCommand:
    kind: ClassVar[str] = "eval"
    expr: Expr
    line: int
    text: str


@dataclass(frozen=True)
class AssertCommand:
    kind: ClassVar[str] = "assert"
    left: Expr
    op: Literal["<", ">", "="]
    right: Expr
    line: int
    text: str


@dataclass(frozen=True)
class DisambiguateCommand:
    kind: ClassVar[str] = "disambiguate"
    statement_id: str
    line: int
    text: str


@dataclass(frozen=True)
class ExplainCommand:
    kind: ClassVar[str] = "explain"
    statement_id: str
    line: int
    text: str


Command = EvalCommand | AssertCommand | DisambiguateCommand | ExplainCommand


@dataclass(frozen=True)
class Script:
    commands: tuple[Command, ...]


# ---------------------------------------------------------------------------
# Tokenizer

# Token pieces, shared with the full-line declaration patterns below.
# Numbers take ASCII digits only; `\s` is Unicode whitespace.
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_INT = r"-?[0-9]+"
_RATIONAL = r"-?[0-9]+/[0-9]+"
_DECIMAL = r"-?[0-9]+\.[0-9]+"
_COMMENT = r";.*"

_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<comment>{_COMMENT})
      | (?P<rational>{_RATIONAL})
      | (?P<decimal>{_DECIMAL})
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


class _LineError(Exception):
    """A problem that ends its line; args are (message, 1-based column)."""


def _tokenize(line: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup or ""
        if kind == "bad":
            raise _LineError(f"unexpected character {m.group()!r}", m.start() + 1)
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), m.start() + 1))
    return tokens


_EXPECTED_KIND = {"id": "a name", "int": "an integer"}


class _Cursor:
    def __init__(self, tokens: list[_Token], line_length: int) -> None:
        self._tokens = tokens
        self._idx = 0
        self._end_column = line_length + 1

    def peek(self, ahead: int = 0) -> _Token | None:
        idx = self._idx + ahead
        return self._tokens[idx] if idx < len(self._tokens) else None

    def column(self) -> int:
        tok = self.peek()
        return tok.column if tok else self._end_column

    def take(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise _LineError(f"expected {what} at end of line", self._end_column)
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
        tok = self.peek()
        if tok is not None and tok.text == text:
            self._idx += 1
            return True
        return False

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
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
            if tok is None:
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
    if tok.kind not in ("int", "rational", "decimal"):
        raise _LineError(f"expected a rational number, got {tok.text!r}", tok.column)
    try:
        return Fraction(tok.text)
    except (ValueError, ZeroDivisionError) as e:
        raise _LineError(f"bad rational literal {tok.text!r}", tok.column) from e


# A word's full-line pattern, whose group 1 is the indentation, and its
# maker, which builds from a match what the word's cursor parser would,
# or returns None to leave the line to the tokenizer path.
_LinePattern = tuple[re.Pattern[str], Callable[[re.Match[str]], tuple | None]]


def _parse_lines(
    text: str,
    source_name: str,
    noun: str,
    table: Mapping[str, tuple[Callable[[_Cursor], tuple], object, _LinePattern | None]],
) -> tuple[dict[str, list[tuple[tuple, int, int, str]]], list[Diagnostic]]:
    """The one line loop of both formats. A line that holds a token
    starts with a word from `table`, whose cursor parser must take the
    rest of the line, unless the word's pattern matches the whole line
    and its maker, which never raises, builds the tuple. Returns each
    word's lines in file order, as (argument tuple, line number, column
    of the word, line), and a diagnostic for each line an error ended."""
    records: dict[str, list[tuple[tuple, int, int, str]]] = {word: [] for word in table}
    diagnostics: list[Diagnostic] = []
    # Lines end only at \r\n, \r or \n; str.splitlines would also end
    # them at a form feed or U+2028, even inside a comment.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # The pattern that took the previous line goes first (see the module
    # docstring for why that changes no value).
    patterns = [(word, *row[2]) for word, row in table.items() if row[2] is not None]
    orders = {entry[0]: (entry, *(e for e in patterns if e is not entry)) for entry in patterns}
    order = patterns
    for lineno, line in enumerate(text.split("\n"), start=1):
        for word, pattern, make in order:
            m = pattern.fullmatch(line)
            if m is not None and (value := make(m)) is not None:
                records[word].append((value, lineno, m.end(1) + 1, line))
                order = orders[word]
                break
        else:
            try:
                tokens = _tokenize(line)
                if tokens:
                    head = tokens[0]
                    if head.text not in table:
                        raise _LineError(f"unknown {noun} {head.text!r}", head.column)
                    cur = _Cursor(tokens, len(line))
                    cur.take(noun)
                    value = table[head.text][0](cur)
                    cur.expect_end()
                    records[head.text].append((value, lineno, head.column, line))
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
        raise _LineError("a measure is recorded for exactly one entity", cur.column())
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
    tok = cur.peek()
    if tok is not None and tok.text == "(":
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
# a line it matches gets its value straight from the match groups.
# Group 1 is the indentation, so the head column is the tokenizer's,
# leading whitespace included. Where the tokenizer needs whitespace
# between two tokens, a pattern takes `\s+`, so it never splits what the
# tokenizer reads as one token. A pattern's integer has at most 640
# digits, which int() converts under any limit `sys.set_int_max_str_digits`
# allows; a longer one is left to the tokenizer path.
_END = rf"\s*(?:{_COMMENT})?"
_LINE_INT = r"-?[0-9]{1,640}"
# An argument list takes only spaces as separators (`[ ]`, which a
# verbose pattern keeps), so its text splits without `strip`.
_ARGS = rf"\([ ]*({_ID}(?:[ ]*,[ ]*{_ID})*)[ ]*\)"  # one group: the argument text
_INTERVAL = rf"\[\s*({_LINE_INT})\s*,\s*(?:({_LINE_INT})|\*)\s*\]"  # two groups: start, end
_ENTITY_LINE = re.compile(
    rf"""(\s*)entity\s+({_ID})\s+lifespan\s*{_INTERVAL}
         (?:\s+(invariant))?(?:\s+species\s+({_ID}))?{_END}""",
    re.VERBOSE,
)
_FACT_LINE = re.compile(rf"(\s*)fact\s+({_ID})\s*{_ARGS}\s*@\s*(?:({_LINE_INT})|\*){_END}")
_MEASURE_LINE = re.compile(
    rf"""(\s*)measure\s+({_ID})\s*\(\s*({_ID})\s*\)\s*@\s*({_LINE_INT})
         \s*=\s*({_RATIONAL}|{_DECIMAL}|{_LINE_INT}){_END}""",
    re.VERBOSE,
)
_COLLECTION_LINE = re.compile(
    rf"""(\s*)collection\s+({_ID})\s+(?:dicto|re\s*@\s*({_LINE_INT}))
         \s*:=\s*({_ID})\s*{_ARGS}{_END}""",
    re.VERBOSE,
)
_STATEMENT_LINE = re.compile(
    rf"""(\s*)statement\s+({_ID})\s+subject\s+({_ID})\s+profile\s+(evolutive|static)
         \s+property\s+({_ID})(?:\s*{_ARGS})?\s+direction\s+(less|more|changed)
         \s+times\s+({_LINE_INT})\s*,\s*({_LINE_INT})
         \s+span\s*{_INTERVAL}
         (?:\s*bound\s+({_LINE_INT}))?(?:\s*mode\s+(re|dicto))?{_END}""",
    re.VERBOSE,
)


# Each maker declines (returns None) what its cursor parser would reject:
# a `_` argument, an empty interval, a zero denominator.


def _entity_line(m: re.Match[str]) -> tuple | None:
    _, entity_id, start, end, invariant, species = m.groups()
    try:
        lifespan = TimeRef(int(start), None if end is None else int(end))
    except TempcollError:
        return None
    return entity_id, lifespan, invariant is not None, species


def _fact_line(m: re.Match[str]) -> tuple | None:
    _, name, arg_text, tick = m.groups()
    args = tuple(arg_text.replace(" ", "").split(","))
    if HOLE in args:
        return None
    return name, args, None if tick is None else int(tick)


def _measure_line(m: re.Match[str]) -> tuple | None:
    _, name, entity_id, tick, literal = m.groups()
    if entity_id == HOLE:
        return None
    # An int literal makes its Fraction from one int, with no gcd, and a
    # rational one from two ints: both are over twice as fast as
    # Fraction's string parser, which a decimal needs.
    numerator, slash, denominator = literal.partition("/")
    try:
        if slash:
            value = Fraction(int(numerator), int(denominator))
        elif "." in literal:
            value = Fraction(literal)
        else:
            value = Fraction(int(literal))
    except (ValueError, ZeroDivisionError):
        return None
    return name, entity_id, int(tick), value


def _collection_line(m: re.Match[str]) -> tuple:
    _, name, anchor, predicate, arg_text = m.groups()
    pattern = tuple(arg_text.replace(" ", "").split(","))
    return name, predicate, pattern, None if anchor is None else int(anchor)


def _statement_line(m: re.Match[str]) -> tuple | None:
    _, statement_id, subject, profile, compared, pattern_text, direction, *rest = m.groups()
    t1, t2, start, end, bound_text, mode_word = rest
    try:
        span = TimeRef(int(start), None if end is None else int(end))
    except TempcollError:
        return None
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
    for kind, kind_records in records.items():
        build = getattr(builder, _DECLARATIONS[kind][1])
        for args, lineno, column, _ in kind_records:
            try:
                message = build(*args)
            except TempcollError as e:
                diagnostics.append(Diagnostic("error", str(e), lineno, column, source_name))
                continue
            if message is not None:
                warnings.append(Diagnostic("warning", message, lineno, column, source_name))

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
        if cur.peek() is None:
            raise _LineError("unbalanced '('", opening) from e
        raise
    if not cur.accept(")"):
        raise _LineError("unbalanced '('", opening)
    return insts


def _parse_expr(cur: _Cursor) -> Expr:
    tok = cur.peek()
    if tok is None:
        raise _LineError("expected an expression at end of line", cur.column())
    after = cur.peek(1)
    # `card`, `ratio` and `sum` are also collection names when `@` follows.
    if tok.text not in ("card", "ratio", "sum") or (after is not None and after.text == "@"):
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
# expression piece (11 groups: `card` or `ratio`, a sum's measure, two
# instantiations, the closing `)`). The expression piece reads the parts
# of every form once, which keeps it small to compile, and `_expr`
# declines parts that make no form. `card`, `ratio` or `sum` followed by
# `@` is a bare instantiation, as in `_parse_expr`.
_INST = rf"({_ID})\s*@\s*({_LINE_INT})(?:\s*\|\s*({_ID})\s*{_ARGS})?"
_EXPR = rf"(?:(card|ratio)\s*\(\s*|sum\s+({_ID})\s+over\s+)?{_INST}(?:\s*,\s*{_INST})?(\s*\))?"
_EVAL_LINE = re.compile(rf"(\s*)eval\s+{_EXPR}{_END}")
_ASSERT_LINE = re.compile(rf"(\s*)assert\s+{_EXPR}\s*([<>=])\s*{_EXPR}{_END}")

# Keyword -> whether its form has (a second instantiation, a closing `)`).
_EXPR_SHAPES = {"card": (False, True), "ratio": (True, True), None: (False, False)}


def _inst(name: str, tick: str, predicate: str | None, args: str | None) -> InstExpr:
    if predicate is None:
        return InstExpr(name, int(tick))
    return InstExpr(name, int(tick), predicate, tuple(args.replace(" ", "").split(",")))


def _expr(g: Sequence[str | None]) -> Expr | None:
    """The expression of one `_EXPR` match, from its 11 groups."""
    keyword, measure, close = g[0], g[1], g[10]
    if (g[6] is not None, close is not None) != _EXPR_SHAPES[keyword]:
        return None
    inst = _inst(*g[2:6])
    if keyword == "card":
        return CardExpr(inst)
    if keyword == "ratio":
        return RatioExpr(inst, _inst(*g[6:10]))
    return inst if measure is None else SumExpr(measure, inst)


def _eval_line(m: re.Match[str]) -> tuple | None:
    expr = _expr(m.groups()[1:])
    return None if expr is None else (expr,)


def _assert_line(m: re.Match[str]) -> tuple | None:
    g = m.groups()
    left, right = _expr(g[1:12]), _expr(g[13:])
    if left is None or right is None:
        return None
    return left, g[12], right


# Command word (the class's `kind`) -> (cursor parser, command class,
# line pattern or None); a command is built from the parsed tuple and
# then the line number and text.
_COMMANDS: dict[str, tuple[Callable[[_Cursor], tuple], type[Command], _LinePattern | None]] = {
    command.kind: (parse, command, line_pattern)
    for parse, command, line_pattern in (
        (lambda cur: (_parse_expr(cur),), EvalCommand, (_EVAL_LINE, _eval_line)),
        (_parse_assert, AssertCommand, (_ASSERT_LINE, _assert_line)),
        (_parse_reference, DisambiguateCommand, None),
        (_parse_reference, ExplainCommand, None),
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
    commands = [
        _COMMANDS[word][1](*args, lineno, line.split(";")[0].strip())
        for word, word_records in records.items()
        for args, lineno, _, line in word_records
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
    for fact in world.facts:  # already canonically sorted by the builder
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
