"""Command-line shell: load a world (and a script), run, report.

Subcommands:
    check WORLD                parse and validate only
    eval WORLD SCRIPT          execute eval/assert/disambiguate/explain
    disambiguate WORLD STMT    decide the mode of one statement
    explain WORLD STMT         decide, enumerate, and evaluate readings

Each executed command records one JSON payload, and the payloads are the
report: `--format json` prints them, and `--format text` is rendered
from them by `format_report`. Values are `rational`, `natural`,
`instantiation` or `undefined` payloads; a diagnostic, fired rule or
witness is written as its record's fields.

Exit codes: 0 all asserts true and no errors; 1 some assert false or
undefined; 2 diagnostics or usage errors. Reports are deterministic:
identical inputs give byte-identical output in both formats.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, TypeVar

from .algebra import Instantiation, aggregate_sum, cardinality, filter_members, instantiate, ratio
from .dsl import (
    CardExpr,
    Diagnostic,
    DisambiguateCommand,
    EvalCommand,
    ExplainCommand,
    Expr,
    InstExpr,
    RatioExpr,
    Script,
    SumExpr,
    parse_script,
    parse_world,
)
from .errors import (
    EmptyDenominator,
    MissingMeasure,
    OutsideLifeSpan,
    TempcollError,
)
from .model import Policy, World, number_text
from .readings import Decision, Reading, analyze, decide_mode

__all__ = ["Report", "run", "format_report", "exit_code", "main"]

# Data conditions render as undefined values; everything else in this
# family is an encoding bug and becomes an error diagnostic.
_UNDEFINED_ERRORS = (MissingMeasure, EmptyDenominator, OutsideLifeSpan)


class Report:
    """The JSON payload of each executed command, and the diagnostics.
    The payloads are the report: the text format is rendered from them."""

    def __init__(
        self, commands: list[dict] | None = None, diagnostics: list[Diagnostic] | None = None
    ) -> None:
        self.commands = [] if commands is None else commands
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def status(self) -> str:
        if any(d.severity == "error" for d in self.diagnostics):
            return "error"
        # An assert that is false or undefined fails; nothing else does.
        if any(c["kind"] == "assert" and c["truth"] is not True for c in self.commands):
            return "fail"
        return "ok"


def exit_code(report: Report) -> int:
    return {"ok": 0, "fail": 1, "error": 2}[report.status]


# ---------------------------------------------------------------------------
# Value rendering


def _decimal(value: Fraction) -> str:
    # Outside a float's normal range the float is inf, 0 or short of
    # digits, so the decimal is the exact fraction.
    try:
        number = float(value)
    except OverflowError:
        return number_text(value)
    if value and abs(number) < sys.float_info.min:
        return number_text(value)
    return format(number, ".6g")


def _rational_json(value: Fraction) -> dict:
    return {
        "type": "rational",
        "num": value.numerator,
        "den": value.denominator,
        "decimal": _decimal(value),
    }


def _value_json(value: object) -> dict:
    if isinstance(value, Fraction):
        return _rational_json(value)
    if isinstance(value, int):
        return {"type": "natural", "value": value}
    if isinstance(value, Instantiation):
        return {
            "type": "instantiation",
            "members": [str(s) for s in value.sorted_members()],
            "dropped": sorted(value.dropped),
        }
    raise TypeError(f"unrenderable value {value!r}")


def _value_text(payload: dict) -> str:
    kind = payload["type"]
    if kind == "rational":
        num, den = number_text(payload["num"]), number_text(payload["den"])
        return num if den == "1" else f"{num}/{den} ({payload['decimal']})"
    if kind == "natural":
        return number_text(payload["value"])
    if kind == "instantiation":
        text = "{" + ", ".join(payload["members"]) + "}"
        if payload["dropped"]:
            text += f" dropped: {', '.join(payload['dropped'])}"
        return text
    return f"undefined ({payload['reason']})"


def _operand_text(value: object) -> str:
    # Compact form used inside assert details: exact fractions, no decimals.
    if isinstance(value, (Fraction, int)):
        return number_text(value)
    return _value_text(_value_json(value))


# ---------------------------------------------------------------------------
# Script execution


def _eval_inst(world: World, expr: InstExpr, policy: Policy) -> Instantiation:
    inst = instantiate(world, expr.collection, expr.at, policy)
    if expr.filter_predicate is not None:
        inst = filter_members(world, inst, expr.filter_predicate, expr.filter_pattern)
    return inst


def _eval_expr(world: World, expr: Expr, policy: Policy) -> object:
    if isinstance(expr, InstExpr):
        return _eval_inst(world, expr, policy)
    if isinstance(expr, CardExpr):
        return cardinality(_eval_inst(world, expr.inst, policy))
    if isinstance(expr, RatioExpr):
        return ratio(
            _eval_inst(world, expr.part, policy),
            _eval_inst(world, expr.whole, policy),
        )
    if isinstance(expr, SumExpr):
        return aggregate_sum(world, expr.measure, _eval_inst(world, expr.inst, policy))
    raise TypeError(f"unknown expression {expr!r}")


_COMPARE = {"<": operator.lt, ">": operator.gt, "=": operator.eq}


def _compare(left: object, op: str, right: object) -> bool:
    if isinstance(left, Instantiation) and isinstance(right, Instantiation):
        if op != "=":
            raise TempcollError("instantiations only compare with '='")
        left, right = left.members, right.members
    elif not (isinstance(left, (int, Fraction)) and isinstance(right, (int, Fraction))):
        raise TempcollError("comparison needs two numbers or two instantiations")
    return _COMPARE[op](left, right)


def _decision_json(statement_id: str, decision: Decision, kind: str) -> dict:
    data = {
        "kind": kind,
        "statement": statement_id,
        "mode": decision.mode,
        "rules": [r._asdict() for r in decision.fired_rules],
    }
    if kind == "explain":
        data["readings"] = [_reading_json(r) for r in decision.readings]
    return data


def _reading_json(reading: Reading) -> dict:
    data: dict = {"kind": reading.kind, "formula": reading.formula}
    if reading.truth is not None:
        data["truth"] = reading.truth
    else:
        data["truth"] = "undefined"
        data["reason"] = reading.reason or ""
    data["witnesses"] = [w._asdict() for w in reading.witnesses]
    return data


def _run_decision_command(
    report: Report, world: World, statement_id: str, kind: str, source: str, line: int
) -> None:
    try:
        stmt = world.statement(statement_id)
        decision = (
            analyze(world, stmt) if kind == "explain" else decide_mode(world, stmt)
        )
    except TempcollError as e:
        report.diagnostics.append(Diagnostic("error", str(e), line, 1, source))
        return
    report.commands.append(_decision_json(statement_id, decision, kind))


def _run_script(report: Report, world: World, script: Script, policy: Policy, source: str) -> None:
    index = 0
    for cmd in script.commands:
        if isinstance(cmd, (DisambiguateCommand, ExplainCommand)):
            _run_decision_command(report, world, cmd.statement_id, cmd.kind, source, cmd.line)
            continue
        index += 1
        data: dict = {"kind": cmd.kind, "index": index, "expression": cmd.text}
        try:
            if isinstance(cmd, EvalCommand):
                data["value"] = _value_json(_eval_expr(world, cmd.expr, policy))
            else:
                left = _eval_expr(world, cmd.left, policy)
                right = _eval_expr(world, cmd.right, policy)
                data.update(
                    truth=_compare(left, cmd.op, right),
                    op=cmd.op,
                    left=_value_json(left),
                    right=_value_json(right),
                    detail=f"{_operand_text(left)} {cmd.op} {_operand_text(right)}",
                )
        except _UNDEFINED_ERRORS as e:
            # An undefined eval is a value; an undefined assert fails.
            if cmd.kind == "eval":
                data["value"] = {"type": "undefined", "reason": str(e)}
            else:
                data.update(truth="undefined", reason=str(e))
        except TempcollError as e:
            report.diagnostics.append(Diagnostic("error", str(e), cmd.line, 1, source))
            continue
        report.commands.append(data)


# ---------------------------------------------------------------------------
# Report formatting

# What `check` counts, in report order.
_CHECK_COUNTS = (
    "entities", "predicates", "facts", "measures", "ticks", "collections", "statements"
)


def _text_lines(payload: dict) -> list[str]:
    """The text report lines of one command, rendered from its payload."""
    kind = payload["kind"]
    if kind == "check":
        summary = ", ".join(f"{name}={payload[name]}" for name in _CHECK_COUNTS)
        return [f"check {payload['source']}: ok ({summary})"]
    if kind == "eval":
        return [f"eval #{payload['index']}: {_value_text(payload['value'])}"]
    if kind == "assert":
        # A truth is True, False or "undefined"; each prints in lower case.
        truth = payload["truth"]
        detail = payload["detail"] if truth != "undefined" else payload["reason"]
        return [f"assert #{payload['index']}: {str(truth).lower()} ({detail})"]
    rule_ids = ", ".join(rule["id"] for rule in payload["rules"])
    lines = [f"{kind} {payload['statement']}: {payload['mode']} [{rule_ids}]"]
    for rule in payload["rules"]:
        lines.append(f"  rule {rule['id']}: {rule['justification']}")
    for reading in payload.get("readings", ()):  # explain only
        lines.append(f"  reading {reading['kind']}: {str(reading['truth']).lower()}")
        lines.append(f"    formula: {reading['formula']}")
        if "reason" in reading:
            lines.append(f"    reason: {reading['reason']}")
        for w in reading["witnesses"]:
            lines.append(f"    witness {w['label']}: {w['detail']}")
    return lines


def _json_text(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` in one pass,
    also for an int past Python's digit limit, which ``int.__repr__``
    cannot write. `indent` is the line break before the value's items."""
    if isinstance(value, str):
        return encode_basestring(value)
    if type(value) is int:  # not a bool
        return number_text(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


def format_report(report: Report, fmt: str = "text") -> str:
    """Render a report as "text" or "json"; the result always ends with a newline."""
    if fmt not in ("text", "json"):
        raise ValueError(f"a report format is 'text' or 'json', got {fmt!r}")
    if fmt == "json":
        document = {
            "status": report.status,
            "commands": report.commands,
            "diagnostics": [d._asdict() for d in report.diagnostics],
        }
        return _json_text(document) + "\n"
    lines: list[str] = []
    for payload in report.commands:
        lines.extend(_text_lines(payload))
    for d in report.diagnostics:
        lines.append(d.render())
    lines.append(f"status: {report.status}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point


_Parsed = TypeVar("_Parsed")


def _load(
    report: Report, path: str, parse: Callable[..., tuple[_Parsed | None, list[Diagnostic]]]
) -> _Parsed | None:
    """Read and parse one input file; a BOM is skipped, and an unreadable
    file or a parse error becomes a diagnostic."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig", errors="replace")
    except OSError as e:
        report.diagnostics.append(Diagnostic("error", str(e), 1, 1, path))
        return None
    result, diagnostics = parse(text, source_name=path)
    report.diagnostics.extend(diagnostics)
    return result


# (name, help, positional arguments) of each subcommand.
_SUBCOMMANDS = (
    ("check", "parse and validate a world file", ("world",)),
    ("eval", "run a script against a world", ("world", "script")),
    ("disambiguate", "decide the mode of a statement", ("world", "statement_id")),
    ("explain", "decide and evaluate every reading", ("world", "statement_id")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempcoll",
        description="Evaluate temporal collection worlds, scripts, and statements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, positionals in _SUBCOMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--format", choices=("text", "json"), default="text")
        if name == "eval":  # only a script's instantiations read the policy
            command.add_argument("--policy", choices=("strict", "lenient"), default="strict")
        for positional in positionals:
            command.add_argument(positional)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Execute one invocation; prints the report to stdout, returns the
    exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed a synopsis to stderr on usage errors
        return 2 if e.code not in (0, None) else int(e.code or 0)

    report = Report()
    world = _load(report, args.world, parse_world)
    if world is not None and args.command == "check":
        counts = {name: len(getattr(world, name)) for name in _CHECK_COUNTS}
        report.commands.append({"kind": "check", "source": args.world, "ok": True, **counts})
    elif world is not None and args.command == "eval":
        script = _load(report, args.script, parse_script)
        if script is not None:
            _run_script(report, world, script, args.policy, args.script)
    elif world is not None:
        _run_decision_command(report, world, args.statement_id, args.command, args.world, 1)

    sys.stdout.write(format_report(report, args.format))
    return exit_code(report)


def main() -> None:
    # A report may quote any character of its inputs, so it is written as
    # UTF-8 whatever encoding the locale gives stdout.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    raise SystemExit(run())


if __name__ == "__main__":
    main()
