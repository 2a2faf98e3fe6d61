"""Compare one tempcoll report with the answers bench/gen.py planned."""

from __future__ import annotations

import json
import re

_EXPLAIN_HEAD = re.compile(r"explain (\S+): (de_re|de_dicto) \[(.*)\]")
_READING = re.compile(r"  reading (\w+): (\w+)")


def _explain_skeleton(statements: list) -> list[str]:
    lines = []
    for sid, mode, rules, readings in statements:
        lines.append(f"explain {sid}: {mode} [{', '.join(rules)}]")
        lines.extend(f"  reading {kind}: {label}" for kind, label in readings)
    return lines + ["status: ok"]


def _value(data: dict) -> dict:
    keep = {
        "natural": ("type", "value"),
        "rational": ("type", "num", "den"),
        "instantiation": ("type", "members", "dropped"),
        "undefined": ("type",),
    }.get(data.get("type"), tuple(data))
    return {k: data.get(k) for k in keep}


def mismatches(plan: dict, code: int, report: str) -> list[str]:
    """Every way `report` and exit `code` differ from `plan`; empty if none."""
    problems = []
    if code != plan["exit"]:
        problems.append(f"exit code {code}, planned {plan['exit']}")
    expect = plan["expect"]
    if "report" in expect:
        if report != expect["report"]:
            problems.append(f"report {report[:300]!r} differs from {expect['report']!r}")
    elif "statements" in expect:
        allowed = ("explain ", "  rule ", "  reading ", "    ", "status: ")
        stray = [line for line in report.splitlines() if not line.startswith(allowed)]
        problems.extend(f"unexpected line {line!r}" for line in stray[:5])
        skeleton = [
            line
            for line in report.splitlines()
            if _EXPLAIN_HEAD.fullmatch(line) or _READING.fullmatch(line) or line.startswith("status: ")
        ]
        planned = _explain_skeleton(expect["statements"])
        for got, want in zip(skeleton, planned):
            if got != want:
                problems.append(f"got {got!r}, planned {want!r}")
        if len(skeleton) != len(planned):
            problems.append(f"{len(skeleton)} verdict lines, planned {len(planned)}")
    else:
        try:
            document = json.loads(report)
        except ValueError as e:
            return problems + [f"report is not JSON: {e}"]
        if document.get("status") != expect["status"]:
            problems.append(f"status {document.get('status')!r}, planned {expect['status']!r}")
        if document.get("diagnostics"):
            problems.append(f"diagnostics {document['diagnostics'][:3]}")
        commands = document.get("commands", [])
        if len(commands) != len(expect["commands"]):
            problems.append(f"{len(commands)} commands, planned {len(expect['commands'])}")
        for got, want in zip(commands, expect["commands"]):
            seen = {"kind": got.get("kind"), "index": got.get("index")}
            if "value" in want:
                seen["value"] = _value(got.get("value", {}))
            else:
                seen["truth"] = got.get("truth")
                if isinstance(seen["truth"], bool):
                    seen["truth"] = str(seen["truth"]).lower()
            if seen != want:
                problems.append(f"got {str(seen)[:200]}, planned {str(want)[:200]}")
    return problems
