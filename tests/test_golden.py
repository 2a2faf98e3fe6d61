"""Golden reports: every fixture invocation replayed against stored bytes.

`golden_reports.json` holds the exit code and stdout of each invocation
in `invocations()`, run from the repository root so that paths in the
reports are relative. Regenerate it only when a report is meant to
change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from tempcoll.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

WORLDS = sorted(p.name for p in (ROOT / "fixtures").glob("*.tcw")) + ["no_such.tcw"]
SCRIPTS = sorted(p.name for p in (ROOT / "fixtures").glob("*.tcq"))
STATEMENTS = ("S1", "S2", "S3", "S4", "S9")
FORMATS = ("text", "json")


def invocations() -> list[list[str]]:
    """The grid: each world x (check, disambiguate/explain per statement,
    eval per script under both policies) x both formats. Only `eval`
    reads the policy, so the other commands run under the default. Then
    `tests/shapes.tcq` on `tests/shapes.tcw`, under both policies and in
    both formats, for the value shapes no fixture script reaches (kept
    out of `fixtures/`, which the diagnostics corpus fuzzes)."""
    grid: list[list[str]] = []
    for world in (f"fixtures/{name}" for name in WORLDS):
        for fmt in FORMATS:
            grid.append(["check", world, "--format", fmt])
            for command in ("disambiguate", "explain"):
                for sid in STATEMENTS:
                    grid.append([command, world, sid, "--format", fmt])
            for script in SCRIPTS:
                for policy in ("strict", "lenient"):
                    grid.append(
                        ["eval", world, f"fixtures/{script}", "--format", fmt, "--policy", policy]
                    )
    for fmt in FORMATS:
        for policy in ("strict", "lenient"):
            grid.append(
                ["eval", "tests/shapes.tcw", "tests/shapes.tcq", "--format", fmt, "--policy", policy]
            )
    return grid


@cache
def _golden() -> dict[str, dict]:
    return {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_the_grid():
    assert set(_golden()) == {" ".join(argv) for argv in invocations()}


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_report_matches_golden(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = _golden()[" ".join(argv)]
    code = run(argv)
    assert (code, capsys.readouterr().out) == (expected["exit"], expected["stdout"])


def _capture() -> None:
    os.chdir(ROOT)
    entries = []
    for argv in invocations():
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(entries)} invocations to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _capture()
