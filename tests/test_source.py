"""Checks over the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "tempcoll"


def test_no_assert_guards_the_package():
    # `python -O` strips every assert, so a guard written as one vanishes;
    # a misuse must raise a typed error instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
