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


def test_no_gc_switch_in_the_package():
    # Turning the collector off, freezing it or moving its thresholds
    # changes process-wide state behind the caller's back.
    switches = {"disable", "freeze", "set_threshold"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
            and node.attr in switches
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "gc"
            and any(alias.name in switches for alias in node.names)
        )
    ]
    assert found == []
