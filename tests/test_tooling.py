"""Checks on the test set-up itself."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes_after_it():
    pass
'''


def test_a_failing_property_fails_without_ending_the_session(tmp_path):
    # Hypothesis's failure report imports modules that warn on import;
    # under the `error` warning filter that must not become an
    # INTERNALERROR that stops every later test.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "test_property.py"]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output
