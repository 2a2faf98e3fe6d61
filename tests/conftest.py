from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import settings

from tempcoll import World, parse_world

# `pytest --hypothesis-profile=ci` draws the same examples on every run,
# so a property cannot pass on one run and fail on the next.
settings.register_profile("ci", derandomize=True, print_blob=True)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@contextmanager
def int_digit_limit(limit: int):
    """Run the body under this limit on int-to-text and text-to-int
    conversion, as if Python were started with it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("int() has no digit limit on this Python")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def load_world(name: str) -> World:
    world, diagnostics = parse_world(fixture_text(name), source_name=name)
    assert world is not None, [d.render() for d in diagnostics]
    assert not diagnostics, [d.render() for d in diagnostics]
    return world


@pytest.fixture(scope="session")
def youth() -> World:
    return load_world("youth.tcw")


@pytest.fixture(scope="session")
def friends() -> World:
    return load_world("friends.tcw")


@pytest.fixture(scope="session")
def sitin() -> World:
    return load_world("sitin.tcw")


@pytest.fixture(scope="session")
def centuries() -> World:
    return load_world("centuries.tcw")


@pytest.fixture(scope="session")
def origins() -> World:
    return load_world("origins.tcw")


@pytest.fixture(scope="session")
def missing() -> World:
    return load_world("missing.tcw")
