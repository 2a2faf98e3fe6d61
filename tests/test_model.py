from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import load_world
from tempcoll import MODE_DICTO, MalformedStatement, TimeRef, WorldBuilder

P = TimeRef.point


def _statement_builder() -> WorldBuilder:
    builder = WorldBuilder()
    builder.add_entity("a", TimeRef(1990, 2030))
    builder.add_predicate("p", 1)
    builder.add_fact("p", ("a",), P(2002))
    builder.add_measure("m", "a", P(2002), Fraction(3))
    builder.add_collection("C", MODE_DICTO, "p", ("_",))
    return builder


def test_world_mappings_are_read_only(friends):
    for mapping in (
        friends.entities,
        friends.predicates,
        friends.measures,
        friends.collections,
        friends.statements,
    ):
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]


def test_built_world_does_not_follow_its_builder():
    builder = _statement_builder()
    world = builder.build()
    builder.add_entity("b", TimeRef(1990, 2030))
    assert "b" not in world.entities


def test_two_parses_are_equal_and_hash_equal():
    for name in ("youth.tcw", "friends.tcw", "origins.tcw"):
        first, second = load_world(name), load_world(name)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


@pytest.mark.parametrize("times", [(2002,), (2001, 2002, 2003)])
def test_builder_needs_exactly_two_evaluation_times(times):
    builder = _statement_builder()
    with pytest.raises(MalformedStatement, match="exactly two evaluation times"):
        builder.add_statement(
            "S",
            "C",
            evolutive=True,
            compared_property="m",
            direction="less",
            eval_times=times,
            span=TimeRef(2000, 2005),
        )


def test_builder_knows_measures_recorded_before_a_statement():
    builder = _statement_builder()
    builder.add_statement(
        "S",
        "C",
        evolutive=True,
        compared_property="m",
        direction="less",
        eval_times=(2002, 2003),
        span=TimeRef(2002, 2003),
    )
    with pytest.raises(MalformedStatement, match="neither a declared predicate"):
        builder.add_statement(
            "T",
            "C",
            evolutive=True,
            compared_property="m_unrecorded",
            direction="less",
            eval_times=(2002, 2003),
            span=TimeRef(2002, 2003),
        )
    assert set(builder.build().statements) == {"S"}
