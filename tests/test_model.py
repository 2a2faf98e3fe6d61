from __future__ import annotations

import pickle
import random
import re
from copy import deepcopy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_digit_limit, load_world
from tempcoll import (
    AssertCommand,
    CardExpr,
    Collection,
    Diagnostic,
    DisambiguateCommand,
    Entity,
    EvalCommand,
    ExplainCommand,
    Fact,
    InstExpr,
    InvalidDeclaration,
    MalformedStatement,
    MultipleHoles,
    PredicateDecl,
    PredicationProfile,
    RatioExpr,
    Script,
    Slice,
    Statement,
    SumExpr,
    TimeRef,
    UnknownCollection,
    UnknownEntity,
    UnknownPredicate,
    UnknownStatement,
    World,
    WorldBuilder,
    extension,
    instantiate,
    parse_world,
    render_world,
)
from worldgen import random_statement_world, random_world


def _statement_builder() -> WorldBuilder:
    builder = WorldBuilder()
    builder.add_entity("a", TimeRef(1990, 2030))
    builder.add_predicate("p", 1)
    builder.add_fact("p", ("a",), 2002)
    builder.add_measure("m", "a", 2002, Fraction(3))
    builder.add_collection("C", "p", ("_",))
    return builder


def test_add_fact_returns_a_warning_outside_an_entity_life_span():
    builder = WorldBuilder()
    builder.add_entity("a", TimeRef(2000, 2001))
    builder.add_entity("b", TimeRef(1990, 2010))
    builder.add_predicate("p", 2)
    builder.add_predicate("q", 1, invariant=True)
    # The first entity argument whose life span misses the tick is named.
    assert builder.add_fact("p", ("b", "a"), 2004) == (
        "fact p(b, a) @ 2004 falls outside the life span of a ([2000, 2001])"
    )
    assert builder.add_fact("p", ("a", "b"), 2011) == (
        "fact p(a, b) @ 2011 falls outside the life span of a ([2000, 2001])"
    )
    assert builder.add_fact("q", ("a",), None) is None
    assert builder.add_fact("q", ("k",), 1800) is None
    assert builder.add_fact("p", ("k", "b"), 2010) is None
    assert builder.add_fact("p", ("a", "b"), 2000) is None


def test_texts_write_ticks_past_the_digit_limit():
    zeros = "0" * 5000
    builder = WorldBuilder()
    builder.add_entity("a", TimeRef(0, 10**5000))
    builder.add_predicate("p", 1)
    with int_digit_limit(4300):
        assert str(TimeRef(0, 10**5000)) == f"[0, 1{zeros}]"
        assert str(TimeRef.point(10**5000)) == f"1{zeros}"
        assert str(Slice("a", 10**5000)) == f"a@1{zeros}"
        with pytest.raises(InvalidDeclaration, match=rf"^empty interval \[1{zeros}, 0\]$"):
            TimeRef(10**5000, 0)
        assert builder.add_fact("p", ("a",), 10**5000 + 1) == (
            f"fact p(a) @ 1{zeros[1:]}1 falls outside the life span of a ([0, 1{zeros}])"
        )


def test_api_only_rejections():
    builder = WorldBuilder()
    builder.add_predicate("p", 1)
    with pytest.raises(InvalidDeclaration, match="facts are ground; '_' is not an argument"):
        builder.add_fact("p", ("_",), 2002)


def test_an_entity_named_hole_has_no_fact_or_measure():
    # An entity may be named `_`, but neither text nor the builder can
    # make it a fact argument or a measure's entity: text reads `_` there
    # as the hole, so such a line could not be read back.
    head = "entity _ lifespan [1, 5]\npred p arity 1 mutable\n"
    for line, column in (("fact p(_) @ 2", 8), ("measure m(_) @ 2 = 3", 11)):
        world, diagnostics = parse_world(head + line)
        assert world is None
        assert [d.render() for d in diagnostics] == [
            f"<world>:3:{column}: error: '_' is not allowed here"
        ]
    builder = WorldBuilder()
    builder.add_entity("_", TimeRef(1, 5))
    builder.add_predicate("p", 1)
    with pytest.raises(InvalidDeclaration, match="^facts are ground; '_' is not an argument$"):
        builder.add_fact("p", ("_",), 2)
    with pytest.raises(InvalidDeclaration, match="^measures are ground; '_' is not an entity$"):
        builder.add_measure("m", "_", 2, Fraction(3))
    builder.add_predicate("m", 1)  # the refused measure left no name behind
    world = builder.build()
    assert world.facts == () and world.measures == {}
    assert parse_world(render_world(world)) == (world, [])


@pytest.mark.parametrize(
    "declare",
    [
        lambda b: b.add_fact("p", ("a",), TimeRef.point(2002)),
        lambda b: b.add_fact("p", ("k",), TimeRef.point(2002)),
        lambda b: b.add_measure("m", "a", TimeRef.point(2002), Fraction(3)),
        lambda b: b.add_collection("R", "p", ("_",), TimeRef.point(2002)),
        lambda b: b.add_statement(
            "S",
            "C",
            evolutive=True,
            compared_property="m",
            direction="less",
            eval_times=(TimeRef.point(2002), 2003),
            span=TimeRef(2002, 2003),
        ),
    ],
    ids=["fact", "fact-of-constants", "measure", "anchor", "evaluation-time"],
)
def test_a_declared_tick_must_be_an_int(declare):
    # A TimeRef where a tick belongs would build a world whose lookups
    # quietly find nothing; it is refused, and nothing is recorded.
    builder = _statement_builder()
    with pytest.raises(TypeError, match=r"^a tick is an int, got TimeRef\(start=2002, end=2002\)$"):
        declare(builder)
    assert builder.build() == _statement_builder().build()


@pytest.mark.parametrize("value", [0.1, float("nan"), "1", 1], ids=["float", "nan", "str", "int"])
def test_a_measure_value_must_be_a_fraction(value):
    # A float would make sums inexact, and a str would fail later with a
    # bare comparison error; either is refused, and nothing is recorded.
    builder = _statement_builder()
    with pytest.raises(TypeError, match=rf"^a measure value is a Fraction, got {value!r}$"):
        builder.add_measure("m", "a", 2003, value)
    assert builder.build() == _statement_builder().build()


_BOUNDED = {
    "evolutive": True,
    "compared_property": "m",
    "direction": "less",
    "eval_times": (2002, 2003),
    "span": TimeRef(2002, 2003),
}


@pytest.mark.parametrize(
    "declare, message",
    [
        (lambda b: b.add_entity("b", TimeRef(2000.0, 2005)), "a tick is an int, got 2000.0"),
        (lambda b: b.add_entity("b", TimeRef(True, 3)), "a tick is an int, got True"),
        # The type is checked before the interval is found empty.
        (lambda b: b.add_entity("b", TimeRef(2005, 2000.0)), "a tick is an int, got 2000.0"),
        (
            lambda b: b.add_statement("S", "C", **{**_BOUNDED, "span": TimeRef(2002, 2003.0)}),
            "a tick is an int, got 2003.0",
        ),
        (lambda b: b.add_predicate("q", 1.0), "an arity is an int, got 1.0"),
        (lambda b: b.add_predicate("q", True), "an arity is an int, got True"),
        (lambda b: PredicateDecl("q", 1.0), "an arity is an int, got 1.0"),
        (
            lambda b: b.add_statement("S", "C", **_BOUNDED, species_bound=2.5),
            "a species bound is an int, got 2.5",
        ),
        (
            lambda b: b.add_statement("S", "C", **_BOUNDED, species_bound=True),
            "a species bound is an int, got True",
        ),
    ],
    ids=[
        "float-start",
        "bool-start",
        "float-end",
        "float-span",
        "float-arity",
        "bool-arity",
        "float-arity-decl",
        "float-bound",
        "bool-bound",
    ],
)
def test_a_number_render_world_cannot_write_back_is_refused(declare, message):
    # `render_world` writes `[2000.0, 2005]`, `arity True` or `bound 2.5`
    # as given, and `parse_world` rejects each; such a number is refused
    # by the object that holds it, and nothing is recorded.
    builder = _statement_builder()
    with pytest.raises(TypeError, match=rf"^{message}$"):
        declare(builder)
    assert builder.build() == _statement_builder().build()


@pytest.mark.parametrize(
    "declare, message",
    [
        (lambda b: b.add_entity("b", TimeRef(1, 2), invariant="no"), "a flag is a bool, got 'no'"),
        (lambda b: b.add_entity("b", TimeRef(1, 2), invariant=1), "a flag is a bool, got 1"),
        (lambda b: b.add_predicate("q", 1, invariant="no"), "a flag is a bool, got 'no'"),
        (lambda b: b.add_predicate("q", 1, cohort=0), "a flag is a bool, got 0"),
        (lambda b: PredicateDecl("q", 1, None), "a flag is a bool, got None"),
        (
            lambda b: b.add_statement("S", "C", **{**_BOUNDED, "evolutive": "static"}),
            "a flag is a bool, got 'static'",
        ),
    ],
    ids=["str-entity", "int-entity", "str-invariant", "int-cohort", "none-decl", "str-evolutive"],
)
def test_a_flag_that_is_not_a_bool_is_refused(declare, message):
    # `render_world` writes a flag by its truth, so `invariant="no"` would
    # parse back as a different world; the object that holds the flag
    # refuses it, and nothing is recorded.
    builder = _statement_builder()
    with pytest.raises(TypeError, match=rf"^{message}$"):
        declare(builder)
    assert builder.build() == _statement_builder().build()


@pytest.mark.parametrize(
    "declare, message",
    [
        (lambda b: b.add_entity("b", (1990, 2030)), "(1990, 2030)"),
        (
            lambda b: b.add_statement("S", "C", **{**_BOUNDED, "span": (2002, 2003)}),
            "(2002, 2003)",
        ),
    ],
    ids=["life-span", "statement-span"],
)
def test_a_span_that_is_not_a_timeref_is_refused(declare, message):
    # A tuple reads `t in span` by its items and has no bounds, so a
    # world holding one would leave members out of a realization or fail
    # to render; it is refused, and nothing is recorded.
    builder = _statement_builder()
    with pytest.raises(TypeError) as exc:
        declare(builder)
    assert str(exc.value) == f"a span is a TimeRef, got {message}"
    assert builder.build() == _statement_builder().build()


_WORLD_FIELDS = ("entities", "predicates", "facts", "measures", "collections", "statements")
FIXTURE_WORLDS = (
    "youth.tcw", "friends.tcw", "sitin.tcw", "centuries.tcw", "origins.tcw", "missing.tcw"
)


def _rebuilt(world: World, **changes) -> World:
    """`world` with the given fields changed, made by the constructor."""
    return World(**{**{name: getattr(world, name) for name in _WORLD_FIELDS}, **changes})


def test_a_record_made_with_lists_stores_tuples():
    # The builder passes tuples; a direct caller or `_replace` may pass
    # lists, which the record stores as tuples, so it hashes.
    builder = _statement_builder()
    builder.add_statement("S", "C", True, "p", "less", (2002, 2003), TimeRef(2002, 2003))
    world = builder.build()
    stmt = world.statements["S"]
    profile = stmt.profile._replace(property_pattern=["_"])
    listed = stmt._replace(eval_times=[2002, 2003], profile=profile)
    assert listed == stmt and hash(listed) == hash(stmt)
    twin = _rebuilt(world, statements={"S": listed})
    assert twin == world and hash(twin) == hash(world)
    coll = Collection("D", "p", ["_"])
    assert coll == world.collections["C"]._replace(name="D")
    assert instantiate(world, coll, 2002).members == instantiate(world, "C", 2002).members


def test_a_fact_or_world_made_with_lists_stores_tuples():
    # A fact's arguments and a world's facts are stored as tuples, so a
    # fact or world made directly with lists equals and hashes as built.
    world = _statement_builder().build()
    fact = Fact("p", ["a"], 2002)
    assert type(fact.args) is tuple and fact == world.facts[0]
    assert hash(World(facts=(fact,))) == hash(World(facts=(world.facts[0],)))
    assert type(fact._replace(args=["b"]).args) is tuple
    twin = _rebuilt(world, facts=(fact,))
    assert twin == world and hash(twin) == hash(world)
    assert extension(twin, "p", ("_",), 2002) == extension(world, "p", ("_",), 2002)
    listed = _rebuilt(world, facts=[fact])
    assert type(listed.facts) is tuple
    assert listed == world and hash(listed) == hash(world)
    for copied in (pickle.loads(pickle.dumps(listed)), deepcopy(listed)):
        assert type(copied.facts) is tuple and copied == world


@pytest.mark.parametrize("at", [2, None])
def test_a_fact_added_with_a_list_is_the_fact_made_directly(at):
    builder = WorldBuilder()
    builder.add_predicate("p", 2, invariant=True)
    builder.add_fact("p", ["a", "b"], at)
    (fact,) = builder.build().facts
    made = Fact("p", ("a", "b"), at)
    assert type(fact) is Fact and type(fact.args) is tuple
    assert fact == made and hash(fact) == hash(made) and repr(fact) == repr(made)


def test_a_fact_keeps_its_repr_and_is_the_tuple_of_its_fields():
    fact = Fact("friend", ("paul", "mary"), 2002)
    assert repr(fact) == "Fact(predicate='friend', args=('paul', 'mary'), at=2002)"
    assert repr(Fact("q", ("a",))) == "Fact(predicate='q', args=('a',), at=None)"
    assert fact == ("friend", ("paul", "mary"), 2002)
    assert hash(fact) == hash(("friend", ("paul", "mary"), 2002))
    predicate, args, at = fact
    assert (predicate, args, at) == (fact.predicate, fact.args, fact.at)
    world = load_world("origins.tcw")  # with `always` facts
    for twin in (pickle.loads(pickle.dumps(world)), deepcopy(world)):
        assert twin == world and hash(twin) == hash(world)
        assert twin.facts == world.facts and all(type(f) is Fact for f in twin.facts)


_INST = InstExpr("C", 2002)
_FILTERED = InstExpr("C", 2003, "q", ("_", "x"))
_PROFILE = PredicationProfile(True, "p", "less", ("_",))
_SPAN = TimeRef(2002, 2003)
_STATEMENT = Statement("S1", "C", _PROFILE, (2002, 2003), _SPAN, 130, "de_re")
_INST_TEXT = "InstExpr(collection='C', at=2002, filter_predicate=None, filter_pattern=None)"
_FILTERED_TEXT = (
    "InstExpr(collection='C', at=2003, filter_predicate='q', filter_pattern=('_', 'x'))"
)
_PROFILE_TEXT = (
    "PredicationProfile(evolutive=True, compared_property='p', direction='less', "
    "property_pattern=('_',))"
)
# One record of each class the package once made with `dataclass`, and
# its repr as `dataclass` wrote it: the diagnostics corpus hashes
# `repr(script)`, so a record's repr is part of the output.
_RECORDS = [
    (
        Diagnostic("error", "bad 'x'", 3, 7, "w.tcw"),
        "Diagnostic(severity='error', message=\"bad 'x'\", line=3, column=7, source='w.tcw')",
    ),
    (_FILTERED, _FILTERED_TEXT),
    (CardExpr(_INST), f"CardExpr(inst={_INST_TEXT})"),
    (RatioExpr(_FILTERED, _INST), f"RatioExpr(part={_FILTERED_TEXT}, whole={_INST_TEXT})"),
    (SumExpr("m", _INST), f"SumExpr(measure='m', inst={_INST_TEXT})"),
    (
        EvalCommand(CardExpr(_INST), 1, "eval |C@2002|"),
        f"EvalCommand(expr=CardExpr(inst={_INST_TEXT}), line=1, text='eval |C@2002|')",
    ),
    (
        AssertCommand(CardExpr(_INST), "<", _FILTERED, 2, "assert a < b"),
        f"AssertCommand(left=CardExpr(inst={_INST_TEXT}), op='<', right={_FILTERED_TEXT}, "
        "line=2, text='assert a < b')",
    ),
    (
        DisambiguateCommand("S1", 3, "disambiguate S1"),
        "DisambiguateCommand(statement_id='S1', line=3, text='disambiguate S1')",
    ),
    (
        ExplainCommand("S1", 4, "explain S1"),
        "ExplainCommand(statement_id='S1', line=4, text='explain S1')",
    ),
    (
        Script((ExplainCommand("S2", 4, "explain S2"),)),
        "Script(commands=(ExplainCommand(statement_id='S2', line=4, text='explain S2'),))",
    ),
    (TimeRef(2002, None), "TimeRef(start=2002, end=None)"),
    (
        Entity("a", TimeRef(1990, 2010), True, "human"),
        "Entity(id='a', lifespan=TimeRef(start=1990, end=2010), invariant=True, species='human')",
    ),
    (
        PredicateDecl("q", 2, False, True),
        "PredicateDecl(name='q', arity=2, invariant=False, cohort=True)",
    ),
    (
        Collection("C", "p", ("_",), 2002),
        "Collection(name='C', predicate='p', pattern=('_',), anchor=2002)",
    ),
    (_PROFILE, _PROFILE_TEXT),
    (
        _STATEMENT,
        f"Statement(id='S1', subject='C', profile={_PROFILE_TEXT}, eval_times=(2002, 2003), "
        "span=TimeRef(start=2002, end=2003), species_bound=130, explicit_mode='de_re')",
    ),
    (
        World(
            entities={"a": Entity("a", TimeRef(2000, 2010))},
            predicates={"p": PredicateDecl("p", 1)},
            facts=(Fact("p", ("a",), 2002),),
            measures={("m", "a", 2002): Fraction(1, 2)},
            collections={"C": Collection("C", "p", ("_",))},
            statements={"S1": _STATEMENT},
        ),
        "World(entities=mappingproxy({'a': Entity(id='a', lifespan=TimeRef(start=2000, end=2010), "
        "invariant=False, species=None)}), predicates=mappingproxy({'p': PredicateDecl(name='p', "
        "arity=1, invariant=False, cohort=False)}), facts=(Fact(predicate='p', args=('a',), "
        "at=2002),), measures=mappingproxy({('m', 'a', 2002): Fraction(1, 2)}), "
        "collections=mappingproxy({'C': Collection(name='C', predicate='p', pattern=('_',), "
        "anchor=None)}), statements=mappingproxy({'S1': Statement(id='S1', subject='C', "
        f"profile={_PROFILE_TEXT}, eval_times=(2002, 2003), span=TimeRef(start=2002, end=2003), "
        "species_bound=130, explicit_mode='de_re')}))",
    ),
]


@pytest.mark.parametrize("record, text", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_records_keep_repr_pickle_deepcopy_and_immutability(record, text):
    assert repr(record) == text
    for twin in (pickle.loads(pickle.dumps(record)), deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and not twin != record and hash(twin) == hash(record)
    field = "entities" if isinstance(record, World) else record._fields[0]
    for change in (
        lambda: setattr(record, field, None),
        lambda: delattr(record, field),
        lambda: setattr(record, "extra", None),
    ):
        with pytest.raises(AttributeError):
            change()
    if not isinstance(record, World):
        # As a `Fact` and the `readings` records are.
        assert record == tuple(record) and hash(record) == hash(tuple(record))


@pytest.mark.parametrize(
    "record, changes, error, message",
    [
        (TimeRef(1, 2), {"end": 0}, InvalidDeclaration, "empty interval [1, 0]"),
        (Entity("a", TimeRef(1, 2)), {"lifespan": (1, 2)}, TypeError, "a span is a TimeRef"),
        (PredicateDecl("p", 1), {"arity": 0}, InvalidDeclaration, "needs arity >= 1"),
        (Collection("C", "p", ("_",)), {"pattern": ("_", "_")}, MultipleHoles, "found 2"),
        (Collection("C", "p", ("_",)), {"pattern": ("a",)}, MultipleHoles, "found 0"),
        (_PROFILE, {"evolutive": "yes"}, TypeError, "a flag is a bool"),
        (
            _STATEMENT,
            {"eval_times": (2002, 2003, 2004), "span": TimeRef(2002, 2004)},
            MalformedStatement,
            "exactly two evaluation times, got 3",
        ),
        (_INST, {"filter_predicate": "q"}, ValueError, "needs both a predicate and a pattern"),
        (_FILTERED, {"filter_pattern": None}, ValueError, "needs both a predicate and a pattern"),
        (Fact("p", ("a",), 2), {"at": 2.0}, TypeError, "a tick is an int, got 2.0"),
        (Fact("p", ("a",), 2), {"at": True}, TypeError, "a tick is an int, got True"),
        (_INST, {"at": 2.0}, TypeError, "a tick is an int, got 2.0"),
    ],
    ids=[
        "interval",
        "span",
        "arity",
        "two-holes",
        "no-hole",
        "flag",
        "three-times",
        "half-filter",
        "no-pattern",
        "float-fact-tick",
        "bool-fact-tick",
        "float-inst-tick",
    ],
)
def test_replace_checks_as_the_constructor_does(record, changes, error, message):
    with pytest.raises(error, match=re.escape(message)) as replaced:
        record._replace(**changes)
    with pytest.raises(error) as made:
        type(record)(**{**record._asdict(), **changes})
    assert str(replaced.value) == str(made.value)


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=60, deadline=None)
def test_built_facts_are_distinct_and_in_canonical_order(seed, statements):
    # Worlds with `always` facts and predicates of arity 1 and 2, in
    # the builder's order: (predicate, args, timed, tick or 0).
    world = (random_statement_world if statements else random_world)(random.Random(seed))
    facts = list(world.facts)
    assert all(type(f) is Fact for f in facts)
    canonical = sorted(set(facts), key=lambda f: (f.predicate, f.args, f.at is not None, f.at or 0))
    assert facts == canonical


# Predicate -> (arity, invariant). Names that share prefixes, so argument
# tuples compare past their first element and strings past their first
# character; ticks below zero and past 10**18.
_ORDER_PREDICATES = {"p": (1, False), "pq": (2, True), "q": (3, True)}
_ORDER_NAMES = st.sampled_from(["a", "ab", "abc", "b"])
_ORDER_TICKS = st.integers(-3, 3) | st.integers(10**18 - 1, 10**18 + 2) | st.integers(-(2**70), 2**70)


@st.composite
def _drawn_fact(draw) -> Fact:
    predicate = draw(st.sampled_from(sorted(_ORDER_PREDICATES)))
    arity, invariant = _ORDER_PREDICATES[predicate]
    args = draw(st.tuples(*[_ORDER_NAMES] * arity))
    return Fact(predicate, args, draw(st.none() | _ORDER_TICKS if invariant else _ORDER_TICKS))


@given(
    st.lists(_drawn_fact(), max_size=60).flatmap(
        # Every other fact twice, all of them in any insertion order.
        lambda facts: st.permutations(facts + facts[::2])
    )
)
@settings(max_examples=200, deadline=None)
def test_built_facts_follow_the_canonical_order_in_any_insertion_order(facts):
    builder = WorldBuilder()
    for name, (arity, invariant) in _ORDER_PREDICATES.items():
        builder.add_predicate(name, arity, invariant)
    for fact in facts:
        assert builder.add_fact(*fact) is None  # no argument is an entity
    built = builder.build().facts
    oracle = sorted(
        set(facts),
        key=lambda f: (f.predicate, f.args, f.at is not None, 0 if f.at is None else f.at),
    )
    assert type(built) is tuple and all(type(f) is Fact for f in built)
    assert list(built) == oracle


def _rows_view(world: World) -> tuple:
    """What the readers of a World's rows answer: its ticks, its fact
    count, the sorted entries of each hole-index key, and the extension
    of each key at each tick."""
    index = {
        key: ({t: sorted(entries) for t, entries in by_tick.items()}, sorted(always))
        for key, (by_tick, always) in world._hole_index.items()
    }
    extensions = {
        (key, t): extension(world, *key, t) for key in world._hole_index for t in world.ticks
    }
    return world.ticks, world.fact_count, index, extensions


def _assert_the_three_worlds_agree(built: World, rng: random.Random) -> None:
    # The built World answers from the builder's rows before any `Fact`
    # exists; a World given its facts shuffled, some of them twice, and a
    # pickled copy, given them in canonical order, from rows folded from
    # those facts.
    view = _rows_view(built)
    assert "facts" not in vars(built)
    facts = built.facts
    shuffled = [*facts, *facts[::3]]
    rng.shuffle(shuffled)
    direct = _rebuilt(built, facts=shuffled)
    copied = pickle.loads(pickle.dumps(built))
    assert _rows_view(direct) == _rows_view(copied) == view
    assert view[1] == direct.fact_count == len(facts) == len(set(facts))
    # A World is its set of facts: the direct one is the built one.
    assert direct == built and hash(direct) == hash(built)
    text = render_world(direct)
    assert text == render_world(built)
    # A generated world may time a fact outside an entity's life span,
    # which parses back with a warning, never an error.
    reparsed, diagnostics = parse_world(text)
    assert reparsed == built
    assert all(d.severity == "warning" for d in diagnostics)


@pytest.mark.parametrize("name", FIXTURE_WORLDS)
def test_rows_answer_as_the_facts_do_for_fixture_worlds(name):
    _assert_the_three_worlds_agree(load_world(name), random.Random(name))


@given(st.integers(0, 10**9), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rows_answer_as_the_facts_do_for_generated_worlds(seed, statements, rng):
    _assert_the_three_worlds_agree(
        (random_statement_world if statements else random_world)(random.Random(seed)), rng
    )


@given(
    st.lists(_drawn_fact(), max_size=60).flatmap(
        lambda facts: st.permutations(facts + facts[::2])
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_rows_answer_as_the_facts_do_in_any_insertion_order(facts, rng):
    # Two of the names are entities, alive at every drawn tick, so the
    # hole index holds them; the other two are constants.
    builder = WorldBuilder()
    for entity_id in ("a", "ab"):
        builder.add_entity(entity_id, TimeRef(-(2**71), None))
    for name, (arity, invariant) in _ORDER_PREDICATES.items():
        builder.add_predicate(name, arity, invariant)
    for fact in facts:
        assert builder.add_fact(*fact) is None
    _assert_the_three_worlds_agree(builder.build(), rng)


def test_a_direct_world_collapses_a_fact_given_twice():
    world = load_world("youth.tcw")
    fact = world.facts[0]
    twice = _rebuilt(world, facts=(fact, *world.facts))
    assert twice.facts == world.facts
    assert twice.fact_count == world.fact_count == len(world.facts)
    assert twice == world and hash(twice) == hash(world)
    assert _rows_view(twice) == _rows_view(world)


def test_a_direct_world_makes_each_fact_as_fact_does():
    # A list, for the fact or its arguments, is read as `Fact` reads it.
    assert World(facts=[["p", ["a"], 2]]) == World(facts=(Fact("p", ("a",), 2),))
    with pytest.raises(TypeError, match="^a tick is an int, got 2.0$"):
        World(facts=[("p", ("a",), 2.0)])


@pytest.mark.parametrize("name", FIXTURE_WORLDS)
@pytest.mark.parametrize("made", ["built", "direct"])
def test_facts_for_is_the_facts_of_one_predicate(name, made):
    # `facts_for` groups the canonical facts; a predicate with no fact,
    # or a name that is not a predicate, has none.
    world = load_world(name)
    if made == "direct":
        world = _rebuilt(world, facts=world.facts[::-1])
    for predicate in world.predicates:
        expected = tuple(f for f in world.facts if f.predicate == predicate)
        assert world.facts_for(predicate) == expected
    assert world.facts_for("no such predicate") == ()


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_a_fact_added_after_build_changes_nothing_built(read_first):
    # The World is read only after the builder has moved on, but for
    # its `facts`, which may be made before or after.
    builder = _statement_builder()
    world = builder.build()
    if read_first:
        assert world.facts == (Fact("p", ("a",), 2002),)
    builder.add_fact("p", ("a",), 2003)  # a new bucket
    builder.add_entity("b", TimeRef(1990, 2030))
    builder.add_fact("p", ("b",), 2002)  # a bucket the World has
    unchanged = _statement_builder().build()
    assert _rows_view(world) == _rows_view(unchanged)
    assert world.facts == unchanged.facts == (Fact("p", ("a",), 2002),)


def _ticks_world(facts, measures) -> World:
    builder = WorldBuilder()
    builder.add_entity("a", TimeRef(-10, None))
    builder.add_predicate("p", 1)
    builder.add_predicate("q", 1, invariant=True)
    for predicate, at in facts:
        builder.add_fact(predicate, ("a",), at)
    for measure, at in measures:
        builder.add_measure(measure, "a", at, Fraction(1))
    return builder.build()


@pytest.mark.parametrize(
    "facts, measures, ticks",
    [
        ([("q", None)], [], ()),
        ([], [("m", 3), ("m", -1), ("n", 3)], (-1, 3)),
        ([("p", -5), ("q", None), ("p", 0), ("q", -1)], [("m", -7), ("m", 0)], (-7, -5, -1, 0)),
    ],
    ids=["always-only", "measures-only", "negative"],
)
def test_world_ticks_are_the_distinct_point_fact_and_measure_ticks(facts, measures, ticks):
    world = _ticks_world(facts, measures)
    old = {f.at for f in world.facts if f.at is not None} | {t for _, _, t in world.measures}
    assert world.ticks == ticks == tuple(sorted(old))


@pytest.mark.parametrize(
    "pattern, anchor, error, message",
    [
        (("f1", "paul"), 2002, MultipleHoles, "needs exactly one '_', found 0"),
        (("_", "_"), None, MultipleHoles, "needs exactly one '_', found 2"),
    ],
    ids=["no-hole", "holes-before-mode"],
)
def test_collection_shape_is_checked_on_construction(pattern, anchor, error, message):
    with pytest.raises(error, match=message):
        Collection("X", "friend", pattern, anchor)


@pytest.mark.parametrize(
    "copy_world", [lambda w: pickle.loads(pickle.dumps(w)), deepcopy], ids=["pickle", "deepcopy"]
)
def test_world_pickles_and_deep_copies_without_its_lazy_state(copy_world):
    world = load_world("youth.tcw")
    queries = [
        (coll.predicate, coll.pattern, tick)
        for coll in world.collections.values()
        for tick in world.ticks
    ]
    realizations = [(name, tick) for name in world.collections for tick in world.ticks]
    answers = [extension(world, *query) for query in queries]
    instances = [instantiate(world, *key) for key in realizations]
    assert world._extensions and world._instantiations
    twin = copy_world(world)
    assert twin == world and hash(twin) == hash(world)
    assert set(vars(twin)) == {*_WORLD_FIELDS, "_rows", "_extensions", "_instantiations"}
    assert twin._extensions == {} and twin._instantiations == {}
    assert [extension(twin, *query) for query in queries] == answers
    assert [instantiate(twin, *key) for key in realizations] == instances


@pytest.mark.parametrize(
    "lookup, error, noun",
    [
        (World.entity, UnknownEntity, "entity"),
        (World.predicate, UnknownPredicate, "predicate"),
        (World.collection, UnknownCollection, "collection"),
        (World.statement, UnknownStatement, "statement"),
    ],
    ids=["entity", "predicate", "collection", "statement"],
)
def test_world_lookup_raises_its_own_error_without_context(friends, lookup, error, noun):
    with pytest.raises(error) as exc:
        lookup(friends, "nope")
    assert type(exc.value) is error
    assert str(exc.value) == f"unknown {noun} 'nope'"
    assert exc.value.__cause__ is None and exc.value.__suppress_context__


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


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"eval_times": (2002,)}, "exactly two evaluation times, got 1"),
        ({"eval_times": (2003, 2003)}, "must be distinct"),
        ({"span": TimeRef(2002, 2002)}, "span 2002 does not cover evaluation time 2003"),
        ({"species_bound": 0}, "must be a positive tick count"),
        ({"explicit_mode": "sideways"}, "unknown mode 'sideways'"),
        (
            {"profile": PredicationProfile(True, "cons_tobacco", "up")},  # type: ignore[arg-type]
            "unknown direction 'up'",
        ),
    ],
    ids=["one-time", "repeated", "uncovered", "bound", "mode", "direction"],
)
def test_statement_shape_is_checked_on_construction(friends, changes, message):
    # `_replace` re-runs the checks, so no statement can skip them.
    with pytest.raises(MalformedStatement, match=message):
        friends.statements["S1"]._replace(**changes)


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


def test_builder_rejects_a_predicate_named_like_a_recorded_measure():
    # The reverse order is rejected by add_measure; without this check the
    # world would hold `m` as both, which render_world cannot round-trip.
    builder = _statement_builder()
    with pytest.raises(InvalidDeclaration, match="'m' is already a measure name"):
        builder.add_predicate("m", 1)
    assert "m" not in builder.build().predicates
