from __future__ import annotations

import json
import operator
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import tempcoll
from conftest import FIXTURES, int_digit_limit, load_world
from tempcoll import (
    HOLE,
    Collection,
    TempcollError,
    TimeRef,
    filter_members,
    analyze,
    instantiate,
    measure_value,
    parse_world,
    ratio,
    render_world,
    slice_at,
)
from tempcoll.cli import Report, _eval_expr, _json_text, _value_json, format_report, main, run
from worldgen import CONSTANTS, MEASURES, random_world


def _run(capsys, *argv: str) -> tuple[int, str]:
    code = run(list(argv))
    return code, capsys.readouterr().out


def _fx(name: str) -> str:
    return str(FIXTURES / name)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ["youth", "friends", "origins"])
def test_two_runs_in_one_process_print_the_same_report(capsys, name, fmt):
    argv = ["eval", _fx(f"{name}.tcw"), _fx(f"{name}.tcq"), "--format", fmt]
    first = _run(capsys, *argv)
    assert _run(capsys, *argv) == first


# ---------------------------------------------------------------------------
# check


def test_check_valid_world(capsys):
    code, out = _run(capsys, "check", _fx("youth.tcw"))
    assert code == 0
    assert "entities=9" in out and "predicates=2" in out and "ticks=2" in out
    assert out.endswith("status: ok\n")


def test_check_builds_no_hole_index(capsys, monkeypatch):
    # The hole index is lazy: `check` only counts, so building it there
    # would cost every `check` a pass over the facts. An `explain` of the
    # same world, which reads extensions, does build it.
    parsed = []

    def spy(text, source_name):
        result = parse_world(text, source_name=source_name)
        parsed.append(result[0])
        return result

    monkeypatch.setattr(tempcoll.cli, "parse_world", spy)
    assert _run(capsys, "check", _fx("friends.tcw"))[0] == 0
    assert _run(capsys, "explain", _fx("friends.tcw"), "S1")[0] == 0
    checked, explained = parsed
    assert "_hole_index" not in vars(checked)
    assert "_hole_index" in vars(explained)


def test_check_malformed_world_exits_2(capsys):
    code, out = _run(capsys, "check", _fx("malformed.tcw"))
    assert code == 2
    assert "malformed.tcw:3:" in out
    assert "status: error" in out


def test_check_accepts_a_byte_order_mark(tmp_path, capsys):
    world = tmp_path / "bom.tcw"
    world.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "youth.tcw").read_bytes())
    code, out = _run(capsys, "check", str(world), "--format", "json")
    assert code == 0
    _, plain = _run(capsys, "check", _fx("youth.tcw"), "--format", "json")
    (with_bom,) = json.loads(out)["commands"]
    (without,) = json.loads(plain)["commands"]
    assert with_bom.pop("source") == str(world)
    assert without.pop("source") == _fx("youth.tcw")
    assert with_bom == without


def test_missing_file_exits_2(capsys):
    code, out = _run(capsys, "check", _fx("no_such.tcw"))
    assert code == 2


def test_help_exits_0(capsys):
    code, out = _run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: tempcoll")


def test_usage_error_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    # Only `eval` reads a policy, so no other command takes one.
    world = _fx("friends.tcw")
    for argv in (["check", world], ["disambiguate", world, "S1"], ["explain", world, "S1"]):
        assert run([*argv, "--policy", "lenient"]) == 2


# ---------------------------------------------------------------------------
# eval


def test_eval_youth_script(capsys):
    code, out = _run(capsys, "eval", _fx("youth.tcw"), _fx("youth.tcq"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "assert #1: true (2/5 < 1/2)"
    assert lines[1] == "eval #2: 1/2 (0.5)"
    assert lines[2] == "eval #3: 2/5 (0.4)"
    assert lines[3] == "eval #4: 2"
    assert lines[4].startswith("disambiguate S3: de_dicto [R2]")


def test_eval_friends_script(capsys):
    code, out = _run(capsys, "eval", _fx("friends.tcw"), _fx("friends.tcq"))
    assert code == 0
    assert "eval #1: 15" in out
    assert "eval #2: 12" in out
    assert "assert #3: true (12 < 15)" in out
    assert "explain S1: de_re [R0]" in out


def test_failing_assert_exits_1(tmp_path, capsys):
    script = tmp_path / "fail.tcq"
    script.write_text("assert ratio(Yt@2002, Y@2002) < ratio(Yt@2003, Y@2003)\n")
    code, out = _run(capsys, "eval", _fx("youth.tcw"), str(script))
    assert code == 1
    assert "assert #1: false (1/2 < 2/5)" in out
    assert "status: fail" in out


def test_undefined_assert_exits_1(tmp_path, capsys):
    script = tmp_path / "undef.tcq"
    script.write_text(
        "assert sum cons_tobacco over F @ 2003 < sum cons_tobacco over F @ 2002\n"
    )
    code, out = _run(capsys, "eval", _fx("missing.tcw"), str(script))
    assert code == 1
    assert "assert #1: undefined (missing measure cons_tobacco for f3@2003)" in out


def test_assert_comparisons_of_mixed_or_ordered_values(tmp_path, capsys):
    script = tmp_path / "cmp.tcq"
    script.write_text(
        "assert card(Y@2002) = card(Y@2003)\n"
        "assert Y@2002 < Y@2003\n"
        "assert card(Y@2002) = Y@2002\n"
        "assert card(Y@2002) < card(Y@2002)\n"
        "assert card(Y@2002) > card(Y@2002)\n"
    )
    code, out = _run(capsys, "eval", _fx("youth.tcw"), str(script))
    assert code == 2
    assert out.splitlines() == [
        "assert #1: false (4 = 5)",
        "assert #4: false (4 < 4)",
        "assert #5: false (4 > 4)",
        f"{script}:2:1: error: instantiations only compare with '='",
        f"{script}:3:1: error: comparison needs two numbers or two instantiations",
        "status: error",
    ]


def test_unknown_collection_in_script_exits_2(tmp_path, capsys):
    script = tmp_path / "bad.tcq"
    script.write_text("eval card(Nope@2002)\n")
    code, out = _run(capsys, "eval", _fx("youth.tcw"), str(script))
    assert code == 2
    assert "unknown collection 'Nope'" in out


def test_policy_flag_controls_off_lifespan_members(tmp_path, capsys):
    world = tmp_path / "w.tcw"
    world.write_text(
        "entity a lifespan [1700, 1780]\n"
        "pred aborigine arity 1 invariant\n"
        "fact aborigine(a) @ *\n"
        "collection A re@1700 := aborigine(_)\n"
    )
    script = tmp_path / "s.tcq"
    script.write_text("eval A@1950\n")
    code, strict_out = _run(capsys, "eval", str(world), str(script))
    assert code == 0
    assert "eval #1: undefined" in strict_out and "no slice at 1950" in strict_out
    code, lenient_out = _run(
        capsys, "eval", str(world), str(script), "--policy", "lenient"
    )
    assert code == 0
    assert "eval #1: {} dropped: a" in lenient_out


# ---------------------------------------------------------------------------
# script values against the brute-force oracle

_UNDEFINED = "undefined"


def _random_inst(rng: random.Random, world, filtered: bool) -> tuple[str, tuple]:
    """A random instantiation: its script text and (collection, tick,
    filter predicate, filter pattern)."""
    name, tick = rng.choice(sorted(world.collections)), rng.randint(1998, 2006)
    text = f"{name}{rng.choice(['@', ' @ '])}{tick}"
    if not filtered:
        return text, (name, tick, None, None)
    decl = rng.choice(sorted(world.predicates.values(), key=lambda d: d.name))
    others = CONSTANTS + tuple(sorted(world.entities))
    pattern = tuple(rng.choice(others) for _ in range(decl.arity))
    hole = rng.randrange(decl.arity)
    pattern = pattern[:hole] + (HOLE,) + pattern[hole + 1 :]
    return f"{text} | {decl.name}({', '.join(pattern)})", (name, tick, decl.name, pattern)


def _random_expr(rng: random.Random, world, kinds: str) -> tuple[str, tuple]:
    """A random expression of one of `kinds`: its script text and what
    the oracle needs."""
    kind = rng.choice(kinds.split())
    text, inst = _random_inst(rng, world, rng.random() < 0.5)
    if kind == "inst":
        return text, ("inst", inst)
    if kind == "card":
        return f"card({text})", ("card", inst)
    if kind == "sum":
        measure = rng.choice(MEASURES)
        return f"sum {measure} over {text}", ("sum", measure, inst)
    # A filtered part of the same instantiation, so the part is a subset.
    part_text, part = _random_inst(rng, world, True)
    whole_text = part_text.split(" | ")[0]
    return f"ratio({part_text}, {whole_text})", ("ratio", part, part[:2] + (None, None))


def _oracle_members(world, inst: tuple, policy: str) -> tuple[set, set] | str:
    name, tick, predicate, pattern = inst
    members, dropped = oracle.instantiate_ids(world, world.collections[name], TimeRef.point(tick))
    if policy == "strict" and dropped:
        return _UNDEFINED
    if predicate is not None:
        members = oracle.filter_ids(world, members, predicate, pattern, TimeRef.point(tick))
    return members, dropped


def _oracle_value(world, expr: tuple, policy: str) -> object:
    """The value the oracle gives `expr`: a Fraction, an int, (member
    ids, dropped ids, tick) for an instantiation, or "undefined"."""
    kind, *rest = expr
    realized = [_oracle_members(world, inst, policy) for inst in rest if isinstance(inst, tuple)]
    if _UNDEFINED in realized:
        return _UNDEFINED
    if kind == "inst":
        return (*realized[0], rest[0][1])
    if kind == "card":
        return len(realized[0][0])
    if kind == "ratio":
        (part, _), (whole, _) = realized
        return Fraction(len(part), len(whole)) if whole else _UNDEFINED
    total = oracle.sum_values(world, rest[0], realized[0][0], rest[1][1])
    return _UNDEFINED if total is None else total


def _payload_value(payload: dict) -> object:
    """A JSON value payload in the oracle's terms."""
    kind = payload["type"]
    if kind == "natural":
        return payload["value"]
    if kind == "rational":
        return Fraction(payload["num"], payload["den"])
    if kind == "instantiation":
        ids = [member.rsplit("@", 1) for member in payload["members"]]
        ticks = {int(tick) for _, tick in ids}
        assert len(ticks) <= 1
        assert [e for e, _ in ids] == sorted(e for e, _ in ids)
        return {e for e, _ in ids}, set(payload["dropped"]), ticks
    return _UNDEFINED


def _same(value: object, expected: object) -> bool:
    if isinstance(expected, tuple):  # an instantiation: members, dropped, tick
        members, dropped, tick = expected
        return value == (members, dropped, {tick} if members else set())
    return type(value) is type(expected) and value == expected


_NUMBERS = "card ratio sum"
_COMPARE = {"<": operator.lt, ">": operator.gt, "=": operator.eq}


@given(st.integers(0, 10**9))
@settings(max_examples=300, deadline=None)
def test_script_values_agree_with_the_oracle(seed):
    # Lenient: undefined exactly when a sum misses a value (or a ratio's
    # whole is empty); strict: also whenever the oracle drops a member.
    rng = random.Random(seed)
    world = random_world(rng)
    lines, exprs = [], []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.3:
            (left_text, left), (right_text, right) = (
                _random_expr(rng, world, _NUMBERS) for _ in range(2)
            )
            op = rng.choice("<>=")
            lines.append(f"assert {left_text} {op} {right_text}")
            exprs.append((left, op, right))
        else:
            text, expr = _random_expr(rng, world, "inst " + _NUMBERS)
            lines.append(f"eval {text}")
            exprs.append((expr,))
    with tempfile.TemporaryDirectory() as tmp:
        world_path, script_path = Path(tmp, "w.tcw"), Path(tmp, "s.tcq")
        world_path.write_text(render_world(world), encoding="utf-8")
        script_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["eval", str(world_path), str(script_path), "--format", "json"]
        for policy in ("strict", "lenient"):
            out = StringIO()
            with redirect_stdout(out):
                run([*argv, "--policy", policy])
            doc = json.loads(out.getvalue())
            assert [d for d in doc["diagnostics"] if d["severity"] == "error"] == []
            assert len(doc["commands"]) == len(exprs)
            for command, expr in zip(doc["commands"], exprs):
                if command["kind"] == "eval":
                    expected = _oracle_value(world, expr[0], policy)
                    assert _same(_payload_value(command["value"]), expected), command
                    continue
                left, right = (_oracle_value(world, side, policy) for side in (expr[0], expr[2]))
                if _UNDEFINED in (left, right):
                    assert command["truth"] == _UNDEFINED, command
                    continue
                assert _same(_payload_value(command["left"]), left), command
                assert _same(_payload_value(command["right"]), right), command
                assert command["truth"] is _COMPARE[expr[1]](left, right), command


# ---------------------------------------------------------------------------
# disambiguate / explain


def test_disambiguate_text(capsys):
    code, out = _run(capsys, "disambiguate", _fx("centuries.tcw"), "S4")
    assert code == 0
    assert out.splitlines()[0] == "disambiguate S4: de_dicto [R3]"
    assert "rule R3:" in out


def test_unknown_statement_exits_2(capsys):
    code, out = _run(capsys, "disambiguate", _fx("centuries.tcw"), "S99")
    assert code == 2
    assert "unknown statement 'S99'" in out


def test_explain_friends_json(capsys):
    code, out = _run(capsys, "explain", _fx("friends.tcw"), "S1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["status", "commands", "diagnostics"]
    assert doc["status"] == "ok"
    (cmd,) = doc["commands"]
    assert cmd["mode"] == "de_re"
    assert [r["id"] for r in cmd["rules"]] == ["R0"]
    readings = {r["kind"]: r for r in cmd["readings"]}
    assert set(readings) == {"individual_evolution", "global_aggregate"}
    assert readings["individual_evolution"]["truth"] is True
    assert readings["global_aggregate"]["truth"] is True
    assert {w["label"] for w in readings["individual_evolution"]["witnesses"]} == {
        "f1",
        "f2",
    }


def test_explain_reports_rationals_as_fractions_with_decimal(capsys):
    code, out = _run(capsys, "eval", _fx("youth.tcw"), _fx("youth.tcq"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ratio_values = [
        c["value"] for c in doc["commands"] if c["kind"] == "eval" and c["index"] == 2
    ]
    assert ratio_values == [{"type": "rational", "num": 1, "den": 2, "decimal": "0.5"}]


def test_explain_missing_measure_reason(capsys):
    code, out = _run(capsys, "explain", _fx("missing.tcw"), "S1")
    assert code == 0
    assert "reading individual_evolution: undefined" in out
    assert "reason: missing measure cons_tobacco for f3@2003" in out


def test_explain_undefined_in_json(capsys):
    code, out = _run(capsys, "explain", _fx("missing.tcw"), "S1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    (cmd,) = doc["commands"]
    for reading in cmd["readings"]:
        assert reading["truth"] == "undefined"
        assert reading["reason"] == "missing measure cons_tobacco for f3@2003"


def test_explain_a_span_length_past_the_digit_limit(tmp_path, capsys):
    # Each span end has the most digits that int() reads under the
    # default limit, so the world parses; the span's length has one more.
    nines = "9" * 4300
    text = (
        "entity a lifespan [0, 10]\npred p arity 1 mutable\nfact p(a) @ 1\nfact p(a) @ 2\n"
        "collection C dicto := p(_)\nstatement S subject C profile evolutive property p "
        f"direction less times 1, 2 span [-{nines}, {nines}]\n"
    )
    (tmp_path / "w.tcw").write_text(text, encoding="utf-8")
    r3 = f"statement span of 1{'9' * 4299}8 tick(s) exceeds the life-span bound of 10"
    with int_digit_limit(4300):
        world, diagnostics = parse_world(text)
        assert diagnostics == []
        decision = analyze(world, world.statements["S"])
        code, out = _run(capsys, "explain", str(tmp_path / "w.tcw"), "S")
    assert [(rule.id, rule.justification) for rule in decision.fired_rules] == [("R3", r3)]
    assert code == 0
    assert f"  rule R3: {r3}\n" in out


def test_eval_a_sum_past_the_digit_limit_in_text(tmp_path, capsys):
    # Each measure has the most digits that int() reads under the default
    # limit, so the world parses; their sum has one more.
    nines = "9" * 4300
    text = "pred p arity 1 mutable\ncollection C re@1 := p(_)\n" + "".join(
        f"entity {e} lifespan [0, 10]\nfact p({e}) @ 1\nmeasure m({e}) @ 1 = {nines}\n"
        for e in ("a", "b")
    )
    (tmp_path / "w.tcw").write_text(text, encoding="utf-8")
    (tmp_path / "s.tcq").write_text(
        "eval sum m over C@1\nassert sum m over C@1 > card(C@1)\n", encoding="utf-8"
    )
    total = f"1{'9' * 4299}8"
    with int_digit_limit(4300):
        code, out = _run(capsys, "eval", str(tmp_path / "w.tcw"), str(tmp_path / "s.tcq"))
    assert code == 0
    assert out == f"eval #1: {total}\nassert #2: true ({total} > 2)\nstatus: ok\n"


def test_eval_a_sum_past_the_digit_limit_in_json(tmp_path, capsys):
    # Each measure has the most digits that int() reads under the limit,
    # so the world parses; their sum has one more, which `json.dumps`
    # cannot write. The report is the one written with no limit.
    nines = "9" * 640
    text = "pred p arity 1 mutable\ncollection C re@1 := p(_)\n" + "".join(
        f"entity {e} lifespan [0, 10]\nfact p({e}) @ 1\nmeasure m({e}) @ 1 = {nines}\n"
        for e in ("a", "b")
    )
    (tmp_path / "w.tcw").write_text(text, encoding="utf-8")
    (tmp_path / "s.tcq").write_text("eval sum m over C@1\n", encoding="utf-8")
    argv = ("eval", "--format", "json", str(tmp_path / "w.tcw"), str(tmp_path / "s.tcq"))
    with int_digit_limit(0):
        unlimited = _run(capsys, *argv)
    with int_digit_limit(640):
        code, out = _run(capsys, *argv)
    assert (code, out) == unlimited
    assert code == 0
    total = f"1{'9' * 639}8"
    assert json.loads(out, parse_int=str)["commands"][0]["value"] == {
        "type": "rational", "num": total, "den": "1", "decimal": total
    }


# 1/10**400 is below every float; 3/10**320 is a subnormal float, which
# keeps too few bits for 6 significant digits.
_TINY = [("1", "1" + "0" * 400), ("3", "1" + "0" * 320)]


def _tiny_sum_files(tmp_path, num, den):
    (tmp_path / "w.tcw").write_text(
        "pred p arity 1 mutable\ncollection C dicto := p(_)\n"
        f"entity a lifespan [0, 10]\nfact p(a) @ 1\nmeasure m(a) @ 1 = {num}/{den}\n",
        encoding="utf-8",
    )
    (tmp_path / "s.tcq").write_text("eval sum m over C@1\n", encoding="utf-8")
    return str(tmp_path / "w.tcw"), str(tmp_path / "s.tcq")


@pytest.mark.parametrize(("num", "den"), _TINY, ids=["below-every-float", "subnormal"])
def test_eval_a_value_below_a_float_in_text(tmp_path, capsys, num, den):
    code, out = _run(capsys, "eval", *_tiny_sum_files(tmp_path, num, den))
    assert code == 0
    assert out == f"eval #1: {num}/{den} ({num}/{den})\nstatus: ok\n"


@pytest.mark.parametrize(("num", "den"), _TINY, ids=["below-every-float", "subnormal"])
def test_eval_a_value_below_a_float_in_json(tmp_path, capsys, num, den):
    code, out = _run(capsys, "eval", "--format", "json", *_tiny_sum_files(tmp_path, num, den))
    assert code == 0
    assert json.loads(out, parse_int=str)["commands"][0]["value"] == {
        "type": "rational", "num": num, "den": den, "decimal": f"{num}/{den}"
    }


# Text with what JSON escapes (quote, backslash, control characters),
# what it passes through (non-ASCII, U+2028) and lone surrogates.
_JSON_STRINGS = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "é", "𝄞"]),
        st.characters(exclude_categories=()),
    )
)
_JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_STRINGS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    ),
    max_leaves=20,
)


@given(_JSON_DOCUMENTS)
@settings(max_examples=300, deadline=None)
def test_json_writer_writes_what_json_dumps_writes(document):
    assert _json_text(document) == json.dumps(document, indent=2, ensure_ascii=False)


def test_an_unknown_expression_or_value_raises_type_error():
    # A script's parser makes only the four expression forms, and they
    # evaluate only to the three value kinds; anything else is a misuse.
    world = load_world("friends.tcw")
    with pytest.raises(TypeError, match=r"^unknown expression 'card\(C@1\)'$"):
        _eval_expr(world, "card(C@1)", "strict")
    with pytest.raises(TypeError, match=r"^unrenderable value 0\.5$"):
        _value_json(0.5)


def test_json_report_past_the_digit_limit_writes_every_value_as_itself():
    # Under the limit, `json.dumps` cannot write 10**700; the writer gives
    # the text `json.dumps` gives with no limit.
    payload = {"kind": "x", "\x000": ["\x001", 10**700, -(10**650), True, None, 'q"\x002', -3, 0.5]}
    document = {"status": "ok", "commands": [payload], "diagnostics": []}
    with int_digit_limit(0):
        unlimited = json.dumps(document, indent=2, ensure_ascii=False)
    with int_digit_limit(640):
        assert _json_text(document) == unlimited
        assert format_report(Report(commands=[payload]), "json") == unlimited + "\n"


@pytest.mark.parametrize("fmt", ["xml", "JSON", "", None])
def test_an_unknown_report_format_raises_value_error(fmt):
    with pytest.raises(ValueError, match=r"^a report format is 'text' or 'json', got "):
        format_report(Report(), fmt)


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--format", "json", "--policy", "lenient", "friends.tcw", "friends.tcq"),
        ("explain", "friends.tcw", "S1"),
        ("check", "friends.tcw"),
    ],
    ids=["eval", "explain", "check"],
)
def test_cli_runs_keep_no_module_level_state(capsys, monkeypatch, argv):
    # The benchmark times many `run` calls in one process and fails them
    # all when tempcoll's module-level state changes between the first
    # and the last; a cache that lives anywhere but on the World would.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from worker import module_state

    argv = [_fx(a) if a.endswith((".tcw", ".tcq")) else a for a in argv]
    before = module_state()
    assert [_run(capsys, *argv)[0] for _ in range(2)] == [0, 0]
    assert module_state() == before


# ---------------------------------------------------------------------------
# determinism and the exit-code contract across the corpus


@pytest.mark.parametrize(
    "world,statement",
    [
        ("youth.tcw", "S3"),
        ("friends.tcw", "S1"),
        ("sitin.tcw", "S1"),
        ("centuries.tcw", "S4"),
        ("origins.tcw", "S2"),
        ("missing.tcw", "S1"),
    ],
)
def test_explain_is_deterministic(capsys, world, statement):
    for fmt in ("text", "json"):
        outputs = set()
        for _ in range(3):
            code, out = _run(capsys, "explain", _fx(world), statement, "--format", fmt)
            assert code == 0
            outputs.add(out.encode())
        assert len(outputs) == 1


def test_exit_code_contract_over_corpus(capsys):
    for name in ("youth", "friends", "sitin", "centuries", "origins", "missing"):
        code, _ = _run(capsys, "check", _fx(f"{name}.tcw"))
        assert code == 0, name
    assert _run(capsys, "check", _fx("malformed.tcw"))[0] == 2
    assert _run(capsys, "eval", _fx("youth.tcw"), _fx("youth.tcq"))[0] == 0
    assert _run(capsys, "eval", _fx("friends.tcw"), _fx("friends.tcq"))[0] == 0
    assert _run(capsys, "eval", _fx("origins.tcw"), _fx("origins.tcq"))[0] == 0


# ---------------------------------------------------------------------------
# README


def test_readme_worked_example_is_the_real_output(capsys, monkeypatch):
    root = FIXTURES.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("Worked example", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    command, expected = block.split("\n", 1)
    assert command == "$ tempcoll eval fixtures/youth.tcw fixtures/youth.tcq"
    monkeypatch.chdir(root)
    code, out = _run(capsys, *command.split()[2:])
    assert (code, out) == (0, expected)
    # The installed `tempcoll` script calls `main`, which exits with the code.
    monkeypatch.setattr(sys, "argv", command.split()[1:])
    with pytest.raises(SystemExit) as exc:
        main()
    assert (exc.value.code, capsys.readouterr().out) == (0, expected)


@pytest.mark.parametrize(
    "name, text, expected",
    [
        ("bad.tcw", "entity \u00e9 lifespan [1, 2]\n", 2),
        ("w\u00f6rld.tcw", "entity a lifespan [1, 2]\n", 0),
    ],
    ids=["character", "path"],
)
def test_the_console_script_writes_utf8_to_any_stdout(tmp_path, capsys, name, text, expected):
    # A report quotes a bad character or a path as given; stdout that
    # cannot encode it must not end the run with a traceback and exit 1.
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    report = _run(capsys, "check", str(path))
    src = Path(tempcoll.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "tempcoll.cli", "check", str(path)],
        env={**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": str(src)},
        capture_output=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (expected, report[1].encode("utf-8"))
    assert report[0] == expected and not result.stderr


# ---------------------------------------------------------------------------
# texts that print a query time


def _raised(call) -> str:
    with pytest.raises(TempcollError) as exc:
        call()
    return str(exc.value)


def _eval_line(tmp_path, line: str) -> str:
    script = tmp_path / "one.tcq"
    script.write_text(line + "\n", encoding="utf-8")
    out = StringIO()
    with redirect_stdout(out):
        run(["eval", _fx("youth.tcw"), str(script)])
    return out.getvalue().splitlines()[0].removeprefix(f"{script}:")


def _youth_at(tick):
    return instantiate(load_world("youth.tcw"), "Y", tick)


_ABORIGINES = Collection("A", "aborigine", ("_",), 1700)

QUERY_TIME_TEXTS = {
    "ratio_tick_mismatch": (
        lambda tmp: _raised(lambda: ratio(_youth_at(2002), _youth_at(2003))),
        "ratio across times: 2002 vs 2003",
    ),
    "strict_slice_at": (
        lambda tmp: _raised(lambda: slice_at(load_world("centuries.tcw"), "ab1", 1950)),
        "ab1 has no slice at 1950: life span is [1700, 1780]",
    ),
    "missing_measure": (
        lambda tmp: _raised(
            lambda: measure_value(
                load_world("missing.tcw"),
                "cons_tobacco",
                slice_at(load_world("missing.tcw"), "f3", 2003),
            )
        ),
        "missing measure cons_tobacco for f3@2003",
    ),
    "strict_instantiate_member": (
        lambda tmp: _raised(lambda: instantiate(load_world("centuries.tcw"), _ABORIGINES, 1950)),
        "member ab1 of A has no slice at 1950: life span is [1700, 1780]",
    ),
    "slice_str": (
        lambda tmp: str(slice_at(load_world("friends.tcw"), "f1", 2002)),
        "f1@2002",
    ),
    "label_plain": (lambda tmp: _youth_at(2002).label, "Y@2002"),
    "label_filtered": (
        lambda tmp: filter_members(
            load_world("youth.tcw"), _youth_at(2002), "smokes", ("_", "tobacco")
        ).label,
        "Y@2002 | smokes(_, tobacco)",
    ),
    "cli_ratio_across_times": (
        lambda tmp: _eval_line(tmp, "eval ratio(Y@2002, Y@2003)"),
        "1:1: error: ratio across times: 2002 vs 2003",
    ),
    "cli_ratio_not_a_subset": (
        lambda tmp: _eval_line(tmp, "eval ratio(Y@2002, Y@2002 | smokes(_, tobacco))"),
        "1:1: error: Y@2002 is not a subset of Y@2002 | smokes(_, tobacco): c, d",
    ),
}


@pytest.mark.parametrize("case", sorted(QUERY_TIME_TEXTS))
def test_texts_that_print_a_query_time(case, tmp_path):
    text, expected = QUERY_TIME_TEXTS[case]
    assert text(tmp_path) == expected
