from __future__ import annotations

import json
from contextlib import redirect_stdout
from io import StringIO

import pytest

from conftest import FIXTURES, load_world
from tempcoll import (
    MODE_RE,
    Collection,
    TempcollError,
    filter_members,
    instantiate,
    measure_value,
    ratio,
    slice_at,
)
from tempcoll.cli import run


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
    )
    code, out = _run(capsys, "eval", _fx("youth.tcw"), str(script))
    assert code == 2
    assert out.splitlines() == [
        "assert #1: false (4 = 5)",
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


_ABORIGINES = Collection("A", MODE_RE, "aborigine", ("_",), 1700)

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
}


@pytest.mark.parametrize("case", sorted(QUERY_TIME_TEXTS))
def test_texts_that_print_a_query_time(case, tmp_path):
    text, expected = QUERY_TIME_TEXTS[case]
    assert text(tmp_path) == expected
