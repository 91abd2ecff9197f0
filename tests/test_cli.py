from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ontounpack
from ontounpack import Model, Scope, enumerate_worlds, parse_text
from ontounpack.cli import main

from conftest import FIXTURES
from test_worlds import TOY

PLAIN = str(FIXTURES / "healthcare_plain.onto")
RELATOR = str(FIXTURES / "healthcare_relator.onto")
EVENT = str(FIXTURES / "healthcare_event.onto")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check -------------------------------------------------------------------


def test_check_clean_model(capsys):
    code, out, err = run(capsys, "check", RELATOR)
    assert code == 0
    assert json.loads(out) == []


def test_check_reports_errors_with_exit_1(capsys):
    code, out, err = run(capsys, "check", PLAIN)
    assert code == 1
    diags = json.loads(out)
    assert [d["ruleId"] for d in diags] == ["R6"]
    assert diags[0]["span"] == {"line": 8, "col": 10, "len": 9}


def test_check_text_format(capsys):
    code, out, err = run(capsys, "check", PLAIN, "--format", "text")
    assert code == 1
    assert out.startswith("R6 Error 8:10 ")


# --- parse -------------------------------------------------------------------


def test_parse_emits_loadable_json(capsys):
    code, out, err = run(capsys, "parse", RELATOR)
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "HealthcareRelator"


def test_parse_text_format_round_trips(capsys):
    code, out, err = run(capsys, "parse", RELATOR, "--format", "text")
    assert code == 0
    reparsed = parse_text(out)
    assert isinstance(reparsed, Model)
    assert reparsed.name == "HealthcareRelator"


def test_parse_accepts_json_input(capsys, tmp_path):
    code, out, err = run(capsys, "parse", RELATOR)
    path = tmp_path / "model.json"
    path.write_text(out)
    code2, out2, err2 = run(capsys, "parse", str(path))
    assert code2 == 0
    assert json.loads(out2) == json.loads(out)


def test_parse_of_json_with_a_negative_space_bound_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "parse", RELATOR)
    doc = json.loads(out)
    doc["qualitySpaces"][0]["lo"] = -1
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "parse", str(path))
    assert code == 2
    assert out == ""
    assert "qualitySpaces[0].lo: space bound must be >= 0, got -1" in err


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.onto"
    bad.write_text("model X\n\nwibble Y\n")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert out == ""
    assert str(bad) in err


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "check", "examples/nope.onto")
    assert code == 2
    assert "nope.onto" in err


# --- unpack ------------------------------------------------------------------


def test_unpack_material_json(capsys):
    code, out, err = run(
        capsys, "unpack", PLAIN, "treatedBy",
        "--relator", "Treatment", "--roles", "Patient,ProviderRole",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["plan"]["targetRelation"] == "treatedBy"
    names = [c["name"] for c in doc["plan"]["newClassifiers"]]
    assert names == ["Treatment", "Patient", "ProviderRole"]
    assert doc["model"]["name"] == "HealthcarePlain"


def test_unpack_text_yields_clean_model(capsys):
    code, out, err = run(
        capsys, "unpack", PLAIN, "treatedBy", "--format", "text",
        "--relator", "Treatment", "--roles", "Patient,ProviderRole",
    )
    assert code == 0
    model = parse_text(out)
    assert isinstance(model, Model)
    code2, out2, err2 = run(capsys, "check", RELATOR)  # sanity: runner reuse works
    assert code2 == 0


def test_unpack_domain_error_exits_2(capsys):
    code, out, err = run(
        capsys, "unpack", RELATOR, "treatedBy",
        "--relator", "X", "--roles", "A,B",
    )
    assert code == 2
    assert "already derived" in err


def test_unpack_comparative_form(capsys):
    code, out, err = run(
        capsys, "unpack", RELATOR, "moreSevereThan",
        "--quality", "Badness", "--space", "0..9", "--direction", "desc",
    )
    assert code == 2  # already grounded via Severity
    assert "grounded" in err


# --- derive-cards ------------------------------------------------------------


def test_derive_cards_json(capsys):
    code, out, err = run(capsys, "derive-cards", RELATOR, "Treatment")
    assert code == 0
    doc = json.loads(out)
    assert doc["relator"] == "Treatment"
    assert doc["endA"] == {
        "classifier": "Patient",
        "mult": {"min": 1, "max": "*"},
        "text": "[1..*]",
    }
    assert doc["perTuple"]["text"] == "[1..*]"


def test_derive_cards_rejects_non_relator(capsys):
    code, out, err = run(capsys, "derive-cards", RELATOR, "Person")
    assert code == 2
    assert "not a declared relator" in err


# --- simulate ----------------------------------------------------------------


def test_simulate_json_worlds(capsys):
    code, out, err = run(
        capsys, "simulate", RELATOR, "--scope-default", "1", "--limit", "1000",
    )
    assert code == 0
    worlds = json.loads(out)
    assert len(worlds) == 28
    assert set(worlds[1]) == {"individuals", "typeAssignments", "links", "qualityValues"}


def test_simulate_respects_limit(capsys):
    code, out, err = run(capsys, "simulate", RELATOR, "--scope-default", "1",
                         "--limit", "3")
    assert code == 0
    assert len(json.loads(out)) == 3


def test_simulate_dot_output(capsys):
    code, out, err = run(
        capsys, "simulate", RELATOR, "--format", "dot",
        "--scope", "Person=1,Organization=1,Treatment=1,PathologicalCondition=0",
    )
    assert code == 0
    assert out.count("digraph") == json.loads(run(
        capsys, "simulate", RELATOR,
        "--scope", "Person=1,Organization=1,Treatment=1,PathologicalCondition=0",
    )[1]).__len__()
    assert "// shapes:" in out
    assert "diamond" in out  # relator styling


def test_simulate_refuses_ill_formed_input(capsys):
    code, out, err = run(capsys, "simulate", PLAIN, "--scope-default", "1")
    assert code == 1
    assert out == ""
    assert "R6" in err


def test_simulate_scope_guard_exits_2(capsys):
    code, out, err = run(capsys, "simulate", RELATOR, "--scope", "Person=99")
    assert code == 2
    assert "scope" in err.lower()


def test_quality_values_flag(capsys):
    code, out, err = run(
        capsys, "simulate", RELATOR,
        "--scope", "Person=0,Organization=0,Treatment=0,PathologicalCondition=1",
        "--quality-values", "Severity={40,41}",
    )
    assert code == 0
    seen = {v for w in json.loads(out) for _, _, v in w["qualityValues"]}
    assert seen == {40, 41}


@pytest.mark.parametrize("command", ["simulate", "lint"])
def test_quality_value_outside_its_space_exits_2(capsys, command):
    code, out, err = run(
        capsys, command, RELATOR, "--scope", "Person=1",
        "--quality-values", "Severity={500}",
    )
    assert code == 2
    assert out == ""
    assert "scope value 500 outside the space of quality 'Severity'" in err


@pytest.mark.parametrize("command", ["simulate", "lint"])
def test_quality_value_outside_its_space_exits_2_before_any_witness(capsys, tmp_path, command):
    # lint finds its AP1 witness among worlds without a condition, so the
    # scope's values must be checked before the first world, not when one is valued
    src = tmp_path / "severe_event.onto"
    src.write_text(
        Path(EVENT).read_text()
        + "mode PathologicalCondition\nquality Severity\nspace Severity ordered 0..100\n"
        "characterization hasCondition : PathologicalCondition [0..*] -- [1..1] Person\n"
        "characterization hasSeverity : Severity [1..1] -- [1..1] PathologicalCondition\n"
    )
    code, out, err = run(
        capsys, command, str(src), "--scope", "Person=1,Treatment=1,PathologicalCondition=1",
        "--quality-values", "Severity={500}",
    )
    assert code == 2
    assert out == ""
    assert "scope value 500 outside the space of quality 'Severity'" in err


@pytest.mark.parametrize("command", ["simulate", "lint"])
def test_quality_values_of_mixed_types_exit_2(capsys, tmp_path, command):
    # Mood has no space, so the scope's values are taken as given
    src = tmp_path / "moods.onto"
    src.write_text(
        "model Moods\n\nkind Person\nquality Mood\n"
        "characterization hasMood : Mood [1..1] -- [1..1] Person\n"
    )
    code, out, err = run(
        capsys, command, str(src), "--scope", "Person=2", "--quality-values", "Mood={1,a}",
    )
    assert code == 2
    assert out == ""
    assert "scope values of quality 'Mood' mix types" in err


@pytest.mark.parametrize("command", ["simulate", "lint"])
@pytest.mark.parametrize("flag, text, message", [
    ("--scope", "Persn=1", "scope names unknown classifier 'Persn'"),
    ("--quality-values", "Sevrity={500}", "scope values name unknown quality 'Sevrity'"),
], ids=["classifier", "quality"])
def test_unknown_scope_names_exit_2(capsys, command, flag, text, message):
    code, out, err = run(capsys, command, RELATOR, "--scope-default", "1", flag, text)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("flag, text, message", [
    ("--scope", "Persn=1", "scope names unknown classifier 'Persn'"),
    ("--quality-values", "Sev={1}", "scope values name unknown quality 'Sev'"),
    ("--scope-default", "99", "scope admits up to 99 individuals; the hard cap is 14"),
], ids=["classifier", "quality", "hard-cap"])
def test_lint_without_queries_refuses_a_bad_scope_like_simulate(capsys, tmp_path, flag, text,
                                                                 message):
    # the model has no relator and no comparative, so lint asks no query
    src = tmp_path / "toy.onto"
    src.write_text(TOY)
    for command in ("simulate", "lint"):
        code, out, err = run(capsys, command, str(src), flag, text, "--format", "json")
        assert (code, out, err.strip()) == (2, "", message)


def test_bad_scope_grammar_exits_2(capsys):
    code, out, err = run(capsys, "simulate", RELATOR, "--scope", "Person=two")
    assert code == 2


LONG_INT = "9" * 5000  # past the interpreter's default str-to-int limit (4300)


@pytest.mark.parametrize("argv", [
    ("simulate", RELATOR, "--scope", f"Person={LONG_INT}"),
    ("simulate", RELATOR, "--quality-values", f"Severity={{{LONG_INT}}}"),
    ("unpack", PLAIN, "treatedBy", "--quality", "Q", "--space", f"0..{LONG_INT}"),
], ids=["scope", "quality_values", "space"])
def test_integer_too_long_to_convert_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "integer of 5000 digits is too long" in err


def test_parse_of_too_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * 100000)
    code, out, err = run(capsys, "parse", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{path}:1:1: invalid JSON:")


# --- lint ----------------------------------------------------------------------


def test_lint_json_includes_witness(capsys):
    code, out, err = run(capsys, "lint", EVENT, "--scope", "Person=2,Treatment=2")
    assert code == 0
    diags = json.loads(out)
    ap1 = [d for d in diags if d["ruleId"] == "AP1"]
    assert len(ap1) == 1
    assert ap1[0]["severity"] == "Warning"
    witness = ap1[0]["witness"]
    filler = [i for i, types in witness["typeAssignments"].items()
              if {"Patient", "HealthcareProvider"} <= set(types)]
    assert filler


def test_lint_dot_witnesses(capsys):
    code, out, err = run(capsys, "lint", EVENT, "--format", "dot",
                         "--scope", "Person=2,Treatment=2")
    assert code == 0
    assert "digraph witness_0" in out


def test_lint_refuses_ill_formed_input(capsys):
    code, out, err = run(capsys, "lint", PLAIN)
    assert code == 1
    assert "R6" in err


# --- diff ----------------------------------------------------------------------


def test_diff_json(capsys):
    code, out, err = run(capsys, "diff", RELATOR, EVENT)
    assert code == 0
    rows = json.loads(out)
    treatment = [r["verdict"] for r in rows if r["left"]["classifier"] == "Treatment"]
    assert treatment == ["IdentityExcluded", "ManifestationCandidate"]


def test_diff_text(capsys):
    code, out, err = run(capsys, "diff", RELATOR, EVENT, "--format", "text")
    assert code == 0
    assert "HistoricalDependenceCandidate" in out


def test_diff_explicit_pairs(capsys):
    code, out, err = run(capsys, "diff", RELATOR, EVENT, "--pairs", "Person=Person")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["verdict"] == "IdentityCandidate"


def test_diff_refuses_ill_formed_side(capsys):
    code, out, err = run(capsys, "diff", PLAIN, EVENT)
    assert code == 1


# --- common plumbing ------------------------------------------------------------


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run(capsys, "check", RELATOR, "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == []


def test_dot_format_rejected_outside_simulate_and_lint(capsys):
    code, out, err = run(capsys, "check", RELATOR, "--format", "dot")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate", RELATOR)[0] == 2


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "check", RELATOR, "--wibble")[0] == 2


@pytest.mark.parametrize("fixture", [PLAIN, RELATOR, EVENT])
@pytest.mark.parametrize(
    "argv",
    [
        ("parse",),
        ("parse", "--format", "text"),
        ("check",),
        ("check", "--format", "text"),
        ("simulate", "--scope-default", "1", "--limit", "40"),
        ("lint", "--scope-default", "1"),
    ],
)
def test_reruns_are_byte_identical(capsys, fixture, argv):
    cmd, rest = argv[0], list(argv[1:])
    first = run(capsys, cmd, fixture, *rest)
    second = run(capsys, cmd, fixture, *rest)
    assert first[0] in (0, 1), first[2]
    assert first == second


def test_diff_reruns_are_byte_identical(capsys):
    first = run(capsys, "diff", RELATOR, EVENT)
    second = run(capsys, "diff", RELATOR, EVENT)
    assert first[0] in (0, 1), first[2]
    assert first == second


def test_main_without_subcommand_exits_2():
    # the child imports the same ontounpack as this suite, installed or not
    package_root = str(Path(ontounpack.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ontounpack.cli import main; sys.exit(main())"],
        input="",
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 2  # no subcommand given


@pytest.mark.skipif(shutil.which("ontounpack") is None,
                    reason="no installed 'ontounpack' script on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["ontounpack", "check", RELATOR],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("fixture", [PLAIN, RELATOR, EVENT])
def test_parse_json_is_json_dumps_sorted_and_indented(capsys, fixture):
    code, out, _ = run(capsys, "parse", fixture)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# the plain fixture has no worlds: its material relation has no relator (R6)
@pytest.mark.parametrize("fixture", [RELATOR, EVENT])
def test_simulate_json_is_json_dumps_sorted_and_indented(capsys, fixture):
    code, out, _ = run(capsys, "simulate", fixture, "--scope-default", "1", "--limit", "40")
    assert code == 0
    model = parse_text(Path(fixture).read_text())
    worlds = enumerate_worlds(model, Scope(default_count=1, world_limit=40))
    assert len(worlds) > 1
    assert out == json.dumps([w.to_dict() for w in worlds], sort_keys=True, indent=2) + "\n"
