from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ontounpack
from ontounpack import Model, Scope, cli, enumerate_worlds, parse_text
from ontounpack.cli import main
from ontounpack.dot import world_to_dot

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


OLDER = "model M\n\nkind Person\nmaterial olderThan : Person [0..*] -- [0..*] Person\n"


@pytest.mark.parametrize("space", ["-1..5", "3..1"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unpack_refuses_a_space_it_could_not_read_back(capsys, tmp_path, space, fmt):
    src, dst = tmp_path / "older.onto", tmp_path / "out"
    src.write_text(OLDER)
    code, out, err = run(capsys, "unpack", str(src), "olderThan", "--quality", "Age",
                         f"--space={space}", "--format", fmt, "-o", str(dst))
    assert (code, out) == (2, "")
    assert err.startswith("unpack failed: ")
    assert not dst.exists()


def test_unpack_refuses_a_space_other_than_the_declared_one(capsys, tmp_path):
    src, dst = tmp_path / "age.onto", tmp_path / "out"
    src.write_text(OLDER + "quality Age\nspace Age ordered 0..9\n")
    unpack = ("unpack", str(src), "olderThan", "--quality", "Age", "--format", "text")
    code, out, err = run(capsys, *unpack, "--space=0..5", "-o", str(dst))
    assert (code, out) == (2, "")
    assert err.startswith("unpack failed: existing quality 'Age' has space ordered 0..9")
    assert not dst.exists()
    code, out, _ = run(capsys, *unpack, "--space=0..9")
    assert code == 0
    assert "space Age ordered 0..9" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unpack_output_with_a_space_parses_back(capsys, tmp_path, fmt):
    src, dst = tmp_path / "older.onto", tmp_path / f"out.{fmt}"
    src.write_text(OLDER)
    code, _, _ = run(capsys, "unpack", str(src), "olderThan", "--quality", "Age",
                     "--space=0..5", "--format", fmt, "-o", str(dst))
    assert code == 0
    if fmt == "json":  # the document wraps the model with its plan
        dst.write_text(json.dumps(json.loads(dst.read_text())["model"]))
    code, out, err = run(capsys, "parse", str(dst), "--format", "text")
    assert code == 0, err
    assert "space Age ordered 0..5" in out


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


def test_derive_cards_text(capsys):
    code, out, err = run(capsys, "derive-cards", RELATOR, "Treatment", "--format", "text")
    assert (code, err) == (0, "")
    assert out == (
        "Treatment: endA Patient [1..*], endB HealthcareProvider [1..*], perTuple [1..*]\n"
    )


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


def test_simulate_text_lists_types_links_and_values(capsys):
    code, out, err = run(capsys, "simulate", RELATOR, "--scope-default", "1", "--format", "text")
    assert (code, err) == (0, "")
    worlds = out.split("world ")
    assert len(worlds) == 29 and worlds[0] == ""
    assert worlds[26] == (
        "25\n"
        "  Organization_0 : HealthcareProvider, Organization\n"
        "  PathologicalCondition_0 : PathologicalCondition\n"
        "  Person_0 : Patient, Person, UnhealthyPerson\n"
        "  Treatment_0 : Treatment\n"
        "  link involvesPatient Treatment_0 -> Person_0\n"
        "  link involvesProvider Treatment_0 -> Organization_0\n"
        "  link treatedBy Person_0 -> Organization_0\n"
        "  value Severity(PathologicalCondition_0) = 0\n"
    )


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
def test_a_quality_value_given_twice_exits_2(capsys, command):
    code, out, err = run(capsys, command, RELATOR, "--scope-default", "1",
                         "--quality-values", "Severity={1,1}")
    assert code == 2
    assert out == ""
    assert "scope values of quality 'Severity' give 1 more than once" in err


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


def test_non_ascii_digits_exit_2(capsys, tmp_path):
    # only ASCII digits spell integers, as in the DSL
    src = tmp_path / "older.onto"
    src.write_text("model M\n\nkind Person\nmaterial olderThan : Person [0..*] -- [0..*] Person\n")
    unpack = ("unpack", str(src), "olderThan", "--quality", "Age", "--space")
    assert run(capsys, *unpack, "0..9")[0] == 0
    cases = [
        (("simulate", RELATOR, "--scope",
          "Person=\u0661,Organization=0,Treatment=0,PathologicalCondition=1"),
         "bad --scope entry"),
        (("simulate", RELATOR, "--scope-default", "1", "--quality-values", "Severity={\u0663}"),
         "outside the space of quality 'Severity'"),
        ((*unpack, "\u0660..\u0669"), "bad --space"),
        (("simulate", RELATOR, "--scope-default", "1", "--limit", "\u0663"), "bad --limit"),
        (("simulate", RELATOR, "--scope-default", "1", "--limit", "1_0"), "bad --limit"),
        (("lint", RELATOR, "--scope-default", "\u0663"), "bad --scope-default"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err


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
    model = parse_text(Path(EVENT).read_text())
    witnesses = [d.witness for d in ontounpack.lint(model, Scope(per_classifier={
        "Person": 2, "Treatment": 2})) if d.witness is not None]
    assert witnesses
    code, out, err = run(capsys, "lint", EVENT, "--format", "dot",
                         "--scope", "Person=2,Treatment=2")
    assert (code, err) == (0, "")
    assert "digraph witness_0" in out
    assert out == "".join(
        world_to_dot(model, w, name=f"witness_{i}") for i, w in enumerate(witnesses))


def test_lint_text(capsys):
    code, out, err = run(capsys, "lint", EVENT, "--format", "text",
                         "--scope", "Person=2,Treatment=2")
    assert (code, err) == (0, "")
    assert out == (
        "AP1 Warning 7:7 one individual can fill both 'Patient' and 'HealthcareProvider' of "
        "the same 'Treatment' (via participatesPatient and participatesProvider)\n"
    )


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


@pytest.mark.parametrize("pairs, message", [
    ("Person=Person,Treatment", "bad --pairs entry 'Treatment' (expected Left=Right)"),
    ("Person=Ghost", "'Ghost' is not declared in model 'HealthcareEvent'"),
], ids=["malformed", "unknown"])
def test_diff_refuses_bad_pairs_with_exit_2(capsys, pairs, message):
    code, out, err = run(capsys, "diff", RELATOR, EVENT, "--pairs", pairs)
    assert (code, out, err) == (2, "", message + "\n")


def test_diff_refuses_ill_formed_side(capsys):
    code, out, err = run(capsys, "diff", PLAIN, EVENT)
    assert code == 1


# --- common plumbing ------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("simulate", PLAIN, "--scope-default", "1"),
    ("lint", PLAIN, "--scope-default", "1"),
    ("diff", PLAIN, EVENT),
], ids=lambda argv: argv[0])
def test_refusal_of_an_ill_formed_model_writes_no_output_file(capsys, tmp_path, argv):
    target = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "-o", str(target))
    assert (code, out) == (1, "")
    assert "R6" in err
    assert not target.exists()


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run(capsys, "check", RELATOR, "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == []


@pytest.mark.parametrize("argv", [
    ("parse", RELATOR),
    ("check", RELATOR),
    ("unpack", PLAIN, "treatedBy", "--relator", "Treatment", "--roles", "Patient,ProviderRole"),
    ("derive-cards", RELATOR, "Treatment"),
    ("diff", RELATOR, EVENT),
], ids=lambda argv: argv[0])
def test_dot_format_rejected_outside_simulate_and_lint(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "dot")
    assert (code, out) == (2, "")
    assert "invalid choice: 'dot'" in err


@pytest.mark.parametrize("command", ["simulate", "lint"])
def test_dot_format_accepted_by_simulate_and_lint(capsys, command):
    code, out, err = run(capsys, command, EVENT, "--scope", "Person=2,Treatment=2",
                         "--format", "dot")
    assert (code, err) == (0, "")
    assert "\ndigraph " in out


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


def test_python_dash_m_runs_the_cli():
    # the console script needs an install; `python -m ontounpack` needs only the source
    package_root = str(Path(ontounpack.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "ontounpack", "simulate", RELATOR, "--format", "json",
         "--scope-default", "1"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)) == 28


def test_a_second_main_call_builds_no_parser(capsys, monkeypatch):
    run(capsys, "check", RELATOR)
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "check", RELATOR)[0] == 0
    assert built == []


def test_a_reused_parser_gives_what_a_fresh_one_gives(capsys, tmp_path):
    target = tmp_path / "worlds.json"
    scope = ("--scope", "Person=2,Treatment=2")
    sequence = [
        ("parse", RELATOR, "--format", "json"),
        ("check", PLAIN, "--format", "text"),
        ("simulate", EVENT, *scope, "-o", str(target)),
        ("simulate", EVENT, *scope),
        ("lint", EVENT, *scope, "--format", "dot"),
        ("diff", RELATOR, EVENT),
        ("simulate", EVENT, "--limit", "1_0"),
        ("frobnicate", RELATOR),
        ("lint", EVENT, *scope),
    ]

    def outcomes(fresh_parser: bool) -> list:
        seen = []
        for argv in sequence:
            target.unlink(missing_ok=True)
            if fresh_parser:
                cli._build_parser.cache_clear()
            seen.append((*run(capsys, *argv), target.read_bytes() if target.exists() else None))
        return seen

    reused = outcomes(False)
    assert reused == outcomes(True)
    assert [outcome[0] for outcome in reused] == [0, 1, 0, 0, 0, 0, 2, 2, 0]


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


# --- output is written as it is formatted --------------------------------------

ONE_PERSON = ("--scope", "Person=1,Organization=0,Treatment=0,PathologicalCondition=1",
              "--quality-values", "Severity={1,2}")
ONE_PERSON_TEXT = """\
world 0
world 1
  Person_0 : Person
world 2
  Person_0 : Person, UnhealthyPerson
world 3
  PathologicalCondition_0 : PathologicalCondition
  value Severity(PathologicalCondition_0) = 1
world 4
  PathologicalCondition_0 : PathologicalCondition
  value Severity(PathologicalCondition_0) = 2
world 5
  PathologicalCondition_0 : PathologicalCondition
  Person_0 : Person
  value Severity(PathologicalCondition_0) = 1
world 6
  PathologicalCondition_0 : PathologicalCondition
  Person_0 : Person
  value Severity(PathologicalCondition_0) = 2
world 7
  PathologicalCondition_0 : PathologicalCondition
  Person_0 : Person, UnhealthyPerson
  value Severity(PathologicalCondition_0) = 1
world 8
  PathologicalCondition_0 : PathologicalCondition
  Person_0 : Person, UnhealthyPerson
  value Severity(PathologicalCondition_0) = 2
"""


def simulate_both_ways(capsys, tmp_path, *argv):
    """(code, stdout, stderr) of one simulate run, checking -o writes the same bytes."""
    target = tmp_path / "out"
    result = run(capsys, "simulate", RELATOR, *argv)
    assert run(capsys, "simulate", RELATOR, *argv, "-o", str(target)) == (result[0], "", "")
    assert target.read_bytes() == result[1].encode("utf-8")
    return result


def test_simulate_formats_give_their_documents(capsys, tmp_path):
    model = parse_text(Path(RELATOR).read_text())
    scope = Scope(per_classifier={"Person": 1, "Organization": 0, "Treatment": 0,
                                  "PathologicalCondition": 1},
                  quality_values={"Severity": (1, 2)})
    worlds = enumerate_worlds(model, scope)
    assert len(worlds) == 9
    expected = {
        "json": json.dumps([w.to_dict() for w in worlds], sort_keys=True, indent=2) + "\n",
        "dot": "".join(world_to_dot(model, w, name=f"world_{i}") for i, w in enumerate(worlds)),
    }
    for fmt, document in expected.items():
        assert simulate_both_ways(capsys, tmp_path, *ONE_PERSON, "--format", fmt) == (
            0, document, "")
    assert simulate_both_ways(capsys, tmp_path, *ONE_PERSON, "--format", "text") == (
        0, ONE_PERSON_TEXT, "")


@pytest.mark.parametrize("fmt, document", [("json", "[]\n"), ("dot", ""), ("text", "")])
def test_simulate_of_no_worlds_gives_an_empty_document(capsys, tmp_path, monkeypatch,
                                                      fmt, document):
    # every model admits the empty world, so only a stubbed finder lists none
    monkeypatch.setattr(cli, "enumerate_worlds", lambda model, scope: [])
    assert simulate_both_ways(capsys, tmp_path, "--format", fmt) == (0, document, "")


def test_simulate_output_costs_less_memory_than_its_file(tmp_path):
    # the document is written world by world, so the whole run needs little
    # more memory than the world finder alone: less than the file it writes
    scope_text = "Person=3,Organization=3,Treatment=3,PathologicalCondition=0"
    model = parse_text(Path(RELATOR).read_text())
    scope = Scope(per_classifier={"Person": 3, "Organization": 3, "Treatment": 3,
                                  "PathologicalCondition": 0}, world_limit=10**9)
    target = tmp_path / "worlds.json"

    def traced_peak(call) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    finder = traced_peak(lambda: enumerate_worlds(model, scope))
    whole = traced_peak(lambda: main(["simulate", RELATOR, "--scope", scope_text,
                                      "--limit", "1000000000", "-o", str(target)]))
    assert len(json.loads(target.read_bytes())) == 580
    assert whole - finder < target.stat().st_size, (whole, finder)


def test_simulate_exits_0_when_its_reader_stops_early():
    package_root = str(Path(ontounpack.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ontounpack.cli", "simulate", EVENT,
         "--scope", "Person=2,Treatment=2,Organization=2", "--limit", "1000000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_output_into_a_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "simulate", RELATOR, "--scope-default", "1", "-o", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot write {target}: ")
    assert not target.parent.exists()
