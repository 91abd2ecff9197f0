from __future__ import annotations

import itertools

import pytest

from ontounpack import Scope, Severity, check, enumerate_worlds, has_errors
from ontounpack.cli import main
from ontounpack.rules import sort_key
from ontounpack.worlds import validate_world

from conftest import FIXTURES, parse_ok


def test_relator_fixture_is_clean(relator_model):
    assert check(relator_model) == []


def test_event_fixture_is_clean(event_model):
    assert check(event_model) == []


def test_plain_fixture_flags_missing_truthmaker(plain_model):
    diags = check(plain_model)
    assert len(diags) == 1
    d = diags[0]
    assert d.rule_id == "R6"
    assert d.severity is Severity.ERROR
    assert (d.span.line, d.span.column) == (8, 10)
    assert "treatedBy" in d.message
    assert has_errors(diags)


def test_diagnostics_come_sorted():
    m = parse_ok(
        "model T\n\n"
        "kind Person\n"
        "subkind Low specializes Person\n"
        "role Drifter specializes Person\n"  # R4, line 5
        "subkind Orphan\n"  # R1, line 6
    )
    diags = check(m)
    assert [d.rule_id for d in diags] == ["R4", "R1"]
    assert diags == sorted(diags, key=sort_key)


def test_sort_key_orders_r2_before_r10():
    class Probe:
        def __init__(self, rule_id):
            self.rule_id = rule_id
            self.span = type("S", (), {"line": 1, "column": 1})()
            self.severity = Severity.ERROR
            self.message = ""

    keys = [sort_key(Probe(r)) for r in ("R2", "R10")]
    assert keys == sorted(keys)


# --- one mutant per rule; each must yield exactly the targeted diagnostic ---

RELATOR_TEXT = (FIXTURES / "healthcare_relator.onto").read_text()


def _mutate(old: str, new: str, count: int = 1) -> str:
    assert old in RELATOR_TEXT, f"mutation anchor missing: {old!r}"
    return RELATOR_TEXT.replace(old, new, count)


MUTANTS = {
    "R1": RELATOR_TEXT + "\nsubkind Orphan\n",
    "R2": RELATOR_TEXT + "\nkind SubPerson specializes Person\n",
    "R3": RELATOR_TEXT + "\nsubkind Weird specializes UnhealthyPerson\n",
    "R4": RELATOR_TEXT + "\nrole Companion specializes Person\n",
    "R5": _mutate(
        "mediation involvesProvider : Treatment [1..*] -- [1..*] HealthcareProvider",
        "mediation involvesProvider : Treatment [1..*] -- [0..*] HealthcareProvider",
    ),
    "R6": _mutate(" derivedFrom Treatment [1..*]", ""),
    "R7": _mutate(
        "derivedFrom Treatment [1..*]",
        "derivedFrom Marriage [1..*]",
    ) + (
        "\nrelator Marriage\n"
        "mediation marriesA : Marriage [0..*] -- [1..1] Person\n"
        "mediation marriesB : Marriage [0..*] -- [1..1] Person\n"
    ),
    "R8": RELATOR_TEXT + "\nphase HealthyPerson specializes Person\n",
    "R9": _mutate(
        "space Severity ordered 0..100",
        "space Severity nominal {low, high}",
    ),
    "R10": RELATOR_TEXT + (
        "\nhistoricalRole FormerPatient specializes Person\n"
        "mediation recalls : Treatment [0..*] -- [0..*] FormerPatient\n"
    ),
}


# further R9 shapes the DSL can spell, each with the one message it must give
R9_CASES = {
    "R9-via-not-a-quality": (
        "model T\n\nmode M\nkind K\ncomparative c : M -- M via K desc\n",
        "viaQuality 'K' of comparative 'c' is not a quality",
    ),
    "R9-end-not-grounded": (
        "model T\n\nmode M\nmode N\nquality Q\nspace Q ordered 0..9\n"
        "characterization hasQ : Q [1..1] -- [1..1] M\ncomparative c : M -- N via Q desc\n",
        "quality 'Q' does not ground end(s) N of comparative 'c'",
    ),
}


@pytest.mark.parametrize("rule_id, text, message", [
    *(pytest.param(r, MUTANTS[r], None, id=r) for r in sorted(MUTANTS, key=lambda r: int(r[1:]))),
    *(pytest.param("R9", text, message, id=case) for case, (text, message) in R9_CASES.items()),
])
def test_mutant_triggers_exactly_one_diagnostic(rule_id, text, message):
    diags = check(parse_ok(text))
    assert [d.rule_id for d in diags] == [rule_id], [
        (d.rule_id, d.message) for d in diags
    ]
    assert message in (None, diags[0].message)


def test_r8_is_a_warning_not_an_error():
    diags = check(parse_ok(MUTANTS["R8"]))
    assert diags[0].severity is Severity.WARNING
    assert not has_errors(diags)


def test_r8_silenced_by_disjoint_complete_genset():
    text = MUTANTS["R8"] + (
        "genset Health disjoint complete general Person"
        " specifics HealthyPerson, UnhealthyPerson\n"
    )
    assert check(parse_ok(text)) == []


def test_r5_counts_the_sum_of_lower_bounds():
    # one mediated end with min 2 alone satisfies the existential load
    text = _mutate(
        "mediation involvesPatient : Treatment [1..*] -- [1..1] Patient",
        "mediation involvesPatient : Treatment [1..*] -- [2..2] Patient",
    )
    text = text.replace(
        "mediation involvesProvider : Treatment [1..*] -- [1..*] HealthcareProvider",
        "mediation involvesProvider : Treatment [1..*] -- [0..*] HealthcareProvider",
    )
    assert check(parse_ok(text)) == []


def test_r4_accepts_participation_targeting_ancestor(event_model):
    # IndividualHealthcareProvider has no direct binding; the mixin ancestor carries it
    assert check(event_model) == []


# --- R2: check and the world finder agree on cross-flavour specialization ------

# a parent of each stereotype, with what it needs to check clean on its own
FLAVOUR_PARENTS = {
    "kind": "kind R\n",
    "category": "category R\nkind A specializes R\n",
    "relator": (
        "relator R\nkind A\nkind B\n"
        "mediation m1 : R [0..*] -- [1..1] A\nmediation m2 : R [0..*] -- [1..1] B\n"
    ),
    "mode": "mode R\nkind A\ncharacterization c1 : R [0..*] -- [1..1] A\n",
    "event": "event R\nkind A\nparticipation p1 : R [0..*] -- [1..*] A\n",
    "quality": "quality R\nkind A\ncharacterization c1 : R [0..*] -- [1..1] A\n"
               "space R ordered 1..2\n",
}
CHILD_STEREOTYPES = ["kind", "subkind", "role", "category", "relator", "mode", "event", "quality"]


@pytest.mark.parametrize("child", ["kind", "mode"])
def test_r2_refuses_a_kind_or_mode_that_specializes_a_relator(capsys, tmp_path, child):
    text = f"model T\n\n{FLAVOUR_PARENTS['relator']}{child} K specializes R\n"
    diags = check(parse_ok(text))
    assert [(d.rule_id, d.severity, d.message, d.related) for d in diags] == [
        ("R2", Severity.ERROR, f"{child} 'K' specializes relator 'R'", ("R",)),
    ]
    src = tmp_path / "probe.onto"
    src.write_text(text)
    assert main(["simulate", str(src)]) == 1
    assert "R2 Error" in capsys.readouterr().err


def test_r2_refuses_a_relator_that_specializes_a_kind(capsys, tmp_path):
    # R's individuals would be As of another identity base, which no world can hold
    text = (
        "model M\n\nkind A\nkind B\nrelator R specializes A\n"
        "mediation m1 : R [0..*] -- [1..1] A\nmediation m2 : R [0..*] -- [1..1] B\n"
    )
    diags = check(parse_ok(text))
    assert [(d.rule_id, d.severity, d.message, d.related) for d in diags] == [
        ("R2", Severity.ERROR, "relator 'R' specializes sortal 'A'", ("A",)),
    ]
    src = tmp_path / "probe.onto"
    src.write_text(text)
    assert main(["simulate", str(src), "--scope", "A=1,B=1,R=2"]) == 1
    assert "R2 Error" in capsys.readouterr().err


@pytest.mark.parametrize("parent, child", itertools.product(FLAVOUR_PARENTS, CHILD_STEREOTYPES))
def test_check_and_the_world_finder_agree_on_a_specialization(parent, child):
    # a model check accepts yields only worlds validate_world accepts
    model = parse_ok(f"model T\n\n{FLAVOUR_PARENTS[parent]}{child} K specializes R\n")
    if has_errors(check(model)):
        return
    scope = Scope()
    for world in enumerate_worlds(model, scope):
        assert validate_world(model, world, scope) == []
