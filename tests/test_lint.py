from __future__ import annotations

import pytest

from ontounpack import (
    Goal,
    IllFormedModelError,
    Scope,
    ScopeTooLargeError,
    Severity,
    check_metaproperties,
    find_witness,
    goal_holds,
    lint,
    validate_world,
)
from ontounpack.rules import sort_key

from conftest import FIXTURES, parse_ok
from test_worlds import TOY

PAIR_SCOPE = Scope(per_classifier={"Person": 2, "Treatment": 2})

EVENT_TEXT = (FIXTURES / "healthcare_event.onto").read_text()
MODELS_DIR = FIXTURES.parent / "perfbench" / "models"

DISJOINT_GENSET = (
    "genset CareSeparation disjoint general Person"
    " specifics Patient, IndividualHealthcareProvider\n"
)


def ap(diags, rule_id):
    return [d for d in diags if d.rule_id == rule_id]


def test_ap1_flags_overlapping_fillers(event_model):
    diags = lint(event_model, PAIR_SCOPE)
    findings = ap(diags, "AP1")
    assert len(findings) == 1
    d = findings[0]
    assert d.severity is Severity.WARNING
    assert "Patient" in d.message and "HealthcareProvider" in d.message
    assert set(d.related) == {"participatesPatient", "participatesProvider"}


def test_ap1_witness_is_a_real_overlap(event_model):
    d = ap(lint(event_model, PAIR_SCOPE), "AP1")[0]
    w = d.witness
    assert w is not None
    goal = Goal(
        typings=(("x", "Patient"), ("x", "HealthcareProvider"), ("t", "Treatment")),
        links=(
            ("participatesPatient", "t", "x"),
            ("participatesProvider", "t", "x"),
        ),
    )
    assert goal_holds(w, goal)
    assert validate_world(event_model, w, PAIR_SCOPE) == []


def test_ap1_witness_has_the_fewest_individuals(event_model):
    # one person filling both ends of one treatment is the plainest witness
    (d,) = ap(lint(event_model, PAIR_SCOPE), "AP1")
    assert sorted(base for _, base in d.witness.individuals) == ["Person", "Treatment"]


def test_ap1_disjoint_genset_removes_the_finding():
    guarded = parse_ok(EVENT_TEXT + "\n" + DISJOINT_GENSET)
    assert ap(lint(guarded, PAIR_SCOPE), "AP1") == []


def test_ap1_silent_when_kinds_differ(relator_model):
    # Patient grows from Person, providers from Organization: no shared identity
    diags = lint(relator_model, Scope(default_count=2))
    assert ap(diags, "AP1") == []


def test_ap1_reports_a_pair_a_sub_relator_inherits_once():
    # HomeCare inherits Care's two mediations: the pair is Care's finding alone
    model = parse_ok(
        "model Care\n\nkind Person\nrole Patient specializes Person\n"
        "role Carer specializes Person\nrelator Care\nrelator HomeCare specializes Care\n"
        "mediation cares : Care [1..*] -- [1..1] Patient\n"
        "mediation caredBy : Care [1..*] -- [1..1] Carer\n"
    )
    (finding,) = ap(lint(model, Scope(default_count=2)), "AP1")
    assert finding.severity is Severity.WARNING
    assert finding.related == ("caredBy", "cares") and "of the same 'Care'" in finding.message


def test_ap1_info_when_scope_starves_the_witness(event_model):
    # structurally matched, but a single person cannot fill both ends of
    # anything when no treatment exists
    scope = Scope(per_classifier={"Person": 1, "Treatment": 0, "Organization": 0})
    findings = ap(lint(event_model, scope), "AP1")
    assert len(findings) == 1
    assert findings[0].severity is Severity.INFO
    assert "no in-scope witness" in findings[0].message
    assert findings[0].witness is None


def test_ap2_warns_on_admitted_ties(relator_model):
    diags = lint(relator_model, Scope(default_count=1,
                                      per_classifier={"PathologicalCondition": 2}))
    findings = ap(diags, "AP2")
    assert len(findings) == 1
    d = findings[0]
    assert d.severity is Severity.WARNING
    assert "moreSevereThan" in d.message
    assert d.witness is not None
    assert len(d.related) == 2


def test_ap2_info_when_no_tie_is_reachable(relator_model):
    scope = Scope(default_count=1, per_classifier={"PathologicalCondition": 0})
    findings = ap(lint(relator_model, scope), "AP2")
    assert len(findings) == 1
    assert findings[0].severity is Severity.INFO


def test_lint_refuses_ill_formed_models(plain_model):
    with pytest.raises(IllFormedModelError):
        lint(plain_model, Scope(default_count=1))


def test_lint_output_is_sorted(event_model):
    diags = lint(event_model, PAIR_SCOPE)
    assert diags == sorted(diags, key=sort_key)


def test_lint_is_deterministic(event_model):
    a = lint(event_model, PAIR_SCOPE)
    b = lint(event_model, PAIR_SCOPE)
    assert [(d.rule_id, d.message, d.witness) for d in a] == [
        (d.rule_id, d.message, d.witness) for d in b
    ]


CLINIC = (
    "model Clinic\n\n"
    "kind Person\n"
    "event Treatment\n"
    "event Consultation\n"
    "historicalRoleMixin HealthcareProvider\n"
    "historicalRole Patient specializes Person\n"
    "historicalRole Consultee specializes Person\n"
    "historicalRole IndividualHealthcareProvider specializes Person, HealthcareProvider\n"
    "mode PathologicalCondition\n"
    "quality Severity\n"
    "space Severity ordered 0..100\n"
    "participation participatesPatient : Treatment [1..*] -- [1..1] Patient\n"
    "participation participatesProvider : Treatment [1..*] -- [1..*] HealthcareProvider\n"
    "participation consultedPatient : Consultation [1..*] -- [1..1] Consultee\n"
    "participation consultedProvider : Consultation [1..*] -- [1..1] HealthcareProvider\n"
    "characterization hasCondition : PathologicalCondition [0..*] -- [1..1] Person\n"
    "characterization hasSeverity : Severity [1..1] -- [1..1] PathologicalCondition\n"
    "comparative moreSevereThan : PathologicalCondition -- PathologicalCondition via Severity desc\n"
)

CLINIC_SCOPE = Scope(per_classifier={
    "Person": 1, "Treatment": 1, "Consultation": 1, "PathologicalCondition": 2,
})


def test_lint_enumerates_once_for_all_its_queries(enumerations):
    # two AP1 witness searches and one AP2 metaproperty check, one rule check
    model = parse_ok(CLINIC)
    diags = lint(model, CLINIC_SCOPE)
    assert [(d.rule_id, d.severity) for d in diags] == [
        ("AP1", Severity.WARNING), ("AP1", Severity.WARNING), ("AP2", Severity.WARNING),
    ]
    assert len(enumerations) == 1 and enumerations[0] is model


@pytest.mark.parametrize("per", [
    {"Person": 2, "Organization": 0, "Treatment": 1, "Consultation": 1, "PathologicalCondition": 1},
    {"Person": 2, "Organization": 1, "Treatment": 2, "Consultation": 1, "PathologicalCondition": 2},
    {"Person": 3, "Organization": 1, "Treatment": 2, "Consultation": 1, "PathologicalCondition": 1},
], ids=["P2O0T1C1PC1", "P2O1T2C1PC2", "P3O1T2C1PC1"])
def test_each_lint_query_generates_only_the_vectors_its_answer_can_sit_in(per, canonicalizations):
    # the benchmark's clinic scopes: a shared stream generated 10, 22 and 17 worlds
    model = parse_ok((MODELS_DIR / "clinic_lint.onto").read_text())
    diags = lint(model, Scope(per_classifier=per, quality_values={"Severity": (3, 50, 97)}))
    assert [(d.rule_id, d.severity) for d in diags] == [
        ("AP1", Severity.WARNING), ("AP1", Severity.WARNING), ("AP2", Severity.WARNING),
    ]
    assert len(canonicalizations) == 5


def test_lint_findings_match_queries_on_fresh_models():
    # each finding equals its query asked alone on a separately parsed model
    diags = lint(parse_ok(CLINIC), CLINIC_SCOPE)
    for d in ap(diags, "AP1"):
        fresh = parse_ok(CLINIC)
        m1, m2 = (fresh.relations[name] for name in d.related)
        goal = Goal(
            typings=(("r", m1.source), ("x", m1.target), ("x", m2.target)),
            links=((m1.name, "r", "x"), (m2.name, "r", "x")),
        )
        assert d.witness == find_witness(fresh, CLINIC_SCOPE, goal)
    (tie,) = ap(diags, "AP2")
    report = check_metaproperties(parse_ok(CLINIC), "moreSevereThan", CLINIC_SCOPE,
                                  strict=False)
    assert (tie.witness, tie.related) == report.counterexample("asymmetric")


@pytest.mark.parametrize("scope, error, message", [
    (Scope(per_classifier={"Persn": 1}), ValueError, "scope names unknown classifier 'Persn'"),
    (Scope(quality_values={"Sev": (1,)}), ValueError, "scope values name unknown quality 'Sev'"),
    (Scope(default_count=99), ScopeTooLargeError, "the hard cap is 14"),
], ids=["classifier", "quality", "hard-cap"])
def test_lint_refuses_a_bad_scope_even_without_queries(scope, error, message):
    # no relator or comparative, so no pattern asks the world finder anything
    with pytest.raises(error, match=message):
        lint(parse_ok(TOY), scope)


def test_lint_without_queries_accepts_a_good_scope():
    assert lint(parse_ok(TOY), Scope(per_classifier={"Person": 2})) == []
