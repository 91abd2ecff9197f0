from __future__ import annotations

import pytest

from ontounpack import (
    UnknownClassifierError,
    Verdict,
    classify_pair,
    compare,
    parse_text,
)
from ontounpack.interop import leibniz_surface

from conftest import parse_ok


def verdicts(correspondences, name):
    return [c.verdict for c in correspondences
            if c.left[1] == name and c.right[1] == name]


def test_cross_notation_verdicts(relator_model, event_model):
    out = compare(relator_model, event_model)
    assert verdicts(out, "Treatment") == [
        Verdict.IDENTITY_EXCLUDED, Verdict.MANIFESTATION_CANDIDATE,
    ]
    assert verdicts(out, "Patient") == [
        Verdict.IDENTITY_EXCLUDED, Verdict.HISTORICAL_DEPENDENCE_CANDIDATE,
    ]
    assert verdicts(out, "Person") == [Verdict.IDENTITY_CANDIDATE]
    assert verdicts(out, "Organization") == [Verdict.IDENTITY_CANDIDATE]
    # subkind vs historicalRoleMixin: different top placement, nothing shared
    assert verdicts(out, "HealthcareProvider") == [Verdict.IDENTITY_EXCLUDED]


def test_self_compare_is_pure_identity(relator_model):
    out = compare(relator_model, relator_model)
    names = sorted(relator_model.classifiers)
    assert [c.left[1] for c in out] == names
    assert all(c.verdict is Verdict.IDENTITY_CANDIDATE for c in out)


def test_self_compare_event_fixture(event_model):
    out = compare(event_model, event_model)
    assert all(c.verdict is Verdict.IDENTITY_CANDIDATE for c in out)


def test_rationales_are_populated(relator_model, event_model):
    for c in compare(relator_model, event_model):
        assert c.rationale.strip()


def test_explicit_pairs(relator_model, event_model):
    out = compare(relator_model, event_model, pairs=[("Treatment", "Treatment")])
    assert {c.verdict for c in out} == {
        Verdict.IDENTITY_EXCLUDED, Verdict.MANIFESTATION_CANDIDATE,
    }


def test_unknown_pair_member_raises(relator_model, event_model):
    with pytest.raises(UnknownClassifierError):
        compare(relator_model, event_model, pairs=[("Treatment", "Ghost")])
    with pytest.raises(UnknownClassifierError):
        classify_pair(relator_model, "Ghost", event_model, "Treatment")


def test_same_kind_different_stereotype_suggests_specialization():
    left = parse_ok("model L\n\nkind Person\nsubkind Adult specializes Person\n")
    right = parse_ok("model R\n\nkind Person\nphase Adult specializes Person\n")
    out = classify_pair(left, "Adult", right, "Adult")
    assert [c.verdict for c in out] == [Verdict.SPECIALIZATION_CANDIDATE]


def test_same_stereotype_different_surface_suggests_specialization():
    left = parse_ok("model L\n\nkind Person\n")
    right = parse_ok(
        "model R\n\nkind Person\nquality Height\nspace Height ordered 0..250\n"
        "characterization hasHeight : Height [1..1] -- [1..1] Person\n"
    )
    out = classify_pair(left, "Person", right, "Person")
    assert [c.verdict for c in out] == [Verdict.SPECIALIZATION_CANDIDATE]
    assert "Person" in out[0].rationale


HEIGHT = (
    "quality Height\nspace Height ordered 0..250\n"
    "characterization hasHeight : Height [1..1] -- [1..1] Person\n"
)
MOOD = "mode Mood\ncharacterization feels : Mood [0..*] -- [1..1] Person\n"


@pytest.mark.parametrize("left, right, direction", [
    (HEIGHT, "", "'Person' (L) may specialize 'Person' (R)"),
    (HEIGHT, MOOD, "neither surface contains the other; sibling subtypes of a "
                   "common supertype remain possible"),
], ids=["left_richer", "neither"])
def test_specialization_candidates_name_their_direction(left, right, direction):
    out = classify_pair(parse_ok("model L\n\nkind Person\n" + left), "Person",
                        parse_ok("model R\n\nkind Person\n" + right), "Person")
    assert [c.verdict for c in out] == [Verdict.SPECIALIZATION_CANDIDATE]
    assert out[0].rationale == (
        "declared surroundings differ, so identity would violate the "
        f"indiscernibility of identicals; {direction}"
    )


def test_mode_vs_quality_share_aspect_top():
    left = parse_ok("model L\n\nmode Fear\n")
    right = parse_ok("model R\n\nquality Fear\nspace Fear ordered 0..10\n")
    out = classify_pair(left, "Fear", right, "Fear")
    # same top category (aspect), different stereotype, no shared kind
    assert [c.verdict for c in out] == [Verdict.IDENTITY_EXCLUDED]


def test_relator_vs_event_always_manifestation():
    left = parse_ok("model L\n\nrelator Deal\n")
    right = parse_ok("model R\n\nevent Deal\n")
    out = classify_pair(left, "Deal", right, "Deal")
    assert [c.verdict for c in out] == [
        Verdict.IDENTITY_EXCLUDED, Verdict.MANIFESTATION_CANDIDATE,
    ]


def test_classification_is_total_over_stereotype_grid():
    decls = {
        "kind": "kind X",
        "subkind": "kind K\nsubkind X specializes K",
        "phase": "kind K\nphase X specializes K",
        "role": "kind K\nrole X specializes K",
        "roleMixin": "roleMixin X",
        "historicalRole": "kind K\nhistoricalRole X specializes K",
        "historicalRoleMixin": "historicalRoleMixin X",
        "category": "category X",
        "relator": "relator X",
        "mode": "mode X",
        "quality": "quality X",
        "event": "event X",
    }
    models = {
        s: parse_ok(f"model M_{s}\n\n{body}\n") for s, body in decls.items()
    }
    for ls, lm in models.items():
        for rs, rm in models.items():
            out = classify_pair(lm, "X", rm, "X")
            assert out, (ls, rs)
            assert all(isinstance(c.verdict, Verdict) for c in out)
            assert all(c.rationale for c in out)


def test_leibniz_surface_reflects_relations(relator_model):
    surface = leibniz_surface(relator_model, "Patient")
    assert any(row[0] == "rel" and "involvesPatient" not in row for row in surface)
    # relations on ancestors count: treatedBy reaches Patient via itself
    assert leibniz_surface(relator_model, "Person") <= surface


def test_correspondence_serialization(relator_model, event_model):
    c = compare(relator_model, event_model, pairs=[("Person", "Person")])[0]
    doc = c.to_dict()
    assert doc["left"] == {"model": "HealthcareRelator", "classifier": "Person"}
    assert doc["right"] == {"model": "HealthcareEvent", "classifier": "Person"}
    assert doc["verdict"] == "IdentityCandidate"
    assert isinstance(doc["rationale"], str)


def test_compare_is_deterministic(relator_model, event_model):
    a = compare(relator_model, event_model)
    b = compare(relator_model, event_model)
    assert [(c.left, c.right, c.verdict, c.rationale) for c in a] == [
        (c.left, c.right, c.verdict, c.rationale) for c in b
    ]
