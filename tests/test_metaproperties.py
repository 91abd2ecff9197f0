"""`check_metaproperties` against the plain search it replaced.

The reference below tests every asked property in every world of the
stream, stopping only once each has a counterexample. The checker reads
what a comparative's ordered quality entails (all three properties when
strict, transitivity when ties are admitted) and searches only the rest, so
it must return the reference's verdicts and counterexamples, worlds and
individuals in order, on every case here.
"""
from __future__ import annotations

from itertools import combinations
from pathlib import Path

import pytest

from ontounpack import InstanceWorld, Model, RelationStereotype, Scope, check_metaproperties
from ontounpack.worlds import _counterexample, _worlds, eval_comparative

from conftest import load_fixture, parse_ok
from test_acceptance import SEVERITY_MODEL

METAPROPERTIES = ("irreflexive", "asymmetric", "transitive")
MODELS_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "models"

# an asc comparative on each pair of ends, over optional values: a condition
# may carry no urgency, so it takes part in no pair
TRIAGE = (
    "model Triage\n\n"
    "kind Person\n"
    "mode PathologicalCondition\n"
    "quality Urgency\n"
    "space Urgency ordered 0..100\n"
    "characterization hasCondition : PathologicalCondition [0..2] -- [1..1] Person\n"
    "characterization hasUrgency : Urgency [0..1] -- [1..1] PathologicalCondition\n"
    "comparative moreUrgentThan : PathologicalCondition -- PathologicalCondition via Urgency asc\n"
    "comparative seenBefore : Person -- Person via Urgency asc\n"
    "comparative outranks : Person -- PathologicalCondition via Urgency asc\n"
)

LIKES = "model Likes\n\nkind Person\ninternal likes : Person [0..*] -- [0..*] Person\n"


def reference_check_metaproperties(
    model: Model,
    relation: str,
    scope: Scope,
    *,
    strict: bool = True,
    properties: tuple[str, ...] = METAPROPERTIES,
) -> tuple:
    """(irreflexive, asymmetric, transitive, counterexamples), each asked property searched for."""
    rel = model.relations[relation]
    asked = [p for p in METAPROPERTIES if p in properties]
    counter: dict[str, tuple[InstanceWorld, tuple[str, ...]]] = {}
    for world in _worlds(model, scope):
        if rel.stereotype is RelationStereotype.COMPARATIVE:
            pairs = eval_comparative(world, model, relation, strict=strict)
        else:
            pairs = {(s, t) for r, s, t in world.links if r == relation}
        for prop in asked:
            if prop not in counter:
                ids = _counterexample(prop, pairs)
                if ids is not None:
                    counter[prop] = (world, ids)
        if len(counter) == len(asked):
            break
    verdicts = tuple((p not in counter) if p in asked else None for p in METAPROPERTIES)
    return verdicts + (
        tuple((name, world, ids) for name, (world, ids) in sorted(counter.items())),
    )


def observed(report) -> tuple:
    return (report.irreflexive, report.asymmetric, report.transitive, report.counterexamples)


SUBSETS = [s for n in (1, 2, 3) for s in combinations(METAPROPERTIES, n)]

MODELS = {
    "healthcare_relator": lambda: load_fixture("healthcare_relator.onto"),
    **{f"perfbench_{stem}": (lambda stem=stem: parse_ok((MODELS_DIR / f"{stem}.onto").read_text()))
       for stem in ("clinic_lint", "healthcare_relator", "severity_case")},
    "acceptance_severity": lambda: parse_ok(SEVERITY_MODEL),
    "triage_asc": lambda: parse_ok(TRIAGE),
}

# (default count, per-classifier counts): the first has no PathologicalCondition
SCOPES = [
    (1, {"PathologicalCondition": 0}),
    (1, {"PathologicalCondition": 2}),
    (0, {"Person": 2, "PathologicalCondition": 3}),
    (0, {"Person": 3, "PathologicalCondition": 4}),
]


@pytest.mark.parametrize("values", [(3, 50, 97), (7,)], ids=["3-50-97", "all-tie"])
@pytest.mark.parametrize("default, per", SCOPES, ids=["no-condition", "PC2", "P2PC3", "P3PC4"])
@pytest.mark.parametrize("name", list(MODELS))
def test_verdicts_and_counterexamples_are_the_references(name, default, per, values):
    model = MODELS[name]()
    comparatives = [r for r in model.relations.values()
                    if r.stereotype is RelationStereotype.COMPARATIVE]
    assert comparatives
    quality_values = {q: values for q in {r.via.quality for r in comparatives}}
    scope = Scope(per_classifier=per, default_count=default, quality_values=quality_values)
    found = 0
    for rel in comparatives:
        for strict in (True, False):
            for properties in SUBSETS:
                expected = reference_check_metaproperties(
                    model, rel.name, scope, strict=strict, properties=properties)
                report = check_metaproperties(
                    model, rel.name, scope, strict=strict, properties=properties)
                assert observed(report) == expected, (rel.name, strict, properties)
                assert report.entailed == tuple(
                    p for p in properties if strict or p == "transitive")
                found += len(report.counterexamples)
    # ties make counterexamples wherever a relatum can have a value
    assert (found == 0) == (per["PathologicalCondition"] == 0)


def test_an_internal_relation_is_searched():
    model = parse_ok(LIKES)
    scope = Scope(per_classifier={"Person": 2})
    report = check_metaproperties(model, "likes", scope)
    assert (report.irreflexive, report.asymmetric, report.transitive) == (False, False, False)
    assert report.entailed == ()
    assert [name for name, _, _ in report.counterexamples] == sorted(METAPROPERTIES)
    for prop, world, ids in report.counterexamples:
        pairs = {(s, t) for r, s, t in world.links if r == "likes"}
        assert _counterexample(prop, pairs) == ids
    assert observed(report) == reference_check_metaproperties(model, "likes", scope)
    # strict is about comparatives: it entails nothing for an internal relation
    lax = check_metaproperties(model, "likes", scope, strict=False)
    assert observed(lax) == observed(report) and lax.entailed == ()

