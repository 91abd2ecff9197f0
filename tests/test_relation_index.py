"""The relation index against the full scans it replaced, and a linearity guard.

`Model.relations_from` / `relations_to` read one index built in one pass over
`relations`. The references below scan every relation per question, as the
queries did before the index; results must match in contents and order. The
guard counts whole-model scans of `relations`: `check` and `compare` must scan
a fixed number of times whatever the model's size.
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from ontounpack import (
    RelationStereotype, apply_plan, check, compare, parse_text, unpack_material,
)
from ontounpack.interop import leibniz_surface
from ontounpack.lint import _binding_relations

from conftest import FIXTURES, copies_text, parse_ok, unpacked_copies

BENCH_MODELS = FIXTURES.parent / "perfbench" / "models"
FIXTURE_PATHS = sorted(FIXTURES.glob("*.onto")) + sorted(BENCH_MODELS.glob("*.onto"))


def reference_mediations_of(model, relator):
    owners = model.ancestors_or_self(relator)
    meds = [
        r for r in model.relations.values()
        if r.stereotype is RelationStereotype.MEDIATION and r.source in owners
    ]
    return sorted(meds, key=lambda r: r.name)


def reference_characterizations_of(model, source):
    return sorted(
        (
            r for r in model.relations.values()
            if r.stereotype is RelationStereotype.CHARACTERIZATION and r.source == source
        ),
        key=lambda r: r.name,
    )


def reference_leibniz_surface(model, classifier):
    up = model.ancestors_or_self(classifier)
    rows: set[tuple] = set()
    for r in model.relations.values():
        if r.source in up:
            rows.add(("rel", r.stereotype.value, "source", r.target))
        if r.target in up:
            rows.add(("rel", r.stereotype.value, "target", r.source))
    space = model.spaces.get(classifier)
    if space is not None:
        if space.ordered is not None:
            rows.add(("space", "ordered", space.ordered))
        else:
            rows.add(("space", "nominal", space.labels))
    return frozenset(rows)


def reference_binding_relations(model, owner):
    up = model.ancestors_or_self(owner)
    rels = [
        r for r in model.relations.values()
        if r.stereotype in (RelationStereotype.MEDIATION, RelationStereotype.PARTICIPATION)
        and r.source in up
    ]
    return sorted(rels, key=lambda r: r.name)


def assert_index_matches_scans(model):
    for name in model.classifiers:
        assert model.relations_from(name) == tuple(
            r for r in model.relations.values() if r.source == name
        ), name
        assert model.relations_to(name) == tuple(
            r for r in model.relations.values() if r.target == name
        ), name
        assert model.mediations_of(name) == reference_mediations_of(model, name), name
        assert model.characterizations_of(name) == reference_characterizations_of(model, name), name
        assert leibniz_surface(model, name) == reference_leibniz_surface(model, name), name
        assert _binding_relations(model, name) == reference_binding_relations(model, name), name


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_index_matches_full_scans_on_fixtures(path: Path):
    model = parse_text(path.read_text())
    assert_index_matches_scans(model)


def test_index_matches_full_scans_with_inherited_mediations():
    model = parse_ok(
        "model Inherit\n\n"
        "kind Person\nkind Organization\n"
        "role Patient specializes Person\nrole Provider specializes Organization\n"
        "role Payer specializes Organization\n"
        "relator Treatment\nrelator Surgery specializes Treatment\n"
        "event Visit\n"
        "mediation involvesPatient : Treatment [1..*] -- [1..1] Patient\n"
        "mediation involvesProvider : Treatment [1..*] -- [1..1] Provider\n"
        "mediation billedTo : Surgery [0..*] -- [1..1] Payer\n"
        "participation visitedBy : Visit [1..*] -- [1..1] Patient\n"
    )
    assert [m.name for m in model.mediations_of("Surgery")] == [
        "billedTo", "involvesPatient", "involvesProvider",
    ]
    assert_index_matches_scans(model)


def test_model_from_apply_plan_builds_its_own_index():
    model = parse_ok(copies_text(1))
    assert model.mediations_of("Treatment_c0") == []  # builds the parsed model's index
    plan = unpack_material(model, "treatedBy_c0", "Treatment_c0", ("Patient_c0", "ProviderRole_c0"))
    unpacked = apply_plan(model, plan)
    assert [m.name for m in unpacked.mediations_of("Treatment_c0")] == [
        "mediatesPatient_c0", "mediatesProviderRole_c0",
    ]
    assert_index_matches_scans(unpacked)
    assert_index_matches_scans(unpacked_copies(3))


class CountingRelations(dict):
    """A relations dict that counts how often it is scanned as a whole."""

    scans = 0

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()

    def keys(self):
        self.scans += 1
        return super().keys()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def counting(model):
    return replace(model, relations=CountingRelations(model.relations))


# check's whole-model loops over relations (R4, R6, R7, R9, R10), plus one index build
CHECK_SCANS = 6


@pytest.mark.parametrize("build", [lambda n: parse_ok(copies_text(n)), unpacked_copies],
                         ids=["plain", "unpacked"])
def test_check_and_compare_scan_relations_a_fixed_number_of_times(build):
    for copies in (10, 40):
        model = counting(build(copies))
        check(model)
        assert model.relations.scans == CHECK_SCANS, copies

        left, right = counting(build(copies)), counting(build(copies))
        rows = compare(left, right)
        assert len(rows) == len(left.classifiers)
        assert (left.relations.scans, right.relations.scans) == (1, 1), copies
