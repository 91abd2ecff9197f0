from __future__ import annotations

import pytest

from ontounpack import (
    AmbiguousKindError,
    Multiplicity,
    NoKindError,
    QualitySpace,
    Stereotype,
    identity_root,
    rigidity,
    ultimate_kind,
)
from ontounpack.core import (
    ANTI_RIGID,
    HISTORICAL,
    MOMENT_ROOTS,
    NON_SORTALS,
    ROLE_FAMILY,
    SORTALS,
    Rigidity,
)

from conftest import parse_ok


def test_stereotype_partition():
    # every class stereotype is exactly one of: sortal, non-sortal, moment root, quality
    covered = SORTALS | NON_SORTALS | MOMENT_ROOTS | {Stereotype.QUALITY}
    assert covered == frozenset(Stereotype)
    assert not SORTALS & NON_SORTALS
    assert not (SORTALS | NON_SORTALS) & MOMENT_ROOTS


def test_role_family_is_anti_rigid():
    assert ROLE_FAMILY <= ANTI_RIGID
    assert Stereotype.PHASE in ANTI_RIGID
    assert Stereotype.KIND not in ANTI_RIGID
    assert HISTORICAL <= ROLE_FAMILY


def test_rigidity_of_classifiers(relator_model):
    assert rigidity(relator_model.classifiers["Person"]) is Rigidity.RIGID
    assert rigidity(relator_model.classifiers["UnhealthyPerson"]) is Rigidity.ANTI_RIGID
    assert rigidity(relator_model.classifiers["Patient"]) is Rigidity.ANTI_RIGID
    assert rigidity(relator_model.classifiers["Treatment"]) is Rigidity.RIGID


class TestMultiplicity:
    def test_str_forms(self):
        assert str(Multiplicity(1, None)) == "[1..*]"
        assert str(Multiplicity(0, 1)) == "[0..1]"
        assert str(Multiplicity(2, 2)) == "[2..2]"

    def test_admits(self):
        m = Multiplicity(1, None)
        assert not m.admits(0)
        assert m.admits(1) and m.admits(100)
        assert Multiplicity(0, 1).admits(0)
        assert not Multiplicity(0, 1).admits(2)

    def test_unbounded(self):
        assert Multiplicity(0, None).unbounded
        assert not Multiplicity(0, 3).unbounded

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Multiplicity(3, 1)


class TestQualitySpace:
    def test_ordered_contains(self):
        sp = QualitySpace(owner="Severity", ordered=(0, 10))
        assert sp.is_ordered
        assert sp.contains(0) and sp.contains(10)
        assert not sp.contains(11)
        assert not sp.contains("low")

    def test_nominal_contains(self):
        sp = QualitySpace(owner="Color", labels=("red", "blue"))
        assert not sp.is_ordered
        assert sp.contains("red")
        assert not sp.contains("green")


class TestHierarchy:
    def test_ancestors_and_descendants(self, relator_model):
        m = relator_model
        assert m.ancestors("Patient") == {"UnhealthyPerson", "Person"}
        assert "Patient" in m.ancestors_or_self("Patient")
        assert m.descendants("Person") == {"UnhealthyPerson", "Patient"}
        assert m.ancestors("Person") == frozenset()

    def test_multiple_parents(self, event_model):
        m = event_model
        assert m.ancestors("IndividualHealthcareProvider") == {"Person", "HealthcareProvider"}

    def test_kinds_reached(self, event_model):
        m = event_model
        assert m.kinds_reached("IndividualHealthcareProvider") == {"Person"}
        # ancestor-walk only: a parentless mixin reaches no kind by itself
        assert m.kinds_reached("HealthcareProvider") == frozenset()
        assert m.sortal_descendants_or_self("HealthcareProvider") == {
            "IndividualHealthcareProvider",
            "InstitutionalHealthcareProvider",
        }


class TestIdentity:
    def test_ultimate_kind(self, relator_model):
        assert ultimate_kind(relator_model, "Patient") == "Person"
        assert ultimate_kind(relator_model, "Person") == "Person"

    def test_no_kind_raises(self):
        m = parse_ok("model T\n\nsubkind Loner\n")
        with pytest.raises(NoKindError):
            ultimate_kind(m, "Loner")

    def test_ambiguous_kind_raises(self):
        m = parse_ok(
            "model T\n\nkind A\nkind B\nsubkind Both specializes A, B\n"
        )
        with pytest.raises(AmbiguousKindError):
            ultimate_kind(m, "Both")

    def test_identity_root_for_sortals(self, relator_model):
        assert identity_root(relator_model, "Patient") == "Person"
        assert identity_root(relator_model, "Person") == "Person"

    def test_identity_root_for_moments(self, relator_model):
        assert identity_root(relator_model, "Treatment") == "Treatment"
        assert identity_root(relator_model, "PathologicalCondition") == "PathologicalCondition"
        # a category above a mode supplies no identity; a relator above one does
        m = parse_ok("model T\n\ncategory C\nmode M specializes C\n"
                     "relator R\nrelator S specializes R\n")
        assert (identity_root(m, "M"), identity_root(m, "S")) == ("M", "R")

    def test_identity_root_none_for_qualities_and_mixins(self, relator_model, event_model):
        assert identity_root(relator_model, "Severity") is None
        assert identity_root(event_model, "HealthcareProvider") is None
