from __future__ import annotations

import pytest

from ontounpack import (
    AlreadyDerivedError,
    Multiplicity,
    NameClashError,
    NotBinaryRelatorError,
    NotMaterialError,
    QualitySpace,
    RelationStereotype,
    Scope,
    Stereotype,
    UnorderedSpaceError,
    UnpackError,
    apply_plan,
    check,
    derive_material_cardinalities,
    emit_json,
    enumerate_worlds,
    parse_text,
    render_dsl,
    unpack_comparative,
    unpack_material,
)
from ontounpack.core import Direction

from conftest import parse_ok

ORDERED = QualitySpace(owner="Age", ordered=(0, 120))


# --- derive_material_cardinalities -----------------------------------------
#
# For a relator R with mediations  R [sA] -- [tA] EndA  and  R [sB] -- [tB] EndB,
# the derived material EndA -- EndB carries (hand-derived, frozen):
#   endA per partner  = sB * tA   (bound-wise product, * absorbing)
#   endB per partner  = sA * tB
#   tuples per pair   = [1 .. min(sA.max, sB.max)]


def _relator_model(sa, ta, sb, tb):
    return parse_ok(
        "model T\n\n"
        "kind Person\nkind Organization\n"
        "role Patient specializes Person\n"
        "subkind Provider specializes Organization\n"
        "relator Treatment\n"
        f"material treatedBy : Patient [1..*] -- [1..*] Provider derivedFrom Treatment [1..*]\n"
        f"mediation mPat : Treatment {sa} -- {ta} Patient\n"
        f"mediation mProv : Treatment {sb} -- {tb} Provider\n"
    )


@pytest.mark.parametrize(
    "sa,ta,sb,tb,expected",
    [
        # the healthcare shape: everybody mandatory, everything unbounded upward
        ("[1..*]", "[1..1]", "[1..*]", "[1..*]",
         ("[1..*]", "[1..*]", "[1..*]")),
        # marriage shape: optional participation, single partners, unique tuple
        ("[0..1]", "[1..1]", "[0..1]", "[1..1]",
         ("[0..1]", "[0..1]", "[1..1]")),
        # asymmetric: two patients per treatment, providers tied to one treatment
        ("[1..*]", "[2..2]", "[1..1]", "[1..1]",
         ("[2..2]", "[1..*]", "[1..1]")),
        # a lower bound of zero propagates from optional membership
        ("[0..*]", "[1..1]", "[1..2]", "[1..1]",
         ("[1..2]", "[0..*]", "[1..2]")),
        # the same with the ends swapped: the bounded side caps tuples per pair
        ("[1..2]", "[1..1]", "[0..*]", "[1..1]",
         ("[0..*]", "[1..2]", "[1..2]")),
    ],
)
def test_derived_cardinalities(sa, ta, sb, tb, expected):
    m = _relator_model(sa, ta, sb, tb)
    got = tuple(str(x) for x in derive_material_cardinalities(m, "Treatment"))
    assert got == expected


def test_derive_on_relator_fixture(relator_model):
    end_a, end_b, per = derive_material_cardinalities(relator_model, "Treatment")
    assert (str(end_a), str(end_b), str(per)) == ("[1..*]", "[1..*]", "[1..*]")


def test_derive_rejects_non_relator(relator_model):
    with pytest.raises(NotBinaryRelatorError):
        derive_material_cardinalities(relator_model, "Person")
    with pytest.raises(NotBinaryRelatorError):
        derive_material_cardinalities(relator_model, "missing")


def test_derive_needs_exactly_two_mediated_ends():
    m = parse_ok("model T\n\nkind A\nrelator R\nmediation m : R [1..*] -- [1..1] A\n")
    with pytest.raises(NotBinaryRelatorError):
        derive_material_cardinalities(m, "R")


# --- unpack_material --------------------------------------------------------


def test_unpack_material_plan_shape(plain_model):
    plan = unpack_material(
        plain_model, "treatedBy",
        relator_name="Treatment", role_names=("Patient", "ProviderRole"),
    )
    by_name = {c.name: c for c in plan.new_classifiers}
    assert by_name["Treatment"].stereotype is Stereotype.RELATOR
    assert by_name["Patient"].stereotype is Stereotype.ROLE
    assert by_name["Patient"].parents == ("Person",)
    assert by_name["ProviderRole"].parents == ("HealthcareProvider",)
    meds = {r.name: r for r in plan.new_relations}
    assert set(meds) == {"mediatesPatient", "mediatesProviderRole"}
    for r in meds.values():
        assert r.stereotype is RelationStereotype.MEDIATION
        assert r.source == "Treatment"
        assert r.source_mult == Multiplicity(1, None)
        assert r.target_mult == Multiplicity(1, 1)
    assert plan.relation.derived_from is not None
    assert plan.relation.derived_from.relator == "Treatment"


def test_unpack_material_roundtrip_clears_check(plain_model):
    before = check(plain_model)
    assert [d.rule_id for d in before] == ["R6"]
    plan = unpack_material(
        plain_model, "treatedBy",
        relator_name="Treatment", role_names=("Patient", "ProviderRole"),
    )
    after = apply_plan(plain_model, plan)
    assert check(after) == []
    # the unpacked model survives both serializations
    assert b"Treatment" in emit_json(after)
    assert "relator Treatment" in render_dsl(after)


def test_unpack_material_moves_the_ends_onto_the_roles(plain_model):
    plan = unpack_material(
        plain_model, "treatedBy",
        relator_name="Treatment", role_names=("Patient", "ProviderRole"),
    )
    assert (plan.relation.source, plan.relation.target) == ("Patient", "ProviderRole")
    after = apply_plan(plain_model, plan)
    treated = after.relations["treatedBy"]
    assert (treated.source, treated.target) == ("Patient", "ProviderRole")
    # the [1..*] bounds bind those who play the roles, not every Person
    scope = Scope(per_classifier={"Person": 1, "Organization": 1, "Treatment": 1},
                  world_limit=10**9)
    worlds = enumerate_worlds(after, scope)
    assert len(worlds) == 7
    assert any(w.extension("Person") and not w.extension("Patient") for w in worlds)


def test_unpack_material_reuses_existing_role():
    m = parse_ok(
        "model T\n\n"
        "kind Person\nkind Organization\n"
        "role Client specializes Person\n"
        "subkind Firm specializes Organization\n"
        "material advises : Client [1..*] -- [1..*] Firm\n"
        "mediation keeps : Engagement [1..*] -- [1..1] Client\n"
        .replace("mediation keeps : Engagement [1..*] -- [1..1] Client\n", "")
    )
    plan = unpack_material(m, "advises", relator_name="Engagement",
                           role_names=("Client", "FirmRole"))
    names = [c.name for c in plan.new_classifiers]
    assert "Client" not in names  # already a role: reused, not redeclared
    after = apply_plan(m, plan)
    assert check(after) == []


SELF_REFERRAL = (
    "model T\n\nkind Person\nrole Client specializes Person\n"
    "material refers : Client [0..*] -- [0..*] Client\n"
)


def test_unpack_material_gives_one_role_at_both_ends_a_new_role_per_end():
    m = parse_ok(SELF_REFERRAL)
    plan = unpack_material(m, "refers", relator_name="Referral", role_names=("A", "B"))
    assert [(c.name, c.stereotype, c.parents) for c in plan.new_classifiers] == [
        ("Referral", Stereotype.RELATOR, ()),
        ("A", Stereotype.ROLE, ("Client",)),
        ("B", Stereotype.ROLE, ("Client",)),
    ]
    assert [(r.name, r.target) for r in plan.new_relations] == [
        ("mediatesA", "A"), ("mediatesB", "B"),
    ]
    refers = plan.relation
    assert (refers.source, refers.target, refers.derived_from.relator) == ("A", "B", "Referral")
    # only the R4 Error the input already had on Client, which no relator justifies
    before = [(d.rule_id, d.related) for d in check(m)]
    after = [(d.rule_id, d.related) for d in check(apply_plan(m, plan))]
    assert after == [d for d in before if d[0] == "R4"] != []


def test_unpack_material_error_paths(relator_model, plain_model):
    with pytest.raises(NotMaterialError):
        unpack_material(relator_model, "involvesPatient",
                        relator_name="X", role_names=("A", "B"))
    with pytest.raises(NotMaterialError):
        unpack_material(relator_model, "missing",
                        relator_name="X", role_names=("A", "B"))
    with pytest.raises(AlreadyDerivedError):
        unpack_material(relator_model, "treatedBy",
                        relator_name="X", role_names=("A", "B"))
    with pytest.raises(NameClashError):
        unpack_material(plain_model, "treatedBy",
                        relator_name="Person", role_names=("A", "B"))
    with pytest.raises(NameClashError):
        unpack_material(plain_model, "treatedBy",
                        relator_name="Treatment", role_names=("Org", "Org"))


# --- unpack_comparative -----------------------------------------------------


def test_unpack_comparative_grounds_material():
    m = parse_ok("model T\n\nkind Person\nmaterial olderThan : Person [0..*] -- [0..*] Person\n")
    plan = unpack_comparative(m, "olderThan", "Age", ORDERED, Direction.DESC)
    assert plan.relation.stereotype is RelationStereotype.COMPARATIVE
    assert plan.relation.via is not None and plan.relation.via.quality == "Age"
    after = apply_plan(m, plan)
    assert check(after) == []
    rel = after.relations["olderThan"]
    assert rel.stereotype is RelationStereotype.COMPARATIVE
    assert rel.via.direction is Direction.DESC
    assert after.spaces["Age"].ordered == (0, 120)
    assert after.relations["hasAge"].stereotype is RelationStereotype.CHARACTERIZATION


def test_unpack_comparative_grounds_two_phases_in_their_shared_kind():
    m = parse_ok("model T\n\nkind Person\nphase Adult specializes Person\n"
                 "phase Child specializes Person\n"
                 "genset Stage disjoint complete general Person specifics Adult, Child\n"
                 "material olderThan : Adult [0..*] -- [0..*] Child\n")
    after = apply_plan(m, unpack_comparative(m, "olderThan", "Age", ORDERED, Direction.DESC))
    assert after.relations["hasAge"].target == "Person"
    assert check(after) == []


def test_unpack_comparative_accepts_direction_string():
    m = parse_ok("model T\n\nkind Person\nmaterial olderThan : Person [0..*] -- [0..*] Person\n")
    plan = unpack_comparative(m, "olderThan", "Age", ORDERED, "asc")
    assert plan.relation.via.direction is Direction.ASC
    render_dsl(apply_plan(m, plan))  # serializable either way


def test_unpack_comparative_reuses_grounded_quality():
    # Severity already grounds PathologicalCondition: no new declarations needed
    m = parse_ok(
        "model T\n\n"
        "mode PathologicalCondition\nquality Severity\n"
        "space Severity ordered 0..100\n"
        "characterization hasSeverity : Severity [1..1] -- [1..1] PathologicalCondition\n"
        "material worseThan : PathologicalCondition [0..*] -- [0..*] PathologicalCondition\n"
    )
    plan = unpack_comparative(m, "worseThan", "Severity", QualitySpace("Severity", (0, 100)),
                              Direction.DESC)
    assert plan.new_classifiers == ()
    assert plan.new_relations == ()
    assert check(apply_plan(m, plan)) == []


def test_unpack_comparative_reuses_a_quality_grounded_through_a_submode():
    # a Person has a Chronic condition's Severity, as R9 and the world finder read it
    m = parse_ok(
        "model T\n\nkind Person\nmode Condition\nmode Chronic specializes Condition\n"
        "quality Severity\nspace Severity ordered 0..9\n"
        "characterization hasSeverity : Severity [1..1] -- [1..1] Condition\n"
        "characterization hasChronic : Chronic [0..*] -- [1..1] Person\n"
        "material worseOff : Person [0..*] -- [0..*] Person\n"
    )
    plan = unpack_comparative(m, "worseOff", "Severity", QualitySpace("Severity", (0, 9)), "desc")
    assert (plan.new_classifiers, plan.new_relations) == ((), ())
    assert check(apply_plan(m, plan)) == []


@pytest.mark.parametrize("bounds, message", [
    ((-1, 5), "space bound must be >= 0, got -1"),
    ((3, 1), "upper bound 1 is below lower bound 3"),
])
@pytest.mark.parametrize("age", ["", "quality Age\nspace Age ordered 0..9\n"])
def test_unpack_comparative_refuses_a_space_the_dsl_cannot_write(bounds, message, age):
    m = parse_ok("model T\n\nkind Person\n" + age
                 + "material olderThan : Person [0..*] -- [0..*] Person\n")
    with pytest.raises(UnorderedSpaceError, match=message):
        unpack_comparative(m, "olderThan", "Age", QualitySpace("Age", bounds), Direction.DESC)


def test_unpack_comparative_keeps_an_existing_quality_only_with_its_space():
    m = parse_ok("model T\n\nkind Person\nquality Age\nspace Age ordered 0..9\n"
                 "material olderThan : Person [0..*] -- [0..*] Person\n")
    for other in (QualitySpace("Age", (0, 5)), QualitySpace("Age", labels=("young", "old"))):
        with pytest.raises(UnorderedSpaceError,
                           match="existing quality 'Age' has space ordered 0..9, not the one"):
            unpack_comparative(m, "olderThan", "Age", other, Direction.DESC)
    plan = unpack_comparative(m, "olderThan", "Age", QualitySpace("Age", (0, 9)), "desc")
    assert plan.new_spaces == ()
    assert apply_plan(m, plan).spaces["Age"].ordered == (0, 9)


def test_unpack_comparative_error_paths(relator_model):
    nominal = QualitySpace(owner="Mood", labels=("good", "bad"))
    m = parse_ok("model T\n\nkind Person\nmaterial likes : Person [0..*] -- [0..*] Person\n")
    two_kinds = parse_ok(
        "model T\n\nkind Person\nkind Robot\n"
        "material beats : Person [0..*] -- [0..*] Robot\n"
    )
    moods = parse_ok("model T\n\nkind Person\nquality Mood\nspace Mood nominal {good, bad}\n"
                     "quality Shade\nmaterial likes : Person [0..*] -- [0..*] Person\n")
    has_age = parse_ok("model T\n\nkind Person\nmaterial likes : Person [0..*] -- [0..*] Person\n"
                       "material hasAge : Person [0..*] -- [0..*] Person\n")
    cases = [
        (m, "likes", "Mood", nominal, UnorderedSpaceError, "needs an ordered space, got nominal"),
        (relator_model, "moreSevereThan", "Severity", ORDERED, AlreadyDerivedError,
         "already grounded via 'Severity'"),
        (relator_model, "involvesPatient", "Age", ORDERED, NotMaterialError, "is mediation"),
        (two_kinds, "beats", "Skill", ORDERED, UnpackError, "share no kind"),
        (m, "ghost", "Age", ORDERED, NotMaterialError, "no relation named 'ghost'"),
        (relator_model, "treatedBy", "Age", ORDERED, AlreadyDerivedError,
         "already derived from 'Treatment'"),
        (m, "likes", "Person", ORDERED, NameClashError, "'Person' is already declared as kind"),
        (moods, "likes", "Mood", ORDERED, UnorderedSpaceError,
         "existing quality 'Mood' has no ordered space"),
        (moods, "likes", "Shade", ORDERED, UnorderedSpaceError,
         "existing quality 'Shade' has no ordered space"),
        (m, "likes", "likes", ORDERED, NameClashError, "name 'likes' is already declared"),
        (has_age, "likes", "Age", ORDERED, NameClashError, "name 'hasAge' is already declared"),
    ]
    for model, relation, quality, space, error, message in cases:
        with pytest.raises(error, match=message):
            unpack_comparative(model, relation, quality, space, "desc")
