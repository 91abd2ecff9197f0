from __future__ import annotations

import dataclasses
import gc
import json
import re
import weakref
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ontounpack.worlds

from ontounpack import (
    EMPTY_WORLD,
    Classifier,
    Goal,
    IllFormedModelError,
    InstanceWorld,
    MissingQualityValueError,
    RelationDecl,
    RelationStereotype,
    Scope,
    ScopeTooLargeError,
    Stereotype,
    UnpackPlan,
    apply_plan,
    check_metaproperties,
    enumerate_worlds,
    eval_comparative,
    find_witness,
    goal_holds,
    validate_world,
)

from ontounpack.core import Multiplicity, identity_root
from ontounpack.jsonio import dumps_indented
from ontounpack.worlds import MAX_TOTAL_INDIVIDUALS

from conftest import assert_no_isomorphic_pair, load_fixture, parse_ok

TOY = "model Toy\n\nkind Person\nphase Happy specializes Person\n"

SEVERITY = (
    "model SeverityToy\n\n"
    "kind Person\n"
    "mode PathologicalCondition\n"
    "quality Severity\n"
    "space Severity ordered 0..100\n"
    "characterization hasCondition : PathologicalCondition [0..2] -- [1..1] Person\n"
    "characterization hasSeverity : Severity [1..1] -- [1..1] PathologicalCondition\n"
    "comparative moreSevereThan : PathologicalCondition -- PathologicalCondition via Severity desc\n"
    "comparative moreSeriousThan : Person -- Person via Severity desc\n"
)

# Spouse is a role with a defining mediation, and also the source of `loves`
MARRIAGE = (
    "model Marriages\n\n"
    "kind Person\n"
    "role Spouse specializes Person\n"
    "relator Marriage\n"
    "mediation involves : Marriage [1..1] -- [2..2] Spouse\n"
    "internal loves : Spouse [0..*] -- [0..1] Person\n"
)


def unlimited(**per) -> Scope:
    return Scope(per_classifier=per, world_limit=10**9)


# --- enumeration oracles ----------------------------------------------------


def test_zero_scope_yields_only_the_empty_world():
    m = parse_ok(TOY)
    worlds = enumerate_worlds(m, unlimited(Person=0))
    assert worlds == [EMPTY_WORLD]


def test_kind_plus_phase_world_count():
    # hand count at cap 2: {} | {P} {PH} | {PP} {P PH} {PH PH}  ->  6
    m = parse_ok(TOY)
    worlds = enumerate_worlds(m, unlimited(Person=2))
    assert len(worlds) == 6
    happy_counts = sorted(len(w.extension("Happy")) for w in worlds)
    assert happy_counts == [0, 0, 0, 1, 1, 2]


def test_kind_plus_phase_scope_three():
    # 1 + 2 + 3 + 4 profile multisets
    m = parse_ok(TOY)
    assert len(enumerate_worlds(m, unlimited(Person=3))) == 10


def test_relator_fixture_scope_one(relator_model):
    # hand-verified census: 28 distinct configurations at one individual per base
    worlds = enumerate_worlds(relator_model, Scope(default_count=1, world_limit=10**9))
    assert len(worlds) == 28


def test_to_dict_hands_over_the_worlds_own_rows(relator_model):
    # the JSON writer spells a tuple as a list, so the rows need no list copies
    scope = Scope(default_count=1, quality_values={"Severity": (1, 2)}, world_limit=10**9)
    worlds = enumerate_worlds(relator_model, scope)
    assert any(w.links for w in worlds) and any(w.value_rows for w in worlds)
    docs = [w.to_dict() for w in worlds]
    for w, doc in zip(worlds, docs):
        assert doc["individuals"] is w.individuals
        assert doc["links"] is w.links
        assert doc["qualityValues"] is w.value_rows
        assert list(doc["typeAssignments"]) == [ind for ind, _ in w.type_rows]
        assert all(doc["typeAssignments"][ind] is ts for ind, ts in w.type_rows)
    as_lists = [{
        "individuals": [list(row) for row in w.individuals],
        "typeAssignments": {ind: list(ts) for ind, ts in w.type_rows},
        "links": [list(row) for row in w.links],
        "qualityValues": [list(row) for row in w.value_rows],
    } for w in worlds]
    assert dumps_indented(docs) == dumps_indented(as_lists)
    assert dumps_indented(docs) == json.dumps(as_lists, sort_keys=True, indent=2)


def test_severity_model_world_count():
    # hand count: empty=1; one person 1+3+6=10; two persons 1+3+6+6+18=34
    m = parse_ok(SEVERITY)
    worlds = enumerate_worlds(m, unlimited(Person=2, PathologicalCondition=3))
    assert len(worlds) == 45


def test_enumeration_is_deterministic(relator_model):
    scope = Scope(default_count=1, world_limit=10**9)
    a = enumerate_worlds(relator_model, scope)
    b = enumerate_worlds(relator_model, scope)
    assert a == b


def test_world_limit_truncates(relator_model):
    scope = Scope(default_count=1, world_limit=5)
    assert len(enumerate_worlds(relator_model, scope)) == 5


def test_every_world_validates(relator_model, event_model):
    cases = [
        (parse_ok(TOY), unlimited(Person=3)),
        (parse_ok(SEVERITY), unlimited(Person=2, PathologicalCondition=3)),
        (relator_model, Scope(default_count=1, world_limit=10**9)),
        (event_model, unlimited(Person=2, Treatment=2, Organization=1)),
    ]
    for model, scope in cases:
        worlds = enumerate_worlds(model, scope)
        assert worlds, model.name
        for w in worlds:
            assert validate_world(model, w, scope) == [], (model.name, w)


def test_memberships_are_justified(relator_model):
    # a Patient must be mediated; a mediated person must be a Patient
    for w in enumerate_worlds(relator_model, Scope(default_count=2, world_limit=10**9)):
        mediated = {t for r, s, t in w.links if r == "involvesPatient"}
        assert mediated == set(w.extension("Patient"))


def test_scope_guard():
    m = parse_ok(TOY)
    with pytest.raises(ScopeTooLargeError):
        enumerate_worlds(m, unlimited(Person=15))


def test_ill_formed_model_is_refused(plain_model):
    with pytest.raises(IllFormedModelError) as exc:
        enumerate_worlds(plain_model, Scope(default_count=1))
    assert any(d.rule_id == "R6" for d in exc.value.diagnostics)


def test_explicit_entry_caps_roles(relator_model):
    scope = Scope(per_classifier={"Person": 2, "Patient": 1, "Organization": 1,
                                  "Treatment": 1, "PathologicalCondition": 0},
                  world_limit=10**9)
    worlds = enumerate_worlds(relator_model, scope)
    assert worlds
    assert all(len(w.extension("Patient")) <= 1 for w in worlds)


def test_links_come_only_from_instances_of_their_source():
    # hand count: without a marriage, 0-2 people (3); with one, two spouses
    # each loving nobody, themself or the other, up to swapping them (6)
    m = parse_ok(MARRIAGE)
    scope = unlimited(Person=2, Marriage=1)
    worlds = enumerate_worlds(m, scope)
    assert len(worlds) == 9
    for w in worlds:
        assert validate_world(m, w, scope) == [], w
        assert {s for r, s, _ in w.links if r == "loves"} <= set(w.extension("Spouse"))


# --- canonical form: no two emitted worlds are isomorphic -------------------


@pytest.mark.parametrize(
    "text,scope_kw",
    [
        (TOY, {"Person": 3}),
        (SEVERITY, {"Person": 2, "PathologicalCondition": 3}),
        (None, None),  # relator fixture at pair-scope, filled in below
    ],
)
def test_no_isomorphic_duplicates(text, scope_kw, request):
    if text is None:
        model = request.getfixturevalue("relator_model")
        scope = Scope(per_classifier={"Person": 2, "Organization": 1, "Treatment": 2,
                                      "PathologicalCondition": 1}, world_limit=10**9)
    else:
        model = parse_ok(text)
        scope = unlimited(**scope_kw)
    assert_no_isomorphic_pair(enumerate_worlds(model, scope))


# --- goals and witnesses -----------------------------------------------------


def test_goal_requires_typed_variables():
    with pytest.raises(ValueError):
        Goal(typings=(("x", "Person"),), links=(("r", "x", "y"),))


def test_goal_holds_on_a_toy_world():
    w = InstanceWorld(
        individuals=(("Person_0", "Person"),),
        type_rows=(("Person_0", ("Happy", "Person")),),
    )
    assert goal_holds(w, Goal(typings=(("x", "Happy"),)))
    assert not goal_holds(w, Goal(typings=(("x", "Sad"),)))


def test_find_witness_criterion_shape(event_model):
    goal = Goal(
        typings=(
            ("x", "Patient"),
            ("x", "IndividualHealthcareProvider"),
            ("t", "Treatment"),
        ),
        links=(
            ("participatesPatient", "t", "x"),
            ("participatesProvider", "t", "x"),
        ),
    )
    scope = Scope(per_classifier={"Person": 1, "Treatment": 1, "Organization": 0})
    w = find_witness(event_model, scope, goal)
    assert w is not None
    assert goal_holds(w, goal)
    assert validate_world(event_model, w, scope) == []


def test_find_witness_reports_unsatisfiable(event_model):
    goal = Goal(
        typings=(("x", "InstitutionalHealthcareProvider"), ("y", "Patient")),
        links=(("participatesPatient", "x", "y"),),
    )
    scope = Scope(per_classifier={"Person": 1, "Organization": 1, "Treatment": 1})
    assert find_witness(event_model, scope, goal) is None


# --- comparative evaluation ---------------------------------------------------


def _severity_world(**sev_by_condition):
    """People p1, p2 carrying the given conditions; c->(person, severity)."""
    persons = sorted({p for p, _ in sev_by_condition.values()})
    individuals = tuple((p, "Person") for p in persons) + tuple(
        (c, "PathologicalCondition") for c in sorted(sev_by_condition)
    )
    type_rows = tuple((p, ("Person",)) for p in persons) + tuple(
        (c, ("PathologicalCondition",)) for c in sorted(sev_by_condition)
    )
    links = tuple(
        ("hasCondition", c, owner) for c, (owner, _) in sorted(sev_by_condition.items())
    )
    values = tuple(
        ("Severity", c, sev) for c, (_, sev) in sorted(sev_by_condition.items())
    )
    return InstanceWorld(individuals, type_rows, links, values)


def test_eval_comparative_direct_values():
    m = parse_ok(SEVERITY)
    w = _severity_world(c0=("p1", 7), c1=("p1", 5), c2=("p2", 3))
    strict = eval_comparative(w, m, "moreSevereThan")
    assert strict == {("c0", "c1"), ("c0", "c2"), ("c1", "c2")}
    lax = eval_comparative(w, m, "moreSevereThan", strict=False)
    assert ("c0", "c0") in lax and ("c1", "c1") in lax
    assert strict < lax


def test_eval_comparative_mode_hop():
    m = parse_ok(SEVERITY)
    w = _severity_world(c0=("p1", 7), c1=("p1", 5), c2=("p2", 3))
    pairs = eval_comparative(w, m, "moreSeriousThan")
    # person values are their conditions' severities; desc compares maxima
    assert pairs == {("p1", "p2")}


def test_eval_comparative_skips_unvalued_optional_bearers():
    m = parse_ok(SEVERITY)
    w = _severity_world(c0=("p1", 7))
    # p3 exists but carries no condition: excluded from pairs, not an error
    w = InstanceWorld(
        w.individuals + (("p3", "Person"),),
        w.type_rows + (("p3", ("Person",)),),
        w.links,
        w.value_rows,
    )
    assert eval_comparative(w, m, "moreSeriousThan") == set()


def test_eval_comparative_requires_mandatory_values():
    m = parse_ok(SEVERITY)
    w = _severity_world(c0=("p1", 7))
    stripped = InstanceWorld(w.individuals, w.type_rows, w.links, ())
    with pytest.raises(MissingQualityValueError):
        eval_comparative(stripped, m, "moreSevereThan")


def test_eval_comparative_requires_mandatory_values_through_the_mode():
    # a Person's Severity is read off its conditions, each of which needs one
    m = parse_ok(SEVERITY)
    w = _severity_world(c0=("p1", 7))
    stripped = InstanceWorld(w.individuals, w.type_rows, w.links, ())
    with pytest.raises(MissingQualityValueError, match="^'c0' lacks a value for 'Severity'$"):
        eval_comparative(stripped, m, "moreSeriousThan")


def test_eval_comparative_refuses_a_non_comparative():
    w = _severity_world(c0=("p1", 7))
    with pytest.raises(ValueError, match="^'hasCondition' is not a grounded comparative"):
        eval_comparative(w, parse_ok(SEVERITY), "hasCondition")


def test_eval_comparative_refuses_a_quality_without_an_ordered_space():
    # R9 refuses such a model, but eval_comparative does not rely on it
    m = parse_ok(SEVERITY.replace("ordered 0..100", "nominal {low, high}"))
    w = _severity_world(c0=("p1", 7))
    with pytest.raises(ValueError, match="^quality 'Severity' of 'moreSevereThan' has no "
                                         "ordered space$"):
        eval_comparative(w, m, "moreSevereThan")


def test_tie_semantics():
    m = parse_ok(SEVERITY)
    w = _severity_world(c0=("p1", 4), c1=("p2", 4))
    assert eval_comparative(w, m, "moreSevereThan") == set()
    lax = eval_comparative(w, m, "moreSevereThan", strict=False)
    assert lax == {("c0", "c0"), ("c0", "c1"), ("c1", "c0"), ("c1", "c1")}


# --- metaproperty checking ----------------------------------------------------


def test_metaproperties_strict_comparative_is_strict_order():
    m = parse_ok(SEVERITY)
    scope = Scope(per_classifier={"Person": 2, "PathologicalCondition": 2},
                  quality_values={"Severity": (0, 1, 2)})
    rep = check_metaproperties(m, "moreSevereThan", scope)
    assert (rep.irreflexive, rep.asymmetric, rep.transitive) == (True, True, True)
    assert rep.counterexamples == ()


def test_metaproperties_non_strict_fails_asymmetry():
    m = parse_ok(SEVERITY)
    scope = Scope(per_classifier={"Person": 2, "PathologicalCondition": 2},
                  quality_values={"Severity": (0, 1, 2)})
    rep = check_metaproperties(m, "moreSevereThan", scope, strict=False)
    assert rep.asymmetric is False
    world, ids = rep.counterexample("asymmetric")
    x, y = ids
    pairs = eval_comparative(world, m, "moreSevereThan", strict=False)
    assert (x, y) in pairs and (y, x) in pairs


def test_metaproperties_rejects_unknown_relations(relator_model):
    with pytest.raises(ValueError):
        check_metaproperties(relator_model, "nope")
    with pytest.raises(ValueError):
        check_metaproperties(relator_model, "involvesPatient")


def test_metareport_serializes():
    m = parse_ok(SEVERITY)
    scope = Scope(per_classifier={"Person": 1, "PathologicalCondition": 1},
                  quality_values={"Severity": (0, 1)})
    rep = check_metaproperties(m, "moreSevereThan", scope)
    doc = rep.to_dict()
    assert doc["relation"] == "moreSevereThan"
    assert set(doc) >= {"relation", "irreflexive", "asymmetric", "transitive"}
    assert doc["entailed"] == ["irreflexive", "asymmetric", "transitive"]


# --- scope plumbing -----------------------------------------------------------


def test_scope_rejects_bad_counts():
    with pytest.raises(ValueError):
        Scope(per_classifier={"Person": -1})
    with pytest.raises(ValueError):
        Scope(world_limit=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"per_classifier": {"Person": 2.5}}, "scope count for 'Person' must be an int, got 2.5"),
    ({"per_classifier": {"Person": "2"}}, "scope count for 'Person' must be an int, got '2'"),
    ({"per_classifier": {"Person": True}}, "scope count for 'Person' must be an int, got True"),
    ({"default_count": 1.0}, "default scope count must be an int, got 1.0"),
    ({"default_count": False}, "default scope count must be an int, got False"),
    ({"world_limit": 2.5}, "world limit must be an int, got 2.5"),
    ({"world_limit": True}, "world limit must be an int, got True"),
], ids=["float-count", "str-count", "bool-count", "float-default", "bool-default",
        "float-limit", "bool-limit"])
def test_scope_refuses_counts_that_are_not_ints(kwargs, message):
    # refused here, not later in the world finder or as a TypeError
    with pytest.raises(ValueError, match=re.escape(message)):
        Scope(**kwargs)


def test_scope_value_validation():
    m = parse_ok(SEVERITY)
    for values in ((0, 5, 999), (True,)):  # a bool is no value of an ordered space
        scope = Scope(per_classifier={"Person": 1, "PathologicalCondition": 1},
                      quality_values={"Severity": values})
        with pytest.raises(ValueError):
            enumerate_worlds(m, scope)


def test_scope_refuses_values_of_mixed_types():
    # worlds sort by their values, and 1 and 'a' do not compare
    with pytest.raises(ValueError, match="values of quality 'Mood' mix types"):
        Scope(per_classifier={"Person": 2}, quality_values={"Mood": (1, "a")})
    Scope(quality_values={"Mood": ("a", "b"), "Severity": (1, 2)})  # per quality is fine


@pytest.mark.parametrize("kwargs, message", [
    ({"per_classifier": [("Person", 1), ("Person", 2)]},
     "scope names classifier 'Person' more than once"),
    ({"quality_values": [("Severity", (1,)), ("Severity", (2,))]},
     "scope names quality 'Severity' more than once"),
], ids=["classifier", "quality"])
def test_scope_refuses_a_name_given_twice(kwargs, message):
    # kept, the count's last entry and the values' first one would each win
    with pytest.raises(ValueError, match=re.escape(message)):
        Scope(**kwargs)
    # a scope's own normalized fields still build it again (dataclasses.replace does so)
    s = Scope(per_classifier={"Person": 1, "PathologicalCondition": 2}, default_count=1,
              quality_values={"Severity": (1, 2)}, world_limit=7)
    assert Scope(per_classifier=s.per_classifier, default_count=s.default_count,
                 quality_values=s.quality_values, world_limit=s.world_limit) == s
    assert dataclasses.replace(s, world_limit=8) == Scope(
        per_classifier=s.per_classifier, default_count=1, quality_values=s.quality_values,
        world_limit=8)


@pytest.mark.parametrize("values", [(1, 1), (1, 2, 1), ("a", "b", "b")],
                         ids=["twice", "apart", "label"])
def test_scope_refuses_a_value_given_twice(values):
    # a repeated value gives no world more; it only repeats the work for it
    repeated = values[-1]
    with pytest.raises(ValueError, match=re.escape(
            f"scope values of quality 'Severity' give {repeated!r} more than once")):
        Scope(quality_values={"Severity": values})


@pytest.mark.parametrize("values", ["abc", b"abc", 5], ids=["str", "bytes", "int"])
def test_scope_refuses_values_that_are_not_a_collection(values):
    # a str or bytes would give one value per character, and an int no list at all
    with pytest.raises(ValueError, match="scope values of quality 'Mood' must be a collection"):
        Scope(quality_values={"Mood": values})


@pytest.mark.parametrize("scope, message", [
    (Scope(per_classifier={"Persn": 1}), "scope names unknown classifier 'Persn'"),
    (Scope(quality_values={"Sevrity": (500,)}), "scope values name unknown quality 'Sevrity'"),
    (Scope(quality_values={"Person": (1,)}), "scope values name unknown quality 'Person'"),
], ids=["classifier", "quality", "not-a-quality"])
def test_unknown_scope_names_are_refused(scope, message):
    m = parse_ok(SEVERITY)
    with pytest.raises(ValueError, match=message):
        enumerate_worlds(m, scope)
    with pytest.raises(ValueError, match=message):
        find_witness(m, scope, Goal(typings=(("x", "Person"),)))


def test_default_quality_values_are_lowest_three():
    m = parse_ok(SEVERITY)
    worlds = enumerate_worlds(m, unlimited(Person=1, PathologicalCondition=1))
    seen = {v for w in worlds for _, _, v in w.value_rows}
    assert seen == {0, 1, 2}


MOODS = (
    "model Moods\n\nkind Person\nquality Mood\n"
    "characterization hasMood : Mood [1..1] -- [1..1] Person\n"
)


def test_default_nominal_values_are_the_first_three_labels():
    m = parse_ok(MOODS + "space Mood nominal {calm, glad, sad, cross}\n")
    worlds = enumerate_worlds(m, unlimited(Person=1))
    assert sorted(v for w in worlds for _, _, v in w.value_rows) == ["calm", "glad", "sad"]


def test_a_quality_without_a_space_needs_scope_values():
    m = parse_ok(MOODS)
    with pytest.raises(ValueError, match="'Mood' has no declared space and no scope values"):
        enumerate_worlds(m, unlimited(Person=1))
    assert len(enumerate_worlds(m, Scope(per_classifier={"Person": 1},
                                         quality_values={"Mood": ("calm",)}))) == 2


@pytest.mark.parametrize("people, count", [(1, 5), (2, 15), (3, 35)])
def test_optional_values_on_a_pure_base_are_canonicalized_once(canonicalizations, people, count):
    # Person is never a link target, so its optional Mood is chosen with the
    # Person's multiset option and never enumerated a second time
    model = parse_ok(
        "model Moods\n\nkind Person\nquality Mood\nspace Mood ordered 0..9\n"
        "characterization hasMood : Mood [0..1] -- [1..1] Person\n"
    )
    worlds = enumerate_worlds(model, unlimited(Person=people))
    assert len(worlds) == count
    assert len(canonicalizations) == count
    assert_no_isomorphic_pair(worlds)


# --- one rule check per model -------------------------------------------------


def test_metaproperty_checks_on_one_model_check_it_once(enumerations):
    scope = unlimited(Person=2, PathologicalCondition=3)
    model = parse_ok(SEVERITY)
    asks = [("moreSevereThan", True), ("moreSeriousThan", True), ("moreSevereThan", False)]
    reports = [check_metaproperties(model, rel, scope, strict=strict) for rel, strict in asks]
    assert enumerations == [model]  # the rule check runs once per Model instance
    fresh = [check_metaproperties(parse_ok(SEVERITY), rel, scope, strict=strict)
             for rel, strict in asks]
    assert reports == fresh
    assert not reports[2].asymmetric


def test_world_limit_takes_the_first_worlds_of_the_stream(enumerations):
    per = {"Person": 2, "PathologicalCondition": 3}
    model = parse_ok(SEVERITY)
    assert len(enumerate_worlds(model, Scope(per_classifier=per, world_limit=1))) == 1
    full = enumerate_worlds(model, Scope(per_classifier=per, world_limit=10**9))
    assert len(full) == 45
    assert enumerations == [model]
    assert full == enumerate_worlds(parse_ok(SEVERITY), unlimited(**per))


def test_each_scope_gets_its_own_worlds(enumerations):
    model = parse_ok(TOY)
    counts = [len(enumerate_worlds(model, unlimited(Person=n))) for n in (2, 3, 2)]
    assert counts == [6, 10, 6]
    assert enumerations == [model]  # the rule check runs once per Model instance


def test_equal_values_of_another_type_get_their_own_worlds():
    # a quality with no declared space takes the scope's values as given
    model = parse_ok(
        "model Moods\n\nkind Person\nquality Mood\n"
        "characterization hasMood : Mood [1..1] -- [1..1] Person\n"
    )
    for value in (1, 1.0):
        worlds = enumerate_worlds(model, Scope(per_classifier={"Person": 1},
                                               quality_values={"Mood": (value,)}))
        (seen,) = [v for w in worlds for _, _, v in w.value_rows]
        assert type(seen) is type(value)


def test_mutating_a_returned_list_leaves_the_next_result_alone():
    model = parse_ok(TOY)
    scope = unlimited(Person=2)
    worlds = enumerate_worlds(model, scope)
    expected = list(worlds)
    worlds.clear()
    assert enumerate_worlds(model, scope) == expected


def test_hard_cap_applies_to_an_enumerated_scope():
    model = parse_ok(TOY)
    assert len(enumerate_worlds(model, unlimited(Person=3))) == 10
    with pytest.raises(ScopeTooLargeError):
        enumerate_worlds(model, unlimited(Person=15))


def test_a_model_from_apply_plan_gets_its_own_worlds():
    model = parse_ok(TOY)
    scope = unlimited(Person=1)
    assert len(enumerate_worlds(model, scope)) == 3
    likes = RelationDecl("likes", RelationStereotype.INTERNAL, "Person", "Person",
                         Multiplicity(0, None), Multiplicity(0, None))
    plan = UnpackPlan(
        relation=likes,
        new_classifiers=(Classifier("Sad", Stereotype.PHASE, ("Person",)),),
    )
    grown = apply_plan(model, plan)  # a relation the model lacks is added
    expected = enumerate_worlds(parse_ok(
        TOY + "phase Sad specializes Person\ninternal likes : Person [0..*] -- [0..*] Person\n"
    ), scope)
    assert len(expected) > 3
    assert enumerate_worlds(grown, scope) == expected


# --- a size-ordered, stoppable stream of worlds ---------------------------------

RELATOR_P3O3T3PC1 = {"Person": 3, "Organization": 3, "Treatment": 3, "PathologicalCondition": 1}


def test_the_first_world_costs_at_most_one_canonicalization(canonicalizations):
    # the full list takes 620 canonicalizations
    model = load_fixture("healthcare_relator.onto")
    scope = Scope(per_classifier=RELATOR_P3O3T3PC1, world_limit=1)
    assert enumerate_worlds(model, scope) == [EMPTY_WORLD]
    assert len(canonicalizations) <= 1


# --- symmetric candidates are skipped before assembly ---------------------------

def test_relator_worlds_cost_about_one_canonicalization_each(canonicalizations, assemblies):
    # generating every labelled candidate took 13,712 canonicalizations and
    # 19,440 assemblies for these 2,320 worlds
    model = load_fixture("healthcare_relator.onto")
    worlds = enumerate_worlds(model, unlimited(**RELATOR_P3O3T3PC1))
    assert len(worlds) == 2320
    assert len(canonicalizations) <= 1.1 * len(worlds)
    assert len(assemblies) < 19440 / 4


# the clinic model of the benchmark: a Person whose free profile holds
# IndividualHealthcareProvider is a HealthcareProvider, so it needs a treatment
# and a consultation ([1..*] at the source side of both)
CLINIC = (
    "model ClinicLint\n\n"
    "kind Person\n"
    "kind Organization\n"
    "event Treatment\n"
    "event Consultation\n"
    "historicalRoleMixin HealthcareProvider\n"
    "historicalRole Patient specializes Person\n"
    "historicalRole Consultee specializes Person\n"
    "historicalRole IndividualHealthcareProvider specializes Person, HealthcareProvider\n"
    "mode PathologicalCondition\n"
    "quality Severity\n\n"
    "space Severity ordered 0..100\n\n"
    "participation participatesPatient : Treatment [1..*] -- [1..1] Patient\n"
    "participation participatesProvider : Treatment [1..*] -- [1..*] HealthcareProvider\n"
    "participation consultedPatient : Consultation [1..*] -- [1..1] Consultee\n"
    "participation consultedProvider : Consultation [1..*] -- [1..1] HealthcareProvider\n"
    "characterization hasCondition : PathologicalCondition [0..*] -- [1..1] Person\n"
    "characterization hasSeverity : Severity [1..1] -- [1..1] PathologicalCondition\n"
    "comparative moreSevereThan : PathologicalCondition -- PathologicalCondition via Severity desc\n"
)


@pytest.mark.parametrize("text, per, count", [
    # drawn without the bounds, _assemble refuses 1,238 of 1,524 candidates
    # here for [0..2] conditions per Person
    (SEVERITY, {"Person": 3, "PathologicalCondition": 6}, 286),
    # 948 of 3,416 for [1..*] treatments per HealthcareProvider
    ("healthcare_relator.onto", RELATOR_P3O3T3PC1, 2320),
    # 4,464 of 5,118 for [1..*] treatments and consultations per provider
    (CLINIC, {"Person": 2, "Organization": 1, "Treatment": 2, "Consultation": 1,
              "PathologicalCondition": 2}, 654),
], ids=["severity", "relator", "clinic"])
def test_candidates_that_break_a_source_side_bound_are_not_drawn(
        text, per, count, assemblies, canonicalizations):
    model = load_fixture(text) if text.endswith(".onto") else parse_ok(text)
    scope = Scope(per_classifier=per, quality_values={"Severity": (3, 50, 97)}, world_limit=10**9)
    assert len(enumerate_worlds(model, scope)) == count
    assert sum(not accepted for _, accepted in assemblies) == 0
    # open individuals carry no values here: one canonicalization per assembly
    assert len(assemblies) == len(canonicalizations)


def test_severity_worlds_cost_one_canonicalization_each(canonicalizations):
    # four open Persons and a multiset of five conditions: every swap of two
    # adjacent Persons is tried on the conditions' options
    worlds = enumerate_worlds(parse_ok(SEVERITY), unlimited(Person=4, PathologicalCondition=5))
    assert len(worlds) == 469
    assert len(canonicalizations) == len(worlds)


# --- what one open-profile assignment fixes is built once per stream -----------


def test_each_open_profile_frame_is_built_once_per_stream(monkeypatch):
    # built per open-profile iteration, these were 216 bounds and 504 pure
    # option lists for the 24 distinct (pure base, targets) inputs
    made = Counter()
    real_init = ontounpack.worlds._Bounds.__init__
    real_pure_options = ontounpack.worlds._pure_options

    def counting_init(self, *args):
        made["bounds"] += 1
        real_init(self, *args)

    def counting_pure_options(*args):
        made["pure options"] += 1
        return real_pure_options(*args)

    monkeypatch.setattr(ontounpack.worlds._Bounds, "__init__", counting_init)
    monkeypatch.setattr(ontounpack.worlds, "_pure_options", counting_pure_options)
    scope = unlimited(Person=2, Organization=1, Treatment=2, Consultation=1, PathologicalCondition=2)
    assert len(enumerate_worlds(parse_ok(CLINIC), scope)) == 654
    assert made == {"bounds": 6, "pure options": 24}


@st.composite
def bounded_loads(draw):
    """A source-side bound, a scope total T, a vector total t <= T and per-target counts <= t."""
    scope_total = draw(st.integers(0, MAX_TOTAL_INDIVIDUALS))
    total = draw(st.integers(0, scope_total))
    lo = draw(st.integers(0, scope_total + 2))
    hi = draw(st.none() | st.integers(max(lo, 1), scope_total + 2))
    targets = draw(st.lists(st.tuples(st.integers(0, total), st.booleans()), max_size=3))
    return lo, hi, scope_total, targets


@settings(max_examples=300, deadline=None)
@given(bounded_loads())
@example((0, 2, 3, [(3, True)]))      # a count at the scope total, one over the max
@example((4, None, 3, [(3, True)]))   # a min above the scope total
def test_bounds_sized_to_the_scope_decide_as_plain_comparisons(case):
    # each target holds `count` links; its min applies when its profile holds the type
    lo, hi, scope_total, targets = case
    relation = SimpleNamespace(name="r", target="T", source_mult=Multiplicity(lo, hi))
    ids = [f"T_{i}" for i in range(len(targets))]
    profile_of = {
        ind: frozenset({"T"} if typed else ()) for ind, (_, typed) in zip(ids, targets)
    }
    bounds = ontounpack.worlds._Bounds(
        SimpleNamespace(stored=[relation]), {"r": tuple(ids)}, profile_of, scope_total,
    )
    load = bounds.load([("r", ind) for ind, (count, _) in zip(ids, targets) for _ in range(count)])
    under_max = all(hi is None or count <= hi for count, _ in targets)
    assert bounds.fits(load) == under_max
    assert bounds.admits(load) == (under_max and all(count >= lo for count, typed in targets if typed))


@pytest.mark.parametrize("text, per", [
    ("healthcare_relator.onto",
     {"Person": 2, "Organization": 1, "Treatment": 2, "PathologicalCondition": 1}),
    ("healthcare_event.onto", {"Person": 2, "Treatment": 2, "Organization": 1}),
    (SEVERITY, {"Person": 2, "PathologicalCondition": 3}),
], ids=["relator", "event", "severity"])
def test_worlds_come_by_size_then_count_vector_then_key(text, per):
    model = load_fixture(text) if text.endswith(".onto") else parse_ok(text)
    worlds = enumerate_worlds(model, unlimited(**per))
    sizes = [len(w.individuals) for w in worlds]
    assert sizes == sorted(sizes)  # individual counts never decrease
    bases = sorted(c for c in model.classifiers if identity_root(model, c) == c)

    def order(w):
        census = Counter(b for _, b in w.individuals)
        vector = tuple(census[b] for b in bases)
        return sum(vector), vector, (w.individuals, w.type_rows, w.links, w.value_rows)

    assert [order(w) for w in worlds] == sorted(order(w) for w in worlds)


def test_interleaved_walks_each_see_every_world():
    model = parse_ok(SEVERITY)
    scope = unlimited(Person=2, PathologicalCondition=3)
    a = ontounpack.worlds._worlds(model, scope)
    b = ontounpack.worlds._worlds(model, scope)
    head = [next(a) for _ in range(5)]
    all_b = list(b)
    rest_a = list(a)
    assert head + rest_a == all_b == enumerate_worlds(parse_ok(SEVERITY), scope)
    assert len(all_b) == 45


def _fail_on_two_individuals(monkeypatch):
    real = ontounpack.worlds._canonicalize

    def failing(individuals, *rest):
        if len(individuals) == 2:
            raise RuntimeError("boom")
        return real(individuals, *rest)

    monkeypatch.setattr(ontounpack.worlds, "_canonicalize", failing)


def test_a_walk_that_fails_midway_leaves_nothing_behind(monkeypatch):
    model = parse_ok(TOY)
    scope = unlimited(Person=3)
    _fail_on_two_individuals(monkeypatch)
    # the three worlds of up to one individual come before the failure
    assert len(enumerate_worlds(model, Scope(per_classifier={"Person": 3}, world_limit=3))) == 3
    for _ in range(2):  # the same query raises again, and reads no truncated list
        with pytest.raises(RuntimeError, match="boom"):
            enumerate_worlds(model, scope)
    with pytest.raises(RuntimeError, match="boom"):
        # a Person with a link TOY has no relation for: the search reaches every vector
        find_witness(model, scope, Goal(typings=(("x", "Person"),), links=(("likes", "x", "x"),)))
    # a goal on an undeclared name needs an individual of no base: no vector is generated
    assert find_witness(model, scope, Goal(typings=(("x", "Sad"),))) is None
    monkeypatch.undo()
    assert len(enumerate_worlds(model, scope)) == 10


def test_a_live_walk_raises_when_it_fails(monkeypatch):
    model = parse_ok(TOY)
    scope = unlimited(Person=3)
    a = ontounpack.worlds._worlds(model, scope)
    b = ontounpack.worlds._worlds(model, scope)
    assert len([next(a) for _ in range(3)]) == 3
    _fail_on_two_individuals(monkeypatch)
    with pytest.raises(RuntimeError, match="boom"):
        list(b)
    with pytest.raises(RuntimeError, match="boom"):
        next(a)


def test_scope_values_are_checked_before_the_first_world():
    # no world of this scope has a condition to value, yet 999 is refused
    m = parse_ok(SEVERITY)
    scope = Scope(per_classifier={"Person": 1, "PathologicalCondition": 0},
                  quality_values={"Severity": (999,)}, world_limit=1)
    with pytest.raises(ValueError, match="scope value 999 outside the space"):
        enumerate_worlds(m, scope)
    with pytest.raises(ValueError, match="scope value 999 outside the space"):
        find_witness(m, scope, Goal(typings=(("x", "Person"),)))


def test_queries_on_one_model_match_queries_on_fresh_models():
    scope = Scope(per_classifier={"Person": 2, "PathologicalCondition": 3},
                  quality_values={"Severity": (0, 1, 2)})
    two_conditions = Goal(
        typings=(("p", "Person"), ("c", "PathologicalCondition"), ("d", "PathologicalCondition")),
        links=(("hasCondition", "c", "p"), ("hasCondition", "d", "p")),
    )
    asks = [
        lambda m: find_witness(m, scope, Goal(typings=(("c", "PathologicalCondition"),))),
        lambda m: check_metaproperties(m, "moreSevereThan", scope, strict=False,
                                       properties=("asymmetric",)),
        lambda m: enumerate_worlds(m, scope),
        lambda m: find_witness(m, scope, two_conditions),
        lambda m: check_metaproperties(m, "moreSeriousThan", scope, strict=False),
        lambda m: check_metaproperties(m, "moreSevereThan", scope),
        lambda m: find_witness(m, scope, Goal(typings=(("p", "Person"),))),
    ]
    model = parse_ok(SEVERITY)
    answers = [ask(model) for ask in asks]
    assert answers == [ask(parse_ok(SEVERITY)) for ask in asks]
    assert [len(w.individuals) for w in (answers[0], answers[3], answers[6])] == [2, 2, 1]


def test_metaproperties_report_only_what_was_asked():
    m = parse_ok(SEVERITY)
    scope = Scope(per_classifier={"Person": 2, "PathologicalCondition": 2},
                  quality_values={"Severity": (0, 1, 2)})
    rep = check_metaproperties(m, "moreSevereThan", scope, strict=False,
                               properties=("asymmetric",))
    assert (rep.irreflexive, rep.asymmetric, rep.transitive) == (None, False, None)
    assert [name for name, _, _ in rep.counterexamples] == ["asymmetric"]
    full = check_metaproperties(m, "moreSevereThan", scope, strict=False)
    assert (full.irreflexive, full.asymmetric) == (False, False)
    assert rep.counterexample("asymmetric") == full.counterexample("asymmetric")
    with pytest.raises(ValueError, match="unknown meta-property 'reflexive'"):
        check_metaproperties(m, "moreSevereThan", scope, properties=("asymmetric", "reflexive"))


def test_a_metaproperty_check_stops_at_its_last_counterexample(canonicalizations):
    # it generates at most the worlds up to its last counterexample's count
    # vector, and skips the vectors with no condition; lax transitivity is
    # read off the quality's order, never searched
    per = {"Person": 2, "Organization": 1, "Treatment": 2, "PathologicalCondition": 1}
    scope = Scope(per_classifier=per, quality_values={"Severity": (3, 50, 97)},
                  world_limit=10**9)
    full = enumerate_worlds(load_fixture("healthcare_relator.onto"), scope)
    full_cost = len(canonicalizations)
    for properties in (("asymmetric",), ("irreflexive", "asymmetric", "transitive")):
        canonicalizations.clear()
        rep = check_metaproperties(load_fixture("healthcare_relator.onto"), "moreSevereThan",
                                   scope, strict=False, properties=properties)
        check_cost = len(canonicalizations)
        canonicalizations.clear()
        last = max(full.index(world) for _, world, _ in rep.counterexamples)
        upto = Scope(per_classifier=per, quality_values={"Severity": (3, 50, 97)},
                     world_limit=last + 1)
        enumerate_worlds(load_fixture("healthcare_relator.onto"), upto)
        assert check_cost <= len(canonicalizations) < full_cost
    assert (rep.irreflexive, rep.asymmetric, rep.transitive) == (False, False, True)
    assert rep.entailed == ("transitive",)


def test_a_strict_comparative_check_generates_no_world(canonicalizations, enumerations):
    model = load_fixture("healthcare_relator.onto")
    scope = Scope(per_classifier={"Person": 2, "Organization": 1, "Treatment": 2,
                                  "PathologicalCondition": 1},
                  quality_values={"Severity": (3, 50, 97)})
    rep = check_metaproperties(model, "moreSevereThan", scope)
    assert (rep.irreflexive, rep.asymmetric, rep.transitive) == (True, True, True)
    assert rep.entailed == ("irreflexive", "asymmetric", "transitive")
    assert rep.counterexamples == ()
    assert canonicalizations == [] and enumerations == [model]


def test_a_check_that_generates_no_world_still_refuses():
    # what refuses the model or the scope raises before the first world is needed
    cases = [
        (Scope(per_classifier={"Persn": 1}), ValueError, "unknown classifier 'Persn'"),
        (Scope(quality_values={"Severty": (1,)}), ValueError, "unknown quality 'Severty'"),
        (Scope(quality_values={"Severity": (101,)}), ValueError, "outside the space"),
        (Scope(default_count=99), ScopeTooLargeError, "hard cap"),
    ]
    for scope, error, message in cases:
        with pytest.raises(error, match=message):
            check_metaproperties(load_fixture("healthcare_relator.onto"), "moreSevereThan", scope)
    unordered = parse_ok(SEVERITY.replace("ordered 0..100", "nominal {mild, grave}"))
    with pytest.raises(IllFormedModelError) as exc:
        check_metaproperties(unordered, "moreSevereThan", Scope(default_count=1))
    assert [d.rule_id for d in exc.value.diagnostics] == ["R9", "R9"]


def test_a_query_after_a_failed_walk_starts_over(monkeypatch):
    model = parse_ok(TOY)
    scope = unlimited(Person=3)
    _fail_on_two_individuals(monkeypatch)
    with pytest.raises(RuntimeError, match="boom"):
        enumerate_worlds(model, scope)
    monkeypatch.undo()
    sizes = []
    real = ontounpack.worlds._canonicalize

    def recording(individuals, *rest):
        sizes.append(len(individuals))
        return real(individuals, *rest)

    monkeypatch.setattr(ontounpack.worlds, "_canonicalize", recording)
    assert len(enumerate_worlds(model, scope)) == 10
    assert sorted(sizes) == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]  # every world, from the empty one


# --- one _Prep per model --------------------------------------------------------


def test_validating_many_worlds_builds_one_prep(preps, relator_model):
    # one _Prep serves every scope, and scope=None
    scopes = [Scope(default_count=1, world_limit=10**9), Scope(default_count=2), None]
    worlds = enumerate_worlds(relator_model, scopes[0])
    model = load_fixture("healthcare_relator.onto")
    preps.clear()
    for scope in scopes:
        assert all(validate_world(model, w, scope) == [] for w in worlds)
    assert len(worlds) == 28 and preps == [model]


def test_two_scopes_of_one_model_build_one_prep(preps):
    model = parse_ok(SEVERITY)
    for per in ({"Person": 1, "PathologicalCondition": 1}, {"Person": 2}):
        assert enumerate_worlds(model, unlimited(**per))
    assert preps == [model]
    taxonomy = {"_ancestor_map", "_descendant_map", "_relation_ends"}
    assert set(model.__dict__) - set(parse_ok(SEVERITY).__dict__) - taxonomy == {
        "_rule_check", "_world_prep",
    }


# --- each query walks its own stream ------------------------------------------


def test_a_deleted_world_list_is_freed_while_its_model_lives(monkeypatch):
    # no query keeps worlds or its stream's tables (the stream with its
    # frames, its frames' symmetry tables) after it returns, and none sits
    # in a reference cycle, so no collection is needed
    worlds_module = ontounpack.worlds
    stream_init, symmetry_init = worlds_module._Stream.__init__, worlds_module._Symmetry.__init__
    tables = []

    def watched_stream(self, *args):
        stream_init(self, *args)
        tables.append(weakref.ref(self))

    def watched_symmetry(self, *args):
        symmetry_init(self, *args)
        tables.append(weakref.ref(self))

    monkeypatch.setattr(worlds_module._Stream, "__init__", watched_stream)
    monkeypatch.setattr(worlds_module._Symmetry, "__init__", watched_symmetry)
    model = load_fixture("healthcare_relator.onto")
    gc.disable()
    try:
        worlds = enumerate_worlds(model, Scope(default_count=1))
        last = weakref.ref(worlds[-1])
        del worlds
        assert last() is None
        scope = unlimited(Person=2, Organization=2, Treatment=2, PathologicalCondition=1)
        assert len(enumerate_worlds(model, scope)) == 188
        assert len(tables) > 4 and all(table() is None for table in tables)
    finally:
        gc.enable()


def test_a_pure_base_capped_at_zero_gets_no_options(monkeypatch):
    bases = Counter()
    real = ontounpack.worlds._pure_options

    def counting(stream, base, targets):
        bases[base] += 1
        return real(stream, base, targets)

    monkeypatch.setattr(ontounpack.worlds, "_pure_options", counting)
    per = dict(RELATOR_P3O3T3PC1, PathologicalCondition=0)
    assert len(enumerate_worlds(load_fixture("healthcare_relator.onto"), unlimited(**per))) == 580
    assert bases["PathologicalCondition"] == 0 and bases["Treatment"] > 0


# small scopes of models with roles, events, modes and comparatives
SKIP_CASES = {
    "relator": ("healthcare_relator.onto",
                {"Person": 2, "Organization": 2, "Treatment": 2, "PathologicalCondition": 2}),
    "event": ("healthcare_event.onto", {"Person": 2, "Organization": 1, "Treatment": 2}),
    "clinic": (CLINIC, {"Person": 2, "Organization": 1, "Treatment": 2, "Consultation": 1,
                        "PathologicalCondition": 1}),
    "severity": (SEVERITY, {"Person": 2, "PathologicalCondition": 3}),
    "marriage": (MARRIAGE, {"Person": 4, "Marriage": 1}),
}


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_skipped_count_vectors_hold_no_first_answer(case):
    # each answer is the reference's: the first hit in the full world list
    text, per = SKIP_CASES[case]
    model = load_fixture(text) if text.endswith(".onto") else parse_ok(text)
    values = {"Severity": (3, 50)} if "Severity" in model.classifiers else {}
    scope = Scope(per_classifier=per, quality_values=values, world_limit=10**9)
    full = enumerate_worlds(model, scope)
    names = sorted(model.classifiers)
    goals = [Goal(typings=(("x", c),)) for c in [*names, "Undeclared"]]
    for a, b in combinations(names, 2):
        goals += [Goal(typings=(("x", a), ("x", b))), Goal(typings=(("x", a), ("y", b)))]
    relations = sorted(model.relations.values(), key=lambda r: r.name)
    goals += [
        Goal(typings=(("x", r.source), ("y", r.target)), links=((r.name, "x", "y"),))
        for r in relations if r.stereotype is not RelationStereotype.COMPARATIVE
    ]
    for goal in goals:
        expected = next((w for w in full if goal_holds(w, goal)), None)
        assert find_witness(model, scope, goal) == expected, goal
    for r in relations:
        if r.stereotype in (RelationStereotype.COMPARATIVE, RelationStereotype.INTERNAL):
            for strict in (True, False):
                report = check_metaproperties(model, r.name, scope, strict=strict)
                counter = {}
                for w in full:
                    pairs = (eval_comparative(w, model, r.name, strict=strict)
                             if r.stereotype is RelationStereotype.COMPARATIVE
                             else {(s, t) for n, s, t in w.links if n == r.name})
                    for prop in ("irreflexive", "asymmetric", "transitive"):
                        ids = ontounpack.worlds._counterexample(prop, pairs)
                        if ids is not None and prop not in counter:
                            counter[prop] = (w, ids)
                expected = [(prop, *counter[prop]) for prop in sorted(counter)]
                assert list(report.counterexamples) == expected, (r.name, strict)
