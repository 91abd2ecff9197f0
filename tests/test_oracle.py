"""The world finder against a naive, independent enumerator.

The oracle tries every labelled assignment within a scope: each individual
gets any set of classifiers that contains its identity base, links are any
set of type-correct pairs of every non-comparative relation (material links
included) with at most the target-side upper bound of them per source, and
each quality a type carries takes any scope value or none. `validate_world`
keeps the legal assignments. Two worlds are isomorphic when their least
encodings over every base-preserving relabelling are equal, so one world per
isomorphism class remains. Only small scopes are feasible: three to five
individuals.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations, permutations, product

import pytest

from ontounpack import (
    InstanceWorld,
    Model,
    RelationStereotype,
    Scope,
    Stereotype,
    enumerate_worlds,
    validate_world,
)
from ontounpack.core import identity_root

from conftest import FIXTURES, load_fixture, parse_ok
from test_worlds import MARRIAGE, SEVERITY, TOY


def subsets(items) -> list[tuple]:
    items = list(items)
    return list(chain.from_iterable(combinations(items, n) for n in range(len(items) + 1)))


def labelled_worlds(model: Model, scope: Scope):
    """Every labelled assignment of types, links and values within scope."""
    cls = model.classifiers
    bases = sorted(c for c in cls if identity_root(model, c) == c)
    # a base's individuals carry only its descendants and their ancestors;
    # validate_world refuses any other type, so trying them would only cost time
    reach = {
        b: sorted(set().union(*(
            model.ancestors_or_self(c) for c in cls if b in model.ancestors_or_self(c)
        )) - {b})
        for b in bases
    }
    quality_chars = [
        r for r in model.relations.values()
        if r.stereotype is RelationStereotype.CHARACTERIZATION
        and cls[r.source].stereotype is Stereotype.QUALITY
    ]
    linking = [
        r for r in model.relations.values()
        if r.stereotype is not RelationStereotype.COMPARATIVE and r not in quality_chars
    ]
    for counts in product(*(range(scope.count_for_base(b) + 1) for b in bases)):
        individuals = tuple(
            (f"{b}_{i}", b) for b, n in zip(bases, counts) for i in range(n)
        )
        for typing in product(*(
            [frozenset((b, *extra)) for extra in subsets(reach[b])] for _, b in individuals
        )):
            types = dict(zip((ind for ind, _ in individuals), typing))
            # per relation and source, any target set within the upper bound;
            # validate_world refuses a larger one
            groups = [
                [tuple((r.name, s, t) for t in chosen)
                 for chosen in subsets(t for t in types if r.target in types[t])
                 if r.target_mult.max is None or len(chosen) <= r.target_mult.max]
                for r in linking for s in types if r.source in types[s]
            ]
            slots = sorted({
                (c.source, ind) for c in quality_chars for ind in types if c.target in types[ind]
            })
            for q, _ in slots:
                assert scope.values_for(q) is not None, f"oracle scopes list values of '{q}'"
            for links in (tuple(chain.from_iterable(c)) for c in product(*groups)):
                for picks in product(*((None, *scope.values_for(q)) for q, _ in slots)):
                    yield InstanceWorld(
                        individuals,
                        tuple((ind, tuple(sorted(ts))) for ind, ts in types.items()),
                        tuple(sorted(links)),
                        tuple((q, ind, v) for (q, ind), v in zip(slots, picks) if v is not None),
                    )


def least_encoding(world: InstanceWorld) -> tuple:
    """The least rows of `world` over every base-preserving relabelling."""
    members: dict[str, list[str]] = defaultdict(list)
    for ind, base in world.individuals:
        members[base].append(ind)
    bases = sorted(members)
    fresh = [f"{b}_{i}" for b in bases for i in range(len(members[b]))]
    best = None
    for perms in product(*(permutations(members[b]) for b in bases)):
        rename = dict(zip(chain.from_iterable(perms), fresh))
        enc = (
            tuple(sorted((rename[ind], ts) for ind, ts in world.type_rows)),
            tuple(sorted((r, rename[s], rename[t]) for r, s, t in world.links)),
            tuple(sorted((q, rename[b], v) for q, b, v in world.value_rows)),
        )
        if best is None or enc < best:
            best = enc
    return best


def orbit_encodings(model: Model, scope: Scope) -> set[tuple]:
    """One least encoding per isomorphism class of the legal labelled worlds."""
    return {
        least_encoding(world) for world in labelled_worlds(model, scope)
        if validate_world(model, world, scope) == []
    }


SUCCESSOR = "model Queue\n\nkind Person\ninternal next : Person [0..1] -- [0..1] Person\n"

PHASES = (
    "model Phases\n\n"
    "kind Person\n"
    "phase Healthy specializes Person\n"
    "phase Sick specializes Person\n"
    "genset Health disjoint complete general Person specifics Healthy, Sick\n"
)

# two roles of Person, each had only through a mediation of one Treatment
CARE = (
    "model Care\n\n"
    "kind Person\n"
    "role Patient specializes Person\n"
    "role Doctor specializes Person\n"
    "relator Treatment\n"
    "mediation involvesPatient : Treatment [1..*] -- [1..1] Patient\n"
    "mediation involvesDoctor : Treatment [1..*] -- [1..1] Doctor\n"
)

# both mediations reach any Person; the material relation holds only
# between a Healthy and a Sick one
SUBTYPE_ENDS = (
    "model SubtypeEnds\n\n"
    "kind Person\n"
    "phase Healthy specializes Person\n"
    "phase Sick specializes Person\n"
    "genset Health disjoint complete general Person specifics Healthy, Sick\n"
    "relator Treatment\n"
    "mediation involvesPatient : Treatment [0..*] -- [1..1] Person\n"
    "mediation involvesDoctor : Treatment [0..*] -- [1..1] Person\n"
    "material treats : Healthy [0..*] -- [0..*] Sick derivedFrom Treatment [1..*]\n"
)

AGENTS = (
    "model Agents\n\n"
    "category Agent\n"
    "kind Ka specializes Agent\n"
    "kind Kb specializes Agent\n"
)

CASES = {
    "toy": (TOY, {"Person": 3}, {}),
    "severity": (SEVERITY, {"Person": 1, "PathologicalCondition": 2}, {"Severity": (0, 1)}),
    "severity_pair": (SEVERITY, {"Person": 2, "PathologicalCondition": 2}, {"Severity": (0, 1)}),
    # three interchangeable open Persons under a multiset of two conditions:
    # the swaps that skip symmetric candidates act on the conditions' options
    "severity_trio": (SEVERITY, {"Person": 3, "PathologicalCondition": 2}, {"Severity": (0, 1)}),
    "relator": ("healthcare_relator.onto",
                {"Person": 1, "Organization": 1, "Treatment": 1, "PathologicalCondition": 0}, {}),
    # twins (tied individuals that link alike), whose orders _canonicalize
    # tries once per twin class: two treatments of one patient and provider,
    # and conditions that take the one value in scope
    "relator_twins": ("healthcare_relator.onto",
                      {"Person": 1, "Organization": 1, "Treatment": 2, "PathologicalCondition": 0},
                      {}),
    "severity_twins": (SEVERITY, {"Person": 2, "PathologicalCondition": 3}, {"Severity": (0,)}),
    # the source-side bounds the world finder checks while drawing candidates:
    # three conditions on one Person pass hasCondition's [0..2] max, and a
    # HealthcareProvider needs a treatment (involvesProvider's [1..*] min)
    "severity_crowded": (SEVERITY, {"Person": 1, "PathologicalCondition": 3},
                         {"Severity": (0, 1)}),
    "relator_idle_provider": ("healthcare_relator.onto",
                              {"Person": 1, "Organization": 2, "Treatment": 1,
                               "PathologicalCondition": 0}, {}),
    "relator_pair": ("healthcare_relator.onto",
                     {"Person": 2, "Organization": 1, "Treatment": 1, "PathologicalCondition": 0},
                     {}),
    # two parts that no relation ties, whose rows interleave: Organization_0 <
    # PathologicalCondition_0 < Person_0, so a world's rows are not one part's
    # followed by the other's
    "relator_conditions": ("healthcare_relator.onto",
                           {"Person": 1, "Organization": 1, "Treatment": 1,
                            "PathologicalCondition": 2}, {"Severity": (0, 1)}),
    # three parts whose rows interleave: Device_0 < Organization_0 <
    # PathologicalCondition_0 < Person_0 < Treatment_0 < Wear_0, so each
    # world merges three lists
    "three_parts": ((FIXTURES / "healthcare_relator.onto").read_text()
                    + "kind Device\nmode Wear\n"
                    + "characterization hasWear : Wear [0..1] -- [1..1] Device\n",
                    {"Person": 1, "Organization": 1, "Treatment": 1, "PathologicalCondition": 1,
                     "Device": 1, "Wear": 1}, {"Severity": (0, 1)}),
    # a cap over two kinds that no relation ties counts the instances of both
    "agent_cap": (AGENTS, {"Ka": 2, "Kb": 2, "Agent": 2}, {}),
    "event": ("healthcare_event.onto", {"Person": 1, "Organization": 1, "Treatment": 1}, {}),
    "marriage": (MARRIAGE, {"Person": 2, "Marriage": 1}, {}),
    "marriage_wide": (MARRIAGE, {"Person": 4, "Marriage": 1}, {}),
    # one open base and links between its individuals: cycles and paths of
    # one colour, which only the orders tried inside a colour tie tell apart
    "successor": (SUCCESSOR, {"Person": 4}, {}),
    "successor_wide": (SUCCESSOR, {"Person": 5}, {}),
    # the refusals _assemble makes after drawing a candidate: a complete
    # genset with a free profile in no specific, a disjoint genset broken by
    # two defining links, a free subrole with no link behind its role (with
    # no source-side min on the link, which the bounds would check first), a
    # role cap, and a material pair grounded by more relators than its
    # derivation multiplicity allows
    "genset_complete_phases": (PHASES, {"Person": 3}, {}),
    "genset_disjoint_roles": (
        CARE + "genset Care disjoint general Person specifics Patient, Doctor\n",
        {"Person": 2, "Treatment": 1}, {}),
    "genset_complete_roles": (
        CARE + "genset Care complete general Person specifics Patient, Doctor\n",
        {"Person": 2, "Treatment": 1}, {}),
    "free_subrole": (CARE.replace("Treatment [1..*] -- [1..1] Patient",
                                  "Treatment [0..*] -- [1..1] Patient")
                     + "role Inpatient specializes Patient\n",
                     {"Person": 3, "Treatment": 1}, {}),
    "role_cap": (CARE, {"Person": 3, "Treatment": 2, "Patient": 1}, {}),
    "derivation_multiplicity": (
        CARE + "material treats : Doctor [0..*] -- [0..*] Patient derivedFrom Treatment [1..1]\n",
        {"Person": 2, "Treatment": 2}, {}),
    # the refusals the bounds leave to _assemble: a mode characterizing a
    # justified role, whose min counts only once the role is derived and
    # whose link refuses a Person that is not a Patient; the ends of a
    # material relation that allow one link each way; and material ends
    # below the mediated type, which skip the mediated Persons they miss
    "mode_on_justified_role": (
        CARE + "mode Allergy\ncharacterization hasAllergy : Allergy [1..*] -- [1..1] Patient\n",
        {"Person": 2, "Treatment": 1, "Allergy": 1}, {}),
    "material_bounded_ends": (
        CARE + "material treats : Doctor [0..1] -- [0..1] Patient derivedFrom Treatment [1..*]\n",
        {"Person": 2, "Treatment": 2}, {}),
    "material_subtype_ends": (SUBTYPE_ENDS, {"Person": 2, "Treatment": 1}, {}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_worlds_are_the_oracles_orbit_representatives(case):
    text, per, values = CASES[case]
    model = load_fixture(text) if text.endswith(".onto") else parse_ok(text)
    scope = Scope(per_classifier=per, quality_values=values, world_limit=10**9)
    worlds = enumerate_worlds(model, scope)
    orbits = orbit_encodings(model, scope)
    assert len(orbits) > 1
    # one world per class, and every class once
    assert len(worlds) == len(orbits)
    assert {least_encoding(w) for w in worlds} == orbits
    # and each world's rows come sorted, as InstanceWorld promises
    for w in worlds:
        for rows in (w.individuals, w.type_rows, w.links, w.value_rows):
            assert list(rows) == sorted(rows), w
