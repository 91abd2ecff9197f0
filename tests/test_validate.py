"""`validate_world`'s problem messages, one broken world per message.

The oracle (`tests/test_oracle.py`) trusts `validate_world` to keep exactly
the legal labelled worlds, so every message it has is shown here to come
out: a valid world is broken one way per row, and the row names the whole
list of problems that must come back. Where one break must set off two
checks, the row says why.
"""
from __future__ import annotations

import pytest

from ontounpack import InstanceWorld, Scope, validate_world

from conftest import parse_ok

AUDIT = (
    "model Audit\n\n"
    "category Agent\n"
    "kind Person\n"
    "kind Organization\n"
    "subkind Adult specializes Person, Agent\n"
    "phase Healthy specializes Person\n"
    "phase Sick specializes Person\n"
    "genset Health disjoint complete general Person specifics Healthy, Sick\n"
    "role Patient specializes Person\n"
    "relator Treatment\n"
    "mode Condition\n"
    "quality Severity\n"
    "space Severity ordered 0..100\n"
    "mediation involvesPatient : Treatment [0..*] -- [1..1] Patient\n"
    "mediation involvesProvider : Treatment [0..*] -- [1..1] Organization\n"
    "material treatedBy : Patient [0..*] -- [0..*] Organization derivedFrom Treatment [1..1]\n"
    "characterization hasCondition : Condition [0..1] -- [1..1] Person\n"
    "characterization hasSeverity : Severity [1..1] -- [1..1] Condition\n"
    "comparative moreSevereThan : Condition -- Condition via Severity desc\n"
    "internal likes : Person [0..*] -- [0..*] Person\n"
    "internal next : Person [0..1] -- [0..1] Person\n"
)

SCOPE = Scope(per_classifier={"Person": 2, "Healthy": 1}, quality_values={"Severity": (50, 80)})

# one treated, sick patient with a condition, and one healthy person in no link
INDIVIDUALS = [("Condition_0", "Condition"), ("Organization_0", "Organization"),
               ("Person_0", "Person"), ("Person_1", "Person"), ("Treatment_0", "Treatment")]
TYPES = {
    "Condition_0": {"Condition"},
    "Organization_0": {"Organization"},
    "Person_0": {"Person", "Sick", "Patient"},
    "Person_1": {"Person", "Healthy"},
    "Treatment_0": {"Treatment"},
}
LINKS = [
    ("hasCondition", "Condition_0", "Person_0"),
    ("involvesPatient", "Treatment_0", "Person_0"),
    ("involvesProvider", "Treatment_0", "Organization_0"),
    ("treatedBy", "Person_0", "Organization_0"),
]
VALUES = [("Severity", "Condition_0", 50)]


def world(individuals=INDIVIDUALS, types=TYPES, links=LINKS, values=VALUES) -> InstanceWorld:
    return InstanceWorld(
        tuple(individuals),
        tuple((ind, tuple(sorted(ts))) for ind, ts in types.items()),
        tuple(links),
        tuple(values),
    )


def retype(ind: str, *types: str) -> dict:
    return {**TYPES, ind: set(types)}


# name -> (the broken world, every problem validate_world must report for it)
BROKEN = {
    "duplicate id": (world(individuals=INDIVIDUALS + [("Organization_0", "Organization")]),
                     ["duplicate individual id 'Organization_0'"]),
    # a classifier that is no identity base types none of its holder's types
    "non-base classifier": (
        world(individuals=INDIVIDUALS + [("Ghost_0", "Ghost")], types={**TYPES, "Ghost_0": set()}),
        ["'Ghost_0' has non-base classifier 'Ghost'",
         "'Ghost_0' does not instantiate its base 'Ghost'"]),
    "untyped individual": (world(types={k: v for k, v in TYPES.items() if k != "Person_1"}),
                           ["typeAssignments do not cover exactly the declared individuals"]),
    "base missing": (world(types=retype("Person_1")),
                     ["'Person_1' does not instantiate its base 'Person'"]),
    "unknown type": (world(types=retype("Person_1", "Person", "Healthy", "Ghost")),
                     ["'Person_1' instantiates unknown classifier 'Ghost'"]),
    "type of another base": (
        world(types=retype("Person_1", "Person", "Healthy", "Organization")),
        ["'Person_1' (Person) cannot instantiate 'Organization'"]),
    "ancestor missing": (world(types=retype("Person_1", "Person", "Healthy", "Adult")),
                         ["'Person_1' instantiates 'Adult' but not its ancestor 'Agent'"]),
    "non-sortal without a sortal": (world(types=retype("Person_1", "Person", "Healthy", "Agent")),
                                    ["'Person_1' instantiates 'Agent' without a sortal witness"]),
    "duplicate link": (world(links=LINKS + [("likes", "Person_0", "Person_1")] * 2),
                       ["duplicate link (likes, Person_0, Person_1)"]),
    "unknown relation": (world(links=LINKS + [("hates", "Person_0", "Person_1")]),
                         ["link names unknown relation 'hates'"]),
    "comparative link": (world(links=LINKS + [("moreSevereThan", "Condition_0", "Condition_0")]),
                         ["comparative 'moreSevereThan' must not carry stored links"]),
    "value-bearing link": (world(links=LINKS + [("hasSeverity", "Condition_0", "Condition_0")]),
                           ["quality characterization 'hasSeverity' is value-bearing, not a link"]),
    "link to a stranger": (world(links=LINKS + [("likes", "Person_0", "Ghost_0")]),
                           ["link (likes) references unknown individual 'Ghost_0'"]),
    "link end of the wrong type": (
        world(links=LINKS + [("likes", "Person_0", "Organization_0")]),
        ["link (likes, Person_0, Organization_0): 'Organization_0' is not a 'Person'"]),
    "role without its link": (world(types=retype("Person_1", "Person", "Healthy", "Patient")),
                              ["'Person_1' instantiates 'Patient' without a defining link"]),
    # a defining relation targets its role, so the link's end is wrong too
    "defining link without its role": (
        world(individuals=INDIVIDUALS + [("Treatment_1", "Treatment")],
              types={**TYPES, "Treatment_1": {"Treatment"}},
              links=LINKS + [("involvesPatient", "Treatment_1", "Person_1"),
                             ("involvesProvider", "Treatment_1", "Organization_0")]),
        ["link (involvesPatient, Treatment_1, Person_1): 'Person_1' is not a 'Patient'",
         "'Person_1' has a defining link but lacks 'Patient'"]),
    "too many links out": (
        world(links=LINKS + [("next", "Person_0", "Person_0"), ("next", "Person_0", "Person_1")]),
        ["'Person_0' has 2 'next' links; multiplicity [0..1]"]),
    "too many links in": (
        world(links=LINKS + [("next", "Person_0", "Person_1"), ("next", "Person_1", "Person_1")]),
        ["'Person_1' is hit by 2 'next' links; multiplicity [0..1]"]),
    "material link missing": (
        world(links=LINKS[:-1]),
        ["material 'treatedBy' links differ from the relator-derived tuples"]),
    "tuple grounded twice": (
        world(individuals=INDIVIDUALS + [("Treatment_1", "Treatment")],
              types={**TYPES, "Treatment_1": {"Treatment"}},
              links=LINKS + [("involvesPatient", "Treatment_1", "Person_0"),
                             ("involvesProvider", "Treatment_1", "Organization_0")]),
        ["tuple ('Person_0', 'Organization_0') of 'treatedBy' is grounded by 2 relators; "
         "derivation multiplicity [1..1]"]),
    "duplicate value": (world(values=VALUES * 2), ["duplicate value for (Severity, Condition_0)"]),
    "value of a stranger": (world(values=VALUES + [("Severity", "Ghost_0", 50)]),
                            ["value row names unknown individual 'Ghost_0'"]),
    # the scope's values lie in the space, so a value outside it is outside both
    "value outside the space": (
        world(values=[("Severity", "Condition_0", 500)]),
        ["value 500 outside the space of 'Severity'",
         "value 500 of 'Severity' outside the scope subset"]),
    "value outside the scope": (world(values=[("Severity", "Condition_0", 20)]),
                                ["value 20 of 'Severity' outside the scope subset"]),
    "value on a non-bearer": (
        world(values=VALUES + [("Severity", "Person_1", 50)]),
        ["'Person_1' bears a 'Severity' value but no characterization allows it"]),
    "required value missing": (world(values=[]),
                               ["'Condition_0' lacks a required 'Severity' value"]),
    "genset not disjoint": (world(types=retype("Person_1", "Person", "Healthy", "Sick")),
                            ["'Person_1' violates disjointness of 'Health'"]),
    "genset not complete": (world(types=retype("Person_1", "Person")),
                            ["'Person_1' violates completeness of 'Health'"]),
    # an explicit cap on a base is its count, reported once
    "base over its cap": (
        world(individuals=INDIVIDUALS + [("Person_2", "Person")],
              types={**TYPES, "Person_2": {"Person", "Sick"}}),
        ["3 individuals of base 'Person' exceed the scope (2)"]),
    "classifier over its cap": (world(types=retype("Person_0", "Person", "Healthy", "Patient")),
                                ["2 instances of 'Healthy' exceed the scope cap (1)"]),
}


def test_the_unbroken_world_is_valid():
    assert validate_world(parse_ok(AUDIT), world(), SCOPE) == []


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_each_break_gets_exactly_its_problems(case):
    broken, problems = BROKEN[case]
    assert validate_world(parse_ok(AUDIT), broken, SCOPE) == problems

