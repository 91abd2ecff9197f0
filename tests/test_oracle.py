"""The world finder against a naive, independent enumerator.

The oracle tries every labelled assignment within a scope: each individual
gets any set of classifiers that contains its identity base, links are any
set of type-correct pairs of every non-comparative relation (material links
included), and each quality a type carries takes any scope value or none.
`validate_world` keeps the legal assignments, and one world per isomorphism
class remains. Only small scopes are feasible: three or four individuals.
"""
from __future__ import annotations

from itertools import chain, combinations, product

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

from conftest import isomorphic, load_fixture, parse_ok
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
            pairs = [
                (r.name, s, t) for r in linking for s in types for t in types
                if r.source in types[s] and r.target in types[t]
            ]
            slots = sorted({
                (c.source, ind) for c in quality_chars for ind in types if c.target in types[ind]
            })
            for q, _ in slots:
                assert scope.values_for(q) is not None, f"oracle scopes list values of '{q}'"
            for links in subsets(pairs):
                for picks in product(*((None, *scope.values_for(q)) for q, _ in slots)):
                    yield InstanceWorld(
                        individuals,
                        tuple((ind, tuple(sorted(ts))) for ind, ts in types.items()),
                        tuple(sorted(links)),
                        tuple((q, ind, v) for (q, ind), v in zip(slots, picks) if v is not None),
                    )


def orbit_representatives(model: Model, scope: Scope) -> list[InstanceWorld]:
    reps: list[InstanceWorld] = []
    for world in labelled_worlds(model, scope):
        if validate_world(model, world, scope) == [] and not any(
            isomorphic(world, rep) for rep in reps
        ):
            reps.append(world)
    return reps


CASES = {
    "toy": (TOY, {"Person": 3}, {}),
    "severity": (SEVERITY, {"Person": 1, "PathologicalCondition": 2}, {"Severity": (0, 1)}),
    "severity_pair": (SEVERITY, {"Person": 2, "PathologicalCondition": 2}, {"Severity": (0, 1)}),
    "relator": ("healthcare_relator.onto",
                {"Person": 1, "Organization": 1, "Treatment": 1, "PathologicalCondition": 0}, {}),
    "relator_pair": ("healthcare_relator.onto",
                     {"Person": 2, "Organization": 1, "Treatment": 1, "PathologicalCondition": 0},
                     {}),
    "event": ("healthcare_event.onto", {"Person": 1, "Organization": 1, "Treatment": 1}, {}),
    "marriage": (MARRIAGE, {"Person": 2, "Marriage": 1}, {}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_worlds_are_the_oracles_orbit_representatives(case):
    text, per, values = CASES[case]
    model = load_fixture(text) if text.endswith(".onto") else parse_ok(text)
    scope = Scope(per_classifier=per, quality_values=values, world_limit=10**9)
    worlds = enumerate_worlds(model, scope)
    reps = orbit_representatives(model, scope)
    assert len(reps) > 1
    # the finder's worlds are pairwise non-isomorphic (test_worlds), so equal
    # sizes and a match for every representative make a bijection
    assert len(worlds) == len(reps)
    for rep in reps:
        assert any(isomorphic(rep, w) for w in worlds), rep
