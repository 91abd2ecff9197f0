"""Anti-pattern linting with witness worlds as explanations.

Two patterns are cataloged:

AP1 OverlappingRoleFillers — a relator or event binds two end types whose
extensions can overlap, so one individual may fill both ends of the same
instance (the unintended-but-admissible reading).

AP2 UngroundedComparative — a comparative over an ordered space admits ties
in scope; under the non-strict reading of its direction the relation stops
being asymmetric.

Every finding is a structural match. It is a Warning that carries the world
showing the unintended reading, or, when the scope holds no such world, an
Info with no world whose message ends "structurally matched, no in-scope
witness".
"""
from __future__ import annotations

from itertools import combinations

from .core import Model, RelationStereotype, SourceSpan, Stereotype
from .errors import IllFormedModelError
from .rules import Diagnostic, Severity, check, sort_key
from .worlds import (
    DEFAULT_SCOPE,
    Goal,
    Scope,
    _worlds,
    check_metaproperties,
    find_witness,
)


def _finding(rule_id: str, span: SourceSpan, found, warning: str, info: str,
             related: tuple[str, ...] = ()) -> Diagnostic:
    """A Warning when the search `found` (witness world, related names), else an Info."""
    if found is None:
        return Diagnostic(rule_id, Severity.INFO, span,
                          f"{info}; structurally matched, no in-scope witness", related)
    world, related = found
    return Diagnostic(rule_id, Severity.WARNING, span, warning, related, witness=world)


def _co_instantiable(model: Model, t1: str, t2: str) -> bool:
    """Can a single individual instantiate both types in some world?"""
    for s1 in model.sortal_descendants_or_self(t1):
        k1 = model.kinds_reached(s1)
        if len(k1) != 1:
            continue
        for s2 in model.sortal_descendants_or_self(t2):
            if model.kinds_reached(s2) != k1:
                continue
            joint = model.ancestors_or_self(s1) | model.ancestors_or_self(s2)
            blocked = any(
                g.is_disjoint and sum(1 for s in g.specifics if s in joint) > 1
                for g in model.gensets.values()
            )
            if not blocked:
                return True
    return False


def _binding_relations(model: Model, owner: str):
    """Mediations/participations available on `owner` (declared or inherited)."""
    rels = [
        r for name in model.ancestors_or_self(owner) for r in model.relations_from(name)
        if r.stereotype in (RelationStereotype.MEDIATION, RelationStereotype.PARTICIPATION)
    ]
    return sorted(rels, key=lambda r: r.name)


def _ap1(model: Model, scope: Scope) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    seen_pairs: set[tuple[str, str]] = set()
    for owner in sorted(name for name, c in model.classifiers.items()
                        if c.stereotype in (Stereotype.RELATOR, Stereotype.EVENT)):
        for m1, m2 in combinations(_binding_relations(model, owner), 2):
            pair = (m1.name, m2.name)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            if not _co_instantiable(model, m1.target, m2.target):
                continue
            goal = Goal(
                typings=(("r", owner), ("x", m1.target), ("x", m2.target)),
                links=((m1.name, "r", "x"), (m2.name, "r", "x")),
            )
            witness = find_witness(model, scope, goal)
            out.append(_finding(
                "AP1", model.classifiers[owner].span,
                None if witness is None else (witness, pair),
                f"one individual can fill both '{m1.target}' and '{m2.target}' of "
                f"the same '{owner}' (via {m1.name} and {m2.name})",
                f"'{m1.target}' and '{m2.target}' of '{owner}' could overlap",
                related=pair,
            ))
    return out


def _ap2(model: Model, scope: Scope) -> list[Diagnostic]:
    # R9 has refused comparatives without an ordered grounding before this runs
    return [
        _finding(
            "AP2", rel.span,
            check_metaproperties(
                model, rel.name, scope, strict=False, properties=("asymmetric",)
            ).counterexample("asymmetric"),
            f"comparative '{rel.name}' admits ties in scope: under the "
            f"non-strict reading of its direction, asymmetry fails",
            f"comparative '{rel.name}' shows no tie configuration",
        )
        for rel in sorted(model.relations.values(), key=lambda r: r.name)
        if rel.stereotype is RelationStereotype.COMPARATIVE
    ]


def lint(model: Model, scope: Scope | None = None) -> list[Diagnostic]:
    """All anti-pattern findings, sorted like check output.

    Raises IllFormedModelError when the model has rule Errors — witnesses
    only mean something for a well-formed model. A scope the world finder
    refuses raises its ValueError or ScopeTooLargeError, even when no
    pattern matches.
    """
    diagnostics = check(model)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        raise IllFormedModelError(errors)
    scope = scope or DEFAULT_SCOPE
    _worlds(model, scope)  # refuses the scope even when no pattern matches
    found = _ap1(model, scope) + _ap2(model, scope)
    return sorted(found, key=sort_key)


__all__ = ["lint"]
