"""Anti-pattern linting with witness worlds as explanations.

Two patterns are cataloged:

AP1 OverlappingRoleFillers — a relator or event binds two end types whose
extensions can overlap, so one individual may fill both ends of the same
instance (the unintended-but-admissible reading).

AP2 UngroundedComparative — a comparative over an ordered space admits ties
in scope; under the non-strict reading of its direction the relation stops
being asymmetric.

A structural match with a witness world is a Warning carrying the world; a
structural match the scope cannot exhibit is an Info note.
"""
from __future__ import annotations

from .core import Model, RelationStereotype, Stereotype
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

_NO_WITNESS = "structurally matched, no in-scope witness"


def _co_instantiable(model: Model, t1: str, t2: str) -> bool:
    """Can a single individual instantiate both types in some world?"""
    for s1 in sorted(model.sortal_descendants_or_self(t1)):
        k1 = model.kinds_reached(s1)
        if len(k1) != 1:
            continue
        for s2 in sorted(model.sortal_descendants_or_self(t2)):
            k2 = model.kinds_reached(s2)
            if k1 != k2:
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
    owners = sorted(
        name for name, c in model.classifiers.items()
        if c.stereotype in (Stereotype.RELATOR, Stereotype.EVENT)
    )
    for owner in owners:
        bindings = _binding_relations(model, owner)
        for i, m1 in enumerate(bindings):
            for m2 in bindings[i + 1:]:
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
                span = model.classifiers[owner].span
                if witness is not None:
                    out.append(Diagnostic(
                        rule_id="AP1",
                        severity=Severity.WARNING,
                        span=span,
                        message=(
                            f"one individual can fill both '{m1.target}' and "
                            f"'{m2.target}' of the same '{owner}' "
                            f"(via {m1.name} and {m2.name})"
                        ),
                        related=pair,
                        witness=witness,
                    ))
                else:
                    out.append(Diagnostic(
                        rule_id="AP1",
                        severity=Severity.INFO,
                        span=span,
                        message=(
                            f"'{m1.target}' and '{m2.target}' of '{owner}' could "
                            f"overlap; {_NO_WITNESS}"
                        ),
                        related=pair,
                    ))
    return out


def _ap2(model: Model, scope: Scope) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for rel in sorted(model.relations.values(), key=lambda r: r.name):
        # R9 has refused comparatives without an ordered grounding before this runs
        if rel.stereotype is not RelationStereotype.COMPARATIVE:
            continue
        report = check_metaproperties(
            model, rel.name, scope, strict=False, properties=("asymmetric",)
        )
        if not report.asymmetric:
            world, ids = report.counterexample("asymmetric")
            out.append(Diagnostic(
                rule_id="AP2",
                severity=Severity.WARNING,
                span=rel.span,
                message=(
                    f"comparative '{rel.name}' admits ties in scope: under the "
                    f"non-strict reading of its direction, asymmetry fails"
                ),
                related=ids,
                witness=world,
            ))
        else:
            out.append(Diagnostic(
                rule_id="AP2",
                severity=Severity.INFO,
                span=rel.span,
                message=(
                    f"comparative '{rel.name}' shows no tie configuration; "
                    f"{_NO_WITNESS}"
                ),
            ))
    return out


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
