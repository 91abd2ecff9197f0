"""Well-formedness rule catalog (R1..R10) over resolved models.

Each rule is a pure predicate; `check` collects violations as Diagnostics in a
deterministic order. R7 and R9 read a material relation's truthmakers and a
comparative's grounds off the Model, as the world finder does. Severity Info
never comes out of `check` — it exists for the anti-pattern linter, which
reuses the Diagnostic type.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .core import (
    ANTI_RIGID,
    HISTORICAL,
    MOMENT_ROOTS,
    ROLE_FAMILY,
    SORTALS,
    Model,
    RelationStereotype,
    Rigidity,
    SourceSpan,
    Stereotype,
    rigidity,
)


class Severity(Enum):
    ERROR = "Error"
    WARNING = "Warning"
    INFO = "Info"


@dataclass(frozen=True)
class Diagnostic:
    rule_id: str
    severity: Severity
    span: SourceSpan
    message: str
    related: tuple[str, ...] = ()
    #: Optional witness world (an InstanceWorld); attached by the linter only.
    witness: Any = field(default=None, compare=False)

    def to_dict(self) -> dict:
        doc = {
            "ruleId": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "span": self.span.to_dict(),
            "related": list(self.related),
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_dict()
        return doc


_RULE_ID = re.compile(r"^([A-Z]+)(\d+)$")


def sort_key(d: Diagnostic):
    m = _RULE_ID.match(d.rule_id)
    family, number = (m.group(1), int(m.group(2))) if m else (d.rule_id, 0)
    return (d.span.line, d.span.column, family, number, d.message)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


_NEEDS_KIND = frozenset({
    Stereotype.SUBKIND, Stereotype.PHASE, Stereotype.ROLE, Stereotype.HISTORICAL_ROLE,
})


_CHECK_MEMO = "_rule_check"


def check(model: Model) -> list[Diagnostic]:
    """Evaluate the whole rule catalog. Empty result iff well-formed.

    The result is kept in the model's __dict__, as the world layer's tables
    are (see worlds._prep), so the catalog runs once per Model instance; each
    call returns a new list.
    """
    found = model.__dict__.get(_CHECK_MEMO)
    if found is None:
        found = model.__dict__[_CHECK_MEMO] = tuple(_run_rules(model))
    return list(found)


def _run_rules(model: Model) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    err = Severity.ERROR
    classifiers = model.classifiers

    # R1: every subkind/phase/role/historicalRole has exactly one ultimate kind.
    for c in classifiers.values():
        if c.stereotype not in _NEEDS_KIND:
            continue
        kinds = sorted(model.kinds_reached(c.name))
        if not kinds:
            out.append(Diagnostic("R1", err, c.span, f"'{c.name}' has no ultimate kind"))
        elif len(kinds) > 1:
            out.append(Diagnostic(
                "R1", err, c.span,
                f"'{c.name}' reaches several kinds: {', '.join(kinds)}", tuple(kinds),
            ))

    # R2: no kind, relator, mode or event specializes a sortal, and no sortal,
    # relator, mode or event specializes a relator, mode or event of another
    # flavour: each anchors its own identity, which its specializations inherit.
    for c in classifiers.values():
        if c.stereotype not in SORTALS and c.stereotype not in MOMENT_ROOTS:
            continue
        bad = sorted(
            a for a in model.ancestors(c.name)
            if classifiers[a].stereotype in SORTALS and c.stereotype is Stereotype.KIND
            or classifiers[a].stereotype in SORTALS and c.stereotype in MOMENT_ROOTS
            or classifiers[a].stereotype in MOMENT_ROOTS
            and classifiers[a].stereotype is not c.stereotype
        )
        if bad:
            first = classifiers[bad[0]].stereotype
            what = "sortal" if first in SORTALS else first.value
            out.append(Diagnostic(
                "R2", err, c.span,
                f"{c.stereotype.value} '{c.name}' specializes {what} '{bad[0]}'", tuple(bad),
            ))

    # R3: a rigid classifier never specializes an anti-rigid one.
    for c in classifiers.values():
        if rigidity(c) is not Rigidity.RIGID:
            continue
        bad = sorted(
            a for a in model.ancestors(c.name) if classifiers[a].stereotype in ANTI_RIGID
        )
        if bad:
            out.append(Diagnostic(
                "R3", err, c.span,
                f"rigid '{c.name}' specializes anti-rigid '{bad[0]}'", tuple(bad),
            ))

    def targeting(name: str):  # relations whose target is `name` or an ancestor of it
        return (r for a in model.ancestors_or_self(name) for r in model.relations_to(a))

    # R4: role-family classifiers are (possibly by inheritance) targets of a
    # mediation or participation — they owe their instances to one.
    binding = (RelationStereotype.MEDIATION, RelationStereotype.PARTICIPATION)
    for c in classifiers.values():
        if c.stereotype in ROLE_FAMILY and not any(
            r.stereotype in binding for r in targeting(c.name)
        ):
            out.append(Diagnostic(
                "R4", err, c.span,
                f"'{c.name}' is relationally dependent but no mediation or participation targets it",
            ))

    # R5: each relator existentially depends on >= 2 mediated entities.
    for c in classifiers.values():
        if c.stereotype is not Stereotype.RELATOR:
            continue
        meds = model.mediations_of(c.name)
        total = sum(m.target_mult.min for m in meds)
        if total < 2:
            out.append(Diagnostic(
                "R5", err, c.span,
                f"relator '{c.name}' mediates fewer than two entities (lower-bound sum {total})",
                tuple(m.name for m in meds),
            ))

    # R6: every material relation names its truthmaking relator.
    for r in model.relations.values():
        if r.stereotype is not RelationStereotype.MATERIAL:
            continue
        if r.derived_from is None:
            out.append(Diagnostic(
                "R6", err, r.span,
                f"material relation '{r.name}' has no derivedFrom relator",
            ))
        else:
            rel = classifiers.get(r.derived_from.relator)
            if rel is None or rel.stereotype is not Stereotype.RELATOR:
                out.append(Diagnostic(
                    "R6", err, r.span,
                    f"material relation '{r.name}' is derived from '{r.derived_from.relator}', "
                    "which is not a relator",
                    (r.derived_from.relator,),
                ))

    # R7: the derivedFrom relator's mediations must reach both material ends
    # (equal, ancestor, or descendant types are all acceptable anchorings).
    for r in model.relations.values():
        if r.derived_from is None:
            continue
        relator = r.derived_from.relator
        rel_cls = classifiers.get(relator)
        if rel_cls is None or rel_cls.stereotype is not Stereotype.RELATOR:
            continue  # already an R6 violation
        failing = [
            e for e in dict.fromkeys((r.source, r.target)) if not model.anchoring(relator, e)
        ]
        if failing:
            out.append(Diagnostic(
                "R7", err, r.span,
                f"mediations of relator '{relator}' do not cover end(s) "
                f"{', '.join(failing)} of material relation '{r.name}'",
                (relator, *failing),
            ))

    # R8 (Warning): two or more phases of one kind should be partitioned by at
    # least one disjoint, complete generalization set.
    phase_by_kind: dict[str, list] = {}
    for c in classifiers.values():
        if c.stereotype is Stereotype.PHASE:
            kinds = model.kinds_reached(c.name)
            if len(kinds) == 1:
                phase_by_kind.setdefault(next(iter(kinds)), []).append(c)
    partitioned = {
        s for g in model.gensets.values() if g.is_disjoint and g.is_complete
        for s in g.specifics
    }
    for kind, phases in sorted(phase_by_kind.items()):
        if len(phases) < 2:
            continue
        uncovered = sorted(p.name for p in phases if p.name not in partitioned)
        if uncovered:
            out.append(Diagnostic(
                "R8", Severity.WARNING, classifiers[kind].span,
                f"phases of kind '{kind}' lack a disjoint, complete generalization set",
                tuple(uncovered),
            ))

    # R9: comparatives are grounded in an ordered quality both ends have (Model.grounds).
    for r in model.relations.values():
        if r.stereotype is not RelationStereotype.COMPARATIVE:
            continue
        q = r.via.quality
        qc = classifiers.get(q)
        if qc is None or qc.stereotype is not Stereotype.QUALITY:
            out.append(Diagnostic(
                "R9", err, r.span,
                f"viaQuality '{q}' of comparative '{r.name}' is not a quality", (q,),
            ))
            continue
        space = model.spaces.get(q)
        if space is None or not space.is_ordered:
            out.append(Diagnostic(
                "R9", err, r.span,
                f"quality '{q}' of comparative '{r.name}' has no ordered space", (q,),
            ))
            continue
        failing = [e for e in dict.fromkeys((r.source, r.target)) if not model.grounds(q, e)]
        if failing:
            out.append(Diagnostic(
                "R9", err, r.span,
                f"quality '{q}' does not ground end(s) {', '.join(failing)} "
                f"of comparative '{r.name}'",
                (q, *failing),
            ))

    # R10: historical roles need an actual participation in a declared event.
    for c in classifiers.values():
        if c.stereotype in HISTORICAL and not any(
            r.stereotype is RelationStereotype.PARTICIPATION
            and r.source in classifiers and classifiers[r.source].stereotype is Stereotype.EVENT
            for r in targeting(c.name)
        ):
            out.append(Diagnostic(
                "R10", err, c.span,
                f"historical role '{c.name}' has no participation tying it to an event",
            ))

    return sorted(out, key=sort_key)


__all__ = ["Severity", "Diagnostic", "check", "has_errors", "sort_key"]
