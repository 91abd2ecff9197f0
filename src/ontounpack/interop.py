"""Cross-model correspondence analysis.

Given two models and a list of classifier pairs (defaulting to the
name-equal ones), classify what each pair could ontologically be: identity,
specialization, manifestation, historical dependence — or rule identity out.
Verdicts are candidates for a human to confirm, never assertions.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Model, Stereotype, identity_root
from .errors import UnknownClassifierError


class Verdict(Enum):
    IDENTITY_CANDIDATE = "IdentityCandidate"
    SPECIALIZATION_CANDIDATE = "SpecializationCandidate"
    SIBLING_SUBTYPES_CANDIDATE = "SiblingSubtypesCandidate"
    MANIFESTATION_CANDIDATE = "ManifestationCandidate"
    HISTORICAL_DEPENDENCE_CANDIDATE = "HistoricalDependenceCandidate"
    IDENTITY_EXCLUDED = "IdentityExcluded"


class TopCategory(Enum):
    OBJECT = "object"
    RELATOR = "relator"
    ASPECT = "aspect"
    EVENT = "event"


_TOP = {
    Stereotype.KIND: TopCategory.OBJECT,
    Stereotype.SUBKIND: TopCategory.OBJECT,
    Stereotype.PHASE: TopCategory.OBJECT,
    Stereotype.ROLE: TopCategory.OBJECT,
    Stereotype.HISTORICAL_ROLE: TopCategory.OBJECT,
    Stereotype.CATEGORY: TopCategory.OBJECT,
    Stereotype.ROLE_MIXIN: TopCategory.OBJECT,
    Stereotype.HISTORICAL_ROLE_MIXIN: TopCategory.OBJECT,
    Stereotype.RELATOR: TopCategory.RELATOR,
    Stereotype.MODE: TopCategory.ASPECT,
    Stereotype.QUALITY: TopCategory.ASPECT,
    Stereotype.EVENT: TopCategory.EVENT,
}


@dataclass(frozen=True)
class Correspondence:
    left: tuple[str, str]    # (model name, classifier)
    right: tuple[str, str]
    verdict: Verdict
    rationale: str

    def to_dict(self) -> dict:
        return {
            "left": {"model": self.left[0], "classifier": self.left[1]},
            "right": {"model": self.right[0], "classifier": self.right[1]},
            "verdict": self.verdict.value,
            "rationale": self.rationale,
        }


def leibniz_surface(model: Model, classifier: str) -> frozenset[tuple]:
    """Declared structure visible from a classifier and its ancestors.

    Rows are (kind, relation stereotype, end, other end type); identical
    things must agree on all of it.
    """
    up = model.ancestors_or_self(classifier)
    rows: set[tuple] = set()
    for name in up:
        for r in model.relations_from(name):
            rows.add(("rel", r.stereotype.value, "source", r.target))
        for r in model.relations_to(name):
            rows.add(("rel", r.stereotype.value, "target", r.source))
    space = model.spaces.get(classifier)
    if space is not None:
        if space.ordered is not None:
            rows.add(("space", "ordered", space.ordered))
        else:
            rows.add(("space", "nominal", space.labels))
    return frozenset(rows)


def _anchor_stereotype(model: Model, name: str) -> Stereotype | None:
    root = identity_root(model, name)
    return model.classifiers[root].stereotype if root is not None else None


def classify_pair(
    left: Model, lname: str, right: Model, rname: str
) -> list[Correspondence]:
    """Verdict rows for one classifier pair, per the fixed rule table."""
    if lname not in left.classifiers:
        raise UnknownClassifierError(f"'{lname}' is not declared in model '{left.name}'")
    if rname not in right.classifiers:
        raise UnknownClassifierError(f"'{rname}' is not declared in model '{right.name}'")
    ls = left.classifiers[lname].stereotype
    rs = right.classifiers[rname].stereotype
    lpair = (left.name, lname)
    rpair = (right.name, rname)

    def row(verdict: Verdict, rationale: str) -> Correspondence:
        return Correspondence(lpair, rpair, verdict, rationale)

    # relator vs event: identity is out, manifestation is the live option
    if {ls, rs} == {Stereotype.RELATOR, Stereotype.EVENT}:
        return [
            row(
                Verdict.IDENTITY_EXCLUDED,
                "a relator is an endurant bundle of aspects while an event is a "
                "perdurant; the two cannot be the same entity",
            ),
            row(
                Verdict.MANIFESTATION_CANDIDATE,
                "the event may be the manifestation of the relator's aspects "
                "unfolding in time",
            ),
        ]

    # any other top-category mismatch excludes identity outright
    tl, tr = _TOP[ls], _TOP[rs]
    if tl is not tr:
        return [
            row(
                Verdict.IDENTITY_EXCLUDED,
                f"top-level categories differ ({tl.value} vs {tr.value})",
            )
        ]

    # synchronic role vs historical role over one kind: distinct types tied
    # by the history of the same individuals
    if {ls, rs} == {Stereotype.ROLE, Stereotype.HISTORICAL_ROLE}:
        lk, rk = identity_root(left, lname), identity_root(right, rname)
        if lk is not None and lk == rk:
            return [
                row(
                    Verdict.IDENTITY_EXCLUDED,
                    "a role holds while the defining relator holds; a historical "
                    "role is defined by past participation — different "
                    "classification conditions over the same kind",
                ),
                row(
                    Verdict.HISTORICAL_DEPENDENCE_CANDIDATE,
                    f"instances of both are {lk}s; the historical role plausibly "
                    "records having filled the synchronic one",
                ),
            ]

    # same stereotype with matching identity anchors: identity is live,
    # subject to the Leibniz surface check
    if ls is rs and _anchor_stereotype(left, lname) is _anchor_stereotype(right, rname):
        lsurf = leibniz_surface(left, lname)
        rsurf = leibniz_surface(right, rname)
        if lsurf == rsurf:
            return [
                row(
                    Verdict.IDENTITY_CANDIDATE,
                    "same stereotype, same identity anchor, and identical "
                    "declared surroundings; SpecializationCandidate and "
                    "SiblingSubtypesCandidate remain the weaker alternatives",
                )
            ]
        if lsurf < rsurf:
            direction = f"'{rname}' ({right.name}) may specialize '{lname}' ({left.name})"
        elif rsurf < lsurf:
            direction = f"'{lname}' ({left.name}) may specialize '{rname}' ({right.name})"
        else:
            direction = (
                "neither surface contains the other; sibling subtypes of a "
                "common supertype remain possible"
            )
        return [
            row(
                Verdict.SPECIALIZATION_CANDIDATE,
                f"declared surroundings differ, so identity would violate the "
                f"indiscernibility of identicals; {direction}",
            )
        ]

    # same top category, different classification principle
    lk, rk = identity_root(left, lname), identity_root(right, rname)
    if lk is not None and lk == rk:
        return [
            row(
                Verdict.SPECIALIZATION_CANDIDATE,
                f"both classify {lk}s under different conditions "
                f"({ls.value} vs {rs.value}); one may specialize the other",
            )
        ]
    return [
        row(
            Verdict.IDENTITY_EXCLUDED,
            f"incompatible classification principles ({ls.value} vs {rs.value}) "
            "with no shared identity anchor",
        )
    ]


def compare(
    left: Model,
    right: Model,
    pairs: list[tuple[str, str]] | None = None,
) -> list[Correspondence]:
    """Correspondence rows for the given pairs (name-equal pairs by default)."""
    if pairs is None:
        shared = sorted(set(left.classifiers) & set(right.classifiers))
        pairs = [(n, n) for n in shared]
    out: list[Correspondence] = []
    for lname, rname in pairs:
        out.extend(classify_pair(left, lname, right, rname))
    return out


__all__ = [
    "Verdict",
    "TopCategory",
    "Correspondence",
    "leibniz_surface",
    "classify_pair",
    "compare",
]
