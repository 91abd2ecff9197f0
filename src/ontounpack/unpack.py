"""Ontological-unpacking rewrites and the derived-cardinality calculus.

Two rewrites are supported, both producing immutable UnpackPlan values:
the relator pattern (a material relation gains an explicit truthmaking
relator with mediated roles) and the comparative pattern (a comparison is
grounded in an ordered quality). Plans are applied with `apply_plan`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    ROLE_FAMILY,
    Classifier,
    Derivation,
    Direction,
    Model,
    Multiplicity,
    QualitySpace,
    RelationDecl,
    RelationStereotype,
    Stereotype,
    ViaQuality,
    with_declarations,
)
from .errors import (
    AlreadyDerivedError,
    NameClashError,
    NotBinaryRelatorError,
    NotMaterialError,
    UnorderedSpaceError,
    UnpackError,
)
from .jsonio import classifier_dict, relation_dict, space_dict


@dataclass(frozen=True)
class UnpackPlan:
    """A pending rewrite of one relation: `relation` as the rewrite leaves it,
    plus the declarations the rewrite adds. Apply with apply_plan."""

    relation: RelationDecl
    new_classifiers: tuple[Classifier, ...] = ()
    new_relations: tuple[RelationDecl, ...] = ()
    new_spaces: tuple[QualitySpace, ...] = ()

    @property
    def target_relation(self) -> str:
        return self.relation.name

    def to_dict(self) -> dict:
        return {
            "targetRelation": self.target_relation,
            "newClassifiers": [classifier_dict(c) for c in self.new_classifiers],
            "newRelations": [relation_dict(r) for r in self.new_relations],
            "newSpaces": [space_dict(s) for s in self.new_spaces],
            "relation": relation_dict(self.relation),
        }


def _taken(model: Model) -> set[str]:
    return set(model.classifiers) | set(model.relations)


def _claim(name: str, taken: set[str]):
    if name in taken:
        raise NameClashError(f"name '{name}' is already declared")
    taken.add(name)


def unpack_material(
    model: Model,
    relation: str,
    relator_name: str,
    role_names: tuple[str, str],
) -> UnpackPlan:
    """Relator-pattern rewrite: make the truthmaker of a material relation explicit.

    Introduces a relator, a role per end, mediations with relator-side [1..*]
    and mediated-side [1..1], and records the derivation. An end that already
    is a role is reused when the two ends differ; when both ends are one
    classifier, each end gets its own new role from `role_names`. The
    relation's ends move onto the roles, so its bounds constrain only those
    who play them. Widening the generated multiplicities afterwards is the
    modeler's call.
    """
    rel = model.relations.get(relation)
    if rel is None:
        raise NotMaterialError(f"no relation named '{relation}'")
    if rel.stereotype is not RelationStereotype.MATERIAL:
        raise NotMaterialError(f"'{relation}' is {rel.stereotype.value}, not material")
    if rel.derived_from is not None:
        raise AlreadyDerivedError(
            f"'{relation}' is already derived from '{rel.derived_from.relator}'"
        )

    taken = _taken(model)
    _claim(relator_name, taken)
    new_classifiers: list[Classifier] = [Classifier(relator_name, Stereotype.RELATOR)]
    new_relations: list[RelationDecl] = []
    roles: list[str] = []
    for end, proposed in zip((rel.source, rel.target), role_names):
        if rel.source != rel.target and model.classifiers[end].stereotype in ROLE_FAMILY:
            role = end  # the end already names the mediated role
        else:
            _claim(proposed, taken)
            new_classifiers.append(Classifier(proposed, Stereotype.ROLE, (end,)))
            role = proposed
        roles.append(role)
        med_name = f"mediates{role}"
        _claim(med_name, taken)
        new_relations.append(RelationDecl(
            med_name, RelationStereotype.MEDIATION, relator_name, role,
            Multiplicity(1, None), Multiplicity(1, 1),
        ))
    return UnpackPlan(
        replace(rel, derived_from=Derivation(relator_name, Multiplicity(1, None)),
                source=roles[0], target=roles[1]),
        tuple(new_classifiers),
        tuple(new_relations),
    )


def unpack_comparative(
    model: Model,
    relation: str,
    quality_name: str,
    space: QualitySpace,
    direction,
) -> UnpackPlan:
    """Comparative-pattern rewrite: ground a comparison in an ordered quality.

    Reclassifies a material relation as a comparative (a comparative is
    always grounded already, so it is refused). Reuses `quality_name` when it
    already names an ordered quality with the given space; otherwise
    introduces it with the given space plus a characterization anchored at
    the ends' shared kind (or at the end, when both ends are one classifier).
    """
    rel = model.relations.get(relation)
    if rel is None:
        raise NotMaterialError(f"no relation named '{relation}'")
    if rel.stereotype not in (RelationStereotype.COMPARATIVE, RelationStereotype.MATERIAL):
        raise NotMaterialError(
            f"'{relation}' is {rel.stereotype.value}; only comparative or material "
            "relations can be grounded"
        )
    if rel.via is not None:
        raise AlreadyDerivedError(f"'{relation}' is already grounded via '{rel.via.quality}'")
    if rel.derived_from is not None:
        raise AlreadyDerivedError(
            f"'{relation}' is already derived from '{rel.derived_from.relator}'"
        )

    if space.is_ordered:
        lo, hi = space.ordered
        # the DSL spells no sign and refuses an inverted range, so such a
        # space could not be read back; it is refused even where an existing
        # quality keeps its own
        if lo < 0:
            raise UnorderedSpaceError(f"space bound must be >= 0, got {lo}")
        if hi < lo:
            raise UnorderedSpaceError(
                f"ordered space of '{quality_name}': upper bound {hi} is below lower bound {lo}"
            )

    taken = _taken(model)
    new_classifiers: list[Classifier] = []
    new_spaces: list[QualitySpace] = []
    existing = model.classifiers.get(quality_name)
    if existing is not None:
        if existing.stereotype is not Stereotype.QUALITY:
            raise NameClashError(
                f"'{quality_name}' is already declared as {existing.stereotype.value}"
            )
        declared = model.spaces.get(quality_name)
        if declared is None or not declared.is_ordered:
            raise UnorderedSpaceError(
                f"existing quality '{quality_name}' has no ordered space"
            )
        if space.ordered != declared.ordered:
            lo, hi = declared.ordered
            raise UnorderedSpaceError(f"existing quality '{quality_name}' has space "
                                      f"ordered {lo}..{hi}, not the one given")
    else:
        if not space.is_ordered:
            raise UnorderedSpaceError(
                f"comparative '{relation}' needs an ordered space, got nominal"
            )
        _claim(quality_name, taken)
        new_classifiers.append(Classifier(quality_name, Stereotype.QUALITY))
        new_spaces.append(QualitySpace(quality_name, space.ordered, None))

    new_relations: list[RelationDecl] = []
    ends = list(dict.fromkeys((rel.source, rel.target)))
    already_grounded = existing is not None and all(
        model.grounds(quality_name, e) for e in ends
    )
    if not already_grounded:
        target = _characterization_target(model, rel)
        char_name = f"has{quality_name}"
        _claim(char_name, taken)
        new_relations.append(RelationDecl(
            char_name, RelationStereotype.CHARACTERIZATION, quality_name, target,
            Multiplicity(1, 1), Multiplicity(1, 1),
        ))

    return UnpackPlan(
        replace(rel, stereotype=RelationStereotype.COMPARATIVE, source_mult=None,
                target_mult=None, via=ViaQuality(quality_name, Direction(direction))),
        tuple(new_classifiers),
        tuple(new_relations),
        tuple(new_spaces),
    )


def _characterization_target(model: Model, rel: RelationDecl) -> str:
    """Where the grounding quality attaches: the ends' mode, or their shared kind."""
    if rel.source == rel.target:
        return rel.source
    src_kinds = model.kinds_reached(rel.source)
    tgt_kinds = model.kinds_reached(rel.target)
    shared = src_kinds & tgt_kinds
    if len(src_kinds) == 1 and src_kinds == tgt_kinds:
        return next(iter(shared))
    raise UnpackError(
        f"ends '{rel.source}' and '{rel.target}' of '{rel.name}' share no kind; "
        "declare the characterization target explicitly"
    )


def apply_plan(model: Model, plan: UnpackPlan) -> Model:
    """Materialize a plan into a new model; the input model is untouched."""
    return with_declarations(
        model,
        classifiers=plan.new_classifiers,
        relations=(*plan.new_relations, plan.relation),
        spaces=plan.new_spaces,
    )


def _times(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return a * b


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def derive_material_cardinalities(
    model: Model, relator: str,
) -> tuple[Multiplicity, Multiplicity, Multiplicity]:
    """Tightest entailed multiplicities for the material relation under `relator`.

    With mediations to A and B (sorted by mediation name), each A instance in
    nA..NA relators and each relator holding mA..MA A-instances (same for B):

        endB seen from one A   = [ mB if nA>=1 else 0 .. NA*MB ]
        endA seen from one B   = [ mA if nB>=1 else 0 .. NB*MA ]
        tuples per related pair = [ 1 .. min(NA, NB) ]

    The per-tuple lower bound is 1 by construction: a pair belongs to the
    derived relation only when at least one relator witnesses it, however
    optional each end's participation is.

    None, an unbounded max, is infinity here. Returns (endA, endB, perTuple).
    """
    cls = model.classifiers.get(relator)
    if cls is None or cls.stereotype is not Stereotype.RELATOR:
        raise NotBinaryRelatorError(f"'{relator}' is not a declared relator")
    meds = model.mediations_of(relator)
    if len(meds) != 2:
        raise NotBinaryRelatorError(
            f"relator '{relator}' has {len(meds)} mediations; the calculus needs exactly 2"
        )
    med_a, med_b = meds
    n_a, cap_n_a = med_a.source_mult.min, med_a.source_mult.max
    m_a, cap_m_a = med_a.target_mult.min, med_a.target_mult.max
    n_b, cap_n_b = med_b.source_mult.min, med_b.source_mult.max
    m_b, cap_m_b = med_b.target_mult.min, med_b.target_mult.max

    end_b = Multiplicity(m_b if n_a >= 1 else 0, _times(cap_n_a, cap_m_b))
    end_a = Multiplicity(m_a if n_b >= 1 else 0, _times(cap_n_b, cap_m_a))
    per_tuple = Multiplicity(1, _min_bound(cap_n_a, cap_n_b))
    return end_a, end_b, per_tuple


__all__ = [
    "UnpackPlan",
    "unpack_material",
    "unpack_comparative",
    "apply_plan",
    "derive_material_cardinalities",
]
