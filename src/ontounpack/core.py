"""Core model representation: classifiers, relations, taxonomy queries.

A Model is an immutable value. Mutating operations elsewhere in the package
(unpack plans, CLI rewrites) always build a new Model.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import AmbiguousKindError, NoKindError


class Stereotype(Enum):
    """Ontological stereotype of a classifier."""

    KIND = "kind"
    SUBKIND = "subkind"
    PHASE = "phase"
    ROLE = "role"
    ROLE_MIXIN = "roleMixin"
    HISTORICAL_ROLE = "historicalRole"
    HISTORICAL_ROLE_MIXIN = "historicalRoleMixin"
    CATEGORY = "category"
    RELATOR = "relator"
    MODE = "mode"
    QUALITY = "quality"
    EVENT = "event"


class RelationStereotype(Enum):
    MATERIAL = "material"
    COMPARATIVE = "comparative"
    INTERNAL = "internal"
    MEDIATION = "mediation"
    CHARACTERIZATION = "characterization"
    PARTICIPATION = "participation"


class Rigidity(Enum):
    RIGID = "rigid"
    ANTI_RIGID = "antiRigid"


class Direction(Enum):
    """Polarity of a comparative: desc points from higher value to lower."""

    ASC = "asc"
    DESC = "desc"


SORTALS = frozenset({
    Stereotype.KIND,
    Stereotype.SUBKIND,
    Stereotype.PHASE,
    Stereotype.ROLE,
    Stereotype.HISTORICAL_ROLE,
})

NON_SORTALS = frozenset({
    Stereotype.CATEGORY,
    Stereotype.ROLE_MIXIN,
    Stereotype.HISTORICAL_ROLE_MIXIN,
})

ANTI_RIGID = frozenset({
    Stereotype.PHASE,
    Stereotype.ROLE,
    Stereotype.ROLE_MIXIN,
    Stereotype.HISTORICAL_ROLE,
    Stereotype.HISTORICAL_ROLE_MIXIN,
})

#: Stereotypes whose instances exist only by grace of a mediating relator or
#: a participation in an event.
ROLE_FAMILY = frozenset({
    Stereotype.ROLE,
    Stereotype.ROLE_MIXIN,
    Stereotype.HISTORICAL_ROLE,
    Stereotype.HISTORICAL_ROLE_MIXIN,
})

HISTORICAL = frozenset({Stereotype.HISTORICAL_ROLE, Stereotype.HISTORICAL_ROLE_MIXIN})

#: Stereotypes that can anchor the identity of an individual in a world.
MOMENT_ROOTS = frozenset({Stereotype.RELATOR, Stereotype.MODE, Stereotype.EVENT})


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token or declaration in its source text."""

    line: int
    column: int
    length: int = 0

    def to_dict(self) -> dict:
        return {"line": self.line, "col": self.column, "len": self.length}


DEFAULT_SPAN = SourceSpan(1, 1, 0)


@dataclass(frozen=True)
class Multiplicity:
    """A closed-open multiplicity interval; max=None means unbounded."""

    min: int
    max: int | None = None

    def __post_init__(self):
        if self.min < 0:
            raise ValueError(f"multiplicity min must be >= 0, got {self.min}")
        if self.max is not None and self.max < 1:
            raise ValueError(f"multiplicity max must be >= 1, got {self.max}")
        if self.max is not None and self.min > self.max:
            raise ValueError(f"multiplicity min {self.min} exceeds max {self.max}")

    @property
    def unbounded(self) -> bool:
        return self.max is None

    def admits(self, count: int) -> bool:
        return count >= self.min and (self.max is None or count <= self.max)

    def __str__(self) -> str:
        top = "*" if self.max is None else str(self.max)
        return f"[{self.min}..{top}]"

    def to_dict(self) -> dict:
        return {"min": self.min, "max": "*" if self.max is None else self.max}


MANY = Multiplicity(1, None)
ONE = Multiplicity(1, 1)


@dataclass(frozen=True)
class Derivation:
    """Truthmaker link from a material relation to its relator."""

    relator: str
    mult: Multiplicity = MANY

    def to_dict(self) -> dict:
        return {"relator": self.relator, "mult": self.mult.to_dict()}


@dataclass(frozen=True)
class ViaQuality:
    """Grounding of a comparative in an ordered quality."""

    quality: str
    direction: Direction

    def to_dict(self) -> dict:
        return {"quality": self.quality, "direction": self.direction.value}


@dataclass(frozen=True)
class Classifier:
    name: str
    stereotype: Stereotype
    parents: tuple[str, ...] = ()
    span: SourceSpan = field(default=DEFAULT_SPAN, compare=False)


def relation_shape_problems(
    name: str, stereotype: RelationStereotype, source_mult: Multiplicity | None,
    target_mult: Multiplicity | None, via: object, derived_from: object,
) -> list[str]:
    """Why a relation of this shape cannot be declared (empty when it can).

    `via` and `derived_from` count only as present or None.
    """
    problems = []
    if stereotype is RelationStereotype.COMPARATIVE:
        if source_mult is not None or target_mult is not None:
            problems.append(f"comparative '{name}' carries no multiplicities")
        if via is None:
            problems.append(f"comparative '{name}' needs a grounding ('via Quality asc|desc')")
    else:
        if source_mult is None or target_mult is None:
            problems.append(f"relation '{name}' needs multiplicities on both ends")
        if via is not None:
            problems.append(f"only comparative relations take a 'via' grounding, not '{name}'")
    if derived_from is not None and stereotype is not RelationStereotype.MATERIAL:
        problems.append(f"only material relations take 'derivedFrom', not '{name}'")
    return problems


@dataclass(frozen=True)
class RelationDecl:
    """A declared relation, of a shape both front doors accept.

    A comparative has a `via` and no multiplicities, any other relation both
    multiplicities and no `via`, and only a material relation may have a
    `derived_from`. Any other shape raises ValueError.
    """

    name: str
    stereotype: RelationStereotype
    source: str
    target: str
    source_mult: Multiplicity | None = None
    target_mult: Multiplicity | None = None
    derived_from: Derivation | None = None
    via: ViaQuality | None = None
    span: SourceSpan = field(default=DEFAULT_SPAN, compare=False)

    def __post_init__(self):
        problems = relation_shape_problems(self.name, self.stereotype, self.source_mult,
                                           self.target_mult, self.via, self.derived_from)
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class QualitySpace:
    """Value space of a quality: an integer range or a nominal label set."""

    owner: str
    ordered: tuple[int, int] | None = None
    labels: tuple[str, ...] | None = None
    span: SourceSpan = field(default=DEFAULT_SPAN, compare=False)

    @property
    def is_ordered(self) -> bool:
        return self.ordered is not None

    def contains(self, value) -> bool:
        if self.ordered is not None:
            return (
                isinstance(value, int) and not isinstance(value, bool)
                and self.ordered[0] <= value <= self.ordered[1]
            )
        return value in (self.labels or ())


@dataclass(frozen=True)
class GeneralizationSet:
    name: str
    general: str
    specifics: tuple[str, ...]
    is_disjoint: bool = False
    is_complete: bool = False
    span: SourceSpan = field(default=DEFAULT_SPAN, compare=False)


_RelationsByName = dict[str, tuple[RelationDecl, ...]]


@dataclass
class Model:
    """A resolved conceptual model. Treat as immutable.

    Truthmakers (mediations_of, anchoring) and grounds (grounding, grounds)
    are the model's own: rules, unpack and the world finder read them here.

    Derived data is memoized on the instance: the taxonomy maps below, the
    relation index (relations by source and by target name, read by
    relations_from / relations_to), the rule catalog's result (see
    rules.check), and one world-layer entry holding the tables the world
    finder, validate_world and eval_comparative read, and the model's rule
    Errors, but no world (see worlds._prep). Mutating a model after any of
    them is computed leaves them stale.
    """

    name: str
    classifiers: dict[str, Classifier] = field(default_factory=dict)
    relations: dict[str, RelationDecl] = field(default_factory=dict)
    gensets: dict[str, GeneralizationSet] = field(default_factory=dict)
    spaces: dict[str, QualitySpace] = field(default_factory=dict)

    # -- taxonomy -------------------------------------------------------

    @cached_property
    def _ancestor_map(self) -> dict[str, frozenset[str]]:
        cls = self.classifiers
        memo: dict[str, frozenset[str]] = {}
        for start in cls:
            if start in memo:
                continue
            path = [start]  # an explicit path, not recursion: taxonomies may be deep
            while path:
                name = path[-1]
                acc: set[str] = set()
                for p in cls[name].parents:
                    if p not in cls or p in path:
                        continue  # cycle guard; cycles are a parse error upstream
                    if p not in memo:
                        path.append(p)  # walk up first, come back to `name` later
                        break
                    acc.add(p)
                    acc |= memo[p]
                else:
                    memo[name] = frozenset(acc)
                    path.pop()
        return memo

    def ancestors(self, name: str) -> frozenset[str]:
        return self._ancestor_map.get(name, frozenset())

    def ancestors_or_self(self, name: str) -> frozenset[str]:
        return self.ancestors(name) | {name}

    @cached_property
    def _descendant_map(self) -> dict[str, set[str]]:
        desc: dict[str, set[str]] = {n: set() for n in self.classifiers}
        for n in self.classifiers:
            for a in self.ancestors(n):
                if a in desc:
                    desc[a].add(n)
        return desc

    def descendants(self, name: str) -> frozenset[str]:
        return frozenset(self._descendant_map.get(name, set()))

    def descendants_or_self(self, name: str) -> frozenset[str]:
        return self.descendants(name) | {name}

    def stereotype_of(self, name: str) -> Stereotype:
        return self.classifiers[name].stereotype

    def is_sortal(self, name: str) -> bool:
        return self.stereotype_of(name) in SORTALS

    def kinds_reached(self, name: str) -> frozenset[str]:
        """Kind-stereotyped classifiers among the ancestors-or-self of `name`."""
        return frozenset(
            a for a in self.ancestors_or_self(name)
            if a in self.classifiers and self.classifiers[a].stereotype is Stereotype.KIND
        )

    def sortal_descendants_or_self(self, name: str) -> frozenset[str]:
        return frozenset(
            d for d in self.descendants_or_self(name)
            if d in self.classifiers and self.is_sortal(d)
        )

    # -- relation indexes ----------------------------------------------

    @cached_property
    def _relation_ends(self) -> tuple[_RelationsByName, _RelationsByName]:
        """Relations by source name and by target name, in declaration order."""
        by_source: dict[str, list[RelationDecl]] = {}
        by_target: dict[str, list[RelationDecl]] = {}
        for r in self.relations.values():
            by_source.setdefault(r.source, []).append(r)
            by_target.setdefault(r.target, []).append(r)
        return (
            {n: tuple(rs) for n, rs in by_source.items()},
            {n: tuple(rs) for n, rs in by_target.items()},
        )

    def relations_from(self, name: str) -> tuple[RelationDecl, ...]:
        """Relations whose source is `name`, in declaration order."""
        return self._relation_ends[0].get(name, ())

    def relations_to(self, name: str) -> tuple[RelationDecl, ...]:
        """Relations whose target is `name`, in declaration order."""
        return self._relation_ends[1].get(name, ())

    def mediations_of(self, relator: str) -> list[RelationDecl]:
        """Mediations declared on the relator or inherited from an ancestor."""
        meds = [
            r for owner in self.ancestors_or_self(relator) for r in self.relations_from(owner)
            if r.stereotype is RelationStereotype.MEDIATION
        ]
        return sorted(meds, key=lambda r: r.name)

    def characterizations_of(self, source: str) -> list[RelationDecl]:
        return sorted(
            (
                r for r in self.relations_from(source)
                if r.stereotype is RelationStereotype.CHARACTERIZATION
            ),
            key=lambda r: r.name,
        )

    def anchoring(self, relator: str, end: str) -> list[str]:
        """Names of the relator's mediations that can bind a material relation's
        `end`: those targeting it, an ancestor or a descendant, by name."""
        near = self.ancestors_or_self(end) | self.descendants(end)
        return [m.name for m in self.mediations_of(relator) if m.target in near]

    def grounding(self, quality: str) -> tuple[list[RelationDecl], list[tuple[str, bool]]]:
        """What grounds `quality` in a world, as (direct, modes).

        `direct`: the quality's characterizations, in declaration order.
        `modes`: (name, whether the mode must have a value) of each
        characterization of a mode the quality characterizes, itself or
        through an ancestor; by mode name, then by name.
        """
        direct = [r for r in self.relations_from(quality)
                  if r.stereotype is RelationStereotype.CHARACTERIZATION]
        required: dict[str, bool] = {}
        for d in direct:
            for mode in self.descendants_or_self(d.target):
                if mode in self.classifiers and self.stereotype_of(mode) is Stereotype.MODE:
                    required[mode] = required.get(mode, False) or d.source_mult.min >= 1
        return direct, [(mc.name, required[mode]) for mode in sorted(required)
                        for mc in self.characterizations_of(mode)]

    def grounds(self, quality: str, end: str) -> bool:
        """Can an individual of `end` have a value of `quality` (see grounding)?"""
        up = self.ancestors_or_self(end)
        return any(r.target in up for r in self.characterizations_of(quality)) or any(
            self.relations[name].target in up for name, _ in self.grounding(quality)[1])


def rigidity(classifier: Classifier) -> Rigidity:
    """Modal rigidity of a classifier, read off its stereotype."""
    if classifier.stereotype in ANTI_RIGID:
        return Rigidity.ANTI_RIGID
    return Rigidity.RIGID


def ultimate_kind(model: Model, name: str) -> str:
    """The unique Kind a sortal specializes (or is).

    Raises NoKindError / AmbiguousKindError when the taxonomy gives the sortal
    zero or several identity principles. Non-sortals are rejected: they never
    supply identity.
    """
    cls = model.classifiers[name]
    if cls.stereotype not in SORTALS:
        raise NoKindError(f"{name} is a {cls.stereotype.value}, which carries no identity principle")
    kinds = model.kinds_reached(name)
    if not kinds:
        raise NoKindError(f"{name} specializes no kind")
    if len(kinds) > 1:
        raise AmbiguousKindError(f"{name} reaches several kinds: {', '.join(sorted(kinds))}")
    return next(iter(kinds))


def identity_root(model: Model, name: str) -> str | None:
    """The classifier that anchors identity for instances of `name`.

    Kinds anchor sortals; relators/modes/events anchor their own hierarchies
    (topmost same-flavored ancestor). Non-sortals and qualities return None:
    the former borrow identity from sortal witnesses, the latter are value
    spaces rather than individuals.
    """
    cls = model.classifiers.get(name)
    if cls is None:
        return None
    if cls.stereotype in SORTALS:
        kinds = model.kinds_reached(name)
        return next(iter(kinds)) if len(kinds) == 1 else None
    if cls.stereotype in MOMENT_ROOTS:
        flavored = [
            a for a in model.ancestors_or_self(name)
            if model.classifiers[a].stereotype is cls.stereotype
        ]
        tops = [
            a for a in flavored
            if not any(p in flavored for p in model.classifiers[a].parents)
        ]
        return tops[0] if len(tops) == 1 else None
    return None


def with_declarations(
    model: Model,
    *,
    classifiers: tuple[Classifier, ...] = (),
    relations: tuple[RelationDecl, ...] = (),
    gensets: tuple[GeneralizationSet, ...] = (),
    spaces: tuple[QualitySpace, ...] = (),
) -> Model:
    """A copy of `model` with extra declarations; each replaces any of its name in place."""
    cls = dict(model.classifiers)
    for c in classifiers:
        cls[c.name] = c
    rels = dict(model.relations)
    for r in relations:
        rels[r.name] = r
    gs = dict(model.gensets)
    for g in gensets:
        gs[g.name] = g
    sp = dict(model.spaces)
    for s in spaces:
        sp[s.owner] = s
    return Model(name=model.name, classifiers=cls, relations=rels, gensets=gs, spaces=sp)


__all__ = [
    "Stereotype",
    "RelationStereotype",
    "Rigidity",
    "Direction",
    "SORTALS",
    "NON_SORTALS",
    "ANTI_RIGID",
    "ROLE_FAMILY",
    "HISTORICAL",
    "MOMENT_ROOTS",
    "SourceSpan",
    "DEFAULT_SPAN",
    "Multiplicity",
    "MANY",
    "ONE",
    "Derivation",
    "ViaQuality",
    "Classifier",
    "RelationDecl",
    "relation_shape_problems",
    "QualitySpace",
    "GeneralizationSet",
    "Model",
    "rigidity",
    "ultimate_kind",
    "identity_root",
    "with_declarations",
]
