"""Bounded enumeration of instance worlds (snapshot interpretations).

A world is a finite interpretation of a model: individuals carrying type
sets, links for the dependence relations (mediation, participation, internal,
mode characterization), derived material links, and quality values. The
enumerator is exhaustive within a Scope, yields pairwise non-isomorphic
worlds, and is deterministic.

Worlds form a stream ordered by (individual count, per-base count vector,
canonical key): count vectors come in increasing total and each vector is
generated, deduped and sorted on its own. Each query (enumerate_worlds,
find_witness, check_metaproperties) walks its own stream and stops pulling
once it has its answer, so a witness is a world with the fewest individuals
in scope. A walk skips every count vector that cannot hold the query's
answer: a goal variable or a relation end needs an individual of a base
that may carry its type, and every emitted world passes validate_world,
which types no individual outside those bases. So a witness costs only the
worlds before it in the vectors that could hold it. No world outlives its
query, and an error leaves nothing behind: the next query starts over. The
model's rule check runs once per Model instance.

A comparative's meta-properties are mostly decided by the ordered quality it
is grounded in, not by the worlds: it relates x to y when x's best value
beats y's, so strictly it is irreflexive, asymmetric and transitive in every
world, and with ties admitted transitive in every world. check_metaproperties
reads those verdicts off the order and searches the stream only for the
rest (internal relations, and a lax comparative's irreflexivity and
asymmetry); with nothing left to search it still opens its walk, which
refuses the model or scope as for any query, and generates no world.

Bounds before the symmetry test: each stored relation's source-side
multiplicity bounds the links into every target. A link choice of the open
individuals that puts more links into an open target than the max is
dropped while candidates are drawn (links only add to a count), and a whole
candidate is dropped before the symmetry test when it puts more than the
max into an open target, or fewer than the min into a target whose free
profile already holds the relation's target type (assembly only adds types
to a profile). Both are refusals _assemble would make; they are invariant
under the swaps below, so an orbit is refused whole and the least candidate
of every other orbit is kept. _assemble still checks every bound, since
memberships derived from links (justified roles) decide the rest.

Symmetry handling: individuals of one identity base are interchangeable.
Free type profiles are sorted multisets, and never-targeted ("pure") bases
pack their links and values into per-individual options, also multisets. A
candidate, encoded by its open link-choice indices and then per pure base its
sorted option indices, is skipped before assembly when swapping two adjacent
open individuals of one base and profile gives a smaller encoding (lex-leader
pruning; Shlyakhter 2001, Torlak & Jackson, TACAS 2007). Such swaps generate
each block's symmetric group and commute with assembly and value completion,
so the least candidate of every orbit survives. Exactness rests on the
canonical relabeling of every world and the key dedupe; the prune cuts work.
The relabeling is color refinement plus minimization over the orders of twin
classes within color classes: twins are tied individuals with the same
outgoing and incoming (relation, neighbour) pairs, so swapping two maps the
links onto themselves and only the sequence of their classes can change the
rows (twin collapse; McKay & Piperno, "Practical graph isomorphism II",
2014). The first arrangement with the least link rows wins, and its rows
are the key's. Colours, type rows and value rows are ordered by their own
values, so labels follow the values' order: a condition of severity 9 is
labelled before one of severity 10. Every comparison is defined, since each
(quality, bearer) pair has one value and a scope gives each quality's
values one type.

The symmetry test works on tables that the stream's worlds share. A frame's
_Symmetry holds, per swap and per distinct option list, the position of
each option's image, so a pure multiset is mapped through its table and
sorted, and the first base whose image differs decides. Every table is the
stream's and goes with its walk.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import (
    chain,
    combinations,
    combinations_with_replacement,
    groupby,
    islice,
    product,
    repeat,
)
from operator import ge, gt, itemgetter

from .core import (
    NON_SORTALS,
    ROLE_FAMILY,
    Direction,
    Model,
    Multiplicity,
    RelationDecl,
    RelationStereotype,
    Stereotype,
    identity_root,
)
from .errors import (
    IllFormedModelError,
    MissingQualityValueError,
    ScopeTooLargeError,
)
from .rules import Diagnostic, Severity, check


def _as_sorted_items(value) -> tuple:
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return tuple(value)


@dataclass(frozen=True)
class Scope:
    """Bounds for world enumeration.

    per_classifier caps individuals per identity base; an entry for a
    non-base classifier acts as a filter on that classifier's extension.
    default_count applies to bases only — listing a role caps it, omitting it
    does not.
    """

    per_classifier: tuple = ()
    default_count: int = 2
    quality_values: tuple = ()
    world_limit: int = 100

    def __post_init__(self):
        per = _as_sorted_items(self.per_classifier)
        for name, count in per:
            if count < 0:
                raise ValueError(f"scope count for '{name}' must be >= 0, got {count}")
        qv = tuple(
            (q, tuple(vs))
            for q, vs in _as_sorted_items(self.quality_values)
        )
        for q, vs in qv:
            # worlds sort by their value rows, and values of two types may not compare
            if len({type(v) for v in vs}) > 1:
                raise ValueError(f"scope values of quality '{q}' mix types: {vs!r}")
        if self.default_count < 0:
            raise ValueError(f"default scope count must be >= 0, got {self.default_count}")
        if self.world_limit < 1:
            raise ValueError(f"world limit must be >= 1, got {self.world_limit}")
        object.__setattr__(self, "per_classifier", per)
        object.__setattr__(self, "quality_values", qv)

    @cached_property
    def _caps(self) -> dict[str, int]:
        return dict(self.per_classifier)

    def count_for_base(self, name: str) -> int:
        explicit = self._caps.get(name)
        return self.default_count if explicit is None else explicit

    def values_for(self, quality: str) -> tuple | None:
        for q, vs in self.quality_values:
            if q == quality:
                return vs
        return None


DEFAULT_SCOPE = Scope()


@dataclass(frozen=True)
class InstanceWorld:
    """One snapshot interpretation; all rows are canonically sorted tuples."""

    individuals: tuple[tuple[str, str], ...] = ()          # (id, base classifier)
    type_rows: tuple[tuple[str, tuple[str, ...]], ...] = ()
    links: tuple[tuple[str, str, str], ...] = ()           # (relation, source, target)
    value_rows: tuple[tuple[str, str, object], ...] = ()   # (quality, bearer, value)

    @cached_property
    def types(self) -> dict[str, frozenset[str]]:
        return {ind: frozenset(ts) for ind, ts in self.type_rows}

    @cached_property
    def values(self) -> dict[tuple[str, str], object]:
        return {(q, b): v for q, b, v in self.value_rows}

    @cached_property
    def link_set(self) -> frozenset[tuple[str, str, str]]:
        return frozenset(self.links)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.individuals)

    def extension(self, classifier: str) -> list[str]:
        return [i for i in self.ids if classifier in self.types.get(i, frozenset())]

    def to_dict(self) -> dict:
        return {
            "individuals": [list(row) for row in self.individuals],
            "typeAssignments": {ind: list(ts) for ind, ts in self.type_rows},
            "links": [list(row) for row in self.links],
            "qualityValues": [list(row) for row in self.value_rows],
        }


EMPTY_WORLD = InstanceWorld()


@dataclass(frozen=True)
class Goal:
    """Existentially closed conjunction of typing and link atoms."""

    typings: tuple[tuple[str, str], ...]
    links: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "typings", tuple(tuple(t) for t in self.typings))
        object.__setattr__(self, "links", tuple(tuple(l) for l in self.links))
        typed = {v for v, _ in self.typings}
        for _, a, b in self.links:
            for v in (a, b):
                if v not in typed:
                    raise ValueError(f"goal variable '{v}' appears in no typing atom")


def goal_holds(world: InstanceWorld, goal: Goal) -> bool:
    required: dict[str, set[str]] = {}
    for var, cls in goal.typings:
        required.setdefault(var, set()).add(cls)
    variables = sorted(required)
    candidates = []
    for var in variables:
        need = required[var]
        ids = [i for i in world.ids if need <= world.types[i]]
        if not ids:
            return False
        candidates.append(ids)
    links = world.link_set
    for combo in product(*candidates):
        env = dict(zip(variables, combo))
        if all((r, env[a], env[b]) in links for r, a, b in goal.links):
            return True
    return False


# --------------------------------------------------------------------------
# model preprocessing shared by the enumerator and the validator
# --------------------------------------------------------------------------

_STORED = (
    RelationStereotype.MEDIATION,
    RelationStereotype.PARTICIPATION,
    RelationStereotype.INTERNAL,
)


class _Prep:
    """Tables derived from a model alone, built once per Model instance (see _prep)."""

    def __init__(self, model: Model):
        self.model = model
        cls = model.classifiers

        self.base_of: dict[str, str | None] = {
            name: identity_root(model, name) for name in cls
        }
        self.bases: list[str] = sorted(
            name for name, root in self.base_of.items() if root == name
        )
        self.family: dict[str, list[str]] = {b: [] for b in self.bases}
        for name, root in self.base_of.items():
            if root in self.family:
                self.family[root].append(name)
        for members in self.family.values():
            members.sort()

        # classifiers whose membership is derived from links (role family with
        # a defining relation targeting them exactly)
        self.defining: dict[str, list[str]] = {}
        for r in model.relations.values():
            if r.stereotype in (RelationStereotype.MEDIATION, RelationStereotype.PARTICIPATION):
                if cls.get(r.target) is not None and cls[r.target].stereotype in ROLE_FAMILY:
                    self.defining.setdefault(r.target, []).append(r.name)
        for names in self.defining.values():
            names.sort()
        self.justified: frozenset[str] = frozenset(self.defining)

        self.free: dict[str, list[str]] = {
            b: [
                c for c in self.family[b]
                if c != b and c not in self.justified
            ]
            for b in self.bases
        }
        # a justified mixin has no base (identity_root), so these are sortals
        self.justified_sortals_of: dict[str, list[str]] = {
            b: sorted(c for c in self.justified if self.base_of.get(c) == b) for b in self.bases
        }

        rels = sorted(model.relations.values(), key=lambda r: r.name)

        def characterizes(r: RelationDecl, source: Stereotype) -> bool:
            return r.stereotype is RelationStereotype.CHARACTERIZATION \
                and r.source in cls and cls[r.source].stereotype is source

        # stored-link relations: dependence links plus mode characterizations
        self.stored: list[RelationDecl] = [
            r for r in rels if r.stereotype in _STORED or characterizes(r, Stereotype.MODE)
        ]
        # quality characterizations: value assignments, not links
        self.value_chars: list[RelationDecl] = [
            r for r in rels if characterizes(r, Stereotype.QUALITY)
        ]

        # open individuals draw links for all their possible types, but a
        # justified classifier (and a non-sortal above one) is had only through
        # a defining link: links from such a source are checked on assembly
        link_typed = self.up_close(self.justified) - set(self.bases).union(*self.free.values())
        self.link_typed_sources: list[RelationDecl] = [
            r for r in self.stored if r.source in link_typed
        ]

        # material relations and their end-compatible mediations
        def anchoring(r: RelationDecl, end: str) -> list[str]:
            near = model.ancestors_or_self(end) | model.descendants(end)
            return [m.name for m in model.mediations_of(r.derived_from.relator) if m.target in near]

        self.materials: list[tuple[RelationDecl, list[str], list[str]]] = [
            (r, anchoring(r, r.source), anchoring(r, r.target))
            for r in rels
            if r.derived_from is not None
        ]

        # bases whose individuals can be link targets (not packable as options)
        targeted: set[str] = set()
        for r in self.stored:
            targeted |= self.bases_of(r.target)
        self.pure_bases: list[str] = [b for b in self.bases if b not in targeted]
        self.open_bases: list[str] = [b for b in self.bases if b in targeted]

        # what grounds a comparative's quality: its direct characterizations in
        # declaration order, and (name, value required) of each mode
        # characterization whose mode one of them characterizes
        chars = [r for r in model.relations.values()
                 if r.stereotype is RelationStereotype.CHARACTERIZATION]
        self.groundings: dict[str, tuple[list[RelationDecl], list[tuple[str, bool]]]] = {}
        for q in {r.via.quality for r in model.relations.values() if r.via is not None}:
            direct = [c for c in chars if c.source == q]
            modes = []
            for mc in chars:
                if not characterizes(mc, Stereotype.MODE):
                    continue
                grounding = [d for d in direct if d.target in model.ancestors_or_self(mc.source)]
                if grounding:
                    modes.append((mc.name, any(
                        d.source_mult.min >= 1 for d in grounding
                    )))
            self.groundings[q] = (direct, modes)

    @cached_property
    def errors(self) -> list[Diagnostic]:
        """The model's rule Errors; a query on a model with any is refused."""
        return [d for d in check(self.model) if d.severity is Severity.ERROR]

    # -- taxonomy helpers ------------------------------------------------

    def bases_of(self, classifier: str) -> frozenset[str]:
        """Identity bases whose individuals may instantiate `classifier`.

        The bases of it and its descendants: R1 and R2 keep every descendant
        of a sortal or moment classifier on that classifier's own base.
        """
        roots = {self.base_of.get(d) for d in self.model.descendants_or_self(classifier)}
        return frozenset(roots - {None})

    def up_close(self, names) -> frozenset[str]:
        out: set[str] = set()
        for n in names:
            out |= self.model.ancestors_or_self(n)
        return frozenset(out)

    # -- enumeration building blocks --------------------------------------

    @cached_property
    def profiles(self) -> dict[str, list[frozenset[str]]]:
        """Per base: deduped upward closures of free-classifier choices."""
        out: dict[str, list[frozenset[str]]] = {}
        for b in self.bases:
            free = self.free[b]
            seen: dict[frozenset[str], None] = {}
            for size in range(len(free) + 1):
                for chosen in combinations(free, size):
                    closure = self.up_close((b, *chosen))
                    if all(
                        sum(s in closure for s in g.specifics) <= 1
                        for g in self.model.gensets.values() if g.is_disjoint
                    ):
                        seen.setdefault(closure, None)
            out[b] = sorted(seen, key=lambda s: tuple(sorted(s)))
        return out

    @cached_property
    def possible_types(self) -> dict[frozenset[str], frozenset[str]]:
        """Per profile: its closure plus every justified sortal the profile can support."""
        out: dict[frozenset[str], frozenset[str]] = {}
        for base, profiles in self.profiles.items():
            for profile in profiles:
                types = set(profile)
                for j in self.justified_sortals_of[base]:
                    needed = self.model.ancestors(j) & frozenset(self.free[base])
                    if needed <= profile:
                        types |= self.model.ancestors_or_self(j)
                out[profile] = frozenset(types)
        return out

    def allowed_values(self, scope: Scope) -> dict[str, tuple]:
        """The values each characterized quality takes in `scope`, checked against its space."""
        table: dict[str, tuple] = {}
        for quality in dict.fromkeys(c.source for c in self.value_chars):
            space = self.model.spaces.get(quality)
            chosen = scope.values_for(quality)
            if chosen is not None:
                bad = [v for v in chosen if space is not None and not space.contains(v)]
                if bad:
                    raise ValueError(
                        f"scope value {bad[0]!r} outside the space of quality '{quality}'"
                    )
                table[quality] = chosen
            elif space is None:
                raise ValueError(f"quality '{quality}' has no declared space and no scope values")
            elif space.ordered is not None:
                lo, hi = space.ordered
                table[quality] = tuple(range(lo, min(lo + 3, hi + 1)))
            else:
                table[quality] = (space.labels or ())[:3]
        return table


def _target_subsets(candidates: tuple, mult: Multiplicity):
    """All target-sets one source may link, sized by the target-side bound."""
    hi = len(candidates) if mult.max is None else min(mult.max, len(candidates))
    for size in range(mult.min, hi + 1):
        yield from combinations(candidates, size)


# --------------------------------------------------------------------------
# enumeration
# --------------------------------------------------------------------------

# the most individuals one scope may admit, summed over the identity bases
MAX_TOTAL_INDIVIDUALS = 14


def enumerate_worlds(model: Model, scope: Scope | None = None) -> list[InstanceWorld]:
    """The first scope.world_limit pairwise non-isomorphic worlds within scope.

    Worlds come in the order (individual count, per-base count vector,
    canonical key), so the list is exhaustive whenever the total count fits
    under world_limit, and otherwise holds the smallest worlds. Only the
    worlds returned are generated; no vector is skipped. A scope admitting
    more than MAX_TOTAL_INDIVIDUALS individuals raises ScopeTooLargeError.
    """
    scope = scope or DEFAULT_SCOPE
    return list(islice(_worlds(model, scope), scope.world_limit))


_PREP_MEMO = "_world_prep"


def _prep(model: Model) -> _Prep:
    """The model's _Prep, built once per Model instance.

    It stays in the model's __dict__ next to its cached_property maps (so ==,
    repr and output are unaffected). It holds tables of the model alone,
    its rule Errors among them, and no world.
    """
    prep = model.__dict__.get(_PREP_MEMO)
    if prep is None:
        prep = model.__dict__[_PREP_MEMO] = _Prep(model)
    return prep


def _worlds(model: Model, scope: Scope, needs=()) -> Iterator[InstanceWorld]:
    """A walk of the worlds of (model, scope) from the first; see _Stream.walk for `needs`."""
    return _Stream(_prep(model), scope).walk(needs)


class _Stream:
    """The worlds of one model and scope, ordered by (individual count, count vector, key).

    Count vectors (individuals per identity base) come in increasing total,
    and each vector's keys are deduped and sorted on their own, so no world
    waits for a larger one. Whatever refuses the model or the scope (rule
    Errors, names the model does not declare, a scope over
    MAX_TOTAL_INDIVIDUALS, scope values outside their space) raises on
    creation, before the first world.

    What depends only on the open individuals' profiles is built once per
    open-profile assignment, as a _Frame in `frames`, and serves every count
    vector that draws that assignment, and per-bearer value options are
    memoized in `value_options`. _worlds makes one stream per query and only
    its walk holds it, so these tables are freed with the walk.
    """

    def __init__(self, prep: _Prep, scope: Scope):
        model = prep.model
        if prep.errors:
            raise IllFormedModelError(prep.errors)
        cls = model.classifiers
        for name, _ in scope.per_classifier:
            if name not in cls:
                raise ValueError(f"scope names unknown classifier '{name}'")
        for q, _ in scope.quality_values:
            if q not in cls or cls[q].stereotype is not Stereotype.QUALITY:
                raise ValueError(f"scope values name unknown quality '{q}'")
        caps = [scope.count_for_base(b) for b in prep.bases]
        self.total = sum(caps)  # the most individuals of any count vector
        if self.total > MAX_TOTAL_INDIVIDUALS:
            raise ScopeTooLargeError(
                f"scope admits up to {self.total} individuals; "
                f"the hard cap is {MAX_TOTAL_INDIVIDUALS}"
            )
        self.prep = prep
        self.values = prep.allowed_values(scope)
        # a base's cap already bounds its count vectors
        self.caps = [(name, cap) for name, cap in scope.per_classifier if name not in prep.family]
        # a pure base capped at 0 has individuals in no vector, so it needs no options
        self.pure_bases = [b for b in prep.pure_bases if scope.count_for_base(b) > 0]
        self.vectors = sorted(product(*(range(cap + 1) for cap in caps)), key=lambda v: (sum(v), v))
        self.value_options: dict[frozenset[str], list[tuple]] = {}
        self.frames: dict[tuple, _Frame] = {}  # per open-profile assignment

    def walk(self, needs) -> Iterator[InstanceWorld]:
        """The worlds in stream order, but for each count vector that leaves a `needs` group empty.

        A query names one group of identity bases per individual its answer
        needs: those whose individuals may carry that individual's types
        (_Prep.bases_of). A skipped vector holds no answer, so the first
        answer is the full stream's.
        """
        at = [[n for n, b in enumerate(self.prep.bases) if b in group] for group in needs]
        for vector in self.vectors:
            if all(any(vector[n] for n in group) for group in at):
                keys = sorted(set(_worlds_for_counts(self, dict(zip(self.prep.bases, vector)))))
                yield from (InstanceWorld(*rows) for rows in keys)


def _worlds_for_counts(stream: _Stream, count_of: dict[str, int]):
    """Yield the canonical key of every world with these per-base counts."""
    prep = stream.prep
    open_bases = [b for b in prep.open_bases if count_of[b] > 0]
    # the pure bases with individuals, by position in stream.pure_bases
    pure_at = [n for n, b in enumerate(stream.pure_bases) if count_of[b] > 0]
    pure_bases = [stream.pure_bases[n] for n in pure_at]

    # free-type profiles for open (targetable) bases, as multisets
    for open_profiles in product(*(
        combinations_with_replacement(prep.profiles[b], count_of[b]) for b in open_bases
    )):
        key = tuple(zip(open_bases, open_profiles))
        frame = stream.frames.get(key)
        if frame is None:
            frame = stream.frames[key] = _Frame(stream, key)
        individuals, profile_of = frame.individuals, frame.profile_of
        open_links, open_loads = frame.open_links, frame.open_loads
        bounds, symmetry = frame.bounds, frame.symmetry
        pure_options = [frame.pure_options[n] for n in pure_at]
        # a pure base's multisets of options as index tuples, and their summed
        # loads in the same order; a multiset that overflows a max is refused
        # with its whole candidate
        pure_choices = [
            list(combinations_with_replacement(range(len(opts)), count_of[b]))
            for b, opts in zip(pure_bases, pure_options)
        ]
        pure_loads = [
            list(map(sum, combinations_with_replacement(frame.pure_loads[n], count_of[b])))
            for n, b in zip(pure_at, pure_bases)
        ]
        for link_combo in product(*map(range, map(len, open_links))):
            load = sum(map(list.__getitem__, open_loads, link_combo))
            if not bounds.fits(load):
                continue
            ties = symmetry.open_ties(link_combo) if symmetry else ()
            if ties is None:
                continue
            base_links = [
                (r, ind, t)
                for (ind, _), choices, k in zip(individuals, open_links, link_combo)
                for r, t in choices[k]
            ]
            for pure_combo, pure_load in zip(product(*pure_choices), product(*pure_loads)):
                if not bounds.admits(load + sum(pure_load)):
                    continue
                if ties and any(symmetry.shrinks(swap, pure_at, pure_combo) for swap in ties):
                    continue
                inds = list(individuals)
                links = list(base_links)
                values: dict[tuple[str, str], object] = {}
                prof = dict(profile_of)
                for b, opts, combo in zip(pure_bases, pure_options, pure_combo):
                    for i, k in enumerate(combo):
                        profile, opt_links, opt_values = opts[k]
                        ind = f"{b}_{i}"
                        inds.append((ind, b))
                        prof[ind] = profile
                        links.extend((r, ind, t) for r, t in opt_links)
                        values.update({(q, ind): v for q, v in opt_values})

                assembled = _assemble(stream, inds, prof, links)
                if assembled is None:
                    continue
                types, all_links = assembled
                # pure-base values came with their options; value the open
                # bases now that their full types are known
                for open_values in product(*(
                    _value_options(stream, types[ind]) for ind, _ in individuals
                )):
                    value_map = dict(values)
                    for (ind, _), combo in zip(individuals, open_values):
                        value_map.update({(q, ind): v for q, v in combo})
                    yield _canonicalize(inds, types, all_links, value_map)


class _Frame:
    """What every candidate of one open-profile assignment shares, whatever the pure counts.

    An assignment is a (base, profile multiset) pair per open base with
    individuals. It fixes the open individuals and so the link targets, and
    with them each open individual's link choices, every pure base's
    options, the loads of both, the bounds and the symmetry. A count vector
    adds only its pure multisets.
    """

    def __init__(self, stream: _Stream, open_profiles: tuple):
        prep = stream.prep
        self.individuals: list[tuple[str, str]] = []   # (id, base); ids provisional
        self.profile_of: dict[str, frozenset[str]] = {}
        for b, profs in open_profiles:
            for i, prof in enumerate(profs):
                ind = f"{b}_{i}"
                self.individuals.append((ind, b))
                self.profile_of[ind] = prof
        possible = {ind: prep.possible_types[prof] for ind, prof in self.profile_of.items()}
        targets = {
            r.name: tuple(ind for ind, _ in self.individuals if r.target in possible[ind])
            for r in prep.stored
        }
        # each open individual holds the links its possible types allow (one
        # list per type set); a pure-base individual packs its links and
        # values into one option; candidates are indices into these lists
        choices_for = {ts: _link_choices(prep, ts, targets) for ts in set(possible.values())}
        self.open_links = [choices_for[possible[ind]] for ind, _ in self.individuals]
        self.pure_options = [_pure_options(stream, b, targets) for b in stream.pure_bases]
        # the load each link choice and each pure option puts on the bounded targets
        self.bounds = bounds = _Bounds(prep, targets, self.profile_of, stream.total)
        loads_for = {ts: list(map(bounds.load, choices)) for ts, choices in choices_for.items()}
        self.open_loads = [loads_for[possible[ind]] for ind, _ in self.individuals]
        self.pure_loads = [
            [bounds.load(links) for _, links, _ in opts] for opts in self.pure_options
        ]
        # adjacent interchangeable open individuals, as (position of a, a, b)
        pairs = enumerate(zip(self.individuals, self.individuals[1:]))
        swaps = [
            (at, a, b) for at, ((a, base), (b, other)) in pairs
            if base == other and self.profile_of[a] == self.profile_of[b]
        ]
        self.symmetry = _Symmetry(swaps, self.open_links, self.pure_options) if swaps else None


class _Symmetry:
    """Swaps of adjacent interchangeable open individuals, acting on candidate encodings.

    Per swap and per option list (an open individual's link choices or a
    pure base's options), a table gives the position of each option's image.
    Every candidate within the bounds reads the open tables, so they are made
    at once, one per distinct list (the open individuals of one type set share
    one); a pure base's is made on first use. They live on the frame.
    """

    def __init__(self, swaps: list[tuple[int, str, str]], open_links, pure_options):
        self.pure_options = pure_options
        distinct = {id(links): links for links in open_links}
        # per swap: (position of the first individual, relabelling, per open
        # individual its table, per pure base its table once built)
        self.swaps = []
        for at, a, b in swaps:
            relabel = {a: b, b: a}
            table = {n: _images(links, relabel, False) for n, links in distinct.items()}
            opens = [table[id(links)] for links in open_links]
            self.swaps.append((at, relabel, opens, [None] * len(pure_options)))

    def open_ties(self, combo: tuple) -> list | None:
        """None if a swap makes the open part smaller, else the swaps that keep it equal."""
        ties = []
        for swap in self.swaps:
            at, _, tables, _ = swap
            for k, i in enumerate(combo):
                source = combo[at + 1] if k == at else combo[at] if k == at + 1 else i
                # lists at and at + 1 are one list
                j = tables[k][source]
                if j < i:
                    return None
                if j != i:
                    break
            else:
                ties.append(swap)
        return ties

    def shrinks(self, swap, pure_at: list[int], pure_combo: tuple) -> bool:
        """Whether a swap that keeps the open part equal makes the pure part smaller.

        `pure_combo` holds a multiset per pure base with individuals, and
        `pure_at` those bases' positions among all of them, so the tables of
        one frame serve every count vector. The first base whose image
        differs decides, as in a comparison of the tuples of all images.
        """
        _, relabel, _, tables = swap
        for n, combo in zip(pure_at, pure_combo):
            table = tables[n] = tables[n] or _images(self.pure_options[n], relabel, True)
            image = tuple(sorted(map(table.__getitem__, combo)))
            if image < combo:
                return True
            if image != combo:
                return False
        return False


def _images(options: list, relabel: dict[str, str], pure: bool) -> list[int]:
    """Per option, the position of its image under `relabel` among `options`.

    A pure base's options are (profile, links, values), an open individual's its links.
    """
    def key(option, relabel):
        profile, links, values = option if pure else (None, option, None)
        return profile, frozenset((r, relabel.get(t, t)) for r, t in links), values

    position = {key(option, {}): k for k, option in enumerate(options)}
    return [position[key(option, relabel)] for option in options]


class _Bounds:
    """Source-side bounds of the stored relations on open targets, checked on packed loads.

    A load counts the links into every bounded (relation, target) key, one
    bit field per key. `total` is the scope's largest individual count (the
    sum of its base caps), so one layout serves every count vector of a
    stream. A field is wide enough for `total` plus a guard bit, since one
    source links a key at most once, so loads add as plain integers without
    carrying between fields. Adding an offset sets a field's guard bit
    exactly when its count is over the max (`fits`), or at least the min
    (`admits`). A key has a max when the relation's source-side max is below
    `total`, and a min when that min is positive and the target's free
    profile holds the relation's target type: assembly only adds types to
    the profile, so the target is bound to be an instance. A vector with
    fewer individuals decides as a layout sized to it would: no count
    exceeds the vector's individual count, so a max between that count and
    `total` is never exceeded, and a min above it still refuses every load.
    """

    def __init__(self, prep: _Prep, targets: dict[str, tuple], profile_of, total: int):
        width = total.bit_length() + 1
        guard = 1 << (width - 1)  # above any count
        self.unit: dict[tuple[str, str], int] = {}
        self.over = self.over_mask = self.under = self.under_mask = 0
        for r in prep.stored:
            mult = r.source_mult
            for t in targets[r.name]:
                # no count passes `total`; a min past it refuses every load all the same
                hi = mult.max if mult.max is not None and mult.max < total else None
                lo = min(mult.min, total + 1) if r.target in profile_of[t] else 0
                if hi is None and not lo:
                    continue
                shift = width * len(self.unit)
                self.unit[r.name, t] = 1 << shift
                if hi is not None:
                    self.over += (guard - 1 - hi) << shift
                    self.over_mask |= guard << shift
                if lo:
                    self.under += (guard - lo) << shift
                    self.under_mask |= guard << shift

    def load(self, links) -> int:
        """The load of (relation, target) links."""
        return sum(map(self.unit.get, links, repeat(0)))

    def fits(self, load: int) -> bool:
        """No key over its max; more links only add to a load, so a misfit stays one."""
        return not (load + self.over) & self.over_mask

    def admits(self, load: int) -> bool:
        """Every key within its bounds: the load of a whole candidate."""
        return self.fits(load) and (load + self.under) & self.under_mask == self.under_mask


def _link_choices(prep: _Prep, types, targets: dict[str, tuple]) -> list[tuple]:
    """Every tuple of (relation, target) links one source with `types` can hold.

    The product, over the stored relations whose source is in `types`, of the
    target sets that relation's target-side bound admits.
    """
    return [
        tuple(link for group in combo for link in group)
        for combo in product(*(
            [tuple((r.name, t) for t in chosen)
             for chosen in _target_subsets(targets[r.name], r.target_mult)]
            for r in prep.stored if r.source in types
        ))
    ]


def _pure_options(stream: _Stream, base: str, targets: dict[str, tuple]) -> list[tuple]:
    """Per-individual (profile, links, values) options for a pure base."""
    prep = stream.prep
    return [
        (profile, links, values)
        for profile in prep.profiles[base]
        for links in _link_choices(prep, profile, targets)
        for values in _value_options(stream, profile)
    ]


def _value_options(stream: _Stream, types: frozenset[str]) -> list[tuple]:
    """All value assignments for one bearer with the given types, memoized per stream."""
    options = stream.value_options.get(types)
    if options is None:
        required: dict[str, bool] = {}
        for c in stream.prep.value_chars:
            if c.target in types:
                needed = c.source_mult.min >= 1
                required[c.source] = required.get(c.source, False) or needed
        # a quality contributes one (quality, value) row, or none when optional
        options = stream.value_options[types] = [
            tuple(row for part in combo for row in part)
            for combo in product(*(
                [((q, v),) for v in stream.values[q]] + ([] if required[q] else [()])
                for q in sorted(required)
            ))
        ]
    return options


def _assemble(stream: _Stream, individuals, profile_of, links):
    """Derive full type sets and material links; None when inconsistent."""
    prep = stream.prep
    model = prep.model
    types: dict[str, set[str]] = {
        ind: set(profile_of[ind]) for ind, _ in individuals
    }
    linked_via: dict[str, set[str]] = {c: set() for c in prep.justified}
    by_relation: dict[str, list[tuple[str, str]]] = {}
    for rel, s, t in links:
        by_relation.setdefault(rel, []).append((s, t))
    for classifier, rel_names in prep.defining.items():
        for rn in rel_names:
            for _, t in by_relation.get(rn, ()):
                linked_via[classifier].add(t)
    for classifier in prep.justified:
        closure = model.ancestors_or_self(classifier)
        for ind in linked_via[classifier]:
            types[ind] |= closure

    # justification is an iff: a justified classifier in the closure of the
    # free profile must still be backed by an actual link
    for classifier in prep.justified:
        members = {ind for ind, _ in individuals if classifier in types[ind]}
        if members != linked_via[classifier]:
            return None

    # a link's source must have the relation's source type once memberships
    # are derived (see _Prep.link_typed_sources)
    for r in prep.link_typed_sources:
        if any(r.source not in types[s] for s, _ in by_relation.get(r.name, ())):
            return None

    # per-target counts (the source-side multiplicity of each stored relation)
    for r in prep.stored:
        pairs = by_relation.get(r.name, ())
        incoming: dict[str, int] = {}
        for s, t in pairs:
            incoming[t] = incoming.get(t, 0) + 1
        for ind, _ in individuals:
            if r.target in types[ind]:
                if not r.source_mult.admits(incoming.get(ind, 0)):
                    return None
            elif ind in incoming:
                return None  # linked but not an instance of the target type

    # generalization sets
    for g in model.gensets.values():
        if g.is_disjoint:
            for ind, _ in individuals:
                if sum(1 for s in g.specifics if s in types[ind]) > 1:
                    return None
        if g.is_complete:
            for ind, _ in individuals:
                if g.general in types[ind] and not any(
                    s in types[ind] for s in g.specifics
                ):
                    return None

    # explicit per-classifier scope caps
    for name, cap in stream.caps:
        if sum(1 for ind, _ in individuals if name in types[ind]) > cap:
            return None

    # derived material links
    all_links = list(links)
    for rel, src_meds, tgt_meds in prep.materials:
        relator = rel.derived_from.relator
        relator_instances = [
            ind for ind, _ in individuals if relator in types[ind]
        ]
        derived: dict[tuple[str, str], int] = {}
        for r_ind in relator_instances:
            xs = {
                t for m in src_meds for s, t in by_relation.get(m, ()) if s == r_ind
            }
            ys = {
                t for m in tgt_meds for s, t in by_relation.get(m, ()) if s == r_ind
            }
            for x in xs:
                if rel.source not in types[x]:
                    continue
                for y in ys:
                    if rel.target not in types[y]:
                        continue
                    derived[(x, y)] = derived.get((x, y), 0) + 1
        for n in derived.values():
            if not rel.derived_from.mult.admits(n):
                return None
        outgoing: dict[str, int] = {}
        incoming: dict[str, int] = {}
        for x, y in derived:
            outgoing[x] = outgoing.get(x, 0) + 1
            incoming[y] = incoming.get(y, 0) + 1
        for ind, _ in individuals:
            if rel.source in types[ind] and not rel.target_mult.admits(outgoing.get(ind, 0)):
                return None
            if rel.target in types[ind] and not rel.source_mult.admits(incoming.get(ind, 0)):
                return None
        all_links.extend((rel.name, x, y) for x, y in sorted(derived))

    return {ind: frozenset(ts) for ind, ts in types.items()}, all_links


# --------------------------------------------------------------------------
# canonicalization
# --------------------------------------------------------------------------

def _canonicalize(individuals, types, links, values):
    """Rows of the world, relabelled per base to the least encoding: its canonical key."""
    out_links: dict[str, list[tuple[str, str, str]]] = {}
    in_links: dict[str, list[tuple[str, str, str]]] = {}
    for rel, s, t in links:
        out_links.setdefault(s, []).append((rel, s, t))
        in_links.setdefault(t, []).append((rel, s, t))
    value_of: dict[str, list[tuple[str, object]]] = {}
    for (q, b), v in values.items():
        value_of.setdefault(b, []).append((q, v))

    type_row = {ind: tuple(sorted(types[ind])) for ind, _ in individuals}
    color = {
        ind: (base, type_row[ind], tuple(sorted(value_of.get(ind, ()))))
        for ind, base in individuals
    }
    for _ in range(2):
        ranks = {c: i for i, c in enumerate(sorted(set(color.values())))}
        new_color = {}
        for ind, _base in individuals:
            new_color[ind] = (
                ranks[color[ind]],
                tuple(sorted((rel, ranks[color[t]]) for rel, _, t in out_links.get(ind, ()))),
                tuple(sorted((rel, ranks[color[s]]) for rel, s, _ in in_links.get(ind, ()))),
            )
        color = new_color

    # ranks follow the first colours, which lead with the base, so the final
    # colour alone orders and groups individuals per base: fresh ids go in
    # that order, and only orders within a tie (same colour) remain
    ranked = sorted(individuals, key=lambda ib: color[ib[0]])
    fresh = [
        (f"{base}_{i}", base)
        for base, members in groupby(ranked, key=itemgetter(1))
        for i, _ in enumerate(members)
    ]
    # a tie's first order is its ranked order, the only one of most ties
    rename = {ind: new for (ind, _), (new, _) in zip(ranked, fresh)}
    moving: list[list] = []   # per tie with more than one order: the orders worth trying
    for _, group in groupby(ranked, key=lambda ib: color[ib[0]]):
        tie = [ind for ind, _ in group]
        if len(tie) > 1:
            # twins (same outgoing and incoming (relation, neighbour) pairs)
            # give the same rows in either order: one order per sequence of classes
            twin = [
                (tuple(sorted((rel, t) for rel, _, t in out_links.get(ind, ()))),
                 tuple(sorted((rel, s) for rel, s, _ in in_links.get(ind, ()))))
                for ind in tie
            ]
            orders = list(_twin_orders(tie, twin))
            if len(orders) > 1:
                moving.append(orders)
    # tied individuals share base, types and values (their colour), so only
    # link rows differ between arrangements; with no tie to move, the one
    # arrangement is the ranked order
    ids = [rename[ind] for orders in moving for ind in orders[0]]
    best = None
    for arrangement in product(*moving):
        rename.update(zip(chain.from_iterable(arrangement), ids))
        rows = _link_rows(links, rename)
        if best is None or rows < best:
            best, winner = rows, arrangement
    rename.update(zip(chain.from_iterable(winner), ids))
    return (
        tuple(sorted(fresh)),
        tuple(sorted((rename[ind], type_row[ind]) for ind, _ in individuals)),
        tuple(best),
        tuple(sorted((q, rename[b], v) for (q, b), v in values.items())),
    )


def _link_rows(links, rename: dict[str, str]) -> list[tuple[str, str, str]]:
    """The links relabelled by `rename`, sorted."""
    return sorted((rel, rename[s], rename[t]) for rel, s, t in links)


def _twin_orders(tie: list, twin: list) -> Iterator[list]:
    """The orders of `tie` that keep each twin class (equal `twin` entries) in tie order.

    They come in the order permutations(tie) yields them, one per sequence
    of classes (the first permutation that spells it), so the search meets
    the least rows at the arrangement the full product would.
    """
    if not tie:
        yield []
    seen = set()
    for i, cls in enumerate(twin):
        if cls not in seen:
            seen.add(cls)
            for rest in _twin_orders(tie[:i] + tie[i + 1:], twin[:i] + twin[i + 1:]):
                yield [tie[i], *rest]


# --------------------------------------------------------------------------
# validation (independent re-check of every world invariant)
# --------------------------------------------------------------------------

def validate_world(model: Model, world: InstanceWorld, scope: Scope | None = None) -> list[str]:
    """All invariant violations in `world`, as human-readable strings."""
    problems: list[str] = []
    prep = _prep(model)
    cls = model.classifiers
    value_bearing = {c.name for c in prep.value_chars}
    ids = set()
    base_of_ind: dict[str, str] = {}
    for ind, base in world.individuals:
        if ind in ids:
            problems.append(f"duplicate individual id '{ind}'")
        ids.add(ind)
        if base not in cls or prep.base_of.get(base) != base:
            problems.append(f"'{ind}' has non-base classifier '{base}'")
        base_of_ind[ind] = base
    if set(world.types) != ids:
        problems.append("typeAssignments do not cover exactly the declared individuals")
        return problems

    for ind in sorted(ids):
        ts = world.types[ind]
        base = base_of_ind[ind]
        if base not in ts:
            problems.append(f"'{ind}' does not instantiate its base '{base}'")
        for t in sorted(ts):
            if t not in cls:
                problems.append(f"'{ind}' instantiates unknown classifier '{t}'")
                continue
            if base not in prep.bases_of(t):
                problems.append(f"'{ind}' ({base}) cannot instantiate '{t}'")
            for anc in model.ancestors(t):
                if anc not in ts:
                    problems.append(
                        f"'{ind}' instantiates '{t}' but not its ancestor '{anc}'"
                    )
        for t in sorted(ts):
            if t in cls and cls[t].stereotype in NON_SORTALS:
                witnesses = [
                    s for s in ts
                    if s in cls and cls[s].stereotype not in NON_SORTALS
                    and t in model.ancestors(s)
                ]
                if not witnesses:
                    problems.append(f"'{ind}' instantiates '{t}' without a sortal witness")

    link_seen = set()
    by_relation: dict[str, list[tuple[str, str]]] = {}
    for rel, s, t in world.links:
        if (rel, s, t) in link_seen:
            problems.append(f"duplicate link ({rel}, {s}, {t})")
        link_seen.add((rel, s, t))
        decl = model.relations.get(rel)
        if decl is None:
            problems.append(f"link names unknown relation '{rel}'")
            continue
        if decl.stereotype is RelationStereotype.COMPARATIVE:
            problems.append(f"comparative '{rel}' must not carry stored links")
            continue
        if rel in value_bearing:
            problems.append(f"quality characterization '{rel}' is value-bearing, not a link")
            continue
        for end, ind in ((decl.source, s), (decl.target, t)):
            if ind not in ids:
                problems.append(f"link ({rel}) references unknown individual '{ind}'")
            elif end not in world.types[ind]:
                problems.append(f"link ({rel}, {s}, {t}): '{ind}' is not a '{end}'")
        by_relation.setdefault(rel, []).append((s, t))

    # justification: role membership iff a defining link exists
    for classifier, rel_names in sorted(prep.defining.items()):
        linked = {t for rn in rel_names for _, t in by_relation.get(rn, ())}
        members = {i for i in ids if classifier in world.types[i]}
        for extra in sorted(members - linked):
            problems.append(f"'{extra}' instantiates '{classifier}' without a defining link")
        for extra in sorted(linked - members):
            problems.append(f"'{extra}' has a defining link but lacks '{classifier}'")

    # multiplicities of stored and material relations
    for r in sorted(model.relations.values(), key=lambda r: r.name):
        if r.stereotype is RelationStereotype.COMPARATIVE or r.name in value_bearing:
            continue
        pairs = by_relation.get(r.name, [])
        outgoing: dict[str, int] = {}
        incoming: dict[str, int] = {}
        for s, t in pairs:
            outgoing[s] = outgoing.get(s, 0) + 1
            incoming[t] = incoming.get(t, 0) + 1
        for ind in sorted(ids):
            if r.source in world.types[ind]:
                n = outgoing.get(ind, 0)
                if not r.target_mult.admits(n):
                    problems.append(
                        f"'{ind}' has {n} '{r.name}' links; multiplicity {r.target_mult}"
                    )
            if r.target in world.types[ind]:
                n = incoming.get(ind, 0)
                if not r.source_mult.admits(n):
                    problems.append(
                        f"'{ind}' is hit by {n} '{r.name}' links; multiplicity {r.source_mult}"
                    )

    # material links are exactly the relator-derived tuples
    for rel, src_meds, tgt_meds in prep.materials:
        relator = rel.derived_from.relator
        derived: dict[tuple[str, str], int] = {}
        for r_ind in sorted(i for i in ids if relator in world.types[i]):
            xs = {t for m in src_meds for s, t in by_relation.get(m, ()) if s == r_ind}
            ys = {t for m in tgt_meds for s, t in by_relation.get(m, ()) if s == r_ind}
            for x in sorted(xs):
                if rel.source not in world.types[x]:
                    continue
                for y in sorted(ys):
                    if rel.target not in world.types[y]:
                        continue
                    derived[(x, y)] = derived.get((x, y), 0) + 1
        stored = set(by_relation.get(rel.name, []))
        if stored != set(derived):
            problems.append(
                f"material '{rel.name}' links differ from the relator-derived tuples"
            )
        for pair, n in sorted(derived.items()):
            if not rel.derived_from.mult.admits(n):
                problems.append(
                    f"tuple {pair} of '{rel.name}' is grounded by {n} relators; "
                    f"derivation multiplicity {rel.derived_from.mult}"
                )

    # quality values
    seen_values = set()
    for q, b, v in world.value_rows:
        if (q, b) in seen_values:
            problems.append(f"duplicate value for ({q}, {b})")
        seen_values.add((q, b))
        if b not in ids:
            problems.append(f"value row names unknown individual '{b}'")
            continue
        space = model.spaces.get(q)
        if space is not None and not space.contains(v):
            problems.append(f"value {v!r} outside the space of '{q}'")
        if scope is not None:
            chosen = scope.values_for(q)
            if chosen is not None and v not in chosen:
                problems.append(f"value {v!r} of '{q}' outside the scope subset")
        bearers_ok = any(
            c.target in world.types[b] for c in prep.value_chars if c.source == q
        )
        if not bearers_ok:
            problems.append(f"'{b}' bears a '{q}' value but no characterization allows it")
    for c in prep.value_chars:
        if c.source_mult.min < 1:
            continue
        for ind in sorted(ids):
            if c.target in world.types[ind] and (c.source, ind) not in seen_values:
                problems.append(f"'{ind}' lacks a required '{c.source}' value")

    # generalization sets
    for g in sorted(model.gensets.values(), key=lambda g: g.name):
        for ind in sorted(ids):
            ts = world.types[ind]
            if g.is_disjoint and sum(1 for s in g.specifics if s in ts) > 1:
                problems.append(f"'{ind}' violates disjointness of '{g.name}'")
            if g.is_complete and g.general in ts and not any(s in ts for s in g.specifics):
                problems.append(f"'{ind}' violates completeness of '{g.name}'")

    # scope caps
    if scope is not None:
        per_base: dict[str, int] = {}
        for ind, base in world.individuals:
            per_base[base] = per_base.get(base, 0) + 1
        for base, n in sorted(per_base.items()):
            if base in prep.family and n > scope.count_for_base(base):
                problems.append(
                    f"{n} individuals of base '{base}' exceed the scope "
                    f"({scope.count_for_base(base)})"
                )
        # a base's cap is its count, checked above
        for name, cap in scope.per_classifier:
            n = sum(1 for i in ids if name in world.types[i])
            if name not in prep.family and n > cap:
                problems.append(f"{n} instances of '{name}' exceed the scope cap ({cap})")

    return problems


# --------------------------------------------------------------------------
# queries over worlds
# --------------------------------------------------------------------------

def find_witness(model: Model, scope: Scope | None, goal: Goal) -> InstanceWorld | None:
    """An in-scope world with the fewest individuals that satisfies the goal, or None.

    The first such world in enumerate_worlds order: among the witnesses with
    the fewest individuals, the one with the least count vector, then the
    least canonical key. Exhaustive regardless of scope.world_limit, since a
    witness search must not miss worlds the limit would truncate, yet it
    generates no world past the witness. Its walk skips every count vector
    with no individual of a base that one goal variable's types all admit:
    no world there satisfies the goal, so the witness is the same.
    """
    scope = scope or DEFAULT_SCOPE
    prep = _prep(model)
    groups: dict[str, frozenset[str]] = {}  # per variable, the bases that admit its types
    for var, c in goal.typings:
        bases = prep.bases_of(c)
        groups[var] = groups.get(var, bases) & bases
    for world in _worlds(model, scope, groups.values()):
        if goal_holds(world, goal):
            return world
    return None


def eval_comparative(
    world: InstanceWorld,
    model: Model,
    relation: str,
    *,
    strict: bool = True,
) -> set[tuple[str, str]]:
    """Pairs (x, y) the comparative yields in this world.

    Both relata need at least one grounded value. Direction desc pairs x over
    y when x's best value beats every value of y (strictly unless `strict`
    is False — the deliberately broken tie-admitting variant).
    """
    rel = model.relations.get(relation)
    if rel is None or rel.stereotype is not RelationStereotype.COMPARATIVE:
        raise ValueError(f"'{relation}' is not a grounded comparative relation")
    q = rel.via.quality
    space = model.spaces.get(q)
    if space is None or not space.is_ordered:
        raise ValueError(f"quality '{q}' of '{relation}' has no ordered space")
    direct_chars, mode_chars = _prep(model).groundings[q]

    def grounded_values(ind: str) -> list:
        ts = world.types[ind]
        out = []
        for c in direct_chars:
            if c.target in ts:
                v = world.values.get((q, ind))
                if v is None:
                    if c.source_mult.min >= 1:
                        raise MissingQualityValueError(
                            f"'{ind}' lacks a value for '{q}'"
                        )
                else:
                    out.append(v)
                break
        for mode_char, required in mode_chars:
            for rel_name, s, t in world.links:
                if rel_name != mode_char or t != ind:
                    continue
                v = world.values.get((q, s))
                if v is None:
                    if required:
                        raise MissingQualityValueError(f"'{s}' lacks a value for '{q}'")
                    continue
                out.append(v)
        return out

    sources = world.extension(rel.source)
    targets = world.extension(rel.target)
    # asc compares least values: negated, they compare like desc's greatest
    sign = 1 if rel.via.direction is Direction.DESC else -1
    best = {
        ind: max(sign * v for v in vs)
        for ind in set(sources) | set(targets) if (vs := grounded_values(ind))
    }
    beats = gt if strict else ge
    return {
        (x, y) for x in sources if x in best
        for y in targets if y in best and beats(best[x], best[y])
    }


_METAPROPERTIES = ("irreflexive", "asymmetric", "transitive")


@dataclass(frozen=True)
class MetaReport:
    """Meta-property verdicts with first counterexamples.

    A verdict is None when the property was not asked for. `entailed` lists
    the asked properties read off the comparative's grounding quality rather
    than searched for: such a verdict holds in every world, since the
    comparative orders its relata by their values in that quality's ordered
    space. Every other verdict comes from a search of the worlds in scope.
    """

    relation: str
    irreflexive: bool | None
    asymmetric: bool | None
    transitive: bool | None
    counterexamples: tuple[tuple[str, InstanceWorld, tuple[str, ...]], ...] = ()
    entailed: tuple[str, ...] = ()

    def counterexample(self, prop: str):
        for name, world, ids in self.counterexamples:
            if name == prop:
                return world, ids
        return None

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "irreflexive": self.irreflexive,
            "asymmetric": self.asymmetric,
            "transitive": self.transitive,
            "counterexamples": [
                {"property": name, "world": world.to_dict(), "individuals": list(ids)}
                for name, world, ids in self.counterexamples
            ],
            "entailed": list(self.entailed),
        }


def _counterexample(prop: str, pairs: set[tuple[str, str]]) -> tuple[str, ...] | None:
    """The least individuals in `pairs` that break `prop`, or None."""
    ordered = sorted(pairs)
    if prop == "irreflexive":
        return next(((x,) for x, y in ordered if x == y), None)
    if prop == "asymmetric":
        return next(((x, y) for x, y in ordered if (y, x) in pairs), None)
    return next(
        ((x, y, z) for x, y in ordered for y2, z in ordered if y2 == y and (x, z) not in pairs),
        None,
    )


def check_metaproperties(
    model: Model,
    relation: str,
    scope: Scope | None = None,
    *,
    strict: bool = True,
    properties: tuple[str, ...] = _METAPROPERTIES,
) -> MetaReport:
    """Decide the asked meta-properties of a relation over every in-scope world.

    `properties` names any of irreflexive, asymmetric and transitive; a
    property not asked is reported as None and gets no counterexample. What
    a comparative's grounding quality entails in every world (all three when
    `strict`, transitivity otherwise) is read off the quality's order and
    listed in `entailed`. Every other asked property is searched for in
    enumerate_worlds order, so its counterexample is the first there and has
    the fewest individuals in scope; the search stops once each searched
    property has one, so one that holds is checked in every world that has
    an instance of both ends (a pair needs one of each, so the walk skips
    the count vectors without). With nothing to search, no world is
    generated, yet the model and the scope are refused as by any query.
    """
    scope = scope or DEFAULT_SCOPE
    unknown = sorted(set(properties) - set(_METAPROPERTIES))
    if unknown:
        raise ValueError(
            f"unknown meta-property '{unknown[0]}'; expected one of {', '.join(_METAPROPERTIES)}"
        )
    rel = model.relations.get(relation)
    if rel is None:
        raise ValueError(f"no relation named '{relation}'")
    if rel.stereotype not in (RelationStereotype.COMPARATIVE, RelationStereotype.INTERNAL):
        raise ValueError(
            f"'{relation}' is {rel.stereotype.value}; meta-properties apply to "
            "comparative or internal relations"
        )
    asked = [p for p in _METAPROPERTIES if p in properties]
    comparative = rel.stereotype is RelationStereotype.COMPARATIVE
    # R9 grounds a comparative in an ordered space, whose values are ints: > and
    # < are strict orders on them, >= and <= preorders
    entailed = tuple(p for p in asked if comparative and (strict or p == "transitive"))
    searched = [p for p in asked if p not in entailed]
    counter: dict[str, tuple[InstanceWorld, tuple[str, ...]]] = {}
    bases_of = _prep(model).bases_of
    # a pair needs an instance of each end; the walk refuses the model or scope even if unread
    worlds = _worlds(model, scope, (bases_of(rel.source), bases_of(rel.target)))
    for world in worlds if searched else ():
        if comparative:
            pairs = eval_comparative(world, model, relation, strict=strict)
        else:
            pairs = {(s, t) for r, s, t in world.links if r == relation}
        for prop in searched:
            if prop not in counter:
                ids = _counterexample(prop, pairs)
                if ids is not None:
                    counter[prop] = (world, ids)
        if len(counter) == len(searched):
            break
    verdicts = {p: (p not in counter) if p in asked else None for p in _METAPROPERTIES}
    return MetaReport(
        relation=relation,
        **verdicts,
        counterexamples=tuple(
            (name, world, ids) for name, (world, ids) in sorted(counter.items())
        ),
        entailed=entailed,
    )


__all__ = [
    "Scope",
    "DEFAULT_SCOPE",
    "InstanceWorld",
    "EMPTY_WORLD",
    "Goal",
    "goal_holds",
    "enumerate_worlds",
    "validate_world",
    "find_witness",
    "eval_comparative",
    "MetaReport",
    "check_metaproperties",
]
