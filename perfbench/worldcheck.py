"""Independent checks on world lists: rebuild, validate, no isomorphic pair.

The isomorphism decision is a brute-force search over base-preserving
relabelings. It never calls the enumerator's own canonical form, so a
canonicalization bug cannot hide itself. Worlds are first bucketed by an
isomorphism-invariant fingerprint, and a relabeling may only map an
individual to one with the same local signature; both cuts are sound
because every isomorphism preserves them.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from itertools import permutations, product


def world_from_dict(InstanceWorld, doc: dict):
    """Rebuild an InstanceWorld from its `to_dict` form."""
    return InstanceWorld(
        individuals=tuple(tuple(row) for row in doc["individuals"]),
        type_rows=tuple(
            (ind, tuple(types)) for ind, types in sorted(doc["typeAssignments"].items())
        ),
        links=tuple(tuple(row) for row in doc["links"]),
        value_rows=tuple(tuple(row) for row in doc["qualityValues"]),
    )


def _signatures(world) -> dict[str, tuple]:
    """Per individual: base, types, values, and link degrees by relation."""
    out_deg: dict[str, Counter] = defaultdict(Counter)
    in_deg: dict[str, Counter] = defaultdict(Counter)
    for rel, s, t in world.links:
        out_deg[s][rel] += 1
        in_deg[t][rel] += 1
    values: dict[str, list] = defaultdict(list)
    for q, b, v in world.value_rows:
        values[b].append((q, repr(v)))
    return {
        ind: (
            base,
            tuple(sorted(world.types[ind])),
            tuple(sorted(values[ind])),
            tuple(sorted(out_deg[ind].items())),
            tuple(sorted(in_deg[ind].items())),
        )
        for ind, base in world.individuals
    }


def _isomorphic(w1, sig1, w2, sig2) -> bool:
    groups1: dict[tuple, list[str]] = defaultdict(list)
    groups2: dict[tuple, list[str]] = defaultdict(list)
    for ind, sig in sorted(sig1.items()):
        groups1[sig].append(ind)
    for ind, sig in sorted(sig2.items()):
        groups2[sig].append(ind)
    if {s: len(g) for s, g in groups1.items()} != {s: len(g) for s, g in groups2.items()}:
        return False
    keys = sorted(groups1)
    links2 = w2.link_set
    values2 = {(q, b): v for q, b, v in w2.value_rows}
    for perms in product(*(permutations(groups2[k]) for k in keys)):
        rename = {}
        for k, perm in zip(keys, perms):
            rename.update(zip(groups1[k], perm))
        if {(r, rename[s], rename[t]) for r, s, t in w1.links} != links2:
            continue
        if {(q, rename[b]): v for q, b, v in w1.value_rows} != values2:
            continue
        return True
    return False


def isomorphic_pairs(worlds) -> int:
    """Number of world pairs related by a base-preserving relabeling."""
    buckets: dict[tuple, list] = defaultdict(list)
    for w in worlds:
        sig = _signatures(w)
        fingerprint = (tuple(sorted(Counter(sig.values()).items())), len(w.links))
        buckets[fingerprint].append((w, sig))
    found = 0
    for group in buckets.values():
        for i, (w1, s1) in enumerate(group):
            for w2, s2 in group[i + 1:]:
                if _isomorphic(w1, s1, w2, s2):
                    found += 1
    return found


def world_list_problems(worlds, expected_count, validate) -> list[str]:
    """Everything wrong with one enumerated world list, as messages."""
    problems = []
    if len(worlds) != expected_count:
        problems.append(f"{len(worlds)} worlds, expected {expected_count}")
    invalid = sum(1 for w in worlds if validate(w))
    if invalid:
        problems.append(f"{invalid} worlds fail validate_world")
    duplicates = isomorphic_pairs(worlds)
    if duplicates:
        problems.append(f"{duplicates} isomorphic world pairs")
    return problems
