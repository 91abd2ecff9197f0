"""`_canonicalize` against the plain search it replaced.

The reference below tries every permutation of every linked colour tie. The
world finder tries one order per sequence of twin classes (individuals of
one tie that link alike), and must return the reference's key, value types
included, for every candidate it canonicalizes.
"""
from __future__ import annotations

import hashlib
from itertools import groupby, permutations, product
from operator import itemgetter

import pytest

import ontounpack.worlds
from ontounpack import Scope, enumerate_worlds
from ontounpack.jsonio import dumps_indented
from ontounpack.worlds import _twin_orders

from conftest import load_fixture, parse_ok
from test_oracle import SUCCESSOR
from test_worlds import CLINIC, MARRIAGE, SEVERITY


def reference_canonicalize(individuals, types, links, values):
    """Rows of the world, relabelled per base to the least encoding: its canonical key."""
    out_links: dict[str, list[tuple[str, str, str]]] = {}
    in_links: dict[str, list[tuple[str, str, str]]] = {}
    for rel, s, t in links:
        out_links.setdefault(s, []).append((rel, s, t))
        in_links.setdefault(t, []).append((rel, s, t))
    value_of: dict[str, list[tuple[str, object]]] = {}
    for (q, b), v in values.items():
        value_of.setdefault(b, []).append((q, v))

    color: dict[str, tuple] = {}
    for ind, base in individuals:
        color[ind] = (
            base,
            tuple(sorted(types[ind])),
            tuple(sorted(value_of.get(ind, ()))),
        )
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

    # sort per base by final color and give fresh ids in that order: only
    # orders within a tie (same base and color) remain, and those matter
    # only when the tied individuals occur in links
    ranked = sorted(individuals, key=lambda ib: (ib[1], color[ib[0]], ib[0]))
    fresh = [
        (f"{base}_{i}", base)
        for base, members in groupby(ranked, key=itemgetter(1))
        for i, _ in enumerate(members)
    ]
    ties: list[list[list[str]]] = []   # per tie: the orders worth trying
    for _, group in groupby(ranked, key=lambda ib: (ib[1], color[ib[0]])):
        tie = [ind for ind, _ in group]
        linked = any(i in out_links or i in in_links for i in tie)
        ties.append([list(p) for p in permutations(tie)] if linked else [tie])
    # tied individuals share base, types and values (their colour), so only
    # the link rows differ between arrangements
    best = rename = None
    for arrangement in product(*ties):
        order = (ind for tie in arrangement for ind in tie)
        candidate = {old: new for old, (new, _) in zip(order, fresh)}
        rows = tuple(sorted((rel, candidate[s], candidate[t]) for rel, s, t in links))
        if best is None or rows < best:
            best, rename = rows, candidate
    return (
        tuple(sorted(fresh)),
        tuple(sorted((rename[ind], tuple(sorted(types[ind]))) for ind, _ in individuals)),
        best,
        tuple(sorted((q, rename[b], v) for (q, b), v in values.items())),
    )


def assert_keys_are_the_references(calls) -> None:
    assert calls
    for args, key in calls:
        # repr, not ==: a key must keep its values' types (1 == True == 1.0)
        assert repr(key) == repr(reference_canonicalize(*args)), args


LIKES = "model Likes\n\nkind Person\ninternal likes : Person [0..*] -- [0..*] Person\n"

# a quality with no declared space takes whatever values a scope lists
FLAGS = (
    "model Flags\n\n"
    "kind Person\n"
    "quality Flag\n"
    "characterization hasFlag : Flag [0..1] -- [1..1] Person\n"
    "internal next : Person [0..1] -- [0..1] Person\n"
)

# a bool-valued and an int-valued quality on the same Persons: False == 0 and
# True == 1, so only the keys' reprs tell the two qualities' values apart
FLAGS_AND_LEVELS = (
    "model FlagsAndLevels\n\n"
    "kind Person\n"
    "quality Flag\n"
    "quality Level\n"
    "characterization hasFlag : Flag [0..1] -- [1..1] Person\n"
    "characterization hasLevel : Level [0..1] -- [1..1] Person\n"
    "internal next : Person [0..1] -- [0..1] Person\n"
)

# name -> (model, per-classifier counts, scope values, candidates canonicalized)
CASES = {
    "relator": ("healthcare_relator.onto",
                {"Person": 3, "Organization": 3, "Treatment": 3, "PathologicalCondition": 0},
                {}, 617),
    # no stored relation touches the condition, so its 3 worlds and the 617
    # canonicalizations of the rest make all 2,320 worlds
    "relator_conditions": ("healthcare_relator.onto",
                           {"Person": 3, "Organization": 3, "Treatment": 3,
                            "PathologicalCondition": 1},
                           {"Severity": (3, 50, 97)}, 620),
    "severity": (SEVERITY, {"Person": 3, "PathologicalCondition": 4}, {"Severity": (0, 1)}, None),
    "marriage": (MARRIAGE, {"Person": 5, "Marriage": 2}, {}, 1027),
    # a digraph of one colour: ties hold individuals that link to each other
    "likes": (LIKES, {"Person": 4}, {}, 5866),
    "successor": (SUCCESSOR, {"Person": 6}, {}, None),
    # values whose text order ("10" < "9" < "97") is not their order
    "severity_text_order": (SEVERITY, {"Person": 2, "PathologicalCondition": 3},
                            {"Severity": (9, 10, 97)}, None),
    "flags_and_levels": (FLAGS_AND_LEVELS, {"Person": 3},
                         {"Flag": (False, True), "Level": (0, 1)}, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_candidate_gets_the_references_key(canonicalizations, case):
    text, per, values, calls = CASES[case]
    model = load_fixture(text) if text.endswith(".onto") else parse_ok(text)
    enumerate_worlds(model, Scope(per_classifier=per, quality_values=values, world_limit=10**9))
    assert calls is None or len(canonicalizations) == calls
    assert_keys_are_the_references(canonicalizations)


def test_two_scopes_of_one_model_keep_their_value_types(canonicalizations):
    # False == 0 and True == 1, so anything kept across the two scopes would
    # hand the second one keys of the first
    model = parse_ok(FLAGS)
    for values in ((False, True), (0, 1)):
        canonicalizations.clear()
        scope = Scope(per_classifier={"Person": 3}, quality_values={"Flag": values},
                      world_limit=10**9)
        worlds = enumerate_worlds(model, scope)
        assert {type(v) for w in worlds for _, _, v in w.value_rows} == {type(values[0])}
        assert_keys_are_the_references(canonicalizations)


def test_labels_follow_the_values_order_not_their_text():
    # one Person bears every condition, so only a condition's value orders
    # it; as text "10" < "9", as values 9 < 10
    scope = Scope(per_classifier={"Person": 1, "PathologicalCondition": 2},
                  quality_values={"Severity": (9, 10)}, world_limit=10**9)
    worlds = enumerate_worlds(parse_ok(SEVERITY), scope)
    labelled = [[v for _, _, v in w.value_rows] for w in worlds]
    assert [9, 10] in labelled
    assert all(values == sorted(values) for values in labelled)


@pytest.mark.parametrize("twin", ["a", "aaa", "abc", "aab", "aba", "abab", "abcab"])
def test_twin_orders_are_the_first_permutation_of_each_class_sequence(twin):
    tie = list(range(len(twin)))
    first: dict[tuple, list[int]] = {}
    for p in permutations(tie):
        first.setdefault(tuple(twin[i] for i in p), list(p))
    assert list(_twin_orders(tie, list(twin))) == list(first.values())


TWIN_CONDITIONS = (
    "model TwinConditions\n\n"
    "kind Person\n"
    "mode PathologicalCondition\n"
    "quality Severity\n"
    "space Severity ordered 0..100\n"
    "characterization hasCondition : PathologicalCondition [0..*] -- [1..1] Person\n"
    "characterization hasSeverity : Severity [1..1] -- [1..1] PathologicalCondition\n"
)


def test_twin_conditions_cost_one_order_per_canonicalization(canonicalizations, monkeypatch):
    # each world is a Person with k conditions of one value, all twins; every
    # permutation of them made 5,915 orders (the sum of k! for k <= 7, plus
    # the empty world) for 9 canonicalizations. Every canonicalization builds
    # the rows of each order it tries with _link_rows, and keeps the winner's:
    # a search of m orders costs m, a tie with one order costs 1
    worlds = ontounpack.worlds
    real_link_rows = worlds._link_rows
    orders = []

    def counting_link_rows(links, rename):
        orders.append(links)
        return real_link_rows(links, rename)

    monkeypatch.setattr(worlds, "_link_rows", counting_link_rows)
    scope = Scope(per_classifier={"Person": 1, "PathologicalCondition": 7},
                  quality_values={"Severity": (5,)}, world_limit=10**9)
    assert len(enumerate_worlds(parse_ok(TWIN_CONDITIONS), scope)) == 9
    assert len(canonicalizations) == len(orders) == 9


# name -> (model, per-classifier counts, worlds, sha256 of the `simulate
# --format json` document of every world with Severity={3,50,97}). The keys
# fix each world's labels and rows and the order within a count vector: a
# new canonical form must change these digests on purpose, as a change of
# the output contract
GOLDEN = {
    "relator": ("healthcare_relator.onto",
                {"Person": 2, "Organization": 2, "Treatment": 2, "PathologicalCondition": 1},
                188, "82549581dbcdde81a5c75e42ee832aa8b1ab7fcc4e93b21cb46ba13ca847af59"),
    "clinic": (CLINIC,
               {"Person": 2, "Organization": 0, "Treatment": 1, "Consultation": 1,
                "PathologicalCondition": 1},
               41, "7690a41982b221599c122188d5263215381e6578e0564c1c054fd05431a1a09e"),
    "severity": (SEVERITY, {"Person": 2, "PathologicalCondition": 3},
                 45, "d3dd3279f04a6157ae250c7ec9e4c5af5e85766c5c9c54bb2c18b751b1028d83"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_canonical_output_keeps_its_recorded_digest(case):
    text, per, count, digest = GOLDEN[case]
    model = load_fixture(text) if text.endswith(".onto") else parse_ok(text)
    scope = Scope(per_classifier=per, quality_values={"Severity": (3, 50, 97)}, world_limit=10**9)
    worlds = enumerate_worlds(model, scope)
    document = dumps_indented([w.to_dict() for w in worlds]) + "\n"
    assert len(worlds) == count
    assert hashlib.sha256(document.encode("utf-8")).hexdigest() == digest
