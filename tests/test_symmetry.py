"""`_Symmetry`'s image tables against a plain recomputation of every image.

The world finder asks each frame's `_Symmetry` whether a swap of two
interchangeable open individuals makes a candidate's encoding smaller
(`open_ties` for the open link choices, `shrinks` for the pure multisets).
The reference below finds each image from the frame's own lists on every
call and compares whole tuples of images, as a lex-leader test states it.
"""
from __future__ import annotations

import pytest

import ontounpack.worlds
from ontounpack import Scope, enumerate_worlds

from conftest import load_fixture, parse_ok
from test_worlds import CLINIC, MARRIAGE, RELATOR_P3O3T3PC1, SEVERITY

SEVERITY_VALUES = {"Severity": (3, 50, 97)}

# name -> (model, per-classifier counts, scope values, whether open_ties refuses).
# The relator, severity and clinic frames give each open individual one link
# choice, so only swaps of pure options refuse there; spouses `loves` other
# Persons, so swaps of open link choices refuse in the marriage frames. With
# three Persons, clinic swaps map one pure base's multiset to a larger one and
# a later base's to a smaller one, so only the first difference may decide
CASES = {
    "relator": ("healthcare_relator.onto", RELATOR_P3O3T3PC1, {}, False),
    "severity": (SEVERITY, {"Person": 4, "PathologicalCondition": 5}, SEVERITY_VALUES, False),
    "clinic": (CLINIC, {"Person": 2, "Organization": 1, "Treatment": 2, "Consultation": 1,
                        "PathologicalCondition": 2}, SEVERITY_VALUES, False),
    "clinic_three_persons": (CLINIC, {"Person": 3, "Organization": 1, "Treatment": 2,
                                      "Consultation": 1, "PathologicalCondition": 1},
                             SEVERITY_VALUES, False),
    "marriage": (MARRIAGE, {"Person": 4, "Marriage": 2}, {}, True),
}


class ReferenceSymmetry:
    """One frame's swaps, with images looked up afresh from its option lists."""

    def __init__(self, swaps, open_links, pure_options):
        self.swaps = swaps
        self.open_links = open_links
        self.pure_options = pure_options
        self.index: dict[int, dict] = {}  # per list (by id, as the frame keeps it): key -> position

    @staticmethod
    def _key(item, relabel, pure):
        profile, links, values = item if pure else (None, item, None)
        return profile, frozenset((r, relabel.get(t, t)) for r, t in links), values

    def image(self, swap, items, i, pure):
        _, a, b = swap
        index = self.index.get(id(items))
        if index is None:
            index = self.index[id(items)] = {
                self._key(item, {}, pure): k for k, item in enumerate(items)
            }
        return index[self._key(items[i], {a: b, b: a}, pure)]

    def open_ties(self, combo):
        ties = []
        for swap in self.swaps:
            at = swap[0]
            moved = list(combo)
            moved[at], moved[at + 1] = combo[at + 1], combo[at]
            image = tuple(
                self.image(swap, items, i, False) for items, i in zip(self.open_links, moved)
            )
            if image < combo:
                return None
            if image == combo:
                ties.append(swap)
        return ties

    def shrinks(self, swap, pure_at, pure_combo):
        image = tuple(
            tuple(sorted(self.image(swap, self.pure_options[n], i, True) for i in combo))
            for n, combo in zip(pure_at, pure_combo)
        )
        return image < pure_combo


@pytest.mark.parametrize("case", sorted(CASES))
def test_tables_answer_as_a_plain_recomputation(monkeypatch, case):
    symmetry = ontounpack.worlds._Symmetry
    real_init, real_open_ties, real_shrinks = (
        symmetry.__init__, symmetry.open_ties, symmetry.shrinks
    )
    # per _Symmetry (kept alive, so ids stay unique): it, its reference and
    # each of its swaps as the (position, a, b) the frame gave
    frames: dict[int, tuple] = {}
    answers = {"open_ties": [], "shrinks": []}

    def init(self, swaps, open_links, pure_options):
        real_init(self, swaps, open_links, pure_options)
        plain = {id(s): p for s, p in zip(self.swaps, swaps)}
        frames[id(self)] = (self, ReferenceSymmetry(swaps, open_links, pure_options), plain)

    def open_ties(self, combo):
        ties = real_open_ties(self, combo)
        _, reference, plain = frames[id(self)]
        got = None if ties is None else [plain[id(s)] for s in ties]
        answers["open_ties"].append((got, reference.open_ties(combo)))
        return ties

    def shrinks(self, swap, pure_at, pure_combo):
        shrunk = real_shrinks(self, swap, pure_at, pure_combo)
        _, reference, plain = frames[id(self)]
        answers["shrinks"].append(
            (shrunk, reference.shrinks(plain[id(swap)], pure_at, pure_combo))
        )
        return shrunk

    monkeypatch.setattr(symmetry, "__init__", init)
    monkeypatch.setattr(symmetry, "open_ties", open_ties)
    monkeypatch.setattr(symmetry, "shrinks", shrinks)
    text, per, values, open_refusals = CASES[case]
    model = load_fixture(text) if text.endswith(".onto") else parse_ok(text)
    enumerate_worlds(model, Scope(per_classifier=per, quality_values=values, world_limit=10**9))

    for name, pairs in answers.items():
        wrong = [pair for pair in pairs if pair[0] != pair[1]]
        assert not wrong, (name, len(wrong), wrong[:3])
    assert {got is None for got, _ in answers["open_ties"]} == {open_refusals, False}
    assert {got for got, _ in answers["shrinks"]} == {True, False}
