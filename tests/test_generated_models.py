"""The world finder on generated models, against validate_world and the oracle.

A Hypothesis strategy writes small DSL models: one or two kinds, subkinds,
phases and roles under them, and optionally a relator with two mediations
and a material relation derived from it, a genset, a mode, a quality with
an ordered 0..1 space, a comparative over that quality, and a cross-flavour
specialization. A model is kept only when `check` finds no Error. Every
world at a tiny scope must pass `validate_world`, and at four or fewer
individuals the worlds must be the oracle's orbit representatives
(tests/test_oracle.py), one world per isomorphism class.
"""
from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ontounpack import Model, Scope, enumerate_worlds, validate_world
from ontounpack.rules import check, has_errors

from conftest import parse_ok
from test_oracle import least_encoding, orbit_encodings

MULTS = ("0..1", "1..1", "0..*", "1..*")


@st.composite
def models(draw) -> tuple[str, dict[str, int], dict[str, tuple]]:
    """A model's DSL text, the tiny scope's per-base counts and its scope values."""
    lines = ["model Generated", ""]
    kinds = ["Ka", "Kb"][:draw(st.integers(1, 2))]
    lines += [f"kind {k}" for k in kinds]
    sortals = list(kinds)
    subs: dict[str, list[str]] = {}  # general -> its direct specifics
    for n in range(draw(st.integers(0, 3))):
        stereotype = draw(st.sampled_from(["subkind", "phase", "role"]))
        general = draw(st.sampled_from(sortals))
        lines.append(f"{stereotype} S{n} specializes {general}")
        subs.setdefault(general, []).append(f"S{n}")
        sortals.append(f"S{n}")
    bases = list(kinds)
    if draw(st.booleans()):
        bases.append("R")
        lines.append("relator R")
        ends = [draw(st.sampled_from(sortals)) for _ in range(2)]
        for n, end in enumerate(ends):
            source = draw(st.sampled_from(MULTS))
            target = draw(st.sampled_from(("1..1", "1..*")))
            lines.append(f"mediation m{n} : R [{source}] -- [{target}] {end}")
        if draw(st.booleans()):
            lines.append(f"material linked : {ends[0]} [0..*] -- [0..*] {ends[1]} "
                         f"derivedFrom R [{draw(st.sampled_from(MULTS))}]")
    generals = sorted(g for g, specifics in subs.items() if len(specifics) > 1)
    if generals and draw(st.booleans()):
        general = draw(st.sampled_from(generals))
        flags = draw(st.sampled_from(["", "disjoint ", "complete ", "disjoint complete "]))
        lines.append(f"genset G {flags}general {general} specifics {', '.join(subs[general])}")
    bearers = list(sortals)
    if draw(st.booleans()):
        bases.append("M")
        lines.append("mode M")
        lines.append(f"characterization hasM : M [{draw(st.sampled_from(('0..1', '0..*')))}]"
                     f" -- [1..1] {draw(st.sampled_from(sortals))}")
        bearers.append("M")
    values = {}
    if draw(st.booleans()):
        bearer = draw(st.sampled_from(bearers))
        lines += ["quality Q", "space Q ordered 0..1"]
        lines.append(f"characterization hasQ : Q [{draw(st.sampled_from(('0..1', '1..1')))}]"
                     f" -- [1..1] {bearer}")
        values = {"Q": (0, 1)}
        if draw(st.booleans()):
            order = draw(st.sampled_from(["asc", "desc"]))
            lines.append(f"comparative beats : {bearer} -- {bearer} via Q {order}")
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.sampled_from([
            f"mode X specializes {draw(st.sampled_from(sortals))}",
            f"relator X specializes {draw(st.sampled_from(sortals))}",
            f"subkind X specializes {bases[-1]}",
        ])))
    per = {b: draw(st.integers(1, 2)) for b in bases}
    return "\n".join(lines) + "\n", per, values


def assert_worlds_are_valid_and_the_oracles(model: Model, per: dict, values: dict) -> None:
    scope = Scope(per_classifier=per, quality_values=values, world_limit=10**9)
    worlds = enumerate_worlds(model, scope)
    for world in worlds:
        assert validate_world(model, world, scope) == [], world
    if sum(per.values()) <= 4:
        orbits = orbit_encodings(model, scope)
        assert len(worlds) == len(orbits)
        assert {least_encoding(w) for w in worlds} == orbits


# name -> (text, per-base counts, scope values): the strategy's shrunk
# counterexamples, and shapes kept whatever examples a Hypothesis version draws
CASES = {
    # a relator mediating a phase and a role of one kind, the material
    # relation it grounds, a genset over both, and a comparative on the role
    "phase_role_material": (
        "model Generated\n\n"
        "kind Ka\n"
        "phase S0 specializes Ka\n"
        "role S1 specializes Ka\n"
        "relator R\n"
        "mediation m0 : R [1..*] -- [1..*] S0\n"
        "mediation m1 : R [1..*] -- [1..*] S1\n"
        "material linked : S0 [0..*] -- [0..*] S1 derivedFrom R [1..*]\n"
        "genset G general Ka specifics S0, S1\n"
        "quality Q\n"
        "space Q ordered 0..1\n"
        "characterization hasQ : Q [0..1] -- [1..1] S1\n"
        "comparative beats : S1 -- S1 via Q desc\n",
        {"Ka": 2, "R": 1}, {"Q": (0, 1)}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_recorded_case_gives_valid_worlds_and_the_oracles(case):
    text, per, values = CASES[case]
    model = parse_ok(text)
    assert not has_errors(check(model))
    assert_worlds_are_valid_and_the_oracles(model, per, values)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(models())
def test_generated_models_give_valid_worlds_and_the_oracles(drawn):
    text, per, values = drawn
    model = parse_ok(text)
    assume(not has_errors(check(model)))
    assert_worlds_are_valid_and_the_oracles(model, per, values)
