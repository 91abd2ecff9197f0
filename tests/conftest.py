from __future__ import annotations

from collections import Counter, defaultdict
from itertools import permutations, product
from pathlib import Path

import pytest

import ontounpack.worlds
from ontounpack import InstanceWorld, Model, apply_plan, parse_text, unpack_material

FIXTURES = Path(__file__).resolve().parent.parent / "examples"


def load_fixture(name: str) -> Model:
    """Parse a bundled example, failing loudly on parse errors."""
    result = parse_text((FIXTURES / name).read_text())
    assert isinstance(result, Model), f"{name} failed to parse: {result}"
    return result


def parse_ok(text: str) -> Model:
    result = parse_text(text)
    assert isinstance(result, Model), f"unexpected parse errors: {result}"
    return result


def copies_text(copies: int) -> str:
    """DSL text with `copies` renamed copies of the README's plain pattern.

    Each copy has a material relation without a truthmaker (one R6 error per
    copy), a mode characterized by an ordered quality, and a comparative
    grounded in that quality.
    """
    blocks = []
    for i in range(copies):
        t = f"c{i}"
        blocks.append("\n".join([
            f"kind Person_{t}",
            f"kind Organization_{t}",
            f"subkind HealthcareProvider_{t} specializes Organization_{t}",
            f"phase UnhealthyPerson_{t} specializes Person_{t}",
            f"mode PathologicalCondition_{t}",
            f"quality Severity_{t}",
            f"space Severity_{t} ordered 0..100",
            f"material treatedBy_{t} : UnhealthyPerson_{t} [1..*] -- [1..*] HealthcareProvider_{t}",
            f"characterization hasSeverity_{t} : Severity_{t} [1..1] -- [1..1] "
            f"PathologicalCondition_{t}",
            f"comparative moreSevereThan_{t} : PathologicalCondition_{t} -- "
            f"PathologicalCondition_{t} via Severity_{t} desc",
        ]))
    return f"model Copies{copies}\n\n" + "\n\n".join(blocks) + "\n"


def unpacked_copies(copies: int) -> Model:
    """The copies model with every material relation unpacked into a relator."""
    model = parse_ok(copies_text(copies))
    for i in range(copies):
        t = f"c{i}"
        plan = unpack_material(
            model, f"treatedBy_{t}", f"Treatment_{t}", (f"Patient_{t}", f"ProviderRole_{t}"),
        )
        model = apply_plan(model, plan)
    return model


@pytest.fixture(scope="session")
def plain_model() -> Model:
    return load_fixture("healthcare_plain.onto")


@pytest.fixture(scope="session")
def relator_model() -> Model:
    return load_fixture("healthcare_relator.onto")


@pytest.fixture(scope="session")
def event_model() -> Model:
    return load_fixture("healthcare_event.onto")


@pytest.fixture
def enumerations(monkeypatch) -> list[Model]:
    """Models enumerated during the test: each enumeration checks its model once."""
    seen: list[Model] = []
    real_check = ontounpack.worlds.check

    def counting_check(model):
        seen.append(model)
        return real_check(model)

    monkeypatch.setattr(ontounpack.worlds, "check", counting_check)
    return seen


@pytest.fixture
def canonicalizations(monkeypatch) -> list[tuple[tuple, tuple]]:
    """Every _canonicalize call the world finder makes during the test, as (arguments, key)."""
    seen: list[tuple[tuple, tuple]] = []
    real_canonicalize = ontounpack.worlds._canonicalize

    def counting_canonicalize(*args):
        key = real_canonicalize(*args)
        seen.append((args, key))
        return key

    monkeypatch.setattr(ontounpack.worlds, "_canonicalize", counting_canonicalize)
    return seen


@pytest.fixture
def assemblies(monkeypatch) -> list[tuple[list, bool]]:
    """Every candidate world the world finder assembles during the test, as (individuals, accepted)."""
    seen: list[tuple[list, bool]] = []
    real_assemble = ontounpack.worlds._assemble

    def counting_assemble(stream, individuals, *rest):
        assembled = real_assemble(stream, individuals, *rest)
        seen.append((individuals, assembled is not None))
        return assembled

    monkeypatch.setattr(ontounpack.worlds, "_assemble", counting_assemble)
    return seen


@pytest.fixture
def preps(monkeypatch) -> list[Model]:
    """The model of every _Prep the world layer builds during the test."""
    seen: list[Model] = []
    real_init = ontounpack.worlds._Prep.__init__

    def counting_init(self, model):
        seen.append(model)
        real_init(self, model)

    monkeypatch.setattr(ontounpack.worlds._Prep, "__init__", counting_init)
    return seen


def isomorphic(w1: InstanceWorld, w2: InstanceWorld) -> bool:
    """Brute-force base-preserving relabeling check between two worlds."""
    base1 = dict(w1.individuals)
    base2 = dict(w2.individuals)
    if Counter(base1.values()) != Counter(base2.values()):
        return False
    groups1: dict[str, list[str]] = defaultdict(list)
    groups2: dict[str, list[str]] = defaultdict(list)
    for i, b in sorted(base1.items()):
        groups1[b].append(i)
    for i, b in sorted(base2.items()):
        groups2[b].append(i)
    bases = sorted(groups1)
    target_types = {i: w2.types[i] for i in base2}
    target_links = w2.link_set
    target_values = {(q, b): v for q, b, v in w2.value_rows}
    for perms in product(*(permutations(groups2[b]) for b in bases)):
        rename = {}
        for b, perm in zip(bases, perms):
            rename.update(zip(groups1[b], perm))
        if any(w1.types[i] != target_types[rename[i]] for i in base1):
            continue
        if {(r, rename[s], rename[t]) for r, s, t in w1.links} != target_links:
            continue
        if {(q, rename[b]): v for q, b, v in w1.value_rows} != target_values:
            continue
        return True
    return False


def assert_no_isomorphic_pair(worlds) -> None:
    by_census = defaultdict(list)
    for w in worlds:
        census = tuple(sorted(Counter(b for _, b in w.individuals).items()))
        by_census[census].append(w)
    for group in by_census.values():
        for i, w1 in enumerate(group):
            for w2 in group[i + 1:]:
                assert not isomorphic(w1, w2), (w1, w2)
