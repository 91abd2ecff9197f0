"""The benchmark's four workloads: inputs, ops and per-op output checks.

Every workload is closed-loop with one client: the next op starts when the
previous one has returned and been checked. An op is one CLI invocation
through `ontounpack.cli.main` in-process, or one API call chain. Ops reach
the program through module attributes looked up at call time, so the
tracer's wrappers see them.

The seed sets the op order and, in the three enumeration workloads, the
three distinct Severity values; world counts and verdicts do not depend on
which values are drawn. In `frontend_batch` it sets the generated models.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from worldcheck import world_from_dict, world_list_problems

MODELS = Path(__file__).resolve().parent / "models"
UNLIMITED = 10**9

# label -> (--scope text, expected world count per enumeration). Each pass
# lists a small scope, the middle scope twice and a large scope, so the
# median op (op_s.p50) is the middle scope's median.
RELATOR_SCOPES = {
    "P2O2T2PC1": ("Person=2,Organization=2,Treatment=2,PathologicalCondition=1", 188),
    "P3O3T3PC0": ("Person=3,Organization=3,Treatment=3,PathologicalCondition=0", 580),
    "P3O3T3PC1": ("Person=3,Organization=3,Treatment=3,PathologicalCondition=1", 2320),
}
RELATOR_PASS = ["P2O2T2PC1", "P3O3T3PC0", "P3O3T3PC0", "P3O3T3PC1"]
CLINIC_SCOPES = {
    "P2O0T1C1PC1": ("Person=2,Organization=0,Treatment=1,Consultation=1,PathologicalCondition=1", 41),
    "P2O1T2C1PC2": ("Person=2,Organization=1,Treatment=2,Consultation=1,PathologicalCondition=2", 654),
    "P3O1T2C1PC1": ("Person=3,Organization=1,Treatment=2,Consultation=1,PathologicalCondition=1", 464),
}
CLINIC_PASS = ["P2O0T1C1PC1", "P2O1T2C1PC2", "P2O1T2C1PC2", "P3O1T2C1PC1"]
SEVERITY_SCOPES = {
    "P2PC3": ("Person=2,PathologicalCondition=3", 45),
    "P3PC6": ("Person=3,PathologicalCondition=6", 286),
    "P4PC5": ("Person=4,PathologicalCondition=5", 469),
}
SEVERITY_PASS = ["P2PC3", "P3PC6", "P3PC6", "P4PC5"]
CLINIC_WARNINGS = [
    ("AP1", ("consultedPatient", "consultedProvider")),
    ("AP1", ("participatesPatient", "participatesProvider")),
    ("AP2", None),
]
FRONTEND_COPIES = 40
FRONTEND_MODELS = 5


@dataclass
class Op:
    """One timed call (`run`) and its untimed output check.

    `check` returns a list of problems; `digest` condenses the result to
    what must not depend on the seed (world counts, verdicts).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], object] = lambda result: None


@dataclass
class Workload:
    """Ops in pass order plus the checks made once, after the timed loop.

    `verify` returns {label: problems}; a problem found there fails every op
    with that label. `world_counts` is {label: reference world count}.
    """

    ops: list[Op]
    verify: Callable[[], dict[str, list[str]]]
    world_counts: dict[str, int] = field(default_factory=dict)


def severity_values(rng: random.Random) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(101), 3)))


def quality_values_arg(values) -> str:
    return "Severity={" + ",".join(map(str, values)) + "}"


def parse_scope_text(text: str) -> dict[str, int]:
    return {name: int(num) for name, num in (part.split("=") for part in text.split(","))}


def build_scopes(L, table: dict, values) -> dict:
    """One unlimited Scope per label of a scope table."""
    return {
        label: L.worlds.Scope(
            per_classifier=parse_scope_text(text),
            quality_values={"Severity": values}, world_limit=UNLIMITED,
        )
        for label, (text, _) in table.items()
    }


def run_cli(L, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = L.cli.main(argv)
    return code, out.getvalue()


def _parse_model(L, path: Path):
    model = L.parser.parse_text(path.read_text())
    if isinstance(model, list):
        raise ValueError(f"{path.name} does not parse: {model}")
    return model


def _verified_worlds(L, model, scope, labels_to_worlds, expected) -> dict[str, list[str]]:
    return {
        label: world_list_problems(
            worlds, expected[label],
            lambda w, s=scope[label]: L.worlds.validate_world(model, w, s),
        )
        for label, worlds in labels_to_worlds.items()
    }


# --------------------------------------------------------------------------
# simulate_relator
# --------------------------------------------------------------------------

def simulate_relator(L, rng: random.Random, work: Path) -> Workload:
    values = severity_values(rng)
    qv = quality_values_arg(values)
    path = MODELS / "healthcare_relator.onto"
    model = _parse_model(L, path)
    labels = list(RELATOR_PASS)
    rng.shuffle(labels)
    first_hash: dict[str, str] = {}

    def make(label: str) -> Op:
        out = work / f"simulate_{label}.json"
        argv = [
            "simulate", str(path), "--format", "json", "--limit", str(UNLIMITED),
            "-o", str(out), "--scope", RELATOR_SCOPES[label][0], "--quality-values", qv,
        ]

        def check(code) -> list[str]:
            if code != 0:
                return [f"exit code {code}, expected 0"]
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if first_hash.setdefault(label, digest) != digest:
                return ["output differs from this scope's first output"]
            return []

        return Op(label, lambda: L.cli.main(argv), check)

    scopes = build_scopes(L, RELATOR_SCOPES, values)
    counts = {label: n for label, (_, n) in RELATOR_SCOPES.items()}

    def verify() -> dict[str, list[str]]:
        listed = {
            label: [
                world_from_dict(L.worlds.InstanceWorld, doc)
                for doc in json.loads((work / f"simulate_{label}.json").read_bytes())
            ]
            for label in first_hash
        }
        return _verified_worlds(L, model, scopes, listed, counts)

    return Workload([make(label) for label in labels], verify, counts)


# --------------------------------------------------------------------------
# lint_clinic
# --------------------------------------------------------------------------

def _tie_problems(L, model, world, relation: str, x: str, y: str) -> list[str]:
    lax = L.worlds.eval_comparative(world, model, relation, strict=False)
    strict = L.worlds.eval_comparative(world, model, relation, strict=True)
    if (x, y) in lax and (y, x) in lax and not {(x, y), (y, x)} & strict:
        return []
    return [f"{relation} pair ({x}, {y}) is not a tie"]


def _ap1_problems(world, related) -> list[str]:
    m1, m2 = related
    by_source: dict[tuple[str, str], set[str]] = {}
    for rel, s, t in world.links:
        by_source.setdefault((s, t), set()).add(rel)
    if any({m1, m2} <= rels for rels in by_source.values()):
        return []
    return [f"AP1 witness has no individual filling both {m1} and {m2}"]


def lint_clinic(L, rng: random.Random, work: Path) -> Workload:
    values = severity_values(rng)
    qv = quality_values_arg(values)
    path = MODELS / "clinic_lint.onto"
    model = _parse_model(L, path)
    labels = list(CLINIC_PASS)
    rng.shuffle(labels)
    scopes = build_scopes(L, CLINIC_SCOPES, values)

    def make(label: str) -> Op:
        argv = [
            "lint", str(path), "--format", "json",
            "--scope", CLINIC_SCOPES[label][0], "--quality-values", qv,
        ]

        def check(result) -> list[str]:
            code, out = result
            if code != 0:
                return [f"exit code {code}, expected 0"]
            diags = json.loads(out)
            shape = sorted(
                (d["ruleId"], tuple(d["related"]) if d["ruleId"] == "AP1" else None)
                for d in diags
            )
            problems = []
            if shape != CLINIC_WARNINGS or any(d["severity"] != "Warning" for d in diags):
                problems.append(f"findings {shape}, expected {CLINIC_WARNINGS} as Warnings")
            for d in diags:
                if "witness" not in d:
                    problems.append(f"{d['ruleId']} has no witness")
                    continue
                world = world_from_dict(L.worlds.InstanceWorld, d["witness"])
                problems += L.worlds.validate_world(model, world, scopes[label])
                if d["ruleId"] == "AP1":
                    problems += _ap1_problems(world, d["related"])
                else:
                    problems += _tie_problems(L, model, world, "moreSevereThan", *d["related"])
            return problems

        def digest(result):
            return sorted((d["ruleId"], d["severity"], d["message"]) for d in json.loads(result[1]))

        return Op(label, lambda: run_cli(L, argv), check, digest)

    counts = {label: n for label, (_, n) in CLINIC_SCOPES.items()}

    def verify() -> dict[str, list[str]]:
        listed = {label: L.worlds.enumerate_worlds(model, scopes[label]) for label in counts}
        return _verified_worlds(L, model, scopes, listed, counts)

    return Workload([make(label) for label in labels], verify, counts)


# --------------------------------------------------------------------------
# metaprops_severity
# --------------------------------------------------------------------------

def metaprops_severity(L, rng: random.Random, work: Path) -> Workload:
    values = severity_values(rng)
    text = (MODELS / "severity_case.onto").read_text()
    model = L.parser.parse_text(text)
    labels = list(SEVERITY_PASS)
    rng.shuffle(labels)
    scopes = build_scopes(L, SEVERITY_SCOPES, values)

    def make(label: str) -> Op:
        scope = scopes[label]

        def run():
            m = L.parser.parse_text(text)
            return (
                m,
                L.worlds.check_metaproperties(m, "moreSevereThan", scope),
                L.worlds.check_metaproperties(m, "moreSeriousThan", scope),
                L.worlds.check_metaproperties(m, "moreSevereThan", scope, strict=False),
            )

        def check(result) -> list[str]:
            m, severe, serious, lax = result
            problems = [
                f"strict {r.relation} is not a strict order in scope"
                for r in (severe, serious)
                if not (r.irreflexive and r.asymmetric and r.transitive and r.counterexamples == ())
            ]
            found = lax.counterexample("asymmetric")
            if lax.asymmetric or found is None:
                return problems + ["lax moreSevereThan does not fail asymmetry"]
            world, (x, y) = found
            problems += L.worlds.validate_world(m, world, scope)
            return problems + _tie_problems(L, m, world, "moreSevereThan", x, y)

        def digest(result):
            return [
                (r.relation, r.irreflexive, r.asymmetric, r.transitive,
                 tuple(name for name, _, _ in r.counterexamples))
                for r in result[1:]
            ]

        return Op(label, run, check, digest)

    counts = {label: n for label, (_, n) in SEVERITY_SCOPES.items()}

    def verify() -> dict[str, list[str]]:
        listed = {label: L.worlds.enumerate_worlds(model, scopes[label]) for label in counts}
        return _verified_worlds(L, model, scopes, listed, counts)

    return Workload([make(label) for label in labels], verify, counts)


# --------------------------------------------------------------------------
# frontend_batch
# --------------------------------------------------------------------------

def generate_model(rng: random.Random, copies: int) -> tuple[str, list[tuple]]:
    """A model with `copies` renamed copies of the README's plain pattern.

    Each copy's material relation lacks a truthmaker, so `check` reports one
    R6 error per copy. Returns the text and, per copy, the unpack arguments
    (relation, relator, (patient role, provider role)) plus the relator.
    """
    tags: set[str] = set()
    while len(tags) < copies:
        tags.add("".join(rng.choices(string.ascii_lowercase, k=6)))
    blocks, materials = [], []
    for tag in sorted(tags):
        blocks.append("\n".join([
            f"kind Person_{tag}",
            f"kind Organization_{tag}",
            f"subkind HealthcareProvider_{tag} specializes Organization_{tag}",
            f"phase UnhealthyPerson_{tag} specializes Person_{tag}",
            f"mode PathologicalCondition_{tag}",
            f"quality Severity_{tag}",
            f"space Severity_{tag} ordered 0..100",
            f"material treatedBy_{tag} : UnhealthyPerson_{tag} [1..*] -- [1..*] HealthcareProvider_{tag}",
            f"characterization hasSeverity_{tag} : Severity_{tag} [1..1] -- [1..1] PathologicalCondition_{tag}",
            f"comparative moreSevereThan_{tag} : PathologicalCondition_{tag} -- "
            f"PathologicalCondition_{tag} via Severity_{tag} desc",
        ]))
        materials.append((f"treatedBy_{tag}", f"Treatment_{tag}", (f"Patient_{tag}", f"ProviderRole_{tag}")))
    rng.shuffle(blocks)
    name = "".join(rng.choices(string.ascii_uppercase, k=6))
    return f"model Batch{name}\n\n" + "\n\n".join(blocks) + "\n", materials


def frontend_batch(L, rng: random.Random, work: Path) -> Workload:
    generated = [generate_model(rng, FRONTEND_COPIES) for _ in range(FRONTEND_MODELS)]

    def make(index: int, text: str, materials) -> Op:
        src = work / f"batch_{index}.onto"
        src.write_text(text)
        unpacked = work / f"batch_{index}_unpacked.onto"
        as_json = work / f"batch_{index}_unpacked.json"

        def run():
            first_check = run_cli(L, ["check", str(src), "--format", "json"])
            model = L.parser.parse_text(text)
            for relation, relator, roles in materials:
                plan = L.unpack.unpack_material(model, relation, relator, roles)
                model = L.unpack.apply_plan(model, plan)
            recheck = L.rules.check(model)
            cards = [
                tuple(map(str, L.unpack.derive_material_cardinalities(model, relator)))
                for _, relator, _ in materials
            ]
            dsl = L.parser.render_dsl(model)
            dsl_again = L.parser.render_dsl(L.parser.parse_text(dsl))
            unpacked.write_text(dsl)
            emitted = run_cli(L, ["parse", str(unpacked), "--format", "json", "-o", str(as_json)])
            raw = as_json.read_bytes()
            json_again = L.jsonio.emit_json(L.jsonio.load_json(raw))
            diff = run_cli(L, ["diff", str(unpacked), str(as_json), "--format", "json"])
            return dict(
                first_check=first_check, recheck=recheck, cards=cards,
                dsl=dsl, dsl_again=dsl_again, emitted=emitted[0], raw=raw,
                json_again=json_again, diff=diff, classifiers=len(model.classifiers),
            )

        def check(r) -> list[str]:
            problems = []
            code, out = r["first_check"]
            first = [(d["ruleId"], d["severity"]) for d in json.loads(out)] if code == 1 else None
            if first != [("R6", "Error")] * len(materials):
                problems.append(f"first check exit {code}, expected {len(materials)} R6 errors")
            if r["recheck"]:
                problems.append(f"{len(r['recheck'])} diagnostics after unpacking")
            if set(r["cards"]) != {("[1..*]", "[1..*]", "[1..*]")}:
                problems.append(f"derived cardinalities {sorted(set(r['cards']))}")
            if r["dsl_again"] != r["dsl"]:
                problems.append("DSL round trip is not byte-identical")
            if r["emitted"] != 0 or r["json_again"] != r["raw"]:
                problems.append("JSON round trip is not byte-identical")
            code, out = r["diff"]
            verdicts = [row["verdict"] for row in json.loads(out)] if code == 0 else None
            if verdicts != ["IdentityCandidate"] * r["classifiers"]:
                problems.append(f"diff exit {code}, expected one IdentityCandidate per classifier")
            return problems

        return Op(f"model{index}", run, check)

    ops = [make(i, text, materials) for i, (text, materials) in enumerate(generated)]
    return Workload(ops, lambda: {})


WORKLOADS = {
    "simulate_relator": simulate_relator,
    "lint_clinic": lint_clinic,
    "metaprops_severity": metaprops_severity,
    "frontend_batch": frontend_batch,
}
