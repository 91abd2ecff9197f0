"""Digest of the world finder's CLI output over a fixed matrix of runs.

Runs `simulate --format json --limit 1000000000` and `lint --format json` on
the 3 `examples/` models and the 3 `perfbench/models/` models at the 9
benchmark scopes (3 per benchmark model), with `--quality-values
Severity={3,50,97}` where the model declares Severity: 108 runs, each in its
own process, from the checkout root with its `src/` on PYTHONPATH. A scope
that names a classifier the model lacks is a run like any other (exit 2).

Prints the count of each exit code and one sha256 over every run's argv,
exit code, stdout and stderr. Two checkouts that print the same digest gave
byte-identical output in every run. A second line gives the same kind of
sha256 over `check --format json` on each of the 6 models, so the rule
catalog's output is pinned too. A third line does so for the README's
`unpack` and `derive-cards` examples, each in `--format json` and `text`, so
the unpack plan's JSON is pinned as well. Neither line's runs are in the
exit-code counts.

`tools/identity_matrix.expected` holds the output for this checkout; CI
diffs a run against it, so a change to any run's output updates that file.

    python3 tools/identity_matrix.py CHECKOUT_ROOT
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

MODELS = [
    "examples/healthcare_event.onto",
    "examples/healthcare_plain.onto",
    "examples/healthcare_relator.onto",
    "perfbench/models/clinic_lint.onto",
    "perfbench/models/healthcare_relator.onto",
    "perfbench/models/severity_case.onto",
]

SCOPES = [
    # relator
    "Person=2,Organization=2,Treatment=2,PathologicalCondition=1",
    "Person=3,Organization=3,Treatment=3,PathologicalCondition=0",
    "Person=3,Organization=3,Treatment=3,PathologicalCondition=1",
    # clinic
    "Person=2,Organization=0,Treatment=1,Consultation=1,PathologicalCondition=1",
    "Person=2,Organization=1,Treatment=2,Consultation=1,PathologicalCondition=2",
    "Person=3,Organization=1,Treatment=2,Consultation=1,PathologicalCondition=1",
    # severity
    "Person=2,PathologicalCondition=3",
    "Person=3,PathologicalCondition=6",
    "Person=4,PathologicalCondition=5",
]

COMMANDS = [
    ["simulate", "--format", "json", "--limit", "1000000000"],
    ["lint", "--format", "json"],
]

UNPACK = [
    ["unpack", "examples/healthcare_plain.onto", "treatedBy",
     "--relator", "Treatment", "--roles", "Patient,ProviderRole"],
    ["derive-cards", "examples/healthcare_relator.onto", "Treatment"],
]

CLI = "import sys; from ontounpack.cli import main; sys.exit(main())"


def declares_severity(path: Path) -> bool:
    return any(line.split()[:2] == ["quality", "Severity"]
               for line in path.read_text(encoding="utf-8").splitlines())


def runs(root: Path):
    """Every argv of the matrix, relative to the checkout root."""
    for model in MODELS:
        values = ["--quality-values", "Severity={3,50,97}"] if declares_severity(root / model) else []
        for scope in SCOPES:
            for command in COMMANDS:
                yield [*command, model, "--scope", scope, *values]


def digest_of(root: Path, argvs, codes: Counter[int]) -> str:
    """One sha256 over each run's argv, exit code, stdout and stderr; counts exit codes."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    digest = hashlib.sha256()
    for args in argvs:
        done = subprocess.run([sys.executable, "-c", CLI, *args], cwd=root, env=env,
                              capture_output=True, check=False)
        codes[done.returncode] += 1
        for part in (json.dumps(args).encode(), str(done.returncode).encode(),
                     done.stdout, done.stderr):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: identity_matrix.py CHECKOUT_ROOT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    codes: Counter[int] = Counter()
    worlds = digest_of(root, runs(root), codes)
    checks = digest_of(root, (["check", "--format", "json", model] for model in MODELS), Counter())
    print(f"runs: {sum(codes.values())}")
    for code, n in sorted(codes.items()):
        print(f"exit {code}: {n}")
    print(f"sha256: {worlds}")
    print(f"check sha256: {checks}")
    unpacks = digest_of(root, ([*args, "--format", fmt] for args in UNPACK
                               for fmt in ("json", "text")), Counter())
    print(f"unpack sha256: {unpacks}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
