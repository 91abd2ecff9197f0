"""Self-tests of the benchmark itself. Run from the checkout root:

    python3 perfbench/selftest.py

They check that the host-speed probe runs during a timed call and leaves
the signal state as it found it, that the tracer wraps and restores every
boundary, that each
workload crosses the boundaries its per-layer metrics are read from, that
world counts and verdicts do not depend on the seed, and that the
independent isomorphism check catches a relabeled duplicate. One pass per
workload and seed; about two minutes on a 2-core machine.
"""
from __future__ import annotations

import random
import shutil
import signal
import sys
import traceback
from types import ModuleType

import run
from run import WORK_ROOT, import_program, run_workload, timed
from spans import BOUNDARIES, EXPECTED, Tracer, load_layers
from workloads import MODELS, WORKLOADS, generate_model
from worldcheck import isomorphic_pairs

SEEDS = (1, 2)


def _bindings(layers) -> dict:
    return {(site, attr): getattr(getattr(layers, site), attr) for site, attr in BOUNDARIES}


def test_timed_probes_the_host_and_restores_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    result, seconds, wall = timed(lambda: sum(i * i for i in range(400_000)))
    assert result == sum(i * i for i in range(400_000))
    assert len(run._probe_seconds) >= 2, "no probe ran during a call of tens of ms"
    assert 0 < seconds and 0 < wall
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    raised, _, _ = timed(lambda: 1 // 0)
    assert isinstance(raised, ZeroDivisionError)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_wraps_and_restores_every_boundary():
    layers = load_layers()
    assert all(isinstance(m, ModuleType) for m in vars(layers).values())
    before = _bindings(layers)
    try:
        with Tracer(layers):
            during = _bindings(layers)
            assert all(during[k] is not v and during[k].__wrapped__ is v for k, v in before.items())
            raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    after = _bindings(layers)
    assert all(after[k] is v for k, v in before.items())


def test_every_boundary_belongs_to_a_workload():
    assert set().union(*EXPECTED.values()) == set(BOUNDARIES)
    assert set(EXPECTED) == set(WORKLOADS)


def test_boundaries_record_spans_and_seeds_agree():
    layers = load_layers()
    before = _bindings(layers)
    for name in WORKLOADS:
        traced = _run(name, SEEDS[0], trace=True)
        silent = sorted(b for b in EXPECTED[name] if not traced["boundary_calls"].get(b))
        assert not silent, f"{name}: boundaries with zero spans {silent}"
        other = _run(name, SEEDS[1], trace=False)
        if name != "frontend_batch":   # its seed renames the model, so digests differ
            assert traced["digests"] == other["digests"], f"{name}: verdicts depend on the seed"
        assert all(after is before[k] for k, after in _bindings(layers).items())


def test_same_seed_same_inputs():
    assert generate_model(random.Random(7), 4) == generate_model(random.Random(7), 4)
    assert generate_model(random.Random(7), 4) != generate_model(random.Random(8), 4)


def test_isomorphism_check_catches_a_relabeled_copy():
    layers = load_layers()
    model = layers.parser.parse_text((MODELS / "healthcare_relator.onto").read_text())
    scope = layers.worlds.Scope(per_classifier={
        "Person": 2, "Organization": 1, "Treatment": 1, "PathologicalCondition": 0,
    })
    worlds = layers.worlds.enumerate_worlds(model, scope)
    assert worlds and isomorphic_pairs(worlds) == 0
    swap = {"Person_0": "Person_1", "Person_1": "Person_0"}
    ren = lambda ind: swap.get(ind, ind)
    copies = [
        layers.worlds.InstanceWorld(
            individuals=tuple(sorted((ren(i), b) for i, b in w.individuals)),
            type_rows=tuple(sorted((ren(i), ts) for i, ts in w.type_rows)),
            links=tuple(sorted((r, ren(s), ren(t)) for r, s, t in w.links)),
            value_rows=tuple(sorted((q, ren(b), v) for q, b, v in w.value_rows)),
        )
        for w in worlds if set(swap) <= set(w.ids)
    ]
    moved = [c for c in copies if c not in worlds]
    assert moved, "no world changes under the swap"
    assert isomorphic_pairs(worlds + moved[:1]) == 1


def _run(name: str, seed: int, trace: bool) -> dict:
    work = WORK_ROOT / f"selftest-{name}-{seed}"
    try:
        result = run_workload(name, seed, 0, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert result["failed"] == 0, f"{name} seed {seed}: {result['messages'][:3]}"
    return result


def main() -> int:
    import_program()
    failures = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
            print(f"PASS {name}", flush=True)
        except Exception:
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}", flush=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
