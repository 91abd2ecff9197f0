"""Benchmark for ontounpack: four closed-loop workloads over the CLI and API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload simulate_relator --seed 1 --seconds 30 --trace 0

The program is imported from `src/` of the checkout, never from an installed
copy. One process, one thread, one client: each op starts after the previous
one returned and was checked. Whole passes over the workload's op list run
while the next pass is expected to end within `--seconds` (always at least
one). Checks run outside the timed region.

The host's speed drifts by a fifth within seconds (other tenants share its
cores and caches), so every timing is scaled to a reference host speed.
While an op runs, a timer signal every 5 ms runs and times a short fixed
piece of interpreter work that touches no program code (`_probe`). The op's
wall time less the probes' time, multiplied by REFERENCE_S over the probes'
mean time, is the time the op would take on a host where the probe takes
REFERENCE_S. Raw wall times go to stderr; perfbench/README.md says why.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones
(setup_s, pass_s, op_s.p50, peak_rss_mb); with `--trace 1` they are the
per-layer ones from a traced run, preceded by one untraced pass that gives
the tracing overhead. Details go to stderr.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
# Host-speed probe: fixed interpreter work (an integer loop, then objects,
# a sort, a dict, strings and sets), run from a SIGALRM handler every
# PROBE_INTERVAL_S while an op runs. It touches no program code. REFERENCE_S
# is its mean time on a 2-core 2.0 GHz Xeon VM with Python 3.11.7.
PROBE_INTERVAL_S = 0.005
REFERENCE_S = 0.000215
_probe_seconds: list[float] = []
probe_means: list[float] = []  # one per timed call


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def key(self):
        return (self.b, self.a)


def _probe_work() -> int:
    x = 1
    for i in range(800):
        x = (x * 31 + i) % 1000003
    items = sorted((_Item(i % 5, f"n{i % 11}") for i in range(60)), key=_Item.key)
    groups: dict = {}
    for item in items:
        groups.setdefault(item.b, []).append(item.a)
    text = "|".join(f"{k}:{sum(v)}" for k, v in groups.items())
    parts = [part.split(":") for part in text.split("|")]
    return x + len({frozenset(p) for p in parts} | {tuple(p) for p in parts})


def _probe(_signum=None, _frame=None):
    started = perf_counter()
    _probe_work()
    _probe_seconds.append(perf_counter() - started)


def timed(call, in_process: bool = True):
    """Run `call` while probing the host's speed; returns (result or raised
    exception, seconds at reference speed, wall seconds).

    With `in_process` the probes interrupt `call` itself, so their time is
    taken out of the op's; otherwise `call` waits for a child process and
    the probes run beside it.
    """
    gc.collect()
    _probe_seconds.clear()
    previous = signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    started = perf_counter()
    try:
        result = call()
    except Exception as exc:
        result = exc
    finally:
        wall = perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    probes = list(_probe_seconds)
    if not probes:
        _probe()
        probes = _probe_seconds
    probe_means.append(statistics.fmean(probes))
    busy = wall - sum(probes) if in_process else wall
    return result, busy * REFERENCE_S / probe_means[-1], wall


def import_program():
    """Import ontounpack from this checkout's src/ and fail if that is impossible."""
    sys.path.insert(0, str(SRC))
    try:
        import ontounpack
    except ImportError as exc:
        raise SystemExit(f"cannot import ontounpack from {SRC}: {exc}")
    if SRC.resolve() not in Path(ontounpack.__file__).resolve().parents:
        raise SystemExit(f"ontounpack was imported from {ontounpack.__file__}, not {SRC}")


def setup(name: str, seed: int, work: Path):
    """Import the program and build the workload's inputs from the seed."""
    import_program()
    from spans import load_layers
    from workloads import WORKLOADS

    layers = load_layers()
    work.mkdir(parents=True, exist_ok=True)
    return layers, WORKLOADS[name](layers, random.Random(seed), work)


@dataclass
class Outcome:
    op_labels: list = field(default_factory=list)
    op_seconds: list = field(default_factory=list)  # at reference speed
    op_wall: list = field(default_factory=list)
    problems: list = field(default_factory=list)   # per op
    passes: list = field(default_factory=list)     # at reference speed
    pass_wall: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)    # label -> first op's digest

    def add(self, other: "Outcome"):
        self.op_labels += other.op_labels
        self.op_seconds += other.op_seconds
        self.op_wall += other.op_wall
        self.problems += other.problems
        for label, digest in other.digests.items():
            self.digests.setdefault(label, digest)


def _run_op(op, tracer):
    def call():
        if tracer is not None:
            tracer.active = True
        try:
            return op.run()
        finally:
            if tracer is not None:
                tracer.active = False

    result, seconds, wall = timed(call)
    if isinstance(result, Exception):
        return seconds, wall, [f"raised {type(result).__name__}: {result}"], None
    try:
        return seconds, wall, op.check(result), op.digest(result)
    except Exception as exc:
        return seconds, wall, [f"check raised {type(exc).__name__}: {exc}"], None


def measure(workload, seconds: float, tracer=None, first_op: int = 0) -> Outcome:
    """Whole passes while the next one should end within `seconds`."""
    out = Outcome()
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        pass_seconds = pass_wall = 0.0
        for op in workload.ops:
            if tracer is not None:
                tracer.op = first_op + len(out.op_labels)
            took, wall, problems, digest = _run_op(op, tracer)
            pass_seconds += took
            pass_wall += wall
            out.op_labels.append(op.label)
            out.op_seconds.append(took)
            out.op_wall.append(wall)
            out.problems.append(problems)
            if not problems:
                out.digests.setdefault(op.label, digest)
        out.passes.append(pass_seconds)
        out.pass_wall.append(pass_wall)
        now = perf_counter()
        if now - started + (now - pass_started) > seconds:
            return out


def finish(workload, out: Outcome) -> tuple[int, list[str]]:
    """Apply the after-loop checks; returns (failed ops, messages)."""
    by_label = workload.verify()
    failed, messages = 0, []
    for label, problems in zip(out.op_labels, out.problems):
        problems = problems + by_label.get(label, [])
        if problems:
            failed += 1
            messages.append(f"{label}: {'; '.join(problems[:3])}")
    return failed, messages


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run without set-up timing; returns metrics and diagnostics."""
    layers, workload = setup(name, seed, work)
    if not trace:
        out = measure(workload, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "pass_s": (statistics.median(out.passes), "s"),
            "op_s.p50": (statistics.median(out.op_seconds), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        boundary_calls, table = {}, []
    else:
        from spans import Tracer, calls_by_boundary, layer_metrics, span_table

        out = measure(workload, 0)
        untraced_pass = out.passes[0]
        with Tracer(layers) as tracer:
            traced = measure(workload, seconds - untraced_pass, tracer, first_op=len(out.op_labels))
        out.add(traced)
        traced_ops = len(traced.op_labels)
        metrics = layer_metrics(
            tracer.spans, traced_ops, sum(traced.op_wall),  # spans are wall time
            workload.world_counts, out.op_labels,
        )
        metrics["trace.overhead_s"] = (statistics.median(traced.passes) - untraced_pass, "s")
        boundary_calls = calls_by_boundary(tracer.spans)
        table = span_table(tracer.spans, traced_ops)
    failed, messages = finish(workload, out)
    return {
        "attempted": len(out.op_labels), "failed": failed, "messages": messages,
        "metrics": metrics, "op_seconds": out.op_seconds, "passes": out.passes,
        "op_wall": out.op_wall, "pass_wall": out.pass_wall,
        "digests": out.digests, "boundary_calls": boundary_calls, "table": table,
    }


def time_setup(args) -> float:
    """Time, at reference speed, of a fresh process that imports the program
    and builds inputs."""
    result, seconds, _wall = timed(lambda: subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        check=True, stdin=subprocess.DEVNULL,
    ), in_process=False)  # no timeout: with one, the wait polls in 50 ms steps
    if isinstance(result, Exception):
        raise result
    return seconds


def op_summary(values: list[float]) -> str:
    """Median op with its sample count, and the highest percentile that has
    at least ten samples beyond it when there are enough samples."""
    n = len(values)
    text = f"op_s.p50={statistics.median(values):.4f}s over {n} ops"
    if n < 20:
        return text + "; too few ops for a tail percentile"
    p = int(100 * (1 - 10 / n))
    return text + f"; op_s.p{p}={statistics.quantiles(values, n=100)[p - 1]:.4f}s"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(args.workload, args.seed, work)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
        if not args.trace:
            setups = [time_setup(args) for _ in range(SETUP_REPEATS)]
            result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    log = sys.stderr
    for message in result["messages"][:20]:
        print(f"FAILED {message}", file=log)
    print(f"{args.workload} seed={args.seed}: {len(result['passes'])} passes, "
          f"fail_ratio={result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})", file=log)
    if args.trace:
        for line in result["table"]:
            print(line, file=log)
        from spans import EXPECTED
        silent = sorted(b for b in EXPECTED[args.workload] if not result["boundary_calls"].get(b))
        if silent:
            print(f"boundaries with zero spans: {silent}", file=log)
    else:
        print(op_summary(result["op_seconds"]), file=log)
        print(f"wall time: pass_s={statistics.median(result['pass_wall']):.4f}s, "
              f"op_s.p50={statistics.median(result['op_wall']):.4f}s; host probe "
              f"{1e6 * statistics.median(probe_means):.1f} us, reference "
              f"{1e6 * REFERENCE_S:.1f} us", file=log)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
