"""Outside-in span tracing at the program's module boundaries.

The tracer replaces module attributes with span-recording wrappers. A call
made through a wrapped name, from the benchmark or from inside the package,
records a span: name, call site, parent span, op, start and end. Spans are
kept in memory and folded into per-layer metrics when the run ends.

Modules are resolved through `importlib.import_module`: `import
ontounpack.lint` would bind the `lint` function, which the package
re-exports over the submodule. Every wrapped attribute is restored on exit.
"""
from __future__ import annotations

import importlib
from time import perf_counter
from types import SimpleNamespace

LAYERS = ("cli", "parser", "rules", "unpack", "jsonio", "interop", "worlds", "lint")

# (module holding the name, attribute). The span is named after the function
# the attribute holds, so `worlds.check` records as `rules.check` at site
# `worlds`. `dot` stays off the timed path and is not wrapped.
BOUNDARIES = (
    ("cli", "main"),
    ("cli", "parse_text"),
    ("cli", "check"),
    ("cli", "enumerate_worlds"),
    ("cli", "lint"),
    ("cli", "compare"),
    ("cli", "emit_json"),
    ("lint", "check"),
    ("lint", "find_witness"),
    ("lint", "check_metaproperties"),
    ("worlds", "check"),
    ("worlds", "goal_holds"),
    ("worlds", "eval_comparative"),
    ("worlds", "check_metaproperties"),
    ("parser", "parse_text"),
    ("parser", "render_dsl"),
    ("rules", "check"),
    ("unpack", "unpack_material"),
    ("unpack", "apply_plan"),
    ("unpack", "derive_material_cardinalities"),
    ("jsonio", "emit_json"),
    ("jsonio", "load_json"),
)

# Boundaries each workload must cross; the self-test fails on a zero count.
EXPECTED = {
    "simulate_relator": {
        ("cli", "main"), ("cli", "parse_text"), ("cli", "enumerate_worlds"), ("worlds", "check"),
    },
    "lint_clinic": {
        ("cli", "main"), ("cli", "parse_text"), ("cli", "lint"), ("lint", "check"),
        ("lint", "find_witness"), ("lint", "check_metaproperties"), ("worlds", "check"),
        ("worlds", "goal_holds"), ("worlds", "eval_comparative"),
    },
    "metaprops_severity": {
        ("parser", "parse_text"), ("worlds", "check_metaproperties"), ("worlds", "check"),
        ("worlds", "eval_comparative"),
    },
    "frontend_batch": {
        ("cli", "main"), ("cli", "parse_text"), ("cli", "check"), ("cli", "compare"),
        ("cli", "emit_json"), ("parser", "parse_text"), ("parser", "render_dsl"),
        ("rules", "check"), ("unpack", "unpack_material"), ("unpack", "apply_plan"),
        ("unpack", "derive_material_cardinalities"), ("jsonio", "emit_json"),
        ("jsonio", "load_json"),
    },
}


# What a span keeps of its call's result, by span name.
MEASURES = {
    "worlds.enumerate_worlds": len,
    "worlds.find_witness": lambda world: int(world is not None),
    "worlds.check_metaproperties": lambda report: int(not report.asymmetric),
}


def load_layers() -> SimpleNamespace:
    return SimpleNamespace(**{n: importlib.import_module(f"ontounpack.{n}") for n in LAYERS})


class Tracer:
    """Context manager that wraps every boundary; records only while `active`."""

    def __init__(self, L: SimpleNamespace):
        self.L = L
        self.spans: list[list] = []   # [name, site, parent, op, start, end, measure]
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        try:
            for site, attr in BOUNDARIES:
                module = getattr(self.L, site)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, site))
                self._saved.append((module, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, site: str):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        measure = MEASURES.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, site, self._stack[-1] if self._stack else None, self.op,
                    perf_counter(), None, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span[6] = measure(result)
                return result
            finally:
                span[5] = perf_counter()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper


def calls_by_boundary(spans) -> dict[tuple[str, str], int]:
    """Span count per (site, function name) pair."""
    out: dict[tuple[str, str], int] = {}
    for name, site, *_ in spans:
        key = (site, name.rsplit(".", 1)[1])
        out[key] = out.get(key, 0) + 1
    return out


def layer_metrics(spans, ops: int, op_seconds: float, world_counts: dict, op_labels: list) -> dict:
    """Per-layer metrics per op; times are shares (%) of traced op time.

    `op_labels[i]` is the label of traced op i, used to look up the
    reference world count behind each witness search.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, _site, parent, _op, start, end, _measure in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            own[spans[parent][0]] = own.get(spans[parent][0], 0.0) - dur

    def pct(seconds: float) -> float:
        return 100.0 * seconds / op_seconds

    def per_op(count: float) -> float:
        return count / ops

    enum_s = total.get("worlds.enumerate_worlds", 0.0)
    emitted = sum(s[6] for s in spans if s[0] == "worlds.enumerate_worlds")
    witness_spans = [s for s in spans if s[0] == "worlds.find_witness"]
    scanned_ref = sum(world_counts.get(op_labels[s[3]], 0) for s in witness_spans)
    queries = [s for s in spans if s[1] == "lint" and s[0] in
               ("worlds.find_witness", "worlds.check_metaproperties")]
    return {
        "trace.op_s": (op_seconds / ops, "s"),
        "trace.spans": (per_op(len(spans)), "count"),
        "cli.self_pct": (pct(own.get("cli.main", 0.0)), "%"),
        "parser.parse_text.pct": (pct(total.get("parser.parse_text", 0.0)), "%"),
        "parser.parse_text.calls": (per_op(calls.get("parser.parse_text", 0)), "count"),
        "rules.check.pct": (pct(total.get("rules.check", 0.0)), "%"),
        "rules.check.calls": (per_op(calls.get("rules.check", 0)), "count"),
        "unpack.unpack_material.pct": (pct(total.get("unpack.unpack_material", 0.0)), "%"),
        "unpack.apply_plan.pct": (pct(total.get("unpack.apply_plan", 0.0)), "%"),
        "unpack.derive_material_cardinalities.pct":
            (pct(total.get("unpack.derive_material_cardinalities", 0.0)), "%"),
        "jsonio.emit_json.pct": (pct(total.get("jsonio.emit_json", 0.0)), "%"),
        "jsonio.load_json.pct": (pct(total.get("jsonio.load_json", 0.0)), "%"),
        "interop.compare.pct": (pct(total.get("interop.compare", 0.0)), "%"),
        "worlds.enumerate_worlds.self_pct": (pct(own.get("worlds.enumerate_worlds", 0.0)), "%"),
        "worlds.worlds_emitted": (per_op(emitted), "count"),
        "worlds.worlds_per_s": (emitted / enum_s if enum_s else 0.0, "1/s"),
        "worlds.enumerations":
            (per_op(sum(1 for s in spans if s[0] == "rules.check" and s[1] == "worlds")), "count"),
        "worlds.find_witness.pct": (pct(total.get("worlds.find_witness", 0.0)), "%"),
        "worlds.find_witness.calls": (per_op(len(witness_spans)), "count"),
        "worlds.goal_holds.calls": (per_op(calls.get("worlds.goal_holds", 0)), "count"),
        "worlds.witness_scan_ratio":
            (calls.get("worlds.goal_holds", 0) / scanned_ref if scanned_ref else 0.0, "ratio"),
        "worlds.check_metaproperties.pct": (pct(total.get("worlds.check_metaproperties", 0.0)), "%"),
        "worlds.check_metaproperties.calls":
            (per_op(calls.get("worlds.check_metaproperties", 0)), "count"),
        "worlds.eval_comparative.pct": (pct(total.get("worlds.eval_comparative", 0.0)), "%"),
        "worlds.eval_comparative.calls": (per_op(calls.get("worlds.eval_comparative", 0)), "count"),
        "lint.lint.self_pct": (pct(own.get("lint.lint", 0.0)), "%"),
        "lint.queries": (per_op(len(queries)), "count"),
        "lint.witness_ratio": (sum(s[6] for s in queries) / len(queries) if queries else 0.0, "ratio"),
    }


def span_table(spans, ops: int) -> list[str]:
    """Calls, total and self seconds per op for every (name, site) seen."""
    rows: dict[tuple[str, str], list[float]] = {}
    for name, site, parent, _op, start, end, _measure in spans:
        dur = end - start
        row = rows.setdefault((name, site), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur
        if parent is not None:
            rows[spans[parent][0], spans[parent][1]][2] -= dur
    lines = [f"{'span':40} {'site':7} {'calls/op':>10} {'total s/op':>11} {'self s/op':>10}"]
    for (name, site), (calls, total, own) in sorted(rows.items()):
        lines.append(f"{name:40} {site:7} {calls / ops:10.2f} {total / ops:11.5f} {own / ops:10.5f}")
    return lines
