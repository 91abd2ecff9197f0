"""Command-line entry point.

Exit codes: 0 success with no Error diagnostics, 1 when Error diagnostics
were emitted, 2 on usage/parse/IO failure. Machine output goes to stdout,
human-readable logs to stderr, and identical invocations produce
byte-identical output.

Each command returns its exit code and its output as pieces of text, which
`main` writes to stdout or the `-o` file as they are formatted: `simulate`
and `lint` format one world or diagnostic per piece, so the whole document
is never held. A command refuses (model errors, scope errors, bad options)
before it returns, so a refused run writes nothing and creates no `-o` file.
An I/O error during the write exits 2 and may leave a partial file.

The argument parser is built on the first `main` call and reused by every
later one in the process: `parse_args` makes a fresh Namespace per call and
keeps no parse state in the parser.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

from .core import Direction, Model, QualitySpace
from .dot import world_to_dot
from .errors import IllFormedModelError, OntoError, ScopeTooLargeError
from .interop import compare
from .jsonio import emit_json
from .lint import lint
from .parser import ParseError, parse_text, render_dsl
from .rules import Severity, check
from .unpack import (
    apply_plan,
    derive_material_cardinalities,
    unpack_comparative,
    unpack_material,
)
from .worlds import Scope, enumerate_worlds
from . import jsonio


class _Failure(Exception):
    """Abort the invocation with an exit code and stderr lines."""

    def __init__(self, code: int, *messages: str):
        super().__init__(messages[0] if messages else "")
        self.code = code
        self.messages = messages


def _dump(data):
    """The JSON document of `data` and its final newline, in jsonio's pieces."""
    yield from jsonio.iter_indented(data)
    yield "\n"


def _load_model(path: str) -> Model:
    p = Path(path)
    if not p.is_file():
        raise _Failure(2, f"no such file: {path}")
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise _Failure(2, f"cannot read {path}: {exc}")
    if p.name.endswith(".json"):
        result = jsonio.load_json(raw)
        if isinstance(result, ParseError):
            raise _Failure(2, f"{path}:{result}")
        return result
    result = parse_text(raw.decode("utf-8", errors="replace"))
    if isinstance(result, list):
        raise _Failure(2, *[f"{path}:{e}" for e in result])
    return result


_INT = re.compile(r"-?[0-9]+")


def _int(text: str, option: str) -> int | None:
    """ASCII digits after an optional '-' (as in the DSL) as an int, else None."""
    if not _INT.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise _Failure(2, f"bad {option}: integer of {len(text)} digits is too long") from None


_QV_ENTRY = re.compile(r"([A-Za-z_]\w*)=\{([^{}]*)\}")


def _parse_quality_values(text: str) -> dict[str, tuple]:
    matched = _QV_ENTRY.sub("", text).replace(",", "").strip()
    if matched:
        raise _Failure(2, f"bad --quality-values '{text}' (expected Name={{v1,v2,...}})")
    out: dict[str, tuple] = {}
    for name, body in _QV_ENTRY.findall(text):
        values = []
        for tok in body.split(","):
            tok = tok.strip()
            if tok:
                number = _int(tok, "--quality-values")
                values.append(tok if number is None else number)
        out[name] = tuple(values)
    return out


def _build_scope(args) -> Scope:
    kwargs = {}
    for option, field, text in (
        ("--scope-default", "default_count", args.scope_default),
        ("--limit", "world_limit", args.limit),
    ):
        if text is not None:
            kwargs[field] = _int(text.strip(), option)
            if kwargs[field] is None:
                raise _Failure(2, f"bad {option} '{text}' (expected INT)")
    per: dict[str, int] = {}
    for part in (args.scope or "").split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, num = part.partition("=")
        count = _int(num.strip(), "--scope")
        if not eq or count is None or "-" in num:
            raise _Failure(2, f"bad --scope entry '{part}' (expected Name=INT)")
        per[name.strip()] = count
    qv = _parse_quality_values(args.quality_values) if args.quality_values else {}
    try:
        return Scope(per_classifier=per, quality_values=qv, **kwargs)
    except ValueError as exc:
        raise _Failure(2, str(exc))


def _diag_text(diags) -> str:
    return "".join(
        f"{d.rule_id} {d.severity.value} "
        f"{d.span.line}:{d.span.column} {d.message}\n"
        for d in diags
    )


def _query(run, model: Model, scope: Scope):
    """`run(model, scope)` with the world finder's refusals turned into exits."""
    try:
        return run(model, scope)
    except IllFormedModelError as exc:
        raise _Failure(1, *_diag_text(exc.diagnostics).splitlines())
    except (ScopeTooLargeError, ValueError) as exc:
        raise _Failure(2, str(exc))


def _cmd_parse(args):
    model = _load_model(args.input)
    if args.format == "json":
        return 0, [emit_json(model).decode("utf-8")]
    return 0, [render_dsl(model)]


def _cmd_check(args):
    model = _load_model(args.input)
    diags = check(model)
    out = _dump(d.to_dict() for d in diags) if args.format == "json" else [_diag_text(diags)]
    code = 1 if any(d.severity is Severity.ERROR for d in diags) else 0
    return code, out


def _cmd_unpack(args):
    model = _load_model(args.input)
    try:
        if args.quality:
            if not args.space:
                raise _Failure(2, "unpack --quality also needs --space LO..HI")
            lo, dots, hi = args.space.partition("..")
            lo, hi = _int(lo, "--space"), _int(hi, "--space")
            if not dots or lo is None or hi is None:
                raise _Failure(2, f"bad --space '{args.space}' (expected LO..HI)")
            space = QualitySpace(owner=args.quality, ordered=(lo, hi))
            plan = unpack_comparative(
                model, args.relation, args.quality, space, Direction(args.direction)
            )
        else:
            if not args.relator or not args.roles:
                raise _Failure(
                    2,
                    "unpack needs --relator NAME --roles A,B "
                    "(or --quality/--space/--direction for the comparative form)",
                )
            roles = tuple(r.strip() for r in args.roles.split(",") if r.strip())
            if len(roles) != 2:
                raise _Failure(2, f"--roles wants exactly two names, got '{args.roles}'")
            plan = unpack_material(model, args.relation, args.relator, roles)
        new_model = apply_plan(model, plan)
    except OntoError as exc:
        raise _Failure(2, f"unpack failed: {exc}")
    if args.format == "json":
        return 0, _dump({"plan": plan.to_dict(), "model": jsonio.model_dict(new_model)})
    return 0, [render_dsl(new_model)]


def _cmd_derive_cards(args):
    model = _load_model(args.input)
    try:
        end_a, end_b, per_tuple = derive_material_cardinalities(model, args.relator)
    except OntoError as exc:
        raise _Failure(2, str(exc))
    meds = model.mediations_of(args.relator)
    doc = {
        "relator": args.relator,
        "endA": {"classifier": meds[0].target, "mult": end_a.to_dict(), "text": str(end_a)},
        "endB": {"classifier": meds[1].target, "mult": end_b.to_dict(), "text": str(end_b)},
        "perTuple": {"mult": per_tuple.to_dict(), "text": str(per_tuple)},
    }
    if args.format == "json":
        return 0, _dump(doc)
    return 0, [
        f"{args.relator}: endA {meds[0].target} {end_a}, "
        f"endB {meds[1].target} {end_b}, perTuple {per_tuple}\n"
    ]


def _world_text(world, index: int) -> str:
    lines = [f"world {index}"]
    types = dict(world.type_rows)  # not world.types, which the world would keep
    for ind, _base in world.individuals:
        lines.append(f"  {ind} : {', '.join(sorted(types[ind]))}")
    for rel, s, t in world.links:
        lines.append(f"  link {rel} {s} -> {t}")
    for q, b, v in world.value_rows:
        lines.append(f"  value {q}({b}) = {v}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(args):
    scope = _build_scope(args)
    model = _load_model(args.input)
    worlds = _query(enumerate_worlds, model, scope)
    if args.format == "json":
        return 0, _dump(w.to_dict() for w in worlds)
    if args.format == "dot":
        return 0, (world_to_dot(model, w, name=f"world_{i}") for i, w in enumerate(worlds))
    return 0, (_world_text(w, i) for i, w in enumerate(worlds))


def _cmd_lint(args):
    scope = _build_scope(args)
    model = _load_model(args.input)
    diags = _query(lint, model, scope)
    if args.format == "json":
        return 0, _dump(d.to_dict() for d in diags)
    if args.format == "dot":
        witnesses = (d.witness for d in diags if d.witness is not None)
        return 0, (world_to_dot(model, w, name=f"witness_{i}") for i, w in enumerate(witnesses))
    return 0, [_diag_text(diags)]


def _cmd_diff(args):
    left = _load_model(args.left)
    right = _load_model(args.right)
    for m in (left, right):
        errors = [d for d in check(m) if d.severity is Severity.ERROR]
        if errors:
            raise _Failure(1, *_diag_text(errors).splitlines())
    pairs = None
    if args.pairs:
        pairs = []
        for part in args.pairs.split(","):
            lname, eq, rname = part.partition("=")
            if not eq:
                raise _Failure(2, f"bad --pairs entry '{part}' (expected Left=Right)")
            pairs.append((lname.strip(), rname.strip()))
    try:
        rows = compare(left, right, pairs)
    except OntoError as exc:
        raise _Failure(2, str(exc))
    if args.format == "json":
        return 0, _dump(c.to_dict() for c in rows)
    return 0, (
        f"{c.left[0]}:{c.left[1]} ~ {c.right[0]}:{c.right[1]}: "
        f"{c.verdict.value} — {c.rationale}\n"
        for c in rows
    )


_DISPATCH = {
    "parse": _cmd_parse,
    "check": _cmd_check,
    "unpack": _cmd_unpack,
    "derive-cards": _cmd_derive_cards,
    "simulate": _cmd_simulate,
    "lint": _cmd_lint,
    "diff": _cmd_diff,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    def common(*formats: str) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--format", choices=formats, default="json")
        parent.add_argument("-o", "--output", help="write output to a file instead of stdout")
        return parent

    model = common("json", "text")
    world = common("json", "dot", "text")

    scoped = argparse.ArgumentParser(add_help=False)
    scoped.add_argument("--scope", help="Name=INT{,Name=INT} individual caps")
    scoped.add_argument("--scope-default", help="default per-base cap")
    scoped.add_argument("--quality-values", help="Name={v1,v2,...} value subsets")
    scoped.add_argument("--limit", help="maximum number of worlds")

    parser = argparse.ArgumentParser(prog="ontounpack")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[model], help="parse and echo a model")
    p.add_argument("input")
    p = sub.add_parser("check", parents=[model], help="run the well-formedness catalog")
    p.add_argument("input")
    p = sub.add_parser("unpack", parents=[model], help="unpack a material or comparative relation")
    p.add_argument("input")
    p.add_argument("relation")
    p.add_argument("--relator", help="name for the introduced relator")
    p.add_argument("--roles", help="two comma-separated role names")
    p.add_argument("--quality", help="name for the grounding quality (comparative form)")
    p.add_argument("--space", help="LO..HI ordered space for --quality")
    p.add_argument("--direction", choices=("asc", "desc"), default="desc")
    p = sub.add_parser("derive-cards", parents=[model], help="derive material cardinalities")
    p.add_argument("input")
    p.add_argument("relator")
    p = sub.add_parser("simulate", parents=[world, scoped], help="enumerate instance worlds")
    p.add_argument("input")
    p = sub.add_parser("lint", parents=[world, scoped], help="detect anti-patterns with witnesses")
    p.add_argument("input")
    p = sub.add_parser("diff", parents=[model], help="classify correspondences between two models")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--pairs", help="Left=Right{,Left=Right} explicit classifier pairs")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, chunks = _DISPATCH[args.command](args)
    except _Failure as failure:
        for message in failure.messages:
            print(message, file=sys.stderr)
        return failure.code
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as stream:
                stream.writelines(chunks)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
