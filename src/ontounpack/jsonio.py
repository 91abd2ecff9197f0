"""Deterministic JSON interchange for models (.onto.json).

emit_json is byte-stable: keys sorted, declarations sorted by name, no
volatile data. Source spans are deliberately not serialized; they locate
declarations in DSL text and are not part of model structure. All JSON
output, models and the CLI's documents alike, is written by dumps_indented.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .core import (
    DEFAULT_SPAN,
    Classifier,
    Direction,
    Model,
    Multiplicity,
    QualitySpace,
    RelationDecl,
    RelationStereotype,
    SourceSpan,
    Stereotype,
)
from .parser import ParseError, _RawClassifier, _RawGenset, _RawRelation, _RawSpace, _resolve


def _mult_dict(m: Multiplicity | None):
    return None if m is None else m.to_dict()


def classifier_dict(c: Classifier) -> dict:
    return {
        "name": c.name,
        "stereotype": c.stereotype.value,
        "parents": list(c.parents),
    }


def relation_dict(r: RelationDecl) -> dict:
    return {
        "name": r.name,
        "stereotype": r.stereotype.value,
        "source": r.source,
        "target": r.target,
        "sourceMult": _mult_dict(r.source_mult),
        "targetMult": _mult_dict(r.target_mult),
        "derivedFrom": None if r.derived_from is None else r.derived_from.to_dict(),
        "viaQuality": None if r.via is None else r.via.to_dict(),
    }


def space_dict(s: QualitySpace) -> dict:
    if s.ordered is not None:
        return {"owner": s.owner, "kind": "ordered", "lo": s.ordered[0], "hi": s.ordered[1]}
    return {"owner": s.owner, "kind": "nominal", "labels": list(s.labels or ())}


def _float_text(value: float) -> str:
    """A float as json.dumps spells it, NaN and infinities included."""
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    return float.__repr__(value)


def dumps_indented(value) -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2), without its encoder.

    With an indent, json.dumps always takes the pure-Python encoder; this
    writer gives the same bytes faster. Strings go through the C string
    encoder, ints, floats, bools and None are spelt as json.dumps spells
    them, tuples are written as lists and dict keys must be strings. Each
    container is joined as soon as it is written, so no list of small pieces
    as long as the whole text is ever held.
    """
    def text(value, newline: str) -> str:
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return _float_text(value)
        inner = newline + "  "
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            items = [text(item, inner) for item in value]
            return "[" + inner + ("," + inner).join(items) + newline + "]"
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = [
                encode_basestring_ascii(key) + ": " + text(item, inner)
                for key, item in sorted(value.items())
            ]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    return text(value, "\n")


def emit_json(model: Model) -> bytes:
    doc = {
        "name": model.name,
        "classifiers": [
            classifier_dict(c)
            for c in sorted(model.classifiers.values(), key=lambda c: c.name)
        ],
        "relations": [
            relation_dict(r)
            for r in sorted(model.relations.values(), key=lambda r: r.name)
        ],
        "generalizationSets": [
            {
                "name": g.name,
                "general": g.general,
                "specifics": list(g.specifics),
                "isDisjoint": g.is_disjoint,
                "isComplete": g.is_complete,
            }
            for g in sorted(model.gensets.values(), key=lambda g: g.name)
        ],
        "qualitySpaces": [
            space_dict(s)
            for s in sorted(model.spaces.values(), key=lambda s: s.owner)
        ],
    }
    return (dumps_indented(doc) + "\n").encode("utf-8")


class _Bad(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.detail = message


def _need(obj: dict, path: str, key: str, typ, what: str):
    if key not in obj:
        raise _Bad(path, f"missing field: {key}")
    val = obj[key]
    if not isinstance(val, typ) or (typ is int and isinstance(val, bool)):
        raise _Bad(f"{path}.{key}", f"expected {what}")
    return val

def _opt(obj: dict, path: str, key: str, typ, what: str, default):
    if key not in obj or obj[key] is None:
        return default
    return _need(obj, path, key, typ, what)


def _objects(doc: dict, key: str):
    """(path, object) for each entry of an optional top-level array."""
    for i, raw in enumerate(_opt(doc, "$", key, list, "array", [])):
        path = f"{key}[{i}]"
        if not isinstance(raw, dict):
            raise _Bad(path, "expected object")
        yield path, raw


def _names(values: list, path: str) -> list[tuple[str, SourceSpan]]:
    for j, v in enumerate(values):
        if not isinstance(v, str):
            raise _Bad(f"{path}[{j}]", "expected string")
    return [(v, DEFAULT_SPAN) for v in values]


def _load_mult(obj, path: str) -> Multiplicity | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise _Bad(path, "expected multiplicity object")
    lo = _need(obj, path, "min", int, "integer")
    hi = obj.get("max")
    if hi == "*":
        hi = None
    elif not isinstance(hi, int) or isinstance(hi, bool):
        raise _Bad(f"{path}.max", 'expected integer or "*"')
    try:
        return Multiplicity(lo, hi)
    except ValueError as exc:
        raise _Bad(path, str(exc)) from exc


def _load_enum(enum_cls, raw, path: str):
    try:
        return enum_cls(raw)
    except ValueError:
        raise _Bad(path, f"unknown {enum_cls.__name__.lower()} {raw!r}") from None


def _load_classifier(raw: dict, path: str) -> _RawClassifier:
    name = _need(raw, path, "name", str, "string")
    stereo = _load_enum(Stereotype, _need(raw, path, "stereotype", str, "string"),
                        f"{path}.stereotype")
    parents = _names(_opt(raw, path, "parents", list, "array", []), f"{path}.parents")
    if "isAbstract" in raw:
        # no rule, world or output reads it, and the DSL cannot spell it
        raise _Bad(f"{path}.isAbstract", "unsupported field: classifiers have no abstract flag")
    return _RawClassifier(stereo, name, parents, DEFAULT_SPAN)


def _load_relation(raw: dict, path: str) -> _RawRelation:
    name = _need(raw, path, "name", str, "string")
    stereo = _load_enum(RelationStereotype, _need(raw, path, "stereotype", str, "string"),
                        f"{path}.stereotype")
    src = _need(raw, path, "source", str, "string")
    tgt = _need(raw, path, "target", str, "string")
    smult = _load_mult(raw.get("sourceMult"), f"{path}.sourceMult")
    tmult = _load_mult(raw.get("targetMult"), f"{path}.targetMult")
    derived = None
    dobj = _opt(raw, path, "derivedFrom", dict, "object", None)
    if dobj is not None:
        dpath = f"{path}.derivedFrom"
        relator = _need(dobj, dpath, "relator", str, "string")
        dmult = _load_mult(_need(dobj, dpath, "mult", dict, "object"), f"{dpath}.mult")
        derived = (relator, DEFAULT_SPAN, dmult)
    via = None
    vobj = _opt(raw, path, "viaQuality", dict, "object", None)
    if vobj is not None:
        vpath = f"{path}.viaQuality"
        quality = _need(vobj, vpath, "quality", str, "string")
        direction = _load_enum(Direction, _need(vobj, vpath, "direction", str, "string"),
                               f"{vpath}.direction")
        via = (quality, DEFAULT_SPAN, direction)
    return _RawRelation(stereo, name, (src, DEFAULT_SPAN), (tgt, DEFAULT_SPAN),
                        smult, tmult, derived, via, DEFAULT_SPAN)


def _load_genset(raw: dict, path: str) -> _RawGenset:
    name = _need(raw, path, "name", str, "string")
    general = _need(raw, path, "general", str, "string")
    specifics = _names(_need(raw, path, "specifics", list, "array"), f"{path}.specifics")
    disjoint = _opt(raw, path, "isDisjoint", bool, "boolean", False)
    complete = _opt(raw, path, "isComplete", bool, "boolean", False)
    return _RawGenset(name, (general, DEFAULT_SPAN), specifics, disjoint, complete, DEFAULT_SPAN)


def _load_space(raw: dict, path: str) -> _RawSpace:
    owner = _need(raw, path, "owner", str, "string")
    kind = _need(raw, path, "kind", str, "string")
    if kind == "ordered":
        lo = _need(raw, path, "lo", int, "integer")
        hi = _need(raw, path, "hi", int, "integer")
        for key, bound in (("lo", lo), ("hi", hi)):
            if bound < 0:  # the DSL spells no sign, so render_dsl could not write it
                raise _Bad(f"{path}.{key}", f"space bound must be >= 0, got {bound}")
        return _RawSpace(owner, (lo, hi), None, DEFAULT_SPAN)
    if kind == "nominal":
        labels = _names(_need(raw, path, "labels", list, "array"), f"{path}.labels")
        return _RawSpace(owner, None, tuple(lab for lab, _ in labels), DEFAULT_SPAN)
    raise _Bad(f"{path}.kind", "expected 'ordered' or 'nominal'")


def load_json(data: bytes) -> Model | ParseError:
    """Decode interchange JSON into a Model, or a single ParseError.

    Only the JSON shape is checked here: value types, field presence, enum
    values and multiplicity objects. Those errors carry the JSON path of the
    offending field. The declarations then go through the DSL parser's
    resolver, so JSON obeys the same declaration rules as DSL text; those
    errors name the declaration they concern. The span is degenerate (1:1)
    since JSON input has no meaningful DSL position.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError also covers bad UTF-8 and numbers longer than the
        # interpreter converts; RecursionError comes from deep nesting
        return ParseError(DEFAULT_SPAN, f"invalid JSON: {exc}")
    try:
        if not isinstance(doc, dict):
            raise _Bad("$", "expected top-level object")
        name = _need(doc, "$", "name", str, "string")
        classifiers = [_load_classifier(raw, path) for path, raw in _objects(doc, "classifiers")]
        relations = [_load_relation(raw, path) for path, raw in _objects(doc, "relations")]
        gensets = [_load_genset(raw, path) for path, raw in _objects(doc, "generalizationSets")]
        spaces = [_load_space(raw, path) for path, raw in _objects(doc, "qualitySpaces")]
    except _Bad as exc:
        return ParseError(DEFAULT_SPAN, str(exc))
    result = _resolve(name, classifiers, relations, gensets, spaces)
    return result[0] if isinstance(result, list) else result


__all__ = ["dumps_indented", "emit_json", "load_json", "classifier_dict", "relation_dict", "space_dict"]
