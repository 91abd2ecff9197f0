"""GraphViz rendering for instance worlds."""
from __future__ import annotations

from .core import Model, Stereotype
from .worlds import InstanceWorld

_SHAPES = {
    Stereotype.RELATOR: "diamond",
    Stereotype.EVENT: "hexagon",
    Stereotype.MODE: "ellipse",
}


def _escape(text: str) -> str:
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def _label(parts) -> str:
    return '"' + "\\n".join(_escape(p) for p in parts) + '"'


def world_to_dot(model: Model, world: InstanceWorld, name: str = "world") -> str:
    """Deterministic DOT text for one world.

    Node shape encodes the identity base: relators are diamonds, events
    hexagons, modes ellipses, and object kinds boxes.
    """
    lines = [
        "// shapes: relator=diamond, event=hexagon, mode=ellipse, object=box",
        f"digraph {name} {{",
        "  rankdir=LR;",
        "  node [fontsize=10];",
    ]
    types = dict(world.type_rows)  # not world.types, which the world would keep
    for ind, base in world.individuals:
        decl = model.classifiers.get(base)
        shape = _SHAPES.get(decl.stereotype, "box") if decl else "box"
        parts = [ind, ", ".join(sorted(types[ind]))]
        for q, b, v in world.value_rows:
            if b == ind:
                parts.append(f"{q} = {v}")
        lines.append(f'  "{_escape(ind)}" [shape={shape}, label={_label(parts)}];')
    for rel, s, t in world.links:
        lines.append(f'  "{_escape(s)}" -> "{_escape(t)}" [label="{_escape(rel)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = ["world_to_dot"]
