"""Every module-level import in the package is used or re-exported, every
module-level private name is read somewhere in the package, no module imports
another's private name off a short list, every name the
benchmark's tracer wraps exists, and a `lint` run calls each name the tracer
expects of the `lint_clinic` workload."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ontounpack"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def unused_imports(source: str) -> list[str]:
    """Names a module imports at top level but neither reads nor lists in `__all__`."""
    tree = ast.parse(source)
    imported: list[str] = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = "from x import a, b\nimport c.d\n__all__ = ['b']\n"
    assert unused_imports(source) == ["a", "c"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for each module-level `_name` no module of `sources` reads."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_every_private_module_name_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_finds_an_unread_private_name():
    sources = {
        "a": "def _used(): pass\ndef _left(): pass\n_LIMIT: int = 3\nclass _Kept: pass\n",
        "b": "from .a import _Kept\nprint(_used())\n",
    }
    assert unread_private_names(sources) == ["a._left", "a._LIMIT"]


# the only module-private names one module may import from another: the
# JSON loader builds the parser's raw declarations and resolves them as the
# parser does, and lint opens a world walk to refuse a scope
PRIVATE_IMPORTS = {
    *(("jsonio", "parser", name) for name in (
        "_RawClassifier", "_RawGenset", "_RawRelation", "_RawSpace", "_resolve",
    )),
    ("lint", "worlds", "_worlds"),
}


def private_imports(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(importer, module, name) for each `from .module import _name` in `sources`."""
    found = []
    for importer, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [
                    (importer, node.module or "", a.name) for a in node.names
                    if a.name.startswith("_") and not a.name.startswith("__")
                ]
    return found


def test_no_module_imports_a_private_name_off_the_list():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    found = private_imports(sources)
    assert sorted(set(found) - PRIVATE_IMPORTS) == []
    assert set(found) == PRIVATE_IMPORTS  # a name no longer imported leaves the list


def test_finds_a_private_import():
    sources = {
        "a": "from .b import _x, y\nfrom . import c\nfrom os import _exit\n",
        "b": "def f():\n    from .c import _z as z\n    from __future__ import annotations\n",
    }
    assert private_imports(sources) == [("a", "b", "_x"), ("b", "c", "_z")]


def test_every_traced_boundary_names_a_callable(monkeypatch):
    # the benchmark's tracer wraps each (module, attribute) by name at run time
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [
        (site, attr) for site, attr in spans.BOUNDARIES
        if not callable(getattr(importlib.import_module(f"ontounpack.{site}"), attr, None))
    ]
    assert spans.BOUNDARIES and missing == []


def test_a_lint_run_crosses_every_boundary_its_workload_traces(monkeypatch):
    # the benchmark's self-test fails on a traced name its workload no longer calls
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    calls = dict.fromkeys(spans.EXPECTED["lint_clinic"], 0)
    for site, attr in calls:
        module = importlib.import_module(f"ontounpack.{site}")

        def counting(*args, _key=(site, attr), _fn=getattr(module, attr), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
    scope = "Person=2,Organization=0,Treatment=1,Consultation=1,PathologicalCondition=1"
    cli = importlib.import_module("ontounpack.cli")
    argv = ["lint", str(PERFBENCH / "models" / "clinic_lint.onto"), "--scope", scope,
            "--quality-values", "Severity={3,50,97}"]
    assert cli.main(argv) == 0
    assert calls and all(calls.values()), calls
