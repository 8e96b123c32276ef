"""The demos' references into the package, checked statically (no demo runs)."""

import ast
import importlib
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _stale_references(source):
    """``alias.attr`` uses, with ``from aia import X as alias``, whose attribute X lacks."""
    tree = ast.parse(source)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "aia":
            for name in node.names:
                modules[name.asname or name.name] = importlib.import_module(f"aia.{name.name}")
    return [f"{node.value.id}.{node.attr} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)]


def test_demos_reference_existing_names():
    assert len(DEMOS) >= 6
    stale = {demo.name: _stale_references(demo.read_text(encoding="utf-8")) for demo in DEMOS}
    assert {name: refs for name, refs in stale.items() if refs} == {}


def test_stale_reference_is_reported():
    src = "from aia import intertwiner as itw\nitw.kernel_projector\nitw.no_such_name\n"
    assert _stale_references(src) == ["itw.no_such_name (line 3)"]
