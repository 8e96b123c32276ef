"""The demos' references into the package, checked statically (no demo runs)."""

import ast
import importlib
import inspect
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _stale_references(source):
    """``alias.attr`` uses, with ``from aia import X as alias``, whose attribute X
    lacks, and ``alias.attr(...)`` calls whose positional and keyword arguments do
    not bind to the signature of ``attr`` (calls that unpack ``*`` or ``**`` are
    not counted)."""
    tree = ast.parse(source)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "aia":
            for name in node.names:
                modules[name.asname or name.name] = importlib.import_module(f"aia.{name.name}")
    stale = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            if not hasattr(modules[node.value.id], node.attr):
                stale.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
              and hasattr(modules[node.func.value.id], node.func.attr)
              and not any(isinstance(a, ast.Starred) for a in node.args)
              and all(k.arg is not None for k in node.keywords)):
            func = getattr(modules[node.func.value.id], node.func.attr)
            try:
                inspect.signature(func).bind(*node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                stale.append(f"{node.func.value.id}.{node.func.attr}(...) (line {node.lineno}): "
                             f"{exc}")
    return stale


def test_demos_reference_existing_names():
    assert len(DEMOS) >= 6
    stale = {demo.name: _stale_references(demo.read_text(encoding="utf-8")) for demo in DEMOS}
    assert {name: refs for name, refs in stale.items() if refs} == {}


def test_stale_reference_is_reported():
    src = "from aia import intertwiner as itw\nitw.kernel_projector\nitw.no_such_name\n"
    assert _stale_references(src) == ["itw.no_such_name (line 3)"]


def test_call_that_does_not_bind_is_reported():
    src = ("from aia import numkit as nk\nfrom aia import lz_closed as lz\n"
           "nk.find_root_bracketed(g, 0.0, 1.0)\nnk.find_root_bracketed(g, 0.0, 1.0, tol=0.0)\n"
           "lz.evolve_schrodinger(p, 1e-10)\nlz.evolve_schrodinger(p, 1e-10, 1e-12)\n"
           "lz.evolve_schrodinger(*args)\n")
    assert [ref.split(":")[0] for ref in _stale_references(src)] == [
        "nk.find_root_bracketed(...) (line 4)", "lz.evolve_schrodinger(...) (line 6)"]
