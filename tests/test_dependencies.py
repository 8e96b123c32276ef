"""Every third-party module the suite imports is declared in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(path):
    """Top-level module names of every import in a file, pytest.importorskip included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "importorskip" and node.args
              and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value.split(".")[0])
    return names


def test_every_third_party_test_import_is_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0].lower() for r in requirements}
    paths = sorted((ROOT / "tests").glob("*.py"))
    local = {path.stem for path in paths} | {"aia"}
    seen = set()
    for path in paths:
        third_party = _imported_modules(path) - set(sys.stdlib_module_names) - local
        assert third_party <= declared, (path.name, sorted(third_party - declared))
        seen |= third_party
    # the reader sees the suite's own imports, so the check above is not vacuous
    assert {"numpy", "scipy", "pytest", "hypothesis", "mpmath"} <= seen
