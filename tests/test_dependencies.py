"""Every third-party module the suite imports is declared in pyproject.toml, and
importing the package loads numpy but no scipy module."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "aia"


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


# A fresh interpreter imports the CLI, solves the chain's scenario-2 roots and
# runs a two-row lz sweep; scipy must stay unloaded throughout.
_FRESH_RUN = """
import sys
import aia.cli
from aia import tfi

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), ("import aia.cli", scipy_modules())
st = tfi.switching_times_tfi(tfi.TfiParams(150, 0.5, 1.5, 300.0), 2)
assert 0.0 < st.tau_minus < st.tau_plus < 300.0, st
assert aia.cli.main(["lz", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert not scipy_modules(), ("chain and lz rows", scipy_modules())
"""

_LZ_CFG = """model = lz
x = 0.1
z_i = -1
z_f = 1
tf_min = 1
tf_max = 100
tf_points = 2
scenarios = 1,2,3,4,opt
"""


def test_import_and_sweeps_load_no_scipy(tmp_path):
    cfg, out = tmp_path / "lz.cfg", tmp_path / "lz.csv"
    cfg.write_text(_LZ_CFG, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, str(cfg), str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3


def _scipy_import_lines(tree):
    """Line numbers of every import of a scipy module under an AST node."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            lines.add(node.lineno)
    return lines


def test_src_imports_scipy_only_in_the_lazy_solver():
    lazy = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_function = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_function.update(dict.fromkeys(_scipy_import_lines(node), node.name))
        at_import = _scipy_import_lines(tree) - in_function.keys()
        assert not at_import, (path.name, sorted(at_import))
        lazy |= {(path.name, name) for name in in_function.values()}
    # the one function-body import; it also shows the walk sees src/
    assert lazy == {("numkit.py", "solve_ivp")}
