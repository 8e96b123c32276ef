"""The two-level evolution reaches no ODE integrator: lz_closed and tfi (which
evolves the chain through lz_closed) import neither numkit.integrate_ode nor
scipy.integrate."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "aia"
ODE_NAMES = {"integrate_ode", "solve_ivp", "odeint", "ode"}


def _imported_and_accessed(path):
    """Dotted names of every import, every imported name, and every attribute read."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", ["lz_closed", "tfi"])
def test_two_level_modules_reach_no_ode_integrator(module):
    names = _imported_and_accessed(SRC / f"{module}.py")
    assert not names & ODE_NAMES, sorted(names & ODE_NAMES)
    assert not [n for n in names if n.startswith("scipy.integrate")]
    # the reader sees the modules' own imports, so the checks above are not vacuous
    assert {"numkit", "minimize_symmetric"} <= names
