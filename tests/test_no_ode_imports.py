"""The exact evolutions of the three models reach no ODE integrator: lz_closed,
tfi (which evolves the chain through lz_closed) and lindblad_open import
neither numkit.integrate_ode nor scipy.integrate. (No module of src/ imports
scipy when it is loaded; test_dependencies checks that.)

intertwiner is not on the list: its exact propagator E and transport U stay
DOP853 solves. The benchmark's transport references carry U's
finite-difference roundoff and the tight ODE's E, whose errors partly cancel,
so a Magnus E moves the worst |E - U| deviation from them (9.3e-11 to 1.6e-10)
until those references are re-based."""

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


@pytest.mark.parametrize("module", ["lz_closed", "tfi", "lindblad_open"])
def test_two_level_modules_reach_no_ode_integrator(module):
    names = _imported_and_accessed(SRC / f"{module}.py")
    assert not names & ODE_NAMES, sorted(names & ODE_NAMES)
    assert not [n for n in names if n.startswith("scipy.integrate")]
    # the reader sees the modules' own imports, so the checks above are not vacuous
    assert {"numkit", "minimize_scalar"} <= names
