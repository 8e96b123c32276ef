"""The impulse-interval optimizers of the three models against the scan plus
golden-section search of ``tests/oracles.py``.

Both searches scan the same grid with the same objective and refine around the
best scan point. Where the scan step resolves the objective's oscillation they
bracket the same minimum, and their minima differ only by

- the objective's rounding delta_f, once on each side. Each dynamical phase
  (t_f / dz) (H(z_b) - H(z_a)), H = ``numkit.hypot_antiderivative``, rounds
  by about eps (t_f / dz) max|H(z)| =: phi, and the distance moves with it.
  A two-level state carries two phases, each a difference of two H's, so
  delta_f = 8 eps + 4 phi per crossing (the damped qubit's phase is the
  integral of the gap 2b, so there 8 phi). The chain's register distance
  moves by at most the sum over its modes, plus one eps per mode for the
  product;
- where each stops. Both end within ``tol`` of the minimum, so on a locally
  convex objective the zoom's excess over the true minimum is below its rise
  over one ``tol`` step, max f(x +- tol) - f(x).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from aia import lindblad_open as lo
from aia import lz_closed as lz
from aia import numkit, tfi
import oracles

EPS = np.finfo(float).eps


def _decades(lo_exp, hi_exp):
    return hst.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


def _phase_rounding(p):
    """eps (t_f / dz) max(|H(z_i)|, |H(z_f)|), per crossing."""
    h = np.maximum(np.abs(numkit.hypot_antiderivative(p.z_i, p.x)),
                   np.abs(numkit.hypot_antiderivative(p.z_f, p.x)))
    return EPS * p.t_f / p.dz * h


def _optimize_recording(module, optimize, p, exact):
    """``optimize(p, exact)`` and the (grid, values) of each call it makes of
    ``module.aia_distance_grid``, in order."""
    calls, objective = [], module.aia_distance_grid

    def recording(p, dtaus, exact):
        values = objective(p, dtaus, exact)
        calls.append((np.array(dtaus), np.array(values)))
        return values

    with mock.patch.object(module, "aia_distance_grid", recording):
        return optimize(p, exact), calls


def _check_against_oracle(module, optimize, p, exact, tol, delta_f):
    """The optimizer's minimum is at most its scan minimum, and within 2 delta_f plus
    its rise over one tol step of the minimum of golden section on the same scan;
    returns the minimum and the scan grid."""
    (x, d), calls = _optimize_recording(module, optimize, p, exact)
    xs, fs = calls[0]
    assert xs.size % 2 == 1 and xs.size >= 201
    assert xs[0] == -p.t_f and xs[-1] == p.t_f
    # the scan's middle point is dtau = 0 up to linspace's rounding
    assert abs(xs[xs.size // 2]) <= EPS * p.t_f
    assert d <= fs.min()
    assert all(g.size == 33 for g, _ in calls[1:])

    def f(dtaus):
        return module.aia_distance_grid(p, dtaus, exact)

    _, d_oracle = oracles.golden_section_minimize(f, p.t_f, xs.size, tol)
    rise = f(np.clip([x - tol, x + tol], -p.t_f, p.t_f)).max() - d
    assert d - d_oracle <= 2.0 * delta_f + rise, (d, d_oracle, delta_f, rise)
    return d, xs


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_decades(-2, 1), _decades(-2, 2), _decades(-2, 2), _decades(-2, 2))
def test_lz_optimizer_against_golden_section(x, minus_z_i, z_f, tf):
    p = lz.LzParams(x, -minus_z_i, z_f, tf)
    psi = lz.evolve_schrodinger(p)
    d, scan = _check_against_oracle(lz, lz.optimize_dtau, p, psi, 1e-8,
                                    8 * EPS + 4 * _phase_rounding(p))
    assert d <= lz.state_distance(psi, lz.adiabatic_state(p))
    # the distance oscillates in dtau at up to the largest gap b; the scan takes
    # about twelve steps a period, so no best bracket holds two minima
    assert (scan[1] - scan[0]) * np.hypot(p.x, max(-p.z_i, p.z_f)) <= 0.5 * (1 + 1e-12)


def test_lz_optimizer_meets_a_dense_scan_where_the_detuning_sets_the_gap():
    # b_max = 97.5 is 140 x: a scan step of 0.5 / x left several minima in the
    # best bracket, and the optimizer returned 0.353 against a minimum of 0.0054
    p = lz.LzParams(0.70, -0.34, 97.5, 83.8)
    psi = lz.evolve_schrodinger(p)
    _, d = lz.optimize_dtau(p, psi)
    _, d_dense = oracles.golden_section_minimize(
        lambda dtaus: lz.aia_distance_grid(p, dtaus, psi), p.t_f, 200_001, 1e-8)
    assert abs(d - d_dense) <= 1e-9, (d, d_dense)


def test_chain_optimizer_against_golden_section():
    # the chain-sweep point: L = 150 between h = 0.5 and 1.5 at t_f = 300
    p = tfi.TfiParams(150, 0.5, 1.5, 300.0)
    reg = tfi.evolve_register(p)
    delta_f = np.sum(8 * EPS + 4 * _phase_rounding(p)) + p.L / 2 * EPS
    d, _ = _check_against_oracle(tfi, tfi.optimize_dtau_tfi, p, reg, 1e-6, delta_f)
    assert d <= tfi.register_distance(reg, tfi.adiabatic_register(p))


def test_open_optimizer_against_golden_section():
    # the open-sweep parameters at its largest t_f
    p = lo.OpenParams(0.1, -1.0, 1.0, 303.91953823131973, T=0.05, g=0.01)
    c = lo.evolve_master(p)
    d, _ = _check_against_oracle(lo, lo.optimize_dtau_open, p, c, 1e-6,
                                 8 * EPS + 8 * _phase_rounding(p))
    assert d <= lo.trace_distance(c, lo.adiabatic_state_open(p))
