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
    """``optimize(p, exact)``, the objective and bound it hands ``numkit.minimize_scalar``
    (None without one), and the grid of each call of either, in order, in ``calls``."""
    calls, passed = {"f": [], "bound": []}, {}

    def recorded(fn, key):
        def call(xs):
            calls[key].append(np.array(xs))
            return fn(xs)
        return call

    def recording(f, a, b, tol, n_grid, bound=None):
        passed.update(f=f, bound=bound, args=(a, b, tol, n_grid))
        return numkit.minimize_scalar(recorded(f, "f"), a, b, tol, n_grid,
                                      bound=bound and recorded(bound, "bound"))

    with mock.patch.object(module, "minimize_scalar", recording):
        return optimize(p, exact), passed, calls


def _scan_grid(p, calls):
    """The scan: the bound's first pass where there is a bound (its calls up to the one
    that ends at t_f), else the objective's first call."""
    grids = calls["bound"] or calls["f"][:1]
    last = next(i for i, xs in enumerate(grids) if xs[-1] == p.t_f)
    return np.concatenate(grids[:last + 1])


def _check_against_oracle(module, optimize, p, exact, tol, delta_f):
    """The optimizer's minimum is at most the objective's minimum over its whole scan
    grid, and within 2 delta_f plus its rise over one tol step of the minimum of golden
    section on the same scan; returns the minimum and the scan grid."""
    (x, d), _, calls = _optimize_recording(module, optimize, p, exact)
    xs = _scan_grid(p, calls)
    assert xs.size % 2 == 1 and xs.size >= 201
    assert xs[0] == -p.t_f and xs[-1] == p.t_f
    # the scan's middle point is dtau = 0 up to linspace's rounding
    assert abs(xs[xs.size // 2]) <= EPS * p.t_f

    def f(dtaus):
        return module.aia_distance_grid(p, dtaus, exact)

    assert d <= f(xs).min()
    _, d_oracle = oracles.golden_section_minimize(f, p.t_f, xs.size, tol)
    rise = f(np.clip([x - tol, x + tol], -p.t_f, p.t_f)).max() - d
    assert d - d_oracle <= 2.0 * delta_f + rise, (d, d_oracle, delta_f, rise)
    return d, xs


def _check_the_bound(module, optimize, p, exact, n_small):
    """Over the whole scan grid the optimizer's bound (the envelope less its margin) is at
    most the distance; the scan with and without the bound gives the same bits; and a
    grid of ``n_small`` <= 201 points never calls the bound."""
    result, passed, calls = _optimize_recording(module, optimize, p, exact)
    f, bound, args = passed["f"], passed["bound"], passed["args"]
    xs = _scan_grid(p, calls)
    excess = bound(xs) - module.aia_distance_grid(p, xs, exact)
    assert excess.max() <= 0.0, excess.max()
    assert numkit.minimize_scalar(f, *args) == result

    def never(xs):
        raise AssertionError("a scan of at most 201 points called the bound")

    a, b, tol, _ = args
    assert numkit.minimize_scalar(f, a, b, tol, n_small, bound=never) == \
        numkit.minimize_scalar(f, a, b, tol, n_small)


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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_decades(-2, 1), _decades(-2, 2), _decades(-2, 2), _decades(-2, 2), hst.integers(1, 201))
def test_lz_envelope_bounds_the_distance_and_keeps_the_minimum(x, minus_z_i, z_f, tf, n_small):
    p = lz.LzParams(x, -minus_z_i, z_f, tf)
    _check_the_bound(lz, lz.optimize_dtau, p, lz.evolve_schrodinger(p), n_small)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(hst.integers(1, 79), hst.floats(0.0, 0.99), _decades(-3, 1), _decades(-2, 3),
       hst.integers(1, 201))
def test_chain_envelope_bounds_the_distance_and_keeps_the_minimum(half_l, h_i, over, tf,
                                                                  n_small):
    p = tfi.TfiParams(2 * half_l, h_i, 1.0 + over, tf)
    _check_the_bound(tfi, tfi.optimize_dtau_tfi, p, tfi.evolve_register(p), n_small)


def test_a_scan_beyond_one_block_calls_the_objective_and_bound_a_block_at_a_time():
    # b_max = sqrt(2) takes the step to 0.354, so t_f = 2e4 scans 113 138 points
    p = lz.LzParams(1.0, -1.0, 1.0, 2e4)
    psi = lz.evolve_schrodinger(p)
    (x, d), _, calls = _optimize_recording(lz, lz.optimize_dtau, p, psi)
    scan = _scan_grid(p, calls)
    assert scan.size > numkit._CHUNK
    assert np.array_equal(scan, np.linspace(-p.t_f, p.t_f, scan.size))
    assert max(xs.size for xs in calls["f"] + calls["bound"]) <= numkit._CHUNK
    assert d <= lz.aia_distance_grid(p, scan, psi).min()


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
