"""Two-level sweep: eigensystem gauge, phases, approximations, switching times."""

import itertools
import os
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad, solve_ivp

from aia import lindblad_open as lo
from aia import lz_closed as lz
from aia import numkit, sweeps, tfi
from oracles import (REGIME_REVERSED, aia_state_oracle, hamiltonian, one_step_exponent,
                     parabolic_cylinder_state, switching_from_dtau)

P_STD = lz.LzParams(x=0.1, z_i=-1.0, z_f=1.0, t_f=10.0)


def test_params_validation():
    with pytest.raises(ValueError):
        lz.LzParams(-0.1, -1.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        lz.LzParams(0.1, 1.0, 2.0, 10.0)
    with pytest.raises(ValueError):
        lz.LzParams(0.1, -1.0, 1.0, 0.0)
    for bad in ((np.nan, -1.0, 1.0, 10.0), (0.1, np.nan, 1.0, 10.0),
                (0.1, -1.0, np.inf, 10.0), (0.1, -1.0, 1.0, np.nan),
                (0.1, -1.0, 1.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            lz.LzParams(*bad)
    # outside [1e-30, 1e30] the closed forms overflow or divide by x^2 = 0: at
    # x = 1e-300 scenarios 2 and 4 raised ZeroDivisionError, and at |z_i| =
    # t_f = 1e300 scenarios 2-4 returned the window (inf, inf)
    for bad in ((1e-300, -1.0, 1.0, 10.0), (1.0, -1e300, 1e-16, 1e300),
                (0.1, -1.0, 1e-31, 10.0), (0.1, -1.0, 1.0, 2e30)):
        with pytest.raises(ValueError, match=r"\[1e-30, 1e30\]"):
            lz.LzParams(*bad)
    lz.LzParams(1e-30, -1e30, 1e-30, 1e30)


# ------------------------------------------------------------------ eigensystem

def test_eigensystem_symmetric_point():
    e1, e2, psi1, _ = lz.lz_eigensystem(0.1, 0.0)
    assert abs(e1 + 0.1) < 1e-15 and abs(e2 - 0.1) < 1e-15
    assert np.abs(psi1 - np.array([-1, 1]) / np.sqrt(2)).max() < 1e-15


def test_eigensystem_detuned_values():
    e1, _, psi1, _ = lz.lz_eigensystem(0.1, -1.0)
    assert abs(e1 + 1.00499) < 1e-5
    assert np.abs(psi1 - np.array([-0.99876, 0.04981])).max() < 1e-5


def test_eigensystem_residual_and_orthonormality():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, z = rng.uniform(0.01, 2), rng.uniform(-3, 3)
        e1, e2, psi1, psi2 = lz.lz_eigensystem(x, z)
        h = hamiltonian(x, z)
        assert np.abs(h @ psi1 - e1 * psi1).max() < 1e-13
        assert np.abs(h @ psi2 - e2 * psi2).max() < 1e-13
        assert abs(np.dot(psi1, psi2)) < 1e-14
        assert abs(np.linalg.norm(psi1) - 1) < 1e-14


def test_eigensystem_degenerate_point_rejected():
    with pytest.raises(ValueError):
        lz.lz_eigensystem(0.0, 0.0)


def test_eigensystem_continuous_in_z():
    # the fixed gauge must not flip sign across z = 0
    psi_prev = lz.lz_eigensystem(0.1, -0.5)[2]
    for z in np.linspace(-0.5, 0.5, 101)[1:]:
        psi = lz.lz_eigensystem(0.1, z)[2]
        assert np.dot(psi, psi_prev) > 0.9
        psi_prev = psi


def test_eigensystem_against_mpmath_oracle():
    # x << |z|, where sqrt((b - |z|)/2b) cancels (1.8e-9 and 4.4e-5 off on the
    # first two points), and the L = 150 chain's lowest mode at h_f = 1.5
    mpmath = pytest.importorskip("mpmath")
    k = np.pi / 150
    for x, z in ((1e-4, 1.0), (1e-6, -1.0), (2.0 * np.sin(k), 2.0 * (1.5 - np.cos(k)))):
        _, _, psi1, psi2 = lz.lz_eigensystem(x, z)
        with mpmath.workdps(40):
            xm, zm = mpmath.mpf(x), mpmath.mpf(z)
            b = mpmath.sqrt(xm * xm + zm * zm)
            lo, hi = mpmath.sqrt((b - zm) / (2 * b)), mpmath.sqrt((b + zm) / (2 * b))
            for got, want in zip((*psi1, *psi2), (-lo, hi, hi, lo)):
                assert abs(float(got) - want) <= 1e-15 * abs(want), (x, z)


# --------------------------------------------------------------------- evolution

def test_evolve_sudden_limit():
    p = lz.LzParams(0.1, -1.0, 1.0, 1e-8)
    psi = lz.evolve_schrodinger(p)
    _, _, psi1_0, _ = lz.lz_eigensystem(0.1, -1.0)
    assert lz.state_distance(psi, psi1_0.astype(complex)) < 1e-6


def test_evolve_half_tolerance_consistency():
    p = lz.LzParams(0.1, -1.0, 1.0, 10.0)
    a = lz.evolve_schrodinger(p, 1e-10 + 1e-12)
    b = lz.evolve_schrodinger(p, 5e-11 + 5e-13)
    assert np.abs(a - b).max() < 1e-8


def test_evolve_norm_preserved():
    psi = lz.evolve_schrodinger(P_STD)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_evolve_against_parabolic_cylinder_oracle():
    # the exact solution; the tolerance bounds the step-doubling difference,
    # and the returned 2n-step state of the sixth-order steps is about a
    # sixty-third of it off
    for tf in (0.18, 10.0, 1e3):
        want = parabolic_cylinder_state(0.1, -1.0, 1.0, tf)
        p = lz.LzParams(0.1, -1.0, 1.0, tf)
        for rel_tol in (1e-8, 1e-10, 1e-12):
            tol = rel_tol + 1e-2 * rel_tol
            err = np.abs(lz.evolve_schrodinger(p, tol) - want).max()
            assert err <= tol, (tf, tol, err)


def test_evolve_below_roundoff_floor_raises_before_stepping(monkeypatch):
    # rounding alone leaves ~1e-16 between two runs: a 2e-17 tolerance is
    # unreachable at any step count, so the step doubling raises before its
    # first pair, for lz and for the L = 150 chain at t_f = 300 (whose second
    # pair ran 1.58e6 steps x 75 modes when the floor was found only after it)
    passes = []
    real = lz._magnus_state

    def counted(p, n, psi):
        passes.append(n)
        return real(p, n, psi)

    monkeypatch.setattr(lz, "_magnus_state", counted)
    for evolve in (lambda: lz.evolve_schrodinger(lz.LzParams(0.1, -1.0, 1.0, 10.0), 2e-17),
                   lambda: lz.evolve_schrodinger(lz.LzParams(0.1, -1.0, 1.0, 1e3), 2e-17),
                   lambda: tfi.evolve_register(tfi.TfiParams(150, 0.5, 1.5, 300.0), 2e-17)):
        with pytest.raises(numkit.IntegrationError, match="roundoff floor"):
            evolve()
        assert passes == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1e-10])
@pytest.mark.parametrize("evolve", [lz.evolve_schrodinger, tfi.evolve_register])
def test_evolve_rejects_a_bad_tol_before_stepping(monkeypatch, evolve, bad):
    # unchecked, a NaN runs a pair and then names the budget as the cause, and an
    # infinite tolerance returns the first pair as converged
    passes = []
    _counting_magnus(monkeypatch, passes)
    p = P_STD if evolve is lz.evolve_schrodinger else tfi.TfiParams(4, 0.5, 1.5, 10.0)
    with pytest.raises(ValueError, match=f"^tol must be finite and positive, got {bad}$"):
        evolve(p, bad)
    assert passes == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
def test_evolve_rejects_a_non_finite_tolerance_before_stepping(monkeypatch, name, bad):
    # a sweep passes its exact states rel_tol + abs_tol: a config built without
    # the parser's checks, with one of the two not finite, fails its rows with
    # the evolution's ValueError before any step
    passes = []
    _counting_magnus(monkeypatch, passes)
    cfg = sweeps.SweepConfig("lz", {"x": 0.1, "z_i": -1.0, "z_f": 1.0}, 1.0, 10.0, 2)
    setattr(cfg, name, bad)
    row = sweeps._compute_task((cfg, 10.0, None))
    assert row["err"] == f"ValueError: tol must be finite and positive, got {bad}"
    assert passes == []


def test_magnus_steps_are_eighth_order_against_parabolic_cylinder_oracle():
    # fixed step counts, no step doubling: each halving of the step divides the
    # error against the exact solution by about 2^8 (by 2^6 at sixth order); the
    # n's keep the errors above rounding (at t_f = 10, n = 200 is 3.7e-16 off)
    for (x, z_i, z_f, tf), ns in (((0.1, -1.0, 1.0, 10.0), (25, 50, 100)),
                                  ((0.5, -2.0, 1.5, 30.0), (100, 200, 400)),
                                  ((1.0, -0.5, 3.0, 5.0), (25, 50, 100))):
        p = lz.LzParams(x, z_i, z_f, tf)
        want = parabolic_cylinder_state(x, z_i, z_f, tf, dps=40)
        psi0 = lz.lz_eigensystem(x, z_i)[2]
        errs = [np.abs(lz._magnus_state(p, n, psi0) - want).max() for n in ns]
        assert min(errs) > 1e-14, errs
        for coarse, fine in zip(errs, errs[1:]):
            assert 240.0 < coarse / fine < 275.0, (p, errs)


def _one_step_exponent(x, z_m, zdot, h):
    """The exponent A of :func:`aia.lz_closed._magnus_state`'s one step of length h,
    read back from its SU(2) matrix [[a, b], [-b*, a*]]: cos|A| = Re a,
    sinc (A_x, A_y, A_z) = -(Im b, Re b, Im a)."""
    p = lz.LzParams(x, z_m - zdot * h / 2, z_m + zdot * h / 2, h)
    u = lz._magnus_state(p, 1, np.eye(2, dtype=complex))  # rows: the images of e_0, e_1
    a, b = u[0, 0], u[1, 0]
    angle = np.arctan2(np.hypot(a.imag, abs(b)), a.real)
    return -np.array([b.imag, b.real, a.imag]) * angle / np.sin(angle)


def _first_dropped_term(x, z, zdot, h):
    """The h^9 term of the exact step exponent, the first that the steps drop."""
    b2 = x * x + z * z
    return h ** 9 * x * zdot * np.array([
        -zdot * (20 * x ** 4 + 32 * x * x * z * z + 12 * z ** 4 - 5 * zdot ** 2) / 75600,
        (4 * b2 ** 3 - 10 * x * x * zdot ** 2 - 5 * z * z * zdot ** 2) / 37800,
        -x * z * zdot * b2 / 9450])


def test_magnus_step_against_mpmath_one_step_exponent():
    # the exact exponent, from the 40-digit propagator's log (tests/oracles.py):
    # the step's error falls like h^9, and is the stated h^9 term up to O(h^11).
    # A one-step sweep must hold z = 0, so |z_m| < zdot h / 2 at the smallest h; x
    # is drawn down to below z_m, where the z_m^2 terms of A_x and A_y count
    rng = np.random.default_rng(24)
    for _ in range(6):
        x, zdot = 10.0 ** rng.uniform(-1.3, 0.3), rng.uniform(2.0, 8.0)
        z_m = rng.uniform(-0.45, 0.45) * zdot * 0.1
        errs = []
        for h in (0.4, 0.2, 0.1):
            want = np.array([float(a) for a in one_step_exponent(x, z_m, zdot, h)])
            err = _one_step_exponent(x, z_m, zdot, h) - want
            dropped = _first_dropped_term(x, z_m, zdot, h)
            assert np.linalg.norm(err + dropped) <= 0.1 * np.linalg.norm(dropped), (x, z_m, h)
            errs.append(np.linalg.norm(err))
        for coarse, fine in zip(errs, errs[1:]):
            assert 490.0 < coarse / fine < 545.0, (x, z_m, zdot, errs)


def test_magnus_remainder_within_the_first_pair_bound():
    # _first_pair_n's n_sum bounds the whole remainder of a step, not just its h^9
    # term: at h b_max <= 1, |A - A_exact| <= h^9 R / (1 - h^2 (b_max^2 + zdot) / pi^2),
    # R = x zdot (b_max^2 + zdot)^3 / 9450, on random steps (h = 1) up to that edge
    rng = np.random.default_rng(8)
    for k in range(24):
        b_max = 1.0 if k % 2 else rng.uniform(0.3, 1.0)
        x = b_max * rng.uniform(0.05, 1.0)
        z_top = np.sqrt(b_max * b_max - x * x)
        z_i, z_f = -z_top * rng.uniform(0.05, 1.0), z_top * rng.uniform(0.05, 1.0)
        if k % 3 == 0:  # one end at b_max
            z_i = -z_top
        zdot, z_m = z_f - z_i, (z_f + z_i) / 2
        want = np.array([float(a) for a in one_step_exponent(x, z_m, zdot, 1.0)])
        err = np.linalg.norm(_one_step_exponent(x, z_m, zdot, 1.0) - want)
        spread = np.hypot(x, max(-z_i, z_f)) ** 2 + zdot
        bound = x * zdot * spread ** 3 / 9450 / (1.0 - spread / np.pi ** 2)
        assert err <= bound, (x, z_i, z_f, err / bound)


def _exact_cos_sinc(u):
    """cos r and sin r / r of r = sqrt(u), each element in 40 digits (mpmath)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        roots = [mpmath.sqrt(mpmath.mpf(float(v))) for v in u]
        return ([mpmath.cos(r) for r in roots],
                [mpmath.sin(r) / r if r else mpmath.mpf(1) for r in roots])


def _abs_errors(got, want):
    return np.array([float(abs(w - float(g))) for g, w in zip(got, want)])


def test_cos_sinc_within_two_ulp_against_mpmath():
    # the steps' cos|A| and sin|A| / |A| from u = |A|^2 <= 1 (a step angle of at
    # most 1, the first pair's floor), densely, near the top and down to 1e-20
    rng = np.random.default_rng(27)
    u = np.concatenate([np.linspace(0.0, 1.0, 4001), rng.uniform(0.9, 1.0, 2000),
                        10.0 ** rng.uniform(-20.0, 0.0, 1000)])
    for got, want in zip(lz._cos_sinc(u), _exact_cos_sinc(u)):
        ulp = np.spacing(np.array([float(w) for w in want]))
        err = _abs_errors(got, want)
        assert np.all(err <= 2.0 * ulp), (u[np.argmax(err / ulp)], np.max(err / ulp))


@pytest.mark.parametrize("top", [1.5, 10.0, 300.0, 1e4])
def test_cos_sinc_through_its_halvings_against_mpmath(top):
    # above u = 1 the angles are halved until max u <= 1 and doubled back (a second
    # pair can take fewer steps than the floor): cos r and sin r = r sinc within
    # 16 eps (1 + r), small and large u in one array, which share the halvings
    u = np.concatenate([np.linspace(0.0, top, 1001),
                        10.0 ** np.random.default_rng(3).uniform(-3.0, np.log10(top), 500)])
    cos, sinc = lz._cos_sinc(u)
    want_cos, want_sinc = _exact_cos_sinc(u)
    r = np.sqrt(u)
    bound = 16.0 * np.finfo(float).eps * (1.0 + r)
    assert np.all(_abs_errors(cos, want_cos) <= bound)
    assert np.all(r * _abs_errors(sinc, want_sinc) <= bound)


def test_chain_steps_are_unitary_to_rounding():
    # cos is sqrt(1 - u sinc^2), so every step [[a, b], [-b*, a*]] of the L = 150
    # chain's first pair at t_f = 300 has |a|^2 + |b|^2 = 1 within 4 eps
    p = tfi.TfiParams(150, 0.5, 1.5, 300.0)
    chunks = 0
    for a, b in lz._magnus_steps(p, 2512):
        norm = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
        assert np.abs(norm - 1.0).max() <= 4.0 * np.finfo(float).eps
        chunks += 1
    assert chunks > 1


def _decades(lo, hi):
    return hst.floats(lo, hi).map(lambda e: 10.0 ** e)


def _counting_magnus(mp, passes):
    """Record the step count of every Magnus product that :mod:`aia.lz_closed` runs."""
    real = lz._magnus_state

    def counted(p, n, psi):
        passes.append((n, np.size(p.z_i)))
        return real(p, n, psi)

    mp.setattr(lz, "_magnus_state", counted)


def test_evolve_beyond_the_step_budget_raises_before_stepping(monkeypatch):
    # t_f max b = 1e30 steps never returned; now the first pair is refused
    # before its first step. The chain's pair counts each of its 75 modes: at
    # t_f = 2e5 one crossing's pair would fit the budget, the register's does not
    passes = []
    _counting_magnus(monkeypatch, passes)
    for evolve in (lambda: lz.evolve_schrodinger(lz.LzParams(0.1, -1.0, 1.0, 1e30)),
                   lambda: lz.evolve_schrodinger(lz.LzParams(1e-30, -1e30, 1e-30, 1e30)),
                   lambda: tfi.evolve_register(tfi.TfiParams(150, 0.5, 1.5, 2e5))):
        with pytest.raises(numkit.IntegrationError, match="exceeds the budget"):
            evolve()
        assert passes == []
    assert 3 * 2e5 * 5.0 < numkit.STEP_BUDGET < 3 * 2e5 * 5.0 * 75


def test_evolve_below_the_phase_rounding_floor_raises_before_stepping(monkeypatch):
    # the n- and 2n-step states share the rounding of h = t_f / n, which turns
    # each phase by up to eps int b dt; the L = 150 chain at t_f = 8000 (int b dt
    # = 3.2e4) stops at pair differences of 1.3-1.9e-12, and a 1e-13 tolerance is
    # refused before its first step, where it ran two pairs of up to 3.2e5 steps
    passes = []
    _counting_magnus(monkeypatch, passes)
    with pytest.raises(numkit.IntegrationError, match="below the roundoff floor"):
        tfi.evolve_register(tfi.TfiParams(150, 0.5, 1.5, 8000.0), 1e-13 + 1e-15)
    assert passes == []


@pytest.mark.parametrize("tf, share", [(1e3, 4.0), (300.0, 3.0)])
def test_evolve_just_above_a_quarter_of_the_phase_rounding_raises_before_stepping(
        monkeypatch, tf, share):
    # a tolerance of eps int b dt / share, above eps int b dt / 8: the pair's
    # shared rounding |delta| int b dt alone reaches eps int b dt / 2, so it is
    # refused before any step, where it ran two pairs (up to 39240 + 78480 steps)
    # and then named the floor
    passes = []
    _counting_magnus(monkeypatch, passes)
    p = lz.LzParams(0.1, -1.0, 1.0, tf)
    tol = np.finfo(float).eps * -lz.dynamical_phase_gs(p, 0.0, tf) / share
    with pytest.raises(numkit.IntegrationError, match="below the roundoff floor"):
        lz.evolve_schrodinger(p, tol)
    assert passes == []


def _pair_counts(p, rel_tol, abs_tol):
    """The step counts of the Magnus runs of one evolution of p, at the tolerance
    rel_tol + abs_tol that a sweep passes."""
    passes = []
    with pytest.MonkeyPatch.context() as mp:
        _counting_magnus(mp, passes)
        lz.evolve_schrodinger(p, rel_tol + abs_tol)
    return [n for n, _ in passes]


def test_evolve_takes_one_pair_on_every_shipped_row():
    # the first pair comes from the Magnus remainder, so every row of the four lz
    # and the two chain configs meets its tolerance with it
    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(f for f in os.listdir(root) if f.startswith(("lz_", "tfi_")))
    assert len(names) == 6
    for name in names:
        cfg = sweeps.load_config(os.path.join(root, name))
        params = sweeps.pipeline(cfg).params
        for tf in cfg.tf_grid():
            passes = _pair_counts(params(float(tf), None), cfg.rel_tol, cfg.abs_tol)
            assert len(passes) == 2 and passes[1] == 2 * passes[0], (name, tf, passes)


def _ends_adiabatic(p):
    """Whether the eigenbasis turns by at most half a radian per unit of phase at
    either end of every crossing: x zdot / b^3 <= 1/2 there."""
    b_end = np.minimum(np.hypot(p.x, p.z_i), np.hypot(p.x, p.z_f))
    return np.max(p.x * p.zdot / b_end ** 3) <= 0.5


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(hst.floats(0.03, 3.0), hst.floats(0.1, 5.0), hst.floats(0.1, 5.0), _decades(0, 3),
       hst.sampled_from([1e-8, 1e-10, 1e-12]))
def test_evolve_first_pair_meets_the_tolerance_at_random_parameters(x, minus_z_i, z_f, tf,
                                                                    rel_tol):
    p = lz.LzParams(x, -minus_z_i, z_f, tf)
    assume(_ends_adiabatic(p))
    assert len(_pair_counts(p, rel_tol, 1e-2 * rel_tol)) == 2, p


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(hst.integers(1, 75), hst.floats(0.0, 0.99), hst.floats(1.01, 3.0), _decades(0, 3),
       hst.sampled_from([1e-8, 1e-10, 1e-12]))
def test_register_first_pair_meets_the_tolerance_at_random_parameters(half_l, h_i, h_f, tf,
                                                                      rel_tol):
    p = tfi.TfiParams(2 * half_l, h_i, h_f, tf)
    assume(_ends_adiabatic(p))
    assert len(_pair_counts(p, rel_tol, 1e-2 * rel_tol)) == 2, p


# the sudden sweeps (x zdot / b^3 > 1/2 at an end) of 6000 random sets (x 1e-3-10,
# |z_i| and z_f 0.1-100, t_f 1e-3-3, all log-uniform; rel_tol 1e-8, 1e-10 or 1e-12,
# abs_tol = rel_tol / 100; numpy seeds 21 and 22) whose first pair missed at sixth
# order with a leading-order n_sum: (x, z_i, z_f, t_f, rel_tol)
_SUDDEN_SECOND_PAIRS = [
    (1.3984047746520079, -5.867415339894398, 3.310050637484131, 0.15477023889166058, 1e-12),
    (0.7004073162939026, -0.9390032269344711, 0.3217757650569623, 0.2788010262461599, 1e-12),
    (2.9183121590419265, -6.996005846958168, 0.49950184685381777, 0.06300644081219821, 1e-12),
    (7.920876054997501, -13.15788722586994, 1.106003506317481, 0.03126321496777099, 1e-12),
    (2.2189454257948658, -3.743584566115945, 3.278637081317406, 0.04961895133880879, 1e-12),
    (3.1211880059547967, -3.3466710545898244, 10.297026101110058, 0.08533548074237217, 1e-12),
    (7.409629913596136, -4.867765472470641, 0.4906722314078788, 0.0058052154685653045, 1e-12),
    (3.828139914693803, -6.502314379923786, 7.1070733922279565, 0.09818675396141371, 1e-12),
    (0.7578087496430417, -1.0233462495554293, 1.1197463371376448, 0.5160343024634774, 1e-12),
    (3.6028040785719364, -6.702516218053413, 13.1010562083976, 0.06587480116332949, 1e-12),
    (0.6004869749110774, -1.8503175064750637, 0.5765739156585712, 0.24768417105561916, 1e-12),
    (3.577051108830763, -8.818772192720347, 0.13364972260207955, 0.06097538196213469, 1e-12),
    (7.518338976389069, -4.315004446438176, 4.04091462733573, 0.019229252824641094, 1e-12),
    (0.597196733160159, -0.4731603662398322, 0.10240737718118273, 0.15295960496926628, 1e-12),
    (3.0304256875512925, -7.531438782396807, 4.72623707656276, 0.14155350643872255, 1e-10),
    (2.4316553444806113, -0.41225333455513224, 3.6501604277489568, 0.048850994752852005, 1e-12),
    (2.2380767462208104, -3.9647856802060586, 0.2068036627167725, 0.09201881092172182, 1e-12),
    (0.2919223857772707, -0.9288218498144021, 0.39474133996097827, 0.7528927049147721, 1e-12),
    (2.104878625761785, -3.613785793040285, 7.504970838032485, 0.08955097377138124, 1e-12),
    (0.43773975416081556, -0.6445278859287564, 0.6959255390597492, 0.6464927432638465, 1e-12),
    (0.13474841515729516, -0.19793801511583314, 0.32664697490157873, 1.0985250133217082, 1e-12),
    (6.361082900686516, -0.37928257922579944, 5.958444933439143, 0.007836493150176838, 1e-12),
    (9.722233538601976, -13.4254209552669, 18.527633150509544, 0.013546090254171722, 1e-12),
    (9.479191741852498, -21.35504696989669, 12.705833821379622, 0.025067017471000125, 1e-12),
    (3.060677979929081, -1.4271986179585725, 6.774422746235565, 0.045180221229120326, 1e-12),
    (0.28134122671584605, -0.5443956859471842, 1.1114382106457095, 0.9937560688129812, 1e-12),
    (4.526974412104189, -6.2630271322418505, 5.764528296882786, 0.04739740906227305, 1e-12),
    (4.384299318062232, -1.0773534554544184, 6.741640449943199, 0.020267537602288367, 1e-12),
    (4.250321599524721, -15.032545941777691, 8.867822895604924, 0.06365560963279912, 1e-12),
    (9.938561136483782, -15.058371797864528, 19.834552246436242, 0.01338897681867948, 1e-12),
    (8.376167677349164, -10.161318426223827, 1.300203211527261, 0.008580226143297513, 1e-12),
    (5.903618991148811, -4.17755286728977, 7.266126927815579, 0.021979940776844228, 1e-12),
    (6.563052728217304, -1.5126171534464887, 10.775263924513924, 0.015045213148448757, 1e-12),
    (0.7968376243639262, -1.0138940556775085, 0.21428241054256242, 0.2051451543992633, 1e-12),
    (0.6168459708800036, -0.756481221384758, 2.508167345414768, 0.3525346653869525, 1e-12),
]


def test_evolve_first_pair_meets_the_tolerance_on_sudden_sweeps():
    # n_sum bounds the whole Magnus remainder, and the estimate is eighth order:
    # each of these sets takes one pair, as all 4347 sudden sets of that probe do
    for x, z_i, z_f, tf, rel_tol in _SUDDEN_SECOND_PAIRS:
        p = lz.LzParams(x, z_i, z_f, tf)
        assert not _ends_adiabatic(p)
        assert len(_pair_counts(p, rel_tol, rel_tol / 100.0)) == 2, p


def test_evolve_is_within_tolerance_or_raises_at_the_phase_rounding_floor():
    # the n- and 2n-step states share the rounding delta of h = t_f / n, which
    # scales the whole sweep's time by 1 + delta and turns each phase by up to
    # |delta| int b dt; step doubling cannot see it, so the pair counts it. Near
    # eps int b dt a call returned states 1.16 x its tolerance off (t_f = 3e3,
    # tolerance eps int b dt / 6); now each returns within its tolerance or names
    # the floor
    eps = np.finfo(float).eps
    for tf, share in ((1e3, 4.0), (5e3, 8.0), (3e3, 6.0), (1e3, 2.0), (1e3, 1.0), (300.0, 3.0)):
        p = lz.LzParams(0.1, -1.0, 1.0, tf)
        tol = eps * -lz.dynamical_phase_gs(p, 0.0, tf) / share
        want = parabolic_cylinder_state(0.1, -1.0, 1.0, tf)
        try:
            got = lz.evolve_schrodinger(p, tol)
        except numkit.IntegrationError as err:
            assert "roundoff floor" in str(err), (tf, share)
            continue
        assert np.abs(got - want).max() <= tol, (tf, share)


def test_evolve_takes_one_eighth_order_pair_at_the_largest_shipped_t_f():
    # the chain's and lz's costliest shipped rows take one pair, its n no more than
    # the eighth-order estimate t_f (2 K / (t_f tol))^(1/8), int b^3 dt by quadrature:
    # (2512, 5024) and (4088, 8176) steps, where sixth-order steps took (4634, 9268)
    # and (7496, 14992)
    counts = []
    for p in (tfi.TfiParams(150, 0.5, 1.5, 300.0), lz.LzParams(0.1, -1.0, 1.0, 2100.0)):
        x, z_i, z_f = (np.atleast_1d(v) for v in (p.x, p.z_i, p.z_f))
        b_i, b_f = np.hypot(x, z_i), np.hypot(x, z_f)
        cube = p.t_f / p.dz * np.array([quad(lambda z: np.hypot(xk, z) ** 3, zi, zf)[0]
                                        for xk, zi, zf in zip(x, z_i, z_f)])
        k = np.max(np.hypot(p.dz * x * (b_i ** 5 + b_f ** 5) / 18900,
                            x * x * p.zdot * p.dz * cube / 3780))
        estimate = p.t_f * (2.0 * k / (p.t_f * (1e-10 + 1e-12))) ** 0.125
        passes = _pair_counts(p, 1e-10, 1e-12)
        assert len(passes) == 2 and passes[0] <= np.ceil(estimate * (1 + 1e-12)), (p, passes)
        counts.append(passes[0])
    assert counts[0] <= 2700 and counts[1] < 7496, counts


def test_evolve_frames_agree():
    # oracle: i c' = (x sigma_x + z(t) sigma_z) c in the fixed sigma_z frame,
    # integrated by the RK45 pair; 0.18 and 42.4 are points of the shipped grid
    for tf in (0.18, 10.0, 42.4, 200.0):
        p = lz.LzParams(0.1, -1.0, 1.0, tf)

        def rhs(t, c):
            z = p.z_i + p.zdot * t
            return -1j * np.array([z * c[0] + p.x * c[1], p.x * c[0] - z * c[1]])

        _, _, psi1_0, _ = lz.lz_eigensystem(p.x, p.z_i)
        sol = solve_ivp(rhs, (0.0, tf), psi1_0.astype(complex), method="RK45",
                        rtol=1e-12, atol=1e-14)
        assert sol.success
        fixed = sol.y[:, -1]
        got = lz.evolve_schrodinger(p, 1e-12 + 1e-14)
        assert lz.state_distance(fixed, got) < 1e-10, tf


def test_evolve_large_tf_close_to_adiabatic():
    p = lz.LzParams(0.1, -1.0, 1.0, 1e4)
    psi = lz.evolve_schrodinger(p)
    assert lz.state_distance(psi, lz.adiabatic_state(p)) < 1e-4


# ---------------------------------------------------------------- dynamical phase

def test_phase_zero_interval():
    assert lz.dynamical_phase_gs(P_STD, 3.0, 3.0) == 0.0


def test_phase_matches_quadrature_oracle():
    p = lz.LzParams(0.1, -1.0, 1.0, 1.0)
    oracle, _ = quad(lambda t: -p.b(t), 0.0, p.t_f, epsabs=1e-13, epsrel=1e-13)
    assert abs(lz.dynamical_phase_gs(p, 0.0, p.t_f) - oracle) < 1e-10


def test_phase_is_negative():
    # ground energy is negative throughout, so the phase integral is too
    assert lz.dynamical_phase_gs(P_STD, 0.0, P_STD.t_f) < 0


def test_phase_is_additive():
    d = lz.dynamical_phase_gs
    assert abs(d(P_STD, 0.0, 4.0) + d(P_STD, 4.0, 10.0) - d(P_STD, 0.0, 10.0)) < 1e-12


def test_small_coupling_phase_finite_and_sweep_diabatic():
    # at x = 1e-8, hypot(x, z_i) rounds to |z_i|: the phase must not go
    # through log(z + b) = log 0
    p = lz.LzParams(1e-8, -1.0, 1.0, 100.0)
    # int b dt = (t_f / dz) int_{-1}^{1} |z| dz + O(x^2 log x) = 50
    assert abs(lz.dynamical_phase_gs(p, 0.0, p.t_f) + 50.0) < 1e-12
    assert np.all(np.isfinite(lz.adiabatic_state(p)))
    # the sweep stays diabatic: d_adi is the Landau-Zener amplitude
    # exp(-pi x^2 t_f / (2 dz)) = 1 - 8e-15
    psi = lz.evolve_schrodinger(p)
    assert abs(lz.state_distance(psi, lz.adiabatic_state(p)) - 1.0) < 1e-12


# ---------------------------------------------------------------- adiabatic state

def test_adiabatic_state_normalized():
    assert abs(np.linalg.norm(lz.adiabatic_state(P_STD)) - 1.0) < 1e-14


def test_distance_global_phase_invariant():
    psi = lz.evolve_schrodinger(P_STD)
    adi = lz.adiabatic_state(P_STD)
    d0 = lz.state_distance(psi, adi)
    assert abs(lz.state_distance(psi, np.exp(0.77j) * adi) - d0) < 1e-14


# ------------------------------------------------------------ first-order state

def test_first_order_mixing_coefficient_at_crossing():
    # at z = 0 the drive matrix element is dz/t_f, so |m21| = dz / (4 x^2)
    p = lz.LzParams(0.1, -1.0, 1.0, 20.0)
    t_cross = p.t_f / 2.0
    assert abs(abs(lz.coupling_matrix_element(p, t_cross)) - p.dz / p.t_f) < 1e-13
    assert abs(abs(lz.m21(p, t_cross)) - p.dz / (4 * p.x ** 2)) < 1e-10


def test_first_order_j21_quadrature():
    p = lz.LzParams(0.1, -1.0, 1.0, 7.0)
    val = lz.j21(p, p.t_f)
    oracle, _ = quad(lambda t: (p.zdot * p.x / p.b(t)) ** 2 / (2 * p.b(t)) ** 3,
                     0.0, p.t_f, epsabs=1e-13, epsrel=1e-13)
    assert abs(val - p.t_f * oracle) < 1e-10 * max(1.0, abs(val))


def test_j21_closed_form_against_mpmath_oracle():
    # 40-digit quadrature in z, split at the crossing; at x = 1e-3 and t =
    # 1e-3 t_f both ends lie far out on the negative side, where the naive
    # s - s^3/3 form is 5.8e-3 off
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in (1e-3, 0.1, 1.0, 3.0):
        p = lz.LzParams(x, -1.0, 1.0, 100.0)
        xm, zdot = mpmath.mpf(x), mpmath.mpf(2) / 100

        def integrand(z):  # t_f |<psi_2|dH/dt|psi_1>|^2 / (2b)^3 dt, dt = dz / zdot
            b = mpmath.sqrt(xm ** 2 + z ** 2)
            return 100 * (zdot * xm / b) ** 2 / (2 * b) ** 3 / zdot

        for frac in (1e-3, 0.1, 0.5, 0.9, 1.0):
            z_t = -1 + zdot * mpmath.mpf(frac * p.t_f)
            cuts = [q for q in (-10 * xm, -xm, 0, xm, 10 * xm) if -1 < q < z_t]
            want = mpmath.quad(integrand, [-1] + cuts + [z_t])
            assert abs(lz.j21(p, frac * p.t_f) - want) < 1e-12 * abs(want), (x, frac)


def test_first_order_correction_vanishes_at_large_tf():
    # the corrected state converges to the plain adiabatic one like 1/t_f
    deltas = []
    for tf in (1e3, 1e4):
        p = lz.LzParams(0.1, -1.0, 1.0, tf)
        deltas.append(lz.state_distance(lz.adiabatic_first_order(p),
                                        lz.adiabatic_state(p)))
    assert deltas[1] < deltas[0] / 5
    assert deltas[1] < 1e-5


def test_first_order_normalized():
    assert abs(np.linalg.norm(lz.adiabatic_first_order(P_STD)) - 1.0) < 1e-14


# ------------------------------------------------------------------- AIA state

def test_aia_collapsed_window_equals_adiabatic():
    for tau in (0.0, 3.3, 10.0):
        st = lz.SwitchingTimes(tau, tau, lz.REGIME_COLLAPSED)
        d = lz.state_distance(lz.aia_state(P_STD, st), lz.adiabatic_state(P_STD))
        assert d < 1e-12


def test_aia_collapsed_window_equals_adiabatic_amplitudes():
    # the distance does not see a global phase, so compare amplitudes: the
    # adiabatic head [0, tau] carries exp(-i delta_1(0, tau)), the tail
    # exp(-i delta_1(tau, t_f)), and together they give the adiabatic state
    eps = np.finfo(float).eps
    for p in (lz.LzParams(0.1, -1.0, 1.0, 10.0), lz.LzParams(0.1, -1.5, 0.5, 300.0),
              lz.LzParams(0.7, -2.0, 3.0, 3e3)):
        want = lz.adiabatic_state(p)
        tol = 4 * eps * max(1.0, abs(lz.dynamical_phase_gs(p, 0.0, p.t_f)))
        for frac in (0.0, 0.13, 0.5, 0.77, 1.0):
            tau = frac * p.t_f
            got = lz.aia_state(p, lz.SwitchingTimes(tau, tau, lz.REGIME_COLLAPSED))
            assert np.abs(got - want).max() <= tol, (p, tau)


def test_aia_whole_interval_is_frozen_initial_state():
    st = lz.SwitchingTimes(0.0, P_STD.t_f, lz.REGIME_WHOLE)
    _, _, psi1_0, _ = lz.lz_eigensystem(P_STD.x, P_STD.z_i)
    assert lz.state_distance(lz.aia_state(P_STD, st), psi1_0.astype(complex)) < 1e-12


def test_aia_scenario1_beats_adiabatic_at_small_tf():
    psi = lz.evolve_schrodinger(P_STD)
    st = lz.switching_times(P_STD, 1)
    d_aia = lz.state_distance(psi, lz.aia_state(P_STD, st))
    d_adi = lz.state_distance(psi, lz.adiabatic_state(P_STD))
    assert d_aia < d_adi


def test_aia_reversed_window_accepted():
    st = switching_from_dtau(P_STD, -4.0)
    assert st.regime == REGIME_REVERSED
    psi = lz.aia_state(P_STD, st)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_aia_grid_matches_scalar_path():
    psi = lz.evolve_schrodinger(P_STD)
    dtaus = np.array([-5.0, -1.0, 0.0, 2.0, 7.5])
    grid = lz.aia_distance_grid(P_STD, dtaus, psi)
    for dt, dg in zip(dtaus, grid):
        st = switching_from_dtau(P_STD, dt)
        assert abs(lz.state_distance(psi, lz.aia_state(P_STD, st)) - dg) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_decades(-2, 1), _decades(-2, 2), _decades(-2, 2), _decades(-2, 2))
def test_aia_grid_at_zero_interval_is_the_adiabatic_distance(x, minus_z_i, z_f, tf):
    # at dtau = 0 the turn vanishes, and the grid's |e_1| drops the phase
    # exp(-i delta_1(0, t_f)) that the adiabatic state carries, of modulus one
    p = lz.LzParams(x, -minus_z_i, z_f, tf)
    psi = lz.evolve_schrodinger(p)
    grid = lz.aia_distance_grid(p, [0.0], psi)
    assert grid.shape == (1,)
    assert abs(grid[0] - lz.state_distance(psi, lz.adiabatic_state(p))) <= 1e-15


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(hst.floats(0.05, 3.0), hst.floats(0.1, 5.0), hst.floats(0.1, 5.0), hst.floats(0.1, 50.0),
       hst.floats(0.0, 1.0), hst.floats(0.0, 1.0))
def test_aia_state_against_sum_oracle_at_random_parameters(x, minus_z_i, z_f, tf, u, v):
    # about half the windows are reversed, tau_+ < tau_-; the grid reads the
    # centered windows of dtau and -dtau
    p = lz.LzParams(x, -minus_z_i, z_f, tf)
    tm, tp = u * tf, v * tf
    st = lz.SwitchingTimes(tm, tp, REGIME_REVERSED if tp < tm else lz.REGIME_INTERIOR)
    assert np.abs(lz.aia_state(p, st) - aia_state_oracle(p, tm, tp)).max() <= 1e-12
    psi = lz.evolve_schrodinger(p)
    dtaus = np.array([tp - tm, tm - tp])
    for dtau, got in zip(dtaus, lz.aia_distance_grid(p, dtaus, psi)):
        want = aia_state_oracle(p, tf / 2.0 - dtau / 2.0, tf / 2.0 + dtau / 2.0)
        assert abs(got - lz.state_distance(psi, want)) <= 1e-12


@pytest.mark.parametrize("module, p, evolve", [
    (lz, P_STD, lz.evolve_schrodinger),
    (tfi, tfi.TfiParams(20, 0.5, 1.5, 12.0), tfi.evolve_register),
    (lo, lo.OpenParams(0.1, -1.0, 1.0, 10.0, 0.5, 0.01), lo.evolve_master),
], ids=["lz", "chain", "open"])
def test_distance_grids_reject_windows_outside_the_sweep(module, p, evolve):
    # dtau = 1.5 t_f read 0.33 on the lz grid, where aia_state raises for the same window
    exact = evolve(p)
    assert np.all(np.isfinite(module.aia_distance_grid(p, np.array([-p.t_f, 0.0, p.t_f]), exact)))
    for bad in (1.5 * p.t_f, -1.5 * p.t_f, np.nextafter(p.t_f, np.inf), np.nan):
        with pytest.raises(ValueError, match=r"switching times must lie in \[0, t_f\]"):
            module.aia_distance_grid(p, np.array([0.0, bad]), exact)


# -------------------------------------------------------------- switching times

def test_scenario1_approaches_inverse_coupling():
    st = lz.switching_times(lz.LzParams(0.1, -1.0, 1.0, 1e4), 1)
    assert abs(st.dtau - 10.0) < 0.01


def test_scenario2_collapses_above_threshold():
    st = lz.switching_times(lz.LzParams(0.1, -1.0, 1.0, 200.0), 2)
    assert st.regime == lz.REGIME_COLLAPSED
    assert st.tau_minus == st.tau_plus == 100.0


def test_scenario2_no_interior_solution_above_threshold():
    # oracle: the defining condition 1/(2b) = b t_f / dz has no real solution
    p = lz.LzParams(0.1, -1.0, 1.0, 200.0)
    taus = np.linspace(0, p.t_f, 20001)
    g = 1.0 / (2 * p.b(taus)) - p.b(taus) * p.t_f / p.dz
    assert np.all(g < 0)


def test_scenario3_collapses_to_crossing_time():
    st = lz.switching_times(lz.LzParams(0.1, -1.0, 1.0, 10.0), 3)
    assert st.regime == lz.REGIME_COLLAPSED
    assert abs(st.tau_minus - 5.0) < 1e-12 and st.dtau == 0.0


def test_scenario3_condition_has_no_solution_above_threshold():
    p = lz.LzParams(0.1, -1.0, 1.0, 10.0)
    taus = np.linspace(0, p.t_f, 20001)
    g = 1.0 / (2 * p.b(taus)) - p.t_f
    assert np.all(g < 0)


def test_scenario4_boundary_collapse():
    st = lz.switching_times(lz.LzParams(0.1, -1.0, 1.0, 50.0), 4)
    assert st.dtau == 0.0


def test_scenario_collapse_thresholds():
    # x = 0.1, z = -/+1: window collapses iff t_f >= 100 / 5 / 50 (scenarios 2/3/4)
    for scenario, thresh in ((2, 100.0), (3, 5.0), (4, 50.0)):
        below = lz.switching_times(lz.LzParams(0.1, -1, 1, thresh * 0.98), scenario)
        above = lz.switching_times(lz.LzParams(0.1, -1, 1, thresh * 1.02), scenario)
        assert below.dtau > 0
        assert above.dtau == 0.0
    # the window is the whole sweep iff t_f is below each prescription's lower
    # threshold, computed here as the model computes it; at it the window is interior
    x, dz = 0.1, 2.0

    def window(scenario, tf):
        if scenario == "chain":
            return tfi.switching_times_tfi(tfi.TfiParams(150, 0.5, 1.5, tf), 1)
        return lz.switching_times(lz.LzParams(x, -1.0, 1.0, tf), scenario)

    for scenario, lower in ((1, 0.5 * dz / (1.0 * np.hypot(x, 1.0))), (2, 0.5 * dz / (x * x + 1.0)),
                            (3, 0.5 / np.hypot(x, 1.0)), (4, 0.25 * x * dz / (x * x + 1.0)),
                            ("chain", 0.5 * (1.5 - 0.5) / (1.5 - 1.0) ** 2)):
        below, at = np.nextafter(lower, 0.0), window(scenario, lower)
        assert astuple(window(scenario, below)) == (0.0, below, lz.REGIME_WHOLE, None), scenario
        assert at.regime == lz.REGIME_INTERIOR, scenario
        assert 0.0 <= at.tau_minus < at.tau_plus <= lower, scenario


def test_scenario_window_continuous_across_collapse_threshold():
    # asymmetric sweep: the crossing is at t_f z_i / (z_i - z_f) = 0.75 t_f,
    # where the shrinking interior window ends and the collapsed one sits
    for scenario, upper in ((2, 100.0), (3, 5.0), (4, 50.0)):
        below = lz.switching_times(lz.LzParams(0.1, -1.5, 0.5, upper * (1 - 1e-9)), scenario)
        at = lz.switching_times(lz.LzParams(0.1, -1.5, 0.5, upper), scenario)
        assert (below.regime, at.regime) == (lz.REGIME_INTERIOR, lz.REGIME_COLLAPSED)
        assert abs(at.tau_minus - 0.75 * upper) < 1e-12 * upper
        assert abs(below.tau_minus - at.tau_minus) < 1e-3, scenario
        assert abs(below.tau_plus - at.tau_plus) < 1e-3, scenario


def test_scenario_windows_ordered_and_contained():
    for scenario in (1, 2, 3, 4):
        for tf in np.geomspace(0.01, 1e4, 40):
            st = lz.switching_times(lz.LzParams(0.1, -1.0, 1.0, tf), scenario)
            assert 0.0 <= st.tau_minus <= st.tau_plus <= tf


# x, |z_i|, z_f and t_f over their whole domain [1e-30, 1e30], edges included
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_decades(-30, 30), _decades(-30, 30), _decades(-30, 30), _decades(-30, 30))
def test_scenario_windows_ordered_and_contained_at_random_parameters(x, minus_z_i, z_f, tf):
    p = lz.LzParams(x, -minus_z_i, z_f, tf)
    for scenario in (1, 2, 3, 4):
        st = lz.switching_times(p, scenario)
        assert 0.0 <= st.tau_minus <= st.tau_plus <= tf, (scenario, st)


def test_scenario1_interior_values_solve_condition():
    # interior roots satisfy 1/(2b) = |z| t_f / dz
    p = lz.LzParams(0.1, -1.0, 1.0, 300.0)
    st = lz.switching_times(p, 1)
    for tau in (st.tau_minus, st.tau_plus):
        z = float(p.z(tau))
        assert abs(1.0 / (2 * np.hypot(p.x, z)) - abs(z) * p.t_f / p.dz) < 1e-9


def test_scenario1_half_width_against_mpmath(monkeypatch):
    # the half-width handed to the window rule, against the root of the condition
    # 1/(2b) = |z| t_f / dz, i.e. 4 z^2 (x^2 + z^2) = (dz / t_f)^2, at 40 digits;
    # the form (x t_f / (sqrt2 dz)) sqrt(-1 + sqrt(1 + r^2)) lost 1.1e-5 of it at
    # t_f = 1e8 and all of it at 1e12, where its window had width 0
    mpmath = pytest.importorskip("mpmath")
    halves, window = [], lz._window

    def spy(center, tf, lower, upper, half):
        halves.append(half())
        return window(center, tf, lower, upper, lambda: halves[-1])

    monkeypatch.setattr(lz, "_window", spy)
    with mpmath.workdps(40):
        for tf in 10.0 ** np.arange(2, 13):
            p = lz.LzParams(0.1, -1.0, 1.0, tf)
            st = lz.switching_times(p, 1)
            x, dz, t = mpmath.mpf(p.x), mpmath.mpf(p.dz), mpmath.mpf(tf)
            want = mpmath.sqrt((mpmath.sqrt(x**4 + (dz / t) ** 2) - x**2) / 2) * t / dz
            assert abs(halves[-1] - want) <= 1e-15 * want, tf
            # the window is the crossing t_f / 2 -/+ that, to the rounding of t_f / 2
            assert st.regime == lz.REGIME_INTERIOR
            assert abs(st.dtau - 2 * float(want)) <= 2 * np.spacing(tf / 2), tf


@pytest.mark.parametrize("tf", [1e4, 3.3e5, 1.7e7])
def test_scenario1_dtau_is_the_exact_width_of_an_unclamped_window(tf):
    # dtau is 2 half, not tau_+ - tau_-: the difference of the absolute times carried
    # ulp(t_f / 2) of them, 6.4e-14, 5.3e-13 and 1.7e-11 relative at these t_f
    mpmath = pytest.importorskip("mpmath")
    p = lz.LzParams(0.1, -1.0, 1.0, tf)
    st = lz.switching_times(p, 1)
    assert st.regime == lz.REGIME_INTERIOR and st.width is not None
    with mpmath.workdps(40):
        x, dz, t = mpmath.mpf(p.x), mpmath.mpf(p.dz), mpmath.mpf(tf)
        want = 2 * mpmath.sqrt((mpmath.sqrt(x**4 + (dz / t) ** 2) - x**2) / 2) * t / dz
        assert abs(st.dtau - want) <= 4 * np.finfo(float).eps * want, tf
    # a clamped window keeps the difference of its ends
    clamped = lz.switching_times(lz.LzParams(0.1, -0.1, 1.0, 0.6), 1)
    assert clamped.tau_minus == 0.0 and clamped.width is None
    assert clamped.dtau == clamped.tau_plus


def _upper_threshold(scenario, x, dz):
    return {2: 0.5 * dz / (x * x), 3: 0.5 / x, 4: 0.25 * dz / (x * x)}[scenario]


@pytest.mark.parametrize("scenario", [2, 3, 4])
def test_scenarios_2_to_4_half_widths_are_exact_up_to_their_thresholds(scenario):
    # the factor that vanishes at the upper threshold is formed exactly; the forms that
    # cancel, sqrt(-2 + dz / (x^2 t_f)) and the like, were up to 7.5e13 eps off here, and
    # scenario 4's read an interior window of width 0 one and two ulp below its threshold
    mpmath = pytest.importorskip("mpmath")
    p0 = lz.LzParams(0.1, -1.0, 1.0, 1.0)
    upper = _upper_threshold(scenario, p0.x, p0.dz)
    with mpmath.workdps(40):
        x, dz, sqrt2 = mpmath.mpf(p0.x), mpmath.mpf(p0.dz), mpmath.sqrt(2)
        for k in range(1, 15):
            tf = upper * (1.0 - 10.0 ** -k)
            st = lz.switching_times(lz.LzParams(0.1, -1.0, 1.0, tf), scenario)
            assert st.regime == lz.REGIME_INTERIOR and st.width is not None, (k, st)
            t = mpmath.mpf(tf)
            root = {2: -2 + dz / (x * x * t), 3: -1 + (1 / (2 * x * t)) ** 2,
                    4: -2 + (dz / (sqrt2 * x * x * t)) ** (mpmath.mpf(2) / 3)}[scenario]
            want = (2 if scenario == 3 else sqrt2) * x * t / dz * mpmath.sqrt(root)
            assert abs(st.dtau - want) <= 2 * np.finfo(float).eps * want, (k, st.dtau, want)
    tf = upper
    for _ in range(3):
        tf = float(np.nextafter(tf, 0.0))
        st = lz.switching_times(lz.LzParams(0.1, -1.0, 1.0, tf), scenario)
        assert st.regime == lz.REGIME_INTERIOR and st.dtau > 0.0, (tf, st)


@pytest.mark.parametrize("scenario", [2, 4])
def test_a_window_collapses_below_a_threshold_that_rounds_up(scenario):
    # here 0.5 dz / x^2 rounds above dz / (2 x^2) (and 0.25 dz / x^2 above dz / (4 x^2)),
    # so one ulp below it t_f is past the exact threshold: the vanishing factor is 0 and the window collapses, where the
    # cancelling form read an interior window of width 0
    p = lz.LzParams(0.143, -1.0, 7.378, 1.0)
    tf = float(np.nextafter(_upper_threshold(scenario, p.x, p.dz), 0.0))
    assert Fraction(p.dz) <= scenario * Fraction(p.x) ** 2 * Fraction(tf)  # dz / (c x^2) <= t_f
    st = lz.switching_times(lz.LzParams(0.143, -1.0, 7.378, tf), scenario)
    assert st.regime == lz.REGIME_COLLAPSED and st.tau_minus == st.tau_plus, st


# x, |z_i|, z_f over decades, and the phase t_f b_max up to 3e3 (b_max the largest
# gap), where the parabolic-cylinder oracle stays fast
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_decades(-2, 1), _decades(-2, 1), _decades(-2, 1), _decades(-2, 3.5),
       hst.sampled_from([1e-8, 1e-10, 1e-12]))
def test_evolve_within_tolerance_of_oracle_or_raises_at_random_parameters(
        x, minus_z_i, z_f, phase, rel_tol):
    b_max = np.hypot(x, max(minus_z_i, z_f))
    p = lz.LzParams(x, -minus_z_i, z_f, phase / b_max)
    tol, passes = rel_tol + 1e-2 * rel_tol, []
    with pytest.MonkeyPatch.context() as mp:
        _counting_magnus(mp, passes)
        try:
            got = lz.evolve_schrodinger(p, tol)
        except numkit.IntegrationError:
            got = None
    assert all(3 * n * batch <= numkit.STEP_BUDGET for n, batch in passes[::2]), passes
    if got is not None:
        want = parabolic_cylinder_state(p.x, p.z_i, p.z_f, p.t_f)
        assert np.abs(got - want).max() <= tol, (p, tol)
        # the tolerance bounds the reported distances too: |wedge(a, b)| is
        # 1-Lipschitz in b in the 2-norm, and got is within sqrt(2) tol of want there
        states = [lz.adiabatic_state(p), lz.adiabatic_first_order(p)]
        states += [lz.aia_state(p, lz.switching_times(p, s)) for s in (1, 2, 3, 4)]
        dtaus = np.linspace(-p.t_f, p.t_f, 7)

        def distances(psi):
            return np.array([lz.state_distance(psi, phi) for phi in states]
                            + list(lz.aia_distance_grid(p, dtaus, psi)))

        assert np.abs(distances(got) - distances(want)).max() <= np.sqrt(2.0) * tol, (p, tol)


# x, |z_i|, z_f and t_f over the whole LzParams domain, under a budget small
# enough that every evolution is cheap: each returns a normalized state after
# pairs within the budget, or raises IntegrationError
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_decades(-30, 30), _decades(-30, 30), _decades(-30, 30), _decades(-30, 30))
def test_evolve_stays_within_the_step_budget_at_random_parameters(x, minus_z_i, z_f, tf):
    p, passes = lz.LzParams(x, -minus_z_i, z_f, tf), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numkit, "STEP_BUDGET", 3 * 10 ** 5)
        _counting_magnus(mp, passes)
        try:
            got = lz.evolve_schrodinger(p)
        except numkit.IntegrationError:
            got = None
    assert all(3 * n <= 3 * 10 ** 5 for n, _ in passes[::2]), passes
    if got is not None:
        assert np.all(np.isfinite(got)) and abs(np.linalg.norm(got) - 1.0) <= 1e-14


def test_evolve_at_the_corners_of_the_domain_warns_nothing(monkeypatch):
    # the first pair's closed forms (b^3, zdot^3, int b dt) stay finite over the
    # whole LzParams domain and the TfiParams one: a state or a clean error
    monkeypatch.setattr(numkit, "STEP_BUDGET", 3 * 10 ** 4)
    scales = (1e-30, 1.0, 1e30)
    cases = [lz.LzParams(x, -zi, zf, tf) for x, zi, zf, tf in itertools.product(scales, repeat=4)]
    cases += [tfi.TfiParams(n, h_i, h_f, tf) for n, h_i, h_f, tf in
              itertools.product((2, 150), (0.0, 0.999), (1.0 + 1e-7, 1e30), scales)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in cases:
            for rel_tol in (1e-8, 1e-12):
                try:
                    got = lz.evolve_schrodinger(p, rel_tol + rel_tol / 100.0)
                except numkit.IntegrationError:
                    continue
                assert np.all(np.abs(np.linalg.norm(got, axis=-1) - 1.0) <= 1e-14), p


# ------------------------------------------------------------------- optimizer

# x, |z_i| and z_f over decades around the shipped sweeps, t_f up to 1e2
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_decades(-2, 1), _decades(-2, 2), _decades(-2, 2), _decades(-2, 2))
def test_norm_distances_and_optimizer_at_random_parameters(x, minus_z_i, z_f, tf):
    p = lz.LzParams(x, -minus_z_i, z_f, tf)
    psi = lz.evolve_schrodinger(p)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14
    d_adi = lz.state_distance(psi, lz.adiabatic_state(p))
    dists = [d_adi, lz.state_distance(psi, lz.adiabatic_first_order(p))]
    for scenario in (1, 2, 3, 4):
        dists.append(lz.state_distance(psi, lz.aia_state(p, lz.switching_times(p, scenario))))
    assert all(0.0 <= d <= 1.0 for d in dists), dists
    _, d_opt = lz.optimize_dtau(p, psi)
    assert d_opt <= d_adi

def test_optimizer_never_beats_nothing():
    p = lz.LzParams(0.1, -1.0, 1.0, 60.0)
    psi = lz.evolve_schrodinger(p)
    _, d_opt = lz.optimize_dtau(p, psi_exact=psi)
    d_adi = lz.state_distance(psi, lz.adiabatic_state(p))
    assert d_opt <= d_adi + 1e-12


def test_optimizer_matches_exhaustive_grid():
    # brute-force oracle at step 1e-3 over the full interval
    p = lz.LzParams(0.1, -1.0, 1.0, 1e3)
    psi = lz.evolve_schrodinger(p)
    dt_opt, d_opt = lz.optimize_dtau(p, psi_exact=psi)
    dtaus = np.arange(-p.t_f, p.t_f + 1e-3, 1e-3)
    dists = lz.aia_distance_grid(p, dtaus, psi)
    assert d_opt <= dists.min() + 1e-3


# -------------------------------------------------------------- state distance

def test_distance_basic_values():
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    assert lz.state_distance(e0, e0) == 0.0
    assert abs(lz.state_distance(e0, e1) - 1.0) < 1e-15
    assert abs(lz.state_distance(e0, plus) - 1 / np.sqrt(2)) < 1e-15


def test_distance_matches_fidelity_form():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        wedge = lz.state_distance(a, b)
        fid = np.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2))
        assert abs(wedge - fid) < 1e-12


def test_state_distance_broadcasts_like_scalar_calls():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    b = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    stacked = lz.state_distance(a, b)
    against_one = lz.state_distance(a, b[0])
    assert stacked.shape == against_one.shape == (7,)
    for i in range(7):
        assert stacked[i] == lz.state_distance(a[i], b[i])
        assert against_one[i] == lz.state_distance(a[i], b[0])
    assert isinstance(lz.state_distance(a[0], b[0]), float)


def test_distance_metric_properties():
    rng = np.random.default_rng(9)
    for _ in range(50):
        states = []
        for _ in range(3):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            states.append(v / np.linalg.norm(v))
        a, b, c = states
        assert abs(lz.state_distance(a, b) - lz.state_distance(b, a)) < 1e-12
        assert lz.state_distance(a, c) <= (lz.state_distance(a, b)
                                           + lz.state_distance(b, c) + 1e-12)
        ph = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert abs(lz.state_distance(ph * a, b) - lz.state_distance(a, b)) < 1e-12


def test_bounded_distance_times_tf(lz_sweep_data):
    # adiabatic-theorem boundedness: d * t_f never blows up, and in the
    # asymptotic tail it stays inside the boundary-term envelope
    tfs, rows, _ = lz_sweep_data
    scaled = tfs * np.array([r["d_adi"] for r in rows])
    assert scaled.max() < 100.0
    assert scaled[tfs >= 1000.0].max() < 1.0
