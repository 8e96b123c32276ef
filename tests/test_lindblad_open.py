"""Damped qubit: bath function, jump operators, generator, spectrum, dynamics."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad
from scipy.linalg import expm

from aia import lindblad_open as lo
from aia import intertwiner as itw
from aia import numkit, sweeps
from aia.lz_closed import SwitchingTimes, dynamical_phase_gs, lz_eigensystem
from oracles import (density_to_coherence, lindblad_ops, master_ode_state,
                     parabolic_cylinder_state, rate_integral, switching_from_dtau)

P_STD = lo.OpenParams(x=0.1, z_i=-1.0, z_f=1.0, t_f=50.0, T=0.05, g=0.01)


def test_params_validation():
    with pytest.raises(ValueError):
        lo.OpenParams(0.1, -1, 1, 10, -0.1, 0.01)
    with pytest.raises(ValueError):
        lo.OpenParams(0.1, -1, 1, 10, 0.1, -0.01)
    with pytest.raises(ValueError):
        lo.OpenParams(0.1, 1, 2, 10, 0.1, 0.01)
    for i in range(6):
        for bad in (np.nan, np.inf):
            args = [0.1, -1.0, 1.0, 10.0, 0.1, 0.01]
            args[i] = bad
            with pytest.raises(ValueError, match="finite"):
                lo.OpenParams(*args)
    # finite, but the damping rate ~ g^2 and the first pair's L^5 would overflow
    for temp, g in ((0.05, 1e200), (0.05, 1.5), (1e31, 0.01), (1e-31, 0.01)):
        with pytest.raises(ValueError, match=r"g <= 1 and T in \[1e-30, 1e30\]"):
            lo.OpenParams(0.1, -1.0, 1.0, 10.0, temp, g)


# ------------------------------------------------------------- bath spectral fn

def test_kms_detailed_balance():
    rng = np.random.default_rng(2)
    for _ in range(30):
        w, beta = rng.uniform(-3, 3), rng.uniform(0.5, 40)
        lhs = lo.spectral_gamma(-w, beta, 0.01)
        rhs = np.exp(-beta * w) * lo.spectral_gamma(w, beta, 0.01)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_gamma_zero_frequency_limit():
    beta, g = 20.0, 0.01
    assert abs(lo.spectral_gamma(0.0, beta, g) - 2 * np.pi * g * g / beta) < 1e-18
    # continuous at zero: the genuine slope there is pi g^2
    slope = np.pi * g * g
    step = 1e-9
    assert abs(lo.spectral_gamma(step, beta, g)
               - lo.spectral_gamma(0.0, beta, g) - slope * step) < 1e-15


def test_gamma_zero_temperature_limits():
    beta, g, w = 1e4, 0.05, 2.0
    assert abs(lo.spectral_gamma(w, beta, g) - 2 * np.pi * g * g * w) < 1e-12
    assert lo.spectral_gamma(-w, beta, g) < 1e-300


# -------------------------------------------------------------- jump operators

def test_lindblad_ops_match_projector_sum_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        x, z = rng.uniform(0.05, 2), rng.uniform(-2, 2)
        _, lp, lm = lindblad_ops(x, z)
        _, _, psi1, psi2 = lz_eigensystem(x, z)
        oracle = np.outer(psi1, psi1) @ lo.SIGMA_Y @ np.outer(psi2, psi2)
        assert np.abs(lp - oracle).max() < 1e-13
        assert np.abs(lm - oracle.conj().T).max() < 1e-13


def test_lindblad_ops_lower_within_sectors():
    _, lp, _ = lindblad_ops(0.1, 0.3)
    _, _, psi1, psi2 = lz_eigensystem(0.1, 0.3)
    assert np.abs(lp @ psi1).max() < 1e-14
    residual = lp @ psi2 - np.vdot(psi1, lp @ psi2) * psi1
    assert np.abs(residual).max() < 1e-14


def test_lindblad_ops_normalization():
    _, lp, _ = lindblad_ops(0.7, -0.4)
    assert abs(np.trace(lp.conj().T @ lp).real - 1.0) < 1e-13


# -------------------------------------------------------------------- generator

def _assembled_generator(x, z, beta, g):
    """Independent construction from the abstract Lindblad form."""
    ham = np.array([[z, x], [x, -z]], dtype=complex)
    _, lp, lm = lindblad_ops(x, z)
    delta = 2 * np.hypot(x, z)
    pairs = ((lo.spectral_gamma(delta, beta, g), lp),
             (lo.spectral_gamma(-delta, beta, g), lm))

    def act(rho):
        out = -1j * (ham @ rho - rho @ ham)
        for gam, l in pairs:
            out += gam * (l @ rho @ l.conj().T
                          - 0.5 * (l.conj().T @ l @ rho + rho @ l.conj().T @ l))
        return out

    mat = np.zeros((4, 4))
    for k, gk in enumerate(lo.PAULI_BASIS):
        image = act(gk.astype(complex))
        for j, gj in enumerate(lo.PAULI_BASIS):
            mat[j, k] = np.trace(gj @ image).real
    return mat


def test_generator_first_row_zero():
    m = lo.liouvillian_matrix(0.1, 0.4, 20.0, 0.01)
    assert np.abs(m[0]).max() == 0.0


def test_generator_matches_assembly_oracle():
    rng = np.random.default_rng(6)
    for _ in range(15):
        x, z = rng.uniform(0.05, 1), rng.uniform(-1.5, 1.5)
        beta, g = rng.uniform(1, 30), rng.uniform(0.0, 0.2)
        got = lo.liouvillian_matrix(x, z, beta, g)
        want = _assembled_generator(x, z, beta, g)
        assert np.abs(got - want).max() < 1e-12


def test_generator_broadcasts_like_scalar_calls():
    # the Magnus steps build the generator at every Gauss point in one call;
    # the arithmetic is the scalar call's, so the entries agree bitwise
    zs = np.array([[-1.0, -0.3, 0.0], [1e-9, 0.4, 1.0]])
    got = lo.liouvillian_matrix(0.1, zs, 20.0, 0.01)
    assert got.shape == (2, 3, 4, 4)
    for idx in np.ndindex(zs.shape):
        assert np.array_equal(got[idx], lo.liouvillian_matrix(0.1, float(zs[idx]), 20.0, 0.01))
    with pytest.raises(ValueError, match="degenerate"):
        lo.liouvillian_matrix(0.0, zs, 20.0, 0.01)


def test_spectrum_broadcasts_like_scalar_calls():
    # the transport builds its projectors from broadcast eigenvectors; every
    # entry has the scalar call's bits, eigenvalues included
    zs = np.array([[-1.0, -0.3, 0.0], [1e-9, 0.4, 1.0]])
    for g in (0.0, 0.01):
        got = lo.liouvillian_spectrum(0.1, zs, 20.0, g)
        right, left = lo._eigenvectors(0.1, zs, 20.0)
        assert got.eigenvalues.shape == (2, 3, 4) and right.shape == left.shape == (2, 3, 4, 4)
        for idx in np.ndindex(zs.shape):
            want = lo.liouvillian_spectrum(0.1, float(zs[idx]), 20.0, g)
            assert np.array_equal(got.eigenvalues[idx], want.eigenvalues)
            assert np.array_equal(got.right[idx], want.right)
            assert np.array_equal(got.left[idx], want.left)
            assert np.array_equal(right[idx], want.right)
            assert np.array_equal(left[idx], want.left)
    with pytest.raises(ValueError, match="gap"):
        lo.liouvillian_spectrum(0.0, zs, 20.0, 0.01)


def test_generator_closed_limit_structure():
    m = lo.liouvillian_matrix(0.1, 0.4, 20.0, 0.0)
    assert np.abs(m[:, 0]).max() == 0.0
    block = m[1:, 1:]
    assert np.abs(block + block.T).max() < 1e-15  # pure commutator part


# --------------------------------------------------------------------- spectrum

def test_spectrum_closed_forms_at_crossing():
    spec = lo.liouvillian_spectrum(0.1, 0.0, 20.0, 0.01)
    delta = 0.2
    l2 = -2 * np.pi * 1e-4 * delta / np.tanh(0.5 * 20 * delta)
    assert abs(spec.eigenvalues[1] - l2) < 1e-12
    assert abs(spec.eigenvalues[1] + 1.30355e-4) < 5e-9  # reference value, 6 digits
    assert spec.eigenvalues[3] == np.conj(spec.eigenvalues[2])
    assert np.all(spec.eigenvalues.real <= 1e-18)
    assert spec.eigenvalues[0] == 0.0


def test_spectrum_eigen_residuals_everywhere():
    rng = np.random.default_rng(7)
    for _ in range(15):
        x = rng.uniform(0.05, 1)
        z = rng.choice([0.0, rng.uniform(-1.5, 1.5)])
        beta, g = rng.uniform(1, 30), rng.uniform(0.001, 0.2)
        m = lo.liouvillian_matrix(x, z, beta, g)
        spec = lo.liouvillian_spectrum(x, z, beta, g)
        for j in range(4):
            resid = m @ spec.right[:, j] - spec.eigenvalues[j] * spec.right[:, j]
            assert np.abs(resid).max() < 1e-11


def test_spectrum_biorthonormal_and_complete():
    for z in (0.0, -0.7, 1.2):
        spec = lo.liouvillian_spectrum(0.1, z, 20.0, 0.01)
        assert np.abs(spec.left @ spec.right - np.eye(4)).max() < 1e-12
        assert np.abs(spec.right @ spec.left - np.eye(4)).max() < 1e-11


def test_spectrum_closure_reconstructs_generator():
    for z in (0.0, 0.5, -1.0):
        m = lo.liouvillian_matrix(0.1, z, 20.0, 0.01)
        spec = lo.liouvillian_spectrum(0.1, z, 20.0, 0.01)
        recon = spec.right @ np.diag(spec.eigenvalues) @ spec.left
        assert np.abs(recon - m).max() < 1e-10


def test_spectrum_rejects_closed_gap():
    with pytest.raises(ValueError):
        lo.liouvillian_spectrum(0.0, 0.5, 20.0, 0.01)


# ----------------------------------------------------------------- steady state

def test_steady_state_values_at_crossing():
    c = lo.steady_state(0.1, 0.0, 20.0)
    assert abs(c[1] + np.tanh(2.0) / np.sqrt(2)) < 1e-12
    assert c[2] == 0.0 and abs(c[3]) < 1e-12


def test_steady_state_is_gibbs():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, z, beta = rng.uniform(0.05, 1), rng.uniform(-1, 1), rng.uniform(0.5, 40)
        rho = lo.coherence_to_density(lo.steady_state(x, z, beta))
        ham = np.array([[z, x], [x, -z]])
        gibbs = expm(-beta * ham)
        gibbs /= np.trace(gibbs)
        assert np.abs(rho - gibbs).max() < 1e-12


def test_steady_state_infinite_temperature():
    c = lo.steady_state(0.1, 0.5, 1e-12)
    assert np.abs(c[1:]).max() < 1e-9


def test_steady_state_of_an_array_z_is_the_scalar_calls():
    # each row is the Gibbs vector at its own z, bit for bit; reading the
    # kernel vector as right[:, 0] gave rows (1/sqrt2, 0, 0, 0) for any z array
    zs = np.array([-0.5, 0.3, 0.0, 2.0])
    got = lo.steady_state(0.1, zs, 5.0)
    assert got.shape == (4, 4)
    for z, row in zip(zs, got):
        assert np.array_equal(row, lo.steady_state(0.1, float(z), 5.0)), z


def test_steady_state_in_kernel_on_grid():
    for z in np.linspace(-1, 1, 9):
        for temp in (0.05, 0.1, 0.5, 1.0):
            c = lo.steady_state(0.1, z, 1.0 / temp)
            m = lo.liouvillian_matrix(0.1, z, 1.0 / temp, 0.01)
            assert np.abs(m @ c).max() < 1e-12


# -------------------------------------------------------------------- evolution

def test_master_trace_conserved():
    c = lo.evolve_master(P_STD)
    assert abs(c[0] - 1 / np.sqrt(2)) < 1e-12
    assert np.abs(np.asarray(c).imag).max() == 0.0 if np.iscomplexobj(c) else True


def test_master_unitary_limit_preserves_purity():
    p = lo.OpenParams(0.1, -1, 1, 10.0, 0.05, 0.0)
    rho = lo.coherence_to_density(lo.evolve_master(p))
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-9


def test_master_positivity_along_path():
    # the smallest eigenvalue (c_0 - |c_vec|)/sqrt2 of rho(t) at 100 checkpoints
    def rhs(t, c):
        return lo.liouvillian_matrix(P_STD.x, float(P_STD.z(t)), P_STD.beta, P_STD.g) @ c

    times = np.linspace(0.0, P_STD.t_f, 101)
    c, mins = lo.steady_state(P_STD.x, P_STD.z_i, P_STD.beta), []
    for t0, t1 in zip(times[:-1], times[1:]):
        c = numkit.integrate_ode(rhs, c, t0, t1)
        mins.append((c[0] - np.linalg.norm(c[1:])) / np.sqrt(2.0))
    assert min(mins) > -1e-8


def test_master_against_dop853_oracle():
    # the generator integrated by the DOP853 pair at 1e-13/1e-15; the default
    # tolerance bounds the step-doubling difference, and the returned state
    # is about a sixty-third of it off (the former DOP853 evolution: 2.6e-10 at t_f = 304).
    # The trace distances computed from the two states are within sqrt(3/2) (tol +
    # the oracle's error): both first components are 1/sqrt2, and the distance is
    # 1-Lipschitz in the other three over sqrt2
    tol, oracle_err = 1e-10 + 1e-12, 1e-13 + 1e-15
    for temp in (0.05, 1.0):
        for tf in (8.5, 304.0, 1e3):
            p = lo.OpenParams(0.1, -1.0, 1.0, tf, temp, 0.01)
            got, want = lo.evolve_master(p), master_ode_state(p, 1e-13, 1e-15)
            err = np.abs(got - want).max()
            assert err <= tol, (temp, tf, err)
            states = [lo.adiabatic_state_open(p)]
            states += [lo.aia_state_open(p, lo.switching_times_open(p, s)) for s in (1, 2, 3, 4)]
            dtaus = np.linspace(-tf, tf, 7)

            def distances(c):
                return np.append(lo.trace_distance(np.array(states), c),
                                 lo.aia_distance_grid(p, dtaus, c))

            gap = np.abs(distances(got) - distances(want)).max()
            assert gap <= np.sqrt(1.5) * (tol + oracle_err), (temp, tf, gap)


def test_magnus_coherence_is_eighth_order_against_dop853_oracle():
    # fixed step counts, no step doubling: each halving of the step divides the
    # error against the oracle by about 2^8 (by 2^6 at sixth order, 2^9 at ninth);
    # the n's keep the finest error, ~2e-12, above the oracle's own (~3e-14, the
    # error at n = 1600)
    for args in ((0.25, -1.0, 1.0, 30.0, 0.3, 1e-3), (0.5, -2.0, 1.5, 20.0, 1.0, 0.1)):
        p = lo.OpenParams(*args)
        want = master_ode_state(p, 1e-13, 1e-15)
        c0 = lo.steady_state(p.x, p.z_i, p.beta)
        errs = [np.abs(lo._magnus_coherence(p, n, c0) - want).max() for n in (40, 80, 160)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 230.0 < coarse / fine < 320.0, (p, errs)
        assert errs[-1] > 30 * np.abs(lo._magnus_coherence(p, 1600, c0) - want).max()


@pytest.mark.parametrize("norm", [0.3, 0.5, 1.0, 2.0, 4.0])
def test_expm1_matches_scipy_expm_after_scaling_and_squaring(norm):
    # step exponents of the damped qubit's generator, scaled to a 2-norm up to 4:
    # halved s times to at most 1/2, exp - 1 by the degree-14 series, squared back.
    # Within 1e-13 of scipy's exp - 1 relative to the largest entry (scipy's own
    # error reaches 3.9e-14 at norm 4) and within 2e-15 of a 40-digit mpmath
    # exponential; the first row, that of the trace, stays exactly zero
    mpmath = pytest.importorskip("mpmath")
    p = lo.OpenParams(0.25, -1.0, 1.0, 20.0, 0.3, 0.1)
    h = p.t_f / 16
    mid = np.arange(16) + 0.5
    gens = lo.liouvillian_matrix(p.x, p.z((mid + lo._NODES[:, None] / 2.0) * h), p.beta, p.g)
    omega = lo._step_exponent(*((h * lo._MOMENTS) @ gens.reshape(4, -1)).reshape(gens.shape))
    omega *= norm / np.linalg.norm(omega, 2, axis=(1, 2))[:, None, None]
    squarings = max(0, int(np.ceil(np.log2(2.0 * norm))))
    got = lo._expm1(omega, squarings)
    want = np.array([expm(m) for m in omega]) - np.eye(4)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= 1e-13 * scale
    with mpmath.workdps(40):
        exact = np.array([np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=float)
                          for m in omega]) - np.eye(4)
    assert np.abs(got - exact).max() <= 2e-15 * scale
    assert np.all(got[:, 0] == 0.0)


def _counting_magnus(mp, passes):
    """Record the step count of every Magnus product that :mod:`aia.lindblad_open` runs."""
    real = lo._magnus_coherence
    mp.setattr(lo, "_magnus_coherence", lambda p, n, c: (passes.append(n), real(p, n, c))[1])


def test_master_beyond_the_step_budget_raises_before_stepping(monkeypatch):
    # each 4x4 step counts as 56 two-level steps: at t_f = 1e6 the first pair's
    # 3n steps (n = 9.4e5) fit the budget, but not 56 times over
    passes = []
    _counting_magnus(monkeypatch, passes)
    for tf in (1e30, 1e6):
        with pytest.raises(numkit.IntegrationError, match="exceeds the budget"):
            lo.evolve_master(lo.OpenParams(0.1, -1.0, 1.0, tf, 0.5, 0.01))
    assert passes == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1e-10])
def test_master_rejects_a_bad_tol_before_stepping(monkeypatch, bad):
    passes = []
    _counting_magnus(monkeypatch, passes)
    with pytest.raises(ValueError, match=f"^tol must be finite and positive, got {bad}$"):
        lo.evolve_master(P_STD, bad)
    assert passes == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
def test_master_rejects_a_non_finite_tolerance_before_stepping(monkeypatch, name, bad):
    # a sweep passes its exact states rel_tol + abs_tol: a config built without
    # the parser's checks, with one of the two not finite, fails its rows with
    # the evolution's ValueError before any step
    passes = []
    _counting_magnus(monkeypatch, passes)
    params = {"x": 0.1, "z_i": -1.0, "z_f": 1.0, "g": 0.01}
    cfg = sweeps.SweepConfig("open", params, 1.0, 10.0, 2, temperatures=(0.5,))
    setattr(cfg, name, bad)
    row = sweeps._compute_task((cfg, 10.0, 0.5))
    assert row["err"] == f"ValueError: tol must be finite and positive, got {bad}"
    assert passes == []


def test_steady_state_dz_against_central_differences():
    for x, z, temp in ((0.1, -1.0, 0.05), (0.1, 0.3, 1.0), (0.5, 1.5, 0.3), (1e-3, -50.0, 0.05)):
        beta, dz = 1.0 / temp, 1e-5 * max(1.0, abs(z))
        want = (lo.steady_state(x, z + dz, beta) - lo.steady_state(x, z - dz, beta)) / (2.0 * dz)
        got = lo._steady_state_dz(x, np.array([z, z]), beta)
        assert got.shape == (2, 4)
        assert np.abs(got - want).max() <= 1e-7 * max(1.0, np.abs(want).max()), (x, z, got, want)


def _pairs(p, rel_tol):
    """The step counts of evolve_master's Magnus runs at tol = rel_tol + rel_tol / 100."""
    passes = []
    with pytest.MonkeyPatch.context() as mp:
        _counting_magnus(mp, passes)
        lo.evolve_master(p, rel_tol + rel_tol / 100.0)
    return passes


def test_master_takes_one_pair_across_a_per_cent_of_t_f():
    # the error bound sets the first pair, so it meets the tolerance whatever the
    # phase of the oscillating error; with the first pair set by the step norm
    # alone, t_f = 306.43 took a second pair and t_f = 303.92 did not
    for tf in (92.37, 303.92):
        counts = []
        for scale in np.linspace(1.0, 1.01, 6):
            passes = _pairs(lo.OpenParams(0.1, -1.0, 1.0, tf * scale, 0.05, 0.01), 1e-10)
            assert len(passes) == 2 and passes[1] == 2 * passes[0], (tf * scale, passes)
            counts.append(passes[0])
        assert counts[-1] / counts[0] < 1.01, counts


def test_master_takes_one_pair_on_every_shipped_row():
    # the first pair comes from the Magnus remainder, so every row of the two open
    # configs, at every temperature, meets its tolerance with it
    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(f for f in os.listdir(root) if f.startswith("open_"))
    assert names == ["open_scenarios.cfg", "open_temperature_sweep.cfg"]
    for name in names:
        cfg = sweeps.load_config(os.path.join(root, name))
        pipe = sweeps.pipeline(cfg)
        for tf in cfg.tf_grid():
            for temp in pipe.temperatures:
                passes = []
                with pytest.MonkeyPatch.context() as mp:
                    _counting_magnus(mp, passes)
                    lo.evolve_master(pipe.params(float(tf), temp), cfg.rel_tol + cfg.abs_tol)
                assert len(passes) == 2 and passes[1] == 2 * passes[0], (name, tf, temp, passes)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(hst.floats(0.03, 1.0), hst.floats(0.1, 2.0), hst.floats(0.1, 2.0),
       hst.floats(1.0, 300.0), hst.floats(0.02, 2.0), hst.floats(0.0, 0.3),
       hst.sampled_from([1e-8, 1e-10, 1e-12]))
# t_f = 1, T = 1, g = 0 at 1e-12 + 1e-14: the sixth-order leading-order bound took
# pairs of (29, 58) and then (35, 70) steps
@example(0.25, 1.0, 0.5, 1.0, 1.0, 0.0, 1e-12)
def test_master_first_pair_meets_the_tolerance_at_random_parameters(x, minus_z_i, z_f, tf,
                                                                    temp, g, rel_tol):
    passes = _pairs(lo.OpenParams(x, -minus_z_i, z_f, tf, temp, g), rel_tol)
    assert len(passes) == 2, passes


def test_master_closed_limit_against_parabolic_cylinder_oracle():
    # at g = 0 the Gibbs state (1 - th) 1/2 + th |psi><psi|, th = tanh(beta b_i),
    # keeps its mixture while psi follows the exact finite-time solution
    for temp in (0.05, 1.0):
        for tf in (8.5, 304.0, 1e3):
            p = lo.OpenParams(0.1, -1.0, 1.0, tf, temp, 0.0)
            psi = parabolic_cylinder_state(p.x, p.z_i, p.z_f, p.t_f)
            th = np.tanh(p.beta * np.hypot(p.x, p.z_i))
            want = ((1.0 - th) * np.array([1.0 / np.sqrt(2.0), 0.0, 0.0, 0.0])
                    + th * density_to_coherence(np.outer(psi, psi.conj())))
            err = np.abs(lo.evolve_master(p) - want).max()
            assert err <= 1e-10 + 1e-12, (temp, tf, err)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(hst.floats(0.02, 1.0), hst.floats(0.1, 2.0), hst.floats(0.1, 2.0),
       hst.floats(0.1, 100.0), hst.floats(0.02, 2.0), hst.floats(0.0, 0.3))
def test_master_properties_at_random_parameters(x, minus_z_i, z_f, tf, temp, g):
    p = lo.OpenParams(x, -minus_z_i, z_f, tf, temp, g)
    tol = 1e-10 + 1e-12
    c = lo.evolve_master(p)
    # the generator's first row is zero, and so is every step's deviation
    # from the identity: the trace component is never rounded
    assert c[0] == 1.0 / np.sqrt(2.0)
    assert (c[0] - np.linalg.norm(c[1:])) / np.sqrt(2.0) >= -tol
    assert 0.0 <= lo.trace_distance(c, lo.adiabatic_state_open(p)) <= 1.0 + tol
    # a trace distance of two states lies in [0, 1]; the AIA vector is not
    # clamped to a state, and the rows where it is none are only >= 0
    dtaus = np.linspace(-tf, tf, 41)
    aia = lo._aia_coherences(p, tf / 2.0 - dtaus / 2.0, tf / 2.0 + dtaus / 2.0)
    is_state = aia[:, 0] - np.linalg.norm(aia[:, 1:], axis=-1) >= 0.0
    rows = lo.aia_distance_grid(p, dtaus, c)
    assert np.all(rows >= 0.0) and np.all(rows[is_state] <= 1.0 + tol)


def test_master_approaches_final_gibbs_slowly():
    # the distance to the final Gibbs state decreases with t_f
    d = []
    for tf in (100.0, 1000.0):
        p = lo.OpenParams(0.1, -1, 1, tf, 0.05, 0.01)
        c = lo.evolve_master(p)
        d.append(lo.trace_distance(c, lo.steady_state(p.x, p.z_f, p.beta)))
    assert d[1] < d[0]
    assert d[1] < 1e-3


# ------------------------------------------------------- adiabatic / AIA states

def test_adiabatic_open_is_final_steady_state():
    assert np.allclose(lo.adiabatic_state_open(P_STD),
                       lo.steady_state(0.1, 1.0, 20.0))


def test_adiabatic_open_unit_trace():
    assert abs(lo.adiabatic_state_open(P_STD)[0] - 1 / np.sqrt(2)) < 1e-15


def test_zero_geometric_connection_finite_differences():
    step = 1e-6
    for z in (-0.5, 0.0, 0.8):
        sp = lo.liouvillian_spectrum(0.1, z + step, 20.0, 0.01)
        sm = lo.liouvillian_spectrum(0.1, z - step, 20.0, 0.01)
        s0 = lo.liouvillian_spectrum(0.1, z, 20.0, 0.01)
        for j in range(4):
            dr = (sp.right[:, j] - sm.right[:, j]) / (2 * step)
            assert abs(np.dot(s0.left[j], dr)) < 1e-8


def test_aia_open_collapse_at_endpoint():
    st = SwitchingTimes(P_STD.t_f, P_STD.t_f, "collapsed")
    got = lo.aia_state_open(P_STD, st)
    assert np.abs(got - lo.adiabatic_state_open(P_STD)).max() < 1e-14


def test_aia_open_interior_collapse_damps_to_adiabatic():
    p = lo.OpenParams(0.1, -1, 1, 1e5, 0.5, 0.05)
    st = SwitchingTimes(3e4, 3e4, "collapsed")
    d = lo.trace_distance(lo.aia_state_open(p, st), lo.adiabatic_state_open(p))
    assert d < 1e-6


def test_aia_open_trace_row():
    st = SwitchingTimes(10.0, 30.0, "interior")
    c = lo.aia_state_open(P_STD, st)
    assert abs(c[0] - 1 / np.sqrt(2)) < 1e-12


def _spectral_sum_aia(p, tm, tp):
    """The AIA coherence vector as the explicit spectral sum over the
    eigenvectors of liouvillian_spectrum (one window)."""
    spec_p = lo.liouvillian_spectrum(p.x, float(p.z(tp)), p.beta, p.g)
    spec_f = lo.liouvillian_spectrum(p.x, p.z_f, p.beta, p.g)
    r1_m = lo.liouvillian_spectrum(p.x, float(p.z(tm)), p.beta, p.g).right[:, 0]
    rate_int, delta_int = lo._rate_integrals(p, tp, p.t_f), -2.0 * dynamical_phase_gs(p, tp, p.t_f)
    decay = np.exp(np.array([0.0, -rate_int, -0.5 * rate_int - 1j * delta_int,
                             -0.5 * rate_int + 1j * delta_int]))
    return sum(decay[j] * np.dot(spec_p.left[j], r1_m) * spec_f.right[:, j] for j in range(4))


def test_aia_coherences_match_spectral_sum():
    rng = np.random.default_rng(13)
    for p in (P_STD, lo.OpenParams(0.3, -0.7, 1.3, 20.0, 0.5, 0.05)):
        tm, tp = rng.uniform(0.0, p.t_f, (2, 40))  # about half the windows reversed
        tm[:3], tp[:3] = (0.0, p.t_f, 0.3 * p.t_f), (p.t_f, 0.0, 0.3 * p.t_f)
        got = lo._aia_coherences(p, tm, tp)
        assert got.shape == (40, 4) and not np.iscomplexobj(got)
        for i in range(40):
            want = _spectral_sum_aia(p, tm[i], tp[i])
            assert np.abs(got[i] - want).max() < 1e-14


def test_aia_distance_grid_matches_scalar_state():
    p = lo.OpenParams(0.1, -1, 1, 60.0, 0.05, 0.01)
    c_exact = lo.evolve_master(p)
    dtaus = np.concatenate([np.linspace(-p.t_f, p.t_f, 41), [0.37, -13.1]])
    grid = lo.aia_distance_grid(p, dtaus, c_exact)
    for dt, dg in zip(dtaus, grid):
        d = lo.trace_distance(lo.aia_state_open(p, switching_from_dtau(p, dt)), c_exact)
        assert abs(d - dg) < 1e-15


# the shipped open configs (x = 0.1, z = -1 -> 1, g = 0.01) at four temperatures and
# t_f across their 1..1000 sweep, then random OpenParams with t_f up to 1e3
_SHIPPED_OPEN = [lo.OpenParams(0.1, -1.0, 1.0, tf, temp, 0.01)
                 for tf, temp in ((1.0, 0.05), (8.5, 0.1), (304.0, 0.5), (1e3, 1.0))]
_RANDOM_OPEN = hst.builds(lambda x, zi, zf, tf, temp, g: lo.OpenParams(
    10.0 ** x, -10.0 ** zi, 10.0 ** zf, 10.0 ** tf, 10.0 ** temp, g),
    hst.floats(-2, 1), hst.floats(-2, 1.5), hst.floats(-2, 1.5), hst.floats(-1, 3),
    hst.floats(-2, 1), hst.floats(0, 0.5))


def _check_tail_sums_against_one_window_path(p, rng):
    # a shuffled scan grid with repeats and both ends; a sum of up to n cells and a
    # direct interval each carry about n eps int_0^t_f |l_2| of rounding at most
    c_exact = lo.evolve_master(p)
    dtaus = rng.permutation(np.concatenate([np.linspace(-p.t_f, p.t_f, 41),
                                            [0.3 * p.t_f, 0.3 * p.t_f, -p.t_f, p.t_f]]))
    bound = dtaus.size * np.finfo(float).eps * lo._rate_integrals(p, 0.0, p.t_f)
    grid = lo.aia_distance_grid(p, dtaus, c_exact)
    for dt, dg in zip(dtaus, grid):
        d = lo.trace_distance(lo.aia_state_open(p, switching_from_dtau(p, dt)), c_exact)
        assert abs(d - dg) <= bound, (p, dt)
        assert np.all(grid[dtaus == dt] == dg)  # repeats read the same sum
    # one window is one interval, with the bits of the direct call, at 0-d as in an array
    for tp in (0.0, 0.37 * p.t_f, p.t_f):
        direct = lo._rate_integrals(p, tp, p.t_f)
        assert lo._tail_rate_integrals(p, tp) == direct
        assert lo._tail_rate_integrals(p, np.array([tp])) == direct
        assert lo.aia_distance_grid(p, p.t_f - 2.0 * tp, c_exact) == lo.trace_distance(
            lo.aia_state_open(p, switching_from_dtau(p, p.t_f - 2.0 * tp)), c_exact)


def _check_tail_sums_against_mpmath(p):
    # the 601-point scan of optimize_dtau_open: each sum within n eps int_0^t_f |l_2|
    tp = p.t_f / 2.0 + np.linspace(-p.t_f, p.t_f, 601) / 2.0
    sums = lo._tail_rate_integrals(p, tp[::-1])[::-1]
    bound = tp.size * np.finfo(float).eps * rate_integral(p, 0.0, p.t_f)
    for i in (0, 150, 300, 451, 599, 600):
        assert abs(sums[i] - rate_integral(p, tp[i], p.t_f)) <= bound, (p, i)


@pytest.mark.parametrize("p", _SHIPPED_OPEN, ids=lambda p: f"tf{p.t_f:g}-T{p.T:g}")
def test_tail_rate_sums_on_shipped_parameters(p):
    _check_tail_sums_against_one_window_path(p, np.random.default_rng(7))
    _check_tail_sums_against_mpmath(p)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(_RANDOM_OPEN, hst.integers(0, 2 ** 32 - 1))
def test_tail_rate_sums_at_random_parameters(p, seed):
    _check_tail_sums_against_one_window_path(p, np.random.default_rng(seed))
    _check_tail_sums_against_mpmath(p)


def test_rate_integrals_broadcast_like_scalar_calls():
    t_a = np.array([0.0, 10.0, 24.9, 50.0])
    rate_int = lo._rate_integrals(P_STD, t_a, P_STD.t_f)
    for i, t in enumerate(t_a):
        r = lo._rate_integrals(P_STD, t, P_STD.t_f)
        assert isinstance(r, float)
        assert abs(rate_int[i] - r) <= 1e-15 * r


def test_rate_integrals_match_mpmath_at_kink_and_corner():
    # x = 1e-6, T = 1e-4: a kink of width ~1e-6 at the crossing; x = 1e-3,
    # z in [-50, 30], T = 0.05: theta = asinh(z / x) spans 23 units, 23 panels.
    # 1e-14 relative on wide intervals and on short ones away from the crossing,
    # since the panel width comes from z_b - z_a, not from two asinh values
    for p in (lo.OpenParams(1e-6, -1, 1, 1e3, 1e-4, 0.3),
              lo.OpenParams(1e-3, -50, 30, 1e3, 0.05, 0.01),
              lo.OpenParams(1e-3, -50, 30, 1e5, 0.05, 0.01)):
        for t_a, t_b in ((0.0, p.t_f), (0.3 * p.t_f, 0.9 * p.t_f), (0.7 * p.t_f, p.t_f),
                         (0.9999 * p.t_f, p.t_f)):
            want = rate_integral(p, t_a, t_b)
            got = lo._rate_integrals(p, t_a, t_b)
            assert abs(got - want) <= 1e-14 * want, (p, t_a, t_b)


@pytest.mark.parametrize("t_a, t_b", [(0.9999, 1.0), (0.0, 1e-4), (0.3, 0.3001)])
def test_rate_integrals_keep_their_relative_accuracy_on_short_intervals(t_a, t_b):
    # the open-sweep parameters at t_f = 304: a difference of two asinh(z / x)
    # near asinh(10) = 3 lost eps |theta| / |theta_b - theta_a| relative, and
    # [0.9999 t_f, t_f] was 2600 eps off; in z_b - z_a it is within 10 eps
    p = lo.OpenParams(0.1, -1.0, 1.0, 304.0, 0.05, 0.01)
    want = rate_integral(p, t_a * p.t_f, t_b * p.t_f, dps=40)
    got = lo._rate_integrals(p, t_a * p.t_f, t_b * p.t_f)
    assert abs(got - want) <= 10 * np.finfo(float).eps * want, (got - want) / want


def test_rate_integrals_open_sweep_use_at_most_six_panels(monkeypatch):
    # the open-sweep parameters: T = 0.05, t_f 8.5..304; theta = asinh(z / x)
    # spans 2 asinh(10) = 6.0 over the sweep, so no window of the optimizer's
    # grid takes more than 6 panels of 12 nodes, and each result matches the oracle
    shapes = []
    rate = lo._damping_rate
    monkeypatch.setattr(lo, "_damping_rate", lambda delta, *a: shapes.append(delta.shape)
                        or rate(delta, *a))
    for tf in np.geomspace(1.0, 1000.0, 30)[9:25:5]:
        p = lo.OpenParams(0.1, -1, 1, tf, 0.05, 0.01)
        t_a = tf / 2 + np.linspace(-tf, tf, 601) / 2
        shapes.clear()
        got = lo._rate_integrals(p, t_a, tf)
        assert shapes == [(601, 6, 12)]
        for i in (0, 150, 300, 451, 600):
            want = rate_integral(p, t_a[i], tf)
            assert abs(got[i] - want) <= 1e-14 * want, (tf, i)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(hst.floats(-3, 1), hst.floats(-2, 1.7), hst.floats(-2, 1.7), hst.floats(-1, 5),
       hst.floats(-3, 1), hst.floats(0, 0.5),
       hst.lists(hst.floats(0, 1), min_size=3, max_size=3))
def test_rate_integrals_add_over_adjacent_intervals(log_x, log_zi, log_zf, log_tf, log_t, g,
                                                    cuts):
    # x, |z_i|, z_f, t_f and T over decades around the shipped sweeps, g up to 0.5
    p = lo.OpenParams(10.0 ** log_x, -10.0 ** log_zi, 10.0 ** log_zf, 10.0 ** log_tf,
                      10.0 ** log_t, g)
    t_a, t_b, t_c = np.sort(cuts) * p.t_f
    ab, bc, ac = lo._rate_integrals(p, np.array([t_a, t_b, t_a]), np.array([t_b, t_c, t_c]))
    assert np.isfinite([ab, bc, ac]).all() and min(ab, bc, ac) >= 0.0
    assert abs(ab + bc - ac) <= 1e-14 * ac


# ----------------------------------------------------------- gap, trace distance

def test_rate_integrals_against_quad_oracle():
    # [10, 40] of t_f = 50 spans the crossing at t = 25 (z from -0.6 to 0.6)
    p = P_STD
    rate_int = lo._rate_integrals(p, 10.0, 40.0)
    delta_int = -2.0 * dynamical_phase_gs(p, 10.0, 40.0)

    def rate(t):
        delta = 2.0 * p.b(t)
        return lo.spectral_gamma(delta, p.beta, p.g) + lo.spectral_gamma(-delta, p.beta, p.g)

    opts = dict(points=[25.0], epsabs=1e-14, epsrel=1e-13, limit=200)
    rate_oracle, _ = quad(rate, 10.0, 40.0, **opts)
    delta_oracle, _ = quad(lambda t: 2.0 * p.b(t), 10.0, 40.0, **opts)
    assert abs(rate_int - rate_oracle) < 1e-12 * rate_oracle
    assert abs(delta_int - delta_oracle) < 1e-12 * delta_oracle
    assert lo._rate_integrals(p, 17.0, 17.0) == 0.0


def test_liouvillian_gap_expansions_near_crossing():
    # the |l_2| expansion 4 pi g^2 T + (pi g^2 / 3T) Delta^2 and, once the
    # gap is far below the thermal rate, |l_3| -> 2 pi g^2 T < |l_2|
    g, temp = 0.01, 0.5
    beta = 1.0 / temp
    x = 1e-5
    delta = 2 * x  # z = 0
    s = lo.spectral_gamma(delta, beta, g) + lo.spectral_gamma(-delta, beta, g)
    assert abs(s - (4 * np.pi * g * g * temp
                    + np.pi * g * g * delta ** 2 / (3 * temp))) < 1e-12
    l3 = np.hypot(0.5 * s, delta)
    assert lo.liouvillian_gap(x, 0.0, beta, g) == pytest.approx(min(s, l3))
    assert l3 < s  # deep in the near-degenerate regime the pair sets the gap
    assert abs(l3 - 2 * np.pi * g * g * temp) < 0.02 * l3


def test_liouvillian_gap_positive_everywhere():
    for z in np.linspace(-1, 1, 21):
        assert lo.liouvillian_gap(0.1, z, 20.0, 0.01) > 0


def test_trace_distance_cases():
    up = density_to_coherence(np.diag([1.0, 0.0]).astype(complex))
    down = density_to_coherence(np.diag([0.0, 1.0]).astype(complex))
    mixed = density_to_coherence(np.eye(2) / 2)
    assert lo.trace_distance(up, up) == 0.0
    assert abs(lo.trace_distance(up, down) - 1.0) < 1e-14
    assert abs(lo.trace_distance(up, mixed) - 0.5) < 1e-14


def test_trace_distance_against_eigvalsh_oracle():
    # random Hermitian pairs, traces unequal (d_0 != 0) in general
    rng = np.random.default_rng(14)
    ca, cb = rng.standard_normal((2, 50, 4))
    ca[:10, 0] = cb[:10, 0]  # and some with equal traces
    got = lo.trace_distance(ca, cb)
    for i in range(50):
        diff = lo.coherence_to_density(ca[i] - cb[i])
        want = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
        assert abs(got[i] - want) < 1e-14 * max(1.0, want)
        assert lo.trace_distance(ca[i], cb[i]) == got[i]


def test_trace_distance_cptp_contraction():
    p = lo.OpenParams(0.1, -1, 1, 40.0, 0.5, 0.1)
    prop = itw.exact_propagator(p, 1.0)
    rng = np.random.default_rng(12)
    for _ in range(10):
        # random pair of valid states via random Bloch vectors
        def rand_state():
            v = rng.standard_normal(3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            return np.array([1 / np.sqrt(2), v[0] / np.sqrt(2),
                             v[1] / np.sqrt(2), v[2] / np.sqrt(2)])

        ca, cb = rand_state(), rand_state()
        d_before = lo.trace_distance(ca, cb)
        d_after = lo.trace_distance(prop @ ca, prop @ cb)
        assert d_after <= d_before + 1e-9


def test_coherence_vectors_stay_real():
    c = lo.evolve_master(P_STD)
    assert not np.iscomplexobj(c)
    st = SwitchingTimes(10.0, 20.0, "interior")
    assert not np.iscomplexobj(lo.aia_state_open(P_STD, st))


# ------------------------------------------------------------------- delegation

def test_switching_times_delegate_to_closed_formulas():
    from aia import lz_closed as lz
    for scenario in (1, 2, 3, 4):
        got = lo.switching_times_open(P_STD, scenario)
        want = lz.switching_times(lz.LzParams(P_STD.x, P_STD.z_i, P_STD.z_f, P_STD.t_f),
                                  scenario)
        assert (got.tau_minus, got.tau_plus, got.regime) == \
            (want.tau_minus, want.tau_plus, want.regime)


def test_optimizer_open_dominates_adiabatic():
    p = lo.OpenParams(0.1, -1, 1, 100.0, 0.05, 0.01)
    c_exact = lo.evolve_master(p)
    _, d_opt = lo.optimize_dtau_open(p, c_exact=c_exact)
    d_adi = lo.trace_distance(c_exact, lo.adiabatic_state_open(p))
    assert d_opt <= d_adi + 1e-12
