"""Spectral transport: kernel product, holonomy, full transport, Choi checks."""

import numpy as np
import pytest
from dataclasses import replace
from scipy.linalg import expm

from aia import intertwiner as itw
from aia import lindblad_open as lo
from aia import numkit
import oracles

P_STD = lo.OpenParams(x=0.25, z_i=-1.0, z_f=1.0, t_f=100.0, T=0.3, g=1e-3)


class _FrozenPath:
    """Time-independent generator path (z pinned), for idempotence checks."""

    def __init__(self, z0, t_f=30.0, x=0.25, T=0.3, g=1e-3):
        self.x, self.z_i, self.z_f, self.t_f, self.T, self.g = x, -1.0, 1.0, t_f, T, g
        self._z0 = z0

    @property
    def beta(self):
        return 1.0 / self.T

    def z(self, t):
        return self._z0 + 0.0 * np.asarray(t)


def _kernel_product(p, n_steps):
    """Ordered product P_1(t_f) ... P_1(t_f / n_steps) P_1(0) of kernel projectors."""
    out = itw.kernel_projector(p, 0.0)
    for j in range(1, n_steps + 1):
        out = itw.kernel_projector(p, p.t_f * j / n_steps) @ out
    return out


def _kernel_connection(p, t, step=1e-6):
    """A_1 = L_1 . dR_1/dt with dR_1/dt by central differences of the spectrum."""
    spec_p = lo.liouvillian_spectrum(p.x, float(p.z(t + step)), p.beta, p.g)
    spec_m = lo.liouvillian_spectrum(p.x, float(p.z(t - step)), p.beta, p.g)
    spec_0 = lo.liouvillian_spectrum(p.x, float(p.z(t)), p.beta, p.g)
    return complex(np.dot(spec_0.left[0], (spec_p.right[:, 0] - spec_m.right[:, 0]) / (2 * step)))


# ----------------------------------------------------------- projectors, kernel

def test_projector_completeness_along_path():
    for s in np.linspace(0.01, 0.99, 11):
        ps = itw.spectral_projectors(P_STD, s)
        assert np.abs(sum(ps) - np.eye(4)).max() < 1e-10
        for pn in ps:
            assert np.abs(pn @ pn - pn).max() < 1e-12


@pytest.mark.parametrize("p", [P_STD, replace(P_STD, x=0.1, T=0.05, g=0.01),
                               replace(P_STD, x=1.0, T=2.0, g=0.2)])
def test_projectors_and_commutator_match_loop_oracles_bitwise(p):
    # the transport references carry the central difference's rounding, amplified
    # by 1/2h: the broadcast build must reproduce the scalar loop bit for bit, for
    # a scalar s and for each entry of an array of s (the transport's stage times)
    ss = np.concatenate([[0.0, 1.0, 0.5], np.random.default_rng(13).uniform(0.0, 1.0, 200)])
    batch = itw.spectral_projectors(p, ss)
    assert batch.shape == (ss.size, 4, 4, 4)
    terms = itw._commutator_term(p, ss)
    assert terms.shape == (ss.size, 4, 4)
    gens = itw._generators(p, ss.reshape(7, 29), holonomy=True).reshape(ss.size, 4, 4)
    for s, got, term, gen in zip(ss, batch, terms, gens):
        want = oracles.spectral_projectors(p, s)
        assert all(np.array_equal(got[n], want[n]) for n in range(4)), s
        assert np.array_equal(itw.spectral_projectors(p, s), got), s
        want = oracles.commutator_term(p, s, itw._FD_STEP)
        assert np.array_equal(itw._commutator_term(p, s), want), s
        assert np.array_equal(term, want), s
        want = p.t_f * lo.liouvillian_matrix(p.x, float(p.z(s * p.t_f)), p.beta, p.g) + want
        assert np.array_equal(gen, want), s
        assert np.array_equal(itw._generators(p, s, holonomy=True), want), s


def _solve_counting(monkeypatch, solve, q):
    """solve(q) and the rhs calls of its DOP853 run, as scipy counts them."""
    nfev, real = [], numkit.solve_ivp

    def counted(*args, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(numkit, "solve_ivp", counted)
    out = solve(q, 1.0)
    monkeypatch.setattr(numkit, "solve_ivp", real)
    return out, nfev[0]


# the workload's t_f = 10 and 30, and a narrow crossing whose steps are often rejected
@pytest.mark.parametrize("q, min_rejected", [
    (replace(P_STD, t_f=10.0), 1), (replace(P_STD, t_f=30.0), 1),
    (lo.OpenParams(0.05, -3.0, 3.0, 20.0, 0.1, 0.05), 10)], ids=["tf10", "tf30", "rejecting"])
def test_full_transport_bitwise_with_loop_oracle_rhs(monkeypatch, q, min_rejected):
    # U and E of the per-step broadcast generators are those of a rhs that rebuilds the
    # generator from the scalar loop at every call, bit for bit and in the same steps;
    # rejected tries are served from the batch too, so they are covered
    rejected = []
    for solve, fd_step in ((itw.full_intertwiner, itw._FD_STEP), (itw.exact_propagator, None)):
        want, want_nfev, want_rejected = oracles.transport_ode(q, fd_step)
        got, got_nfev = _solve_counting(monkeypatch, solve, q)
        assert np.array_equal(got, want), solve.__name__
        assert got_nfev == want_nfev, solve.__name__
        rejected.append(want_rejected)
    assert min(rejected) >= min_rejected, rejected


@pytest.mark.parametrize("announce", ["nothing", "times one ulp late"])
def test_transport_bits_do_not_depend_on_the_stage_times(monkeypatch, announce):
    # the rhs finds a generator by exact stage time and builds it alone on a miss, so
    # a callback that announces nothing, or the wrong times, costs time but no bit
    q = replace(P_STD, t_f=10.0)
    want = [_solve_counting(monkeypatch, solve, q)
            for solve in (itw.full_intertwiner, itw.exact_propagator)]
    single, real_generators, real_integrate = [], itw._generators, itw.integrate_ode

    def generators(p, s, holonomy):
        single.append(np.ndim(s) == 0)
        return real_generators(p, s, holonomy)

    def integrate(*args, stages, **kwargs):
        wrong = (lambda ts: None) if announce == "nothing" else (
            lambda ts: stages(np.nextafter(ts, np.inf)))
        return real_integrate(*args, stages=wrong, **kwargs)

    monkeypatch.setattr(itw, "_generators", generators)
    monkeypatch.setattr(itw, "integrate_ode", integrate)
    for solve, (u, nfev) in zip((itw.full_intertwiner, itw.exact_propagator), want):
        single.clear()
        got, got_nfev = _solve_counting(monkeypatch, solve, q)
        assert np.array_equal(got, u) and got_nfev == nfev, solve.__name__
        # every rhs call, and the check of the first slope, built its generator alone
        assert sum(single) == nfev + 1, solve.__name__
    # with the true times, only the first slope, its check and the initial-step probe miss
    monkeypatch.setattr(itw, "integrate_ode", real_integrate)
    single.clear()
    itw.full_intertwiner(q, 1.0)
    assert sum(single) == 3


@pytest.mark.parametrize("solve", [itw.full_intertwiner, itw.exact_propagator])
@pytest.mark.parametrize("s", [np.nan, np.inf])
def test_transport_to_a_non_finite_s_raises_at_once(within_10_s, solve, s):
    with pytest.raises(ValueError, match="finite t0 and t1"):
        solve(P_STD, s)


def test_commutator_term_traceless():
    for s in (0.2, 0.5, 0.8):
        term = itw._commutator_term(P_STD, s)
        assert abs(np.trace(term)) < 1e-8


def test_w1_time_independent_is_projector():
    frozen = _FrozenPath(-0.4)
    w = _kernel_product(frozen, 50)
    p1 = itw.kernel_projector(frozen, 0.0)
    assert np.abs(w - p1).max() < 1e-13
    assert np.abs(w - itw.kernel_projector(frozen, frozen.t_f)).max() < 1e-13


def test_w1_mesh_independent_for_flat_connection():
    # the kernel connection vanishes, so 2 mesh points already give the limit
    w2 = _kernel_product(P_STD, 2)
    w200 = _kernel_product(P_STD, 200)
    assert np.abs(w2 - w200).max() < 1e-14
    spec_f = lo.liouvillian_spectrum(P_STD.x, P_STD.z_f, P_STD.beta, P_STD.g)
    spec_0 = lo.liouvillian_spectrum(P_STD.x, P_STD.z_i, P_STD.beta, P_STD.g)
    ref = np.outer(spec_f.right[:, 0], spec_0.left[0]).real
    assert np.abs(w2 - ref).max() < 1e-14
    assert np.abs(w200 - itw.kernel_projector(P_STD, P_STD.t_f)).max() < 1e-14


def test_w1_mesh_doubling_converges():
    a = _kernel_product(P_STD, 10000)
    b = _kernel_product(P_STD, 20000)
    assert np.abs(a - b).max() < 1e-8
    assert np.abs(b - itw.kernel_projector(P_STD, P_STD.t_f)).max() < 1e-8


def test_w1_projector_sandwich_identities():
    w = _kernel_product(P_STD, 64)
    p1_t = itw.kernel_projector(P_STD, P_STD.t_f)
    p1_0 = itw.kernel_projector(P_STD, 0.0)
    assert np.abs(p1_t @ w - w).max() < 1e-8
    assert np.abs(w @ p1_0 - w).max() < 1e-8
    assert np.abs(w - p1_t).max() < 1e-8


def test_kernel_projector_fd_derivative_matches_analytic():
    # the finite-difference dP1/dt used inside the transport ODE, checked
    # against the analytic derivative of the closed-form steady vector
    # R1(z) = (1/sqrt2, -sqrt2 x th / D, 0, -sqrt2 z th / D), th = tanh(beta b)
    p = P_STD
    for t in (13.0, 50.0, 88.0):
        z = float(p.z(t))
        zdot = (p.z_f - p.z_i) / p.t_f
        b = np.hypot(p.x, z)
        th = np.tanh(p.beta * b)
        dth_dz = p.beta * (z / b) * (1.0 - th * th)
        sq2 = np.sqrt(2.0)

        def coeff_deriv(num):  # d/dz of -sqrt2 * num * th / (2 b), num in {x, z}
            dnum = 0.0 if num == p.x else 1.0
            return -sq2 / 2.0 * ((dnum * th + num * dth_dz) / b - num * th * z / b ** 3)

        dr1_dt = zdot * np.array([0.0, coeff_deriv(p.x), 0.0, coeff_deriv(z)])
        # numerical derivative via the same central difference the ODE uses
        step = 1e-6
        sp = lo.liouvillian_spectrum(p.x, float(p.z(t + step)), p.beta, p.g)
        sm = lo.liouvillian_spectrum(p.x, float(p.z(t - step)), p.beta, p.g)
        fd = (sp.right[:, 0] - sm.right[:, 0]).real / (2 * step)
        assert np.abs(fd - dr1_dt).max() < 1e-7


def _closed_form_right_and_derivative(x, z, beta):
    """Right eigenvectors R_n(z) of the generator and their analytic z-derivatives.

    With n = (x, z)/b and th = tanh(beta b): R_1 = (1, -th n_x, 0, -th n_z)/sqrt2,
    R_2 = (0, n_x, 0, n_z), R_3 = (0, -n_z, -i, n_x)/sqrt2, R_4 = conj(R_3);
    dn/dz = (n_x/b) (-n_z, n_x) and dth/dz = beta (1 - th^2) n_z.
    """
    b = np.hypot(x, z)
    nx, nz, th = x / b, z / b, np.tanh(beta * b)
    dnx, dnz, dth = -nx * nz / b, nx * nx / b, beta * (1.0 - th * th) * nz
    sq2 = np.sqrt(2.0)
    right = np.array([[1 / sq2, -th * nx / sq2, 0, -th * nz / sq2], [0, nx, 0, nz],
                      [0, -nz / sq2, -1j / sq2, nx / sq2], [0, -nz / sq2, 1j / sq2, nx / sq2]]).T
    deriv = np.array([[0, -(dth * nx + th * dnx) / sq2, 0, -(dth * nz + th * dnz) / sq2],
                      [0, dnx, 0, dnz], [0, -dnz / sq2, 0, dnx / sq2],
                      [0, -dnz / sq2, 0, dnx / sq2]]).T
    return right, deriv


def test_all_four_connections_vanish_identically():
    # L_n . dR_n/dz for n = 1..4 with the analytic derivative of the closed-form
    # R_n, on a dense z grid: every sector is transported without a connection
    for x, beta, g in ((0.25, 1 / 0.3, 1e-3), (0.1, 20.0, 0.01), (1.0, 0.5, 0.2)):
        for z in np.linspace(-3.0, 3.0, 1201):
            right, deriv = _closed_form_right_and_derivative(x, z, beta)
            spec = lo.liouvillian_spectrum(x, z, beta, g)
            assert np.abs(spec.right - right).max() < 1e-15
            conn = np.einsum("ni,in->n", spec.left, deriv)
            assert np.abs(conn).max() < 1e-14 * (1.0 + np.abs(deriv).max())
    # the analytic derivative is the derivative (central differences, step 1e-6)
    for z in (-0.7, 0.0, 0.05, 1.3):
        _, deriv = _closed_form_right_and_derivative(0.1, z, 20.0)
        r_p, _ = _closed_form_right_and_derivative(0.1, z + 1e-6, 20.0)
        r_m, _ = _closed_form_right_and_derivative(0.1, z - 1e-6, 20.0)
        assert np.abs((r_p - r_m) / 2e-6 - deriv).max() < 1e-7 * (1.0 + np.abs(deriv).max())


def test_holonomy_scalar_vanishes():
    for t in (5.0, 50.0, 95.0):
        assert abs(_kernel_connection(P_STD, t)) < 1e-8


def test_holonomy_consistent_with_product_limit():
    # exp(-int A_1) should equal the scalar part of the projector product;
    # here both are exactly one
    w = _kernel_product(P_STD, 5000)
    spec_f = lo.liouvillian_spectrum(P_STD.x, P_STD.z_f, P_STD.beta, P_STD.g)
    spec_0 = lo.liouvillian_spectrum(P_STD.x, P_STD.z_i, P_STD.beta, P_STD.g)
    scalar = np.dot(spec_f.left[0], w @ spec_0.right[:, 0]).real
    assert abs(scalar - 1.0) < 1e-8
    ts = np.linspace(0.0, P_STD.t_f, 21)
    a1 = np.array([_kernel_connection(P_STD, t) for t in ts])
    holonomy = np.exp(-np.sum(0.5 * (a1[1:] + a1[:-1]) * np.diff(ts)))
    assert abs(scalar - holonomy) < 1e-8


# --------------------------------------------------------------- full transport

def test_full_transport_time_independent_is_exponential():
    frozen = _FrozenPath(-0.4, t_f=30.0)
    u = itw.full_intertwiner(frozen, 1.0)
    gen = lo.liouvillian_matrix(frozen.x, -0.4, frozen.beta, frozen.g)
    assert np.abs(u - expm(30.0 * gen)).max() < 1e-8


def test_full_transport_agrees_with_kernel_transport():
    u = itw.full_intertwiner(P_STD, 1.0)
    w = itw.kernel_projector(P_STD, P_STD.t_f)
    r1_0 = lo.steady_state(P_STD.x, P_STD.z_i, P_STD.beta)
    assert np.abs(u @ r1_0 - w @ r1_0).max() < 1e-8


def test_full_transport_intertwines_projectors():
    u = itw.full_intertwiner(P_STD, 1.0)
    p_end = itw.spectral_projectors(P_STD, 1.0)
    p_start = itw.spectral_projectors(P_STD, 0.0)
    for n in range(4):
        resid = np.abs(p_end[n] @ u - u @ p_start[n]).max()
        assert resid < 1e-6


def test_full_transport_trace_preserving():
    u = itw.full_intertwiner(P_STD, 1.0)
    assert itw.cptp_diagnostics(u)[0] < 1e-9


# ------------------------------------------------------------ Choi diagnostics

def test_choi_identity_map():
    trace_err, min_eig = itw.cptp_diagnostics(np.eye(4))
    assert trace_err < 1e-14 and abs(min_eig) < 1e-14
    w = np.linalg.eigvalsh(itw.choi_matrix(np.eye(4)))
    assert np.allclose(sorted(w), [0, 0, 0, 2], atol=1e-14)


def test_choi_einsum_matches_matrix_unit_loop_on_transports():
    # the transport workload's sweep at its three t_f
    for tf in (10.0, 17.3, 30.0):
        u = itw.full_intertwiner(replace(P_STD, t_f=tf), 1.0)
        assert np.abs(itw.choi_matrix(u) - oracles.choi_matrix(u)).max() <= 1e-15, tf


def test_choi_diagnostics_of_depolarizing_maps():
    # S = diag(1, lam, lam, lam) keeps the trace and shrinks the Bloch vector
    # by lam; its Choi matrix has eigenvalues (1 + 3 lam)/2 once and
    # (1 - lam)/2 three times, so it is CP exactly for -1/3 <= lam <= 1
    eps = np.finfo(float).eps
    for lam in np.linspace(-1.0, 2.0, 61):
        trace_err, min_eig = itw.cptp_diagnostics(np.diag([1.0, lam, lam, lam]))
        assert trace_err <= 2 * eps
        assert abs(min_eig - min((1 + 3 * lam) / 2, (1 - lam) / 2)) <= 8 * eps, lam


def test_choi_exact_propagator_is_cptp():
    prop = itw.exact_propagator(P_STD, 1.0)
    trace_err, min_eig = itw.cptp_diagnostics(prop)
    assert trace_err < 1e-10
    assert min_eig > -1e-9
    # trace preservation in Choi form: partial trace over the output factor
    choi = itw.choi_matrix(prop).reshape(2, 2, 2, 2)
    assert np.abs(np.einsum("ijil->jl", choi) - np.eye(2)).max() < 1e-10
    assert np.abs(itw.choi_matrix(prop)
                  - itw.choi_matrix(prop).conj().T).max() < 1e-12


def test_choi_composition_stays_cptp():
    half = itw.exact_propagator(P_STD, 0.5)
    full = itw.exact_propagator(P_STD, 1.0)
    trace_err, min_eig = itw.cptp_diagnostics(half @ half)
    assert trace_err < 1e-10 and min_eig > -1e-9
    # composing halves of a time-dependent path differs from the full map,
    # but both must be CPTP
    assert itw.cptp_diagnostics(full)[1] > -1e-9


def test_transport_cp_defect_bounded_by_distance_to_exact():
    for tf in (10.0, 100.0):
        q = replace(P_STD, t_f=tf)
        u = itw.full_intertwiner(q, 1.0)
        e = itw.exact_propagator(q, 1.0)
        defect = max(0.0, -itw.cptp_diagnostics(u)[1])
        assert defect <= 2.0 * itw.superop_trace_norm_distance(u, e) + 1e-9


def test_superop_distance_against_eigvalsh_oracle():
    rng = np.random.default_rng(15)
    for _ in range(20):
        s_a, s_b = rng.standard_normal((2, 4, 4))
        want = 0.0
        for g in lo.PAULI_BASIS:
            diff = oracles.apply_superoperator(s_a, g) - oracles.apply_superoperator(s_b, g)
            want = max(want, np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())
        assert abs(itw.superop_trace_norm_distance(s_a, s_b) - want) < 1e-14 * max(1.0, want)


def test_closeness_bound_requires_enough_points():
    with pytest.raises(ValueError):
        itw.closeness_bound_check(P_STD, [10.0, 20.0])


@pytest.mark.parametrize("t_fs", [[10.0, 10.0, 10.0], [10.0, np.nan, 30.0],
                                  [10.0, 20.0, np.inf]])
def test_closeness_bound_refuses_degenerate_or_non_finite_times_before_solving(
        monkeypatch, t_fs):
    def unexpected(*args):
        raise AssertionError("a transport was solved")

    monkeypatch.setattr(itw, "exact_propagator", unexpected)
    with pytest.raises(ValueError, match="t_f"):
        itw.closeness_bound_check(P_STD, t_fs)


def test_closeness_bound_refuses_non_finite_norms(monkeypatch):
    monkeypatch.setattr(itw, "superop_trace_norm_distance", lambda s_a, s_b: np.inf)
    with pytest.raises(ValueError, match="finite"):
        itw.closeness_bound_check(P_STD, [1.0, 2.0, 4.0])


def test_closeness_norm_halves_when_time_doubles():
    fit, norms = itw.closeness_bound_check(P_STD, [200.0, 400.0, 800.0])
    ratios = norms[1:] / norms[:-1]
    assert np.all((0.3 < ratios) & (ratios < 0.7))


def test_closed_limit_transport_error_still_inverse_time():
    p0 = replace(P_STD, g=0.0)
    fit, norms = itw.closeness_bound_check(p0, [100.0, 300.0, 1000.0])
    assert -1.35 < fit.exponent < -0.65
    assert norms[-1] < 0.05


# ------------------------------------------------------- closed-form transport

@pytest.mark.parametrize("tf", [10.0, 17.3, 30.0, 100.0])
def test_full_transport_against_closed_form_oracle(tf):
    # the transport workload's parameters; what is left is the rounding of the
    # finite-difference commutator, lifted to ~1e-10 by dividing by 2 _FD_STEP
    p = replace(P_STD, t_f=tf)
    assert np.abs(itw.full_intertwiner(p) - oracles.closed_form_transport(p)).max() <= 2e-9


def test_full_transport_against_closed_form_oracle_at_random_parameters():
    rng = np.random.default_rng(3)
    for _ in range(6):
        p = lo.OpenParams(10 ** rng.uniform(-1.5, 0.0), -10 ** rng.uniform(-1.0, 0.5),
                          10 ** rng.uniform(-1.0, 0.5), 10 ** rng.uniform(0.5, 1.5),
                          10 ** rng.uniform(-1.5, 0.3), rng.uniform(0.0, 0.1))
        want = oracles.closed_form_transport(p)
        assert np.abs(itw.full_intertwiner(p) - want).max() <= 2e-9, p
        # the oracle preserves the trace: its first row is (1, 0, 0, 0)
        assert np.abs(want[0] - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-14, p
