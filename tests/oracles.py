"""Independent propagators of the two-level crossing and the damped qubit, for
the tests only.

The first two solve i c' = (x sigma_x + z(t) sigma_z) c, z(t) = z_i +
(z_f - z_i) t / t_f, from the ground state at t = 0, by methods that share
nothing with the Magnus propagator of :func:`aia.lz_closed.evolve_schrodinger`:

- :func:`adiabatic_frame_state` integrates the amplitudes in the adiabatic
  frame with the DOP853 pair of :func:`aia.numkit.integrate_ode`;
- :func:`parabolic_cylinder_state` is the exact finite-time solution in
  parabolic-cylinder functions, evaluated with mpmath.

:func:`master_ode_state` integrates the damped qubit's master equation with
the same DOP853 pair, apart from the Magnus propagator of
:func:`aia.lindblad_open.evolve_master`.

:func:`spectral_projectors` and :func:`commutator_term` build the transport's
projectors and its commutator term one scalar spectrum, one ``np.outer`` and
one sector at a time, apart from the broadcast products of
:func:`aia.intertwiner.spectral_projectors` and
:func:`aia.intertwiner._commutator_term`, which must match them bitwise.
:func:`transport_ode` solves the transport and the exact propagator on plain
scipy DOP853 with a rhs that rebuilds the generator from those at every call,
apart from the per-step broadcast generators of :func:`aia.intertwiner._propagate`;
both solves must agree bit for bit, and in their rhs call counts.

:func:`rate_integral` is the damped qubit's rate integral int |l_2| dt by
mpmath quadrature in the time variable, apart from the fixed rule of
:func:`aia.lindblad_open._rate_integrals`. :func:`closed_form_transport` is
the transport superoperator as a sum over the spectral sectors, with that
integral and the gap's by mpmath, apart from the ODE and the finite-difference
commutator of :func:`aia.intertwiner.full_intertwiner`.

:func:`aia_state_oracle` is the adiabatic-impulse state as the sum over the
eigenstates, with eigenvectors from ``numpy.linalg.eigh`` and phases by mpmath
quadrature, apart from the turn angle and closed-form phases of
:func:`aia.lz_closed._frozen_overlaps`.

:func:`golden_section_minimize` refines the best scan point by golden
section, one point at a time, apart from the array zooms of
:func:`aia.numkit.minimize_scalar`. :func:`choi_matrix` builds the Choi
matrix from the images of the 16 matrix units under
:func:`apply_superoperator`, apart from the one ``einsum`` of
:func:`aia.intertwiner.choi_matrix`.

The rest are definitions that only the tests use: the two-level and mode
Hamiltonians, the damped qubit's jump operators, the Pauli coefficients of a
matrix, the chain's ground and excited mode vectors and ground register, and
the centered impulse window of a given interval.
"""

import numpy as np
import pytest

from aia import lindblad_open as lo
from aia import lz_closed as lz
from aia import numkit, tfi


def hamiltonian(x, z):
    """2x2 matrix x sigma_x + z sigma_z."""
    return np.array([[z, x], [x, -z]])


# the tag of a window with tau_plus < tau_minus, which no prescription returns
REGIME_REVERSED = "reversed"


def switching_from_dtau(p, dtau):
    """Centered SwitchingTimes for a given impulse interval (may be reversed)."""
    tm = p.t_f / 2.0 - dtau / 2.0
    tp = p.t_f / 2.0 + dtau / 2.0
    regime = REGIME_REVERSED if dtau < 0 else (
        lz.REGIME_COLLAPSED if dtau == 0 else lz.REGIME_INTERIOR)
    return lz.SwitchingTimes(tm, tp, regime)


def real_gauge_eigenvectors(x, z):
    """(psi_1, psi_2) of :func:`hamiltonian` from ``numpy.linalg.eigh``, signed into the
    real gauge psi_1 = (-sin(theta/2), cos(theta/2)), psi_2 = (cos(theta/2), sin(theta/2)),
    theta = atan2(x, z) in (0, pi): psi_1's second and psi_2's first component positive."""
    vecs = np.linalg.eigh(hamiltonian(x, z))[1]
    return vecs[:, 0] * np.sign(vecs[1, 0]), vecs[:, 1] * np.sign(vecs[0, 1])


def aia_state_oracle(p, tm, tp, dps=30):
    """The AIA state of every crossing of p (one crossing, or the chain's modes) for
    the window (tm, tp), by the sum over the eigenstates j of

        exp(-i delta_j(tau_+, t_f)) exp(-i delta_1(0, tau_-)) <psi_j(tau_+)|psi_1(tau_-)> psi_j(t_f),

    with the eigenvectors of :func:`real_gauge_eigenvectors` and the phases
    delta_1 = -delta_2 = -int b dt by mpmath quadrature in t, split at the
    crossing; shape z_i.shape + (2,)."""
    mpmath = pytest.importorskip("mpmath")
    x, z_i, z_f = np.broadcast_arrays(p.x, p.z_i, p.z_f)
    out = np.empty(x.shape + (2,), dtype=complex)
    for k in np.ndindex(x.shape):
        xk, z_ik, dz = float(x[k]), float(z_i[k]), float(z_f[k] - z_i[k])

        def z(t):
            return z_ik + dz * t / p.t_f

        def gap_integral(t_a, t_b):
            with mpmath.workdps(dps):
                xm, z_im, dzm, t_f = (mpmath.mpf(v) for v in (xk, z_ik, dz, float(p.t_f)))
                t_a, t_b, t_c = mpmath.mpf(float(t_a)), mpmath.mpf(float(t_b)), -z_im * t_f / dzm
                points = [t_a, t_c, t_b] if min(t_a, t_b) < t_c < max(t_a, t_b) else [t_a, t_b]
                return float(mpmath.quad(
                    lambda t: mpmath.sqrt(xm * xm + (z_im + dzm * t / t_f) ** 2), points))

        psi1_m, _ = real_gauge_eigenvectors(xk, z(tm))
        frame_p = real_gauge_eigenvectors(xk, z(tp))
        frame_f = real_gauge_eigenvectors(xk, float(z_f[k]))
        head, tail = gap_integral(0.0, tm), gap_integral(tp, p.t_f)
        out[k] = sum(np.exp(1j * (head + sign * tail)) * (psi_p @ psi1_m) * psi_f
                     for sign, psi_p, psi_f in zip((1, -1), frame_p, frame_f))
    return out


def lindblad_ops(x, z):
    """Jump operators (L_0, L_+, L_-) of the damped qubit at the working point (x, z)."""
    b = np.hypot(x, z)
    if b == 0.0:
        raise ValueError("degenerate point x = z = 0")
    l_plus = (1j * z / (2 * b)) * lz.SIGMA_X + 0.5 * lz.SIGMA_Y - (1j * x / (2 * b)) * lz.SIGMA_Z
    return np.zeros((2, 2), dtype=complex), l_plus, l_plus.conj().T


def density_to_coherence(rho):
    """Coefficients Tr(Gamma_i rho) of a 2x2 matrix; real for Hermitian rho."""
    return np.array([np.trace(g @ rho).real for g in lo.PAULI_BASIS])


def mode_hamiltonian(h, k):
    """The chain's pair-basis 2x2 mode Hamiltonian -2[(h - cos k) sigma_z + sin k sigma_y],
    defined apart from the crossing that :mod:`aia.tfi` maps it to."""
    a = h - np.cos(k)
    s = np.sin(k)
    return np.array([[-2.0 * a, 2.0j * s], [-2.0j * s, 2.0 * a]])


def mode_ground(h, k):
    """Ground vector (cos(theta/2), i sin(theta/2)), theta = atan2(sin k, h - cos k):
    the crossing's real-gauge ground vector in the pair basis; broadcasts to (..., 2)."""
    _, _, psi1, _ = lz.lz_eigensystem(2.0 * np.sin(k), 2.0 * (np.asarray(h) - np.cos(k)))
    return psi1 @ tfi._PAIR.T


def mode_excited(h, k):
    """Excited mode vector (i sin(theta/2), cos(theta/2)), theta = atan2(sin k, h - cos k)."""
    half = 0.5 * np.arctan2(np.sin(k), np.asarray(h) - np.cos(k))
    return np.stack([1j * np.sin(half), np.cos(half) + 0j], axis=-1)


def ground_register(p):
    """Product ground register of the chain at the initial field."""
    return mode_ground(p.h_i, tfi.momenta(p.L))


def rate_integral(p, t_a, t_b, dps=30):
    """int_{t_a}^{t_b} 2 pi g^2 Delta coth(beta Delta / 2) dt, Delta = 2 sqrt(x^2 + z(t)^2),
    by mpmath quadrature in t in dps digits, split at the crossing z = 0, where
    the rate has its narrowest feature."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        x, z_i, dz, t_f, beta, g = (mpmath.mpf(float(v)) for v in
                                    (p.x, p.z_i, p.dz, p.t_f, p.beta, p.g))

        def rate(t):
            delta = 2 * mpmath.sqrt(x * x + (z_i + dz * t / t_f) ** 2)
            return 2 * mpmath.pi * g * g * delta * mpmath.coth(beta * delta / 2)

        t_a, t_b, t_c = mpmath.mpf(float(t_a)), mpmath.mpf(float(t_b)), -z_i * t_f / dz
        points = [t_a, t_c, t_b] if min(t_a, t_b) < t_c < max(t_a, t_b) else [t_a, t_b]
        return float(mpmath.quad(rate, points))


def closed_form_transport(p, dps=30):
    """Transport superoperator U = sum_n exp(int_0^t_f l_n dt) R_n(t_f) L_n(0)^T.

    Every spectral sector is rank one and all four connections L_n . R_n'
    vanish in the real gauge of the closed-form eigenvectors, so this is exact.
    int |l_2| dt is :func:`rate_integral` and int Delta dt an mpmath quadrature
    in t, both split at the crossing; l_1 = 0, l_2 = -|l_2| and
    l_{3,4} = l_2 / 2 -/+ i Delta.
    """
    mpmath = pytest.importorskip("mpmath")
    damping = rate_integral(p, 0.0, p.t_f, dps)
    with mpmath.workdps(dps):
        x, z_i, dz, t_f = (mpmath.mpf(float(v)) for v in (p.x, p.z_i, p.dz, p.t_f))
        gap = float(mpmath.quad(lambda t: 2 * mpmath.sqrt(x * x + (z_i + dz * t / t_f) ** 2),
                                [0, -z_i * t_f / dz, t_f]))
    factors = np.exp([0.0, -damping, -0.5 * damping - 1j * gap, -0.5 * damping + 1j * gap])
    right_f = lo._eigenvectors(p.x, p.z_f, p.beta)[0]
    left_0 = lo._eigenvectors(p.x, p.z_i, p.beta)[1]
    return np.einsum("n,in,nj->ij", factors, right_f, left_0).real


def adiabatic_frame_state(p, rel_tol, abs_tol):
    """Final state from the adiabatic-frame amplitudes of c = a_1 e^{-i d_1} psi_1
    + a_2 e^{+i d_1} psi_2, with the dynamical phase d_1 in closed form, so the
    error does not grow with the accumulated phase. Takes a batch of crossings
    as :func:`aia.lz_closed.evolve_schrodinger` does; each crossing is one
    block of the stacked system, renormalized at the end."""
    x, z_i, zdot, scale = p.x, p.z_i, p.zdot, p.t_f / p.dz
    shape = (2,) + np.shape(z_i)
    prim_i = numkit.hypot_antiderivative(z_i, x)

    # real-gauge coupling <psi2|d psi1/dt> = zdot x / (2 b^2)
    def rhs(t, a):
        a = a.reshape(shape)
        z = z_i + zdot * t
        kappa = zdot * x / (2.0 * (x * x + z * z))
        ph = np.exp(2.0j * (-scale * (numkit.hypot_antiderivative(z, x) - prim_i)))
        return np.array([kappa * ph * a[1], -kappa * a[0] / ph]).ravel()

    a0 = np.zeros(shape, dtype=complex)
    a0[0] = 1.0
    a = numkit.integrate_ode(rhs, a0.ravel(), 0.0, p.t_f, rel_tol, abs_tol).reshape(shape)
    d1_f = lz.dynamical_phase_gs(p, 0.0, p.t_f)
    _, _, psi1_f, psi2_f = lz.lz_eigensystem(x, p.z_f)
    state = ((a[0] * np.exp(-1j * d1_f))[..., None] * psi1_f
             + (a[1] * np.exp(+1j * d1_f))[..., None] * psi2_f)
    return state / np.linalg.norm(state, axis=-1, keepdims=True)


def parabolic_cylinder_state(x, z_i, z_f, t_f, dps=30):
    """Exact final state of one crossing (Vitanov & Garraway, PRA 53, 4288, 1996).

    With v = (z_f - z_i) / t_f and tau = t - t_c measured from the crossing,
    c_1 solves c_1'' + (x^2 + v^2 tau^2 + i v) c_1 = 0, whose solutions are
    D_nu(+-alpha tau), alpha^2 = 2 i v, nu = -i x^2 / (2 v); then
    c_2 = (i c_1' - v tau c_1) / x, with D_nu' = (w/2) D_nu - D_{nu+1}. The
    propagator is F(tau_f) F(tau_i)^-1 for the fundamental matrix F of
    these two solutions. The ground state at z_i is built here, in dps
    digits, independently of :func:`aia.lz_closed.lz_eigensystem`.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        x, z_i, z_f, t_f = (mpmath.mpf(float(v)) for v in (x, z_i, z_f, t_f))
        v = (z_f - z_i) / t_f
        alpha = mpmath.sqrt(2j * v)
        nu = -1j * x * x / (2 * v)

        def fundamental(tau):
            cols = []
            for sign in (1, -1):
                w = sign * alpha * tau
                d = mpmath.pcfd(nu, w)
                slope = sign * alpha * (w / 2 * d - mpmath.pcfd(nu + 1, w))
                cols.append((d, (1j * slope - v * tau * d) / x))
            return mpmath.matrix([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])

        b = mpmath.sqrt(x * x + z_i * z_i)
        ground = mpmath.matrix([-mpmath.sqrt((b - z_i) / (2 * b)),
                                mpmath.sqrt((b + z_i) / (2 * b))])
        final = fundamental(z_f / v) * fundamental(z_i / v) ** -1 * ground
        return np.array([complex(final[0]), complex(final[1])])


def one_step_exponent(x, z_m, zdot, h, dps=40):
    """(A_x, A_y, A_z) with exp(-i A.sigma) the exact propagator of one step of length h
    of x sigma_x + z sigma_z, z linear with slope zdot and z_m at the step's middle, as
    mpf. The propagator is its Taylor series in the time u from the step's start,
    (k + 1) U_{k+1} = -i (H_0 U_k + zdot sigma_z U_{k-1}), summed to dps digits (the
    series is entire), and A.sigma = i logm(U) by mpmath, apart from the closed-form
    exponent and SU(2) map of :func:`aia.lz_closed._magnus_state`."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps + 10):
        x, z_m, zdot, h = (mpmath.mpf(float(v)) for v in (x, z_m, zdot, h))
        sigma_z = mpmath.matrix([[1, 0], [0, -1]])
        h_0 = mpmath.matrix([[z_m - zdot * h / 2, x], [x, -(z_m - zdot * h / 2)]])
        prev, term = mpmath.zeros(2), mpmath.eye(2)  # U_{k-1} h^(k-1), U_k h^k
        total, k = mpmath.eye(2), 0
        while mpmath.mnorm(term, 1) > mpmath.mpf(10) ** -(dps + 5) or k < 3:
            prev, term = term, -1j * h * (h_0 * term + zdot * h * sigma_z * prev) / (k + 1)
            total, k = total + term, k + 1
        a = 1j * mpmath.logm(total)
        return ((a[0, 1] + a[1, 0]).real / 2, (a[1, 0] - a[0, 1]).imag / 2,
                (a[0, 0] - a[1, 1]).real / 2)


def master_ode_state(p, rel_tol, abs_tol):
    """Final coherence vector of dc/dt = L(t) c from the Gibbs state at z_i,
    with the generator rebuilt at every stage of the DOP853 pair."""
    def rhs(t, c):
        return lo.liouvillian_matrix(p.x, float(p.z(t)), p.beta, p.g) @ c

    return numkit.integrate_ode(rhs, lo.steady_state(p.x, p.z_i, p.beta), 0.0, p.t_f,
                                rel_tol, abs_tol)


def spectral_projectors(p, s):
    """The four projectors R_n L_n^T at rescaled time s, as a list over n."""
    spec = lo.liouvillian_spectrum(p.x, float(p.z(s * p.t_f)), p.beta, p.g)
    return [np.outer(spec.right[:, n], spec.left[n]) for n in range(4)]


def commutator_term(p, s, step):
    """(1/2) sum_n [dP_n/ds, P_n], dP_n/ds by central differences of step ``step``,
    summed over n into a zero matrix; real."""
    pn = spectral_projectors(p, s)
    pp = spectral_projectors(p, s + step)
    pm = spectral_projectors(p, s - step)
    acc = np.zeros((4, 4), dtype=complex)
    for n in range(4):
        dp = (pp[n] - pm[n]) / (2.0 * step)
        acc += dp @ pn[n] - pn[n] @ dp
    return 0.5 * acc.real


def transport_ode(p, fd_step=None, rel_tol=1e-10, abs_tol=1e-12):
    """(X, nfev, rejected) for dX/ds = G(s) X, X(0) = 1, at s = 1 by scipy's DOP853 with a
    rhs that rebuilds G from the scalar spectrum at every call: G = t_f L(s) for the exact
    propagator (``fd_step`` None), plus :func:`commutator_term` of step ``fd_step`` for
    the transport. ``rejected`` counts the rejected tries: each try costs 12 rhs calls,
    after the 2 of the start and the initial-step probe."""
    from scipy.integrate import solve_ivp

    def rhs(s, x):
        gen = p.t_f * lo.liouvillian_matrix(p.x, float(p.z(s * p.t_f)), p.beta, p.g)
        if fd_step is not None:
            gen = gen + commutator_term(p, s, fd_step)
        return (gen @ x.reshape(4, 4)).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), np.eye(4).ravel(), method="DOP853",
                    rtol=rel_tol, atol=abs_tol)
    tries, rest = divmod(sol.nfev - 2, 12)
    assert sol.success and rest == 0, (sol.message, sol.nfev)
    return sol.y[:, -1].reshape(4, 4), sol.nfev, tries - (sol.t.size - 1)


def golden_section_minimize(f_grid, half_width, n_grid, tol):
    """(x, f(x)) minimizing f on [-half_width, half_width]: a scan of an odd count of at
    least ``n_grid`` and 201 points with the array objective ``f_grid``, then golden
    section on one point at a time down to a bracket of width ``tol`` around the best
    scan point. Returns the best of the scan minimum and the two final probes."""
    def f(x):
        return float(f_grid(np.array([x]))[0])

    n_grid = max(n_grid + 1 - n_grid % 2, 201)
    xs = np.linspace(-half_width, half_width, n_grid)
    fs = f_grid(xs)
    i = int(np.argmin(fs))
    x_best, f_best = float(xs[i]), float(fs[i])

    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, n_grid - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    for x, fx in ((x1, f1), (x2, f2)):
        if fx < f_best:
            x_best, f_best = float(x), float(fx)
    return x_best, f_best


def apply_superoperator(superop, rho):
    """Apply a Pauli-basis superoperator to a 2x2 matrix."""
    coeff = np.array([np.trace(g @ rho) for g in lo.PAULI_BASIS])
    out_coeff = superop @ coeff
    return sum(c * g for c, g in zip(out_coeff, lo.PAULI_BASIS))


def choi_matrix(superop):
    """Choi matrix sum_ij S(|i><j|) (x) |i><j| (output factor first), one matrix unit
    at a time."""
    return sum(np.kron(apply_superoperator(superop, e_ij), e_ij)
               for e_ij in np.eye(4, dtype=complex).reshape(4, 2, 2))
