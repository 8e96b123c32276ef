"""Thermally damped two-level sweep: Davies-form Lindblad generator.

The qubit Hamiltonian is the avoided-crossing sweep H(t) = x sigma_x +
z(t) sigma_z (gap Delta = 2b, b = sqrt(x^2 + z^2)); the bath couples through
sigma_y with strength g at inverse temperature beta. In the weak-coupling
(Davies) limit the jump operators connect Bohr frequencies {0, +/-Delta},
the omega = 0 operator vanishes for this coupling, and

    L_{+Delta} = (i z / 2b) sigma_x + (1/2) sigma_y - (i x / 2b) sigma_z,

the lowering operator in the instantaneous eigenbasis (L_{-Delta} is its
adjoint). The bath spectral function is Ohmic, gamma(w) = 2 pi g^2 w /
(1 - exp(-beta w)), which obeys detailed balance; the instantaneous steady
state is the Gibbs state of H.

Everything is expressed in the normalized Pauli basis Gamma_i =
{1, sigma_x, sigma_y, sigma_z} / sqrt(2): density matrices become real
4-vectors c_i = Tr(Gamma_i rho) (c_1 = 1/sqrt(2) fixes the trace), and the
generator a real 4x4 matrix with an identically zero first row. Its
spectrum and biorthonormal left/right eigenvectors are known in closed
form and drive the adiabatic and adiabatic-impulse constructions. The exact
evolution takes batched sixth-order Magnus steps of that matrix, with no ODE
solver (see :func:`evolve_master`).
"""

from dataclasses import dataclass

import numpy as np

from .numkit import check_tolerance, minimize_scalar, step_doubling
from .lz_closed import (LzParams, SIGMA_X, SIGMA_Y, SIGMA_Z, _centered_window, _checked_window,
                        dynamical_phase_gs, switching_times as lz_switching_times)

PAULI_BASIS = [np.eye(2) / np.sqrt(2.0), SIGMA_X / np.sqrt(2.0),
               SIGMA_Y / np.sqrt(2.0), SIGMA_Z / np.sqrt(2.0)]


@dataclass(frozen=True)
class OpenParams(LzParams):
    """Sweep parameters plus bath temperature T (beta = 1/T) and coupling g."""

    T: float
    g: float

    def __post_init__(self):
        super().__post_init__()
        if self.T <= 0:
            raise ValueError(f"require T > 0, got {self.T}")
        if self.g < 0:
            raise ValueError(f"require g >= 0, got {self.g}")
        # every rate, and the first pair's bound on L^5, stays finite here; at g = 1
        # the damping 2 pi g^2 Delta coth(beta Delta / 2) is already past weak coupling
        if not (self.g <= 1.0 and 1e-30 <= self.T <= 1e30):
            raise ValueError(f"require g <= 1 and T in [1e-30, 1e30], got {self}")

    @property
    def beta(self):
        return 1.0 / self.T


@dataclass
class LiouvillianSpectrum:
    """Eigenvalues l_1..l_4 with right columns R_n and left rows L_n.

    Normalized so that L_n . R_m = delta_nm (plain bilinear pairing) and
    sum_n R_n L_n^T is the identity.
    """

    eigenvalues: np.ndarray  # z.shape + (4,) complex
    right: np.ndarray        # z.shape + (4, 4) complex, right[..., :, n]
    left: np.ndarray         # z.shape + (4, 4) complex, left[..., n, :]


def spectral_gamma(omega, beta, g):
    """Ohmic bath rate 2 pi g^2 omega / (1 - exp(-beta omega)); broadcasts.

    The omega -> 0 limit 2 pi g^2 / beta is taken analytically. Detailed
    balance gamma(-w) = exp(-beta w) gamma(w) holds identically.
    """
    if beta <= 0:
        raise ValueError(f"require beta > 0, got {beta}")
    omega = np.asarray(omega, dtype=float)
    pref = 2.0 * np.pi * g * g
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = pref * omega / (-np.expm1(-beta * omega))
    val = np.where(omega == 0.0, pref / beta, val)
    return val if val.ndim else float(val)


def _damping_rate(delta, beta, g):
    """|l_2| = gamma(Delta) + gamma(-Delta) = 2 pi g^2 Delta coth(beta Delta / 2), the
    decay rate of the populations at gap Delta; broadcasts. One :func:`spectral_gamma`
    call on +-Delta stacked, elementwise the same bits as two."""
    emission, absorption = spectral_gamma(np.stack([delta, -delta]), beta, g)
    return emission + absorption


def liouvillian_matrix(x, z, beta, g):
    """Generator as a real 4x4 matrix in the normalized Pauli basis; broadcasts
    over z, with shape z.shape + (4, 4).

    First row identically zero (trace preservation). gp/gm are the emission
    and absorption rates gamma(+Delta), gamma(-Delta) with Delta = 2b.
    """
    if x == 0.0 and (np.asarray(z) == 0.0).any():  # where b = hypot(x, z) vanishes
        raise ValueError("degenerate point x = z = 0")
    b = np.hypot(x, z)
    delta = 2.0 * b
    gp = spectral_gamma(delta, beta, g)
    gm = spectral_gamma(-delta, beta, g)
    s, d = gm + gp, gm - gp
    d2 = delta * delta
    zero = 0.0 * b  # every entry takes b's shape
    m = np.array([  # the 16 entries row by row, then the axes of b
        zero, zero, zero, zero,
        2.0 * x * d / delta, -2.0 * (x * x + d2 / 4.0) * s / d2, -2.0 * z, -2.0 * x * z * s / d2,
        zero, 2.0 * z, -0.5 * s, zero - 2.0 * x,
        2.0 * z * d / delta, -2.0 * x * z * s / d2, zero + 2.0 * x, -2.0 * (d2 / 4.0 + z * z) * s / d2,
    ])
    # entries last and contiguous: the Magnus steps' batched products on a
    # strided view took ~20% longer
    m = np.ascontiguousarray(m.transpose(tuple(range(1, m.ndim)) + (0,)))
    return m.reshape(b.shape + (4, 4))


def _eigenvectors(x, z, beta):
    """(right, left) of :func:`liouvillian_spectrum`, broadcast over z: z.shape + (4, 4)
    each. The arithmetic is elementwise, so every entry has the scalar call's bits."""
    delta = 2.0 * np.hypot(x, z)
    th, sq2 = np.tanh(0.5 * beta * delta), np.sqrt(2.0)
    right, left = np.zeros((2,) + delta.shape + (4, 4), dtype=complex)
    right[..., 0, 0], left[..., 0, 0], left[..., 1, 0] = 1 / sq2, sq2, th
    right[..., 1, 0], right[..., 3, 0] = -sq2 * x * th / delta, -sq2 * z * th / delta
    right[..., 1, 1] = left[..., 1, 1] = 2 * x / delta
    right[..., 3, 1] = left[..., 1, 3] = 2 * z / delta
    right[..., 1, 2] = left[..., 2, 1] = -sq2 * z / delta
    right[..., 3, 2] = left[..., 2, 3] = sq2 * x / delta
    right[..., 2, 2], left[..., 2, 2] = -1j / sq2, 1j / sq2
    right[..., 3], left[..., 3, :] = right[..., 2].conj(), left[..., 2, :].conj()
    return right, left


def liouvillian_spectrum(x, z, beta, g):
    """Closed-form eigensystem of the generator; broadcasts over z.

    l_1 = 0, l_2 = -[gamma(-D) + gamma(D)] = -2 pi g^2 D coth(beta D / 2),
    l_{3,4} = l_2 / 2 -/+ i D. The right/left vectors (:func:`_eigenvectors`)
    are normalized to a biorthonormal pair; all entries stay finite at z = 0.
    """
    if x == 0.0:
        raise ValueError("require x != 0 (gap must stay open)")
    delta = 2.0 * np.hypot(x, z)
    l2 = -_damping_rate(delta, beta, g)
    eigs = np.stack(np.broadcast_arrays(0.0, l2, 0.5 * l2 - 1j * delta, 0.5 * l2 + 1j * delta), -1)
    return LiouvillianSpectrum(eigs, *_eigenvectors(x, z, beta))


def steady_state(x, z, beta):
    """Gibbs coherence vector, the kernel vector R_1 of the spectrum at any g;
    broadcasts over z, with shape z.shape + (4,)."""
    return _eigenvectors(x, z, beta)[0][..., :, 0].real


def _steady_state_dz(x, z, beta):
    """d/dz of :func:`steady_state`, which is (1, -th x / b, 0, -th z / b) / sqrt2
    with th = tanh(beta b); broadcasts over z, with shape z.shape + (4,)."""
    b = np.hypot(x, z)
    th = np.tanh(beta * b)
    dth = beta * (1.0 - th * th) * z / b
    out = np.zeros(np.shape(z) + (4,))
    out[..., 1] = -(dth * x / b - th * x * z / b ** 3) / np.sqrt(2.0)
    out[..., 3] = -(dth * z / b + th * x * x / b ** 3) / np.sqrt(2.0)
    return out


def coherence_to_density(c):
    """Reconstruct the 2x2 density matrix sum_i c_i Gamma_i."""
    c = np.asarray(c)
    return sum(ci * gi for ci, gi in zip(c, PAULI_BASIS))


# the three Gauss points of a step, as fractions of it from its middle
_GAUSS = np.array([-np.sqrt(15.0) / 10.0, 0.0, np.sqrt(15.0) / 10.0])


def _commutator(a, b):
    return a @ b - b @ a


def _magnus_coherence(p, n, c):
    """c evolved over [0, t_f] by n sixth-order Magnus steps.

    A step is exp(Omega), with A_1, A_2, A_3 the generator at the step's three
    Gauss points, a_1 = h A_2, a_2 = (sqrt15 h / 3)(A_3 - A_1), a_3 = (10 h / 3)
    (A_3 - 2 A_2 + A_1), C_1 = [a_1, a_2] and C_2 = -[a_1, 2 a_3 + C_1] / 60:

        Omega = a_1 + a_3 / 12 + [-20 a_1 - a_3 + C_1, a_2 + C_2] / 240,

    to O(h^7) (Blanes, Casas & Ros, BIT 40, 434, 2000). The exponential is a
    degree-12 Taylor series, kept as its deviation E - 1 from the identity:
    products (1 + D_1)(1 + D_0) = 1 + D_1 + D_0 + D_1 D_0 then lose no digits
    to the ones on the diagonal, and the rounding of the whole product does not
    grow with n. The steps are multiplied as a tree, in chunks of at most 2048,
    and each chunk's product is applied to c.
    """
    h = p.t_f / n
    for start in range(0, n, 2048):  # bounds each step array to 2048 x 4 x 4 doubles
        mid = np.arange(start, min(start + 2048, n)) + 0.5
        # one call for all three points; each point's matrices stay contiguous
        gen_1, gen_2, gen_3 = liouvillian_matrix(p.x, p.z((mid + _GAUSS[:, None]) * h),
                                                 p.beta, p.g)
        a_1 = h * gen_2
        a_2 = (np.sqrt(15.0) / 3.0 * h) * (gen_3 - gen_1)
        a_3 = (10.0 / 3.0 * h) * (gen_3 - 2.0 * gen_2 + gen_1)
        c_1 = _commutator(a_1, a_2)
        c_2 = _commutator(a_1, 2.0 * a_3 + c_1) / -60.0
        omega = a_1 + a_3 / 12.0 + _commutator(c_1 - 20.0 * a_1 - a_3, a_2 + c_2) / 240.0
        dev = omega / 12.0
        for j in range(11, 0, -1):  # Horner: dev = exp(omega) - 1
            dev = (omega + omega @ dev) / j
        while len(dev) > 1:
            if len(dev) % 2:  # the identity as the latest step
                dev = np.append(dev, np.zeros_like(dev[:1]), 0)
            d_1, d_0 = dev[1::2], dev[::2]
            dev = d_1 + d_0 + d_1 @ d_0
        c = c + dev[0] @ c
    return c


def evolve_master(p, tol=1e-10 + 1e-12):
    """Exact final coherence vector of dc/dt = L(t) c from the Gibbs state at z_i.

    Batched sixth-order Magnus steps of the real 4x4 generator
    (:func:`_magnus_coherence`), with the step count set by
    :func:`aia.numkit.step_doubling`: the returned state is within ``tol``
    of one with half the steps in every component, and its own error
    is about a sixty-third of that. The first pair starts from the larger of
    n = 2 t_f (2 max b + max |l_2|) + 4 dz / x and the n at which a bound on
    the Magnus error is tol / 2. The first term keeps
    each step's Omega at norm <= 1/2, where the Taylor series' truncation
    stays below the Magnus error. The second keeps the turn per step of the
    dissipator's eigenbasis, h zdot / x at the crossing, at most 1/4: on
    coarser steps the error has not settled to its n^-6 fall, and the first
    pair can mispredict the second. The bound: for a generator linear over a
    step, the exact exponent is h L + h^2 (1/y - coth(y/2) / 2) L' with
    y = h ad_L, and the scheme keeps its y and y^3 terms, so to leading order
    in h and 1/t_f the steps follow the generator L + h^6 ad_L^5 L' / 30240.
    Its steady state is off by (h^6 / 30240) L^5 dc_ss/dt; the state follows
    that offset to z_f, and the offset at z_i stays behind as a transient. The
    n-step state is then off by at most K h^6 / t_f, with
    K = dz (|L^5 dc_ss/dz| at z_i + the same at z_f) / 30240, and
    n = t_f^(5/6) (2 K / tol)^(1/6) takes that to tol / 2, the aim of a
    second pair. Wherever the bound sets n, the first pair meets the
    tolerance, so a run takes one pair and its cost does not jump with t_f.
    The cost grows like n; a pair whose
    3n steps, counted as 35 two-level steps each, exceed
    :data:`aia.numkit.STEP_BUDGET` raises before it runs. The first
    component stays exactly 1/sqrt2: the generator's first row is zero, and
    so is that of every step's deviation from the identity. A ``tol`` that is
    not finite and positive raises ValueError first.
    """
    check_tolerance(tol)
    # the gap Delta = 2b and |l_2| = gamma(Delta) + gamma(-Delta) are largest at an
    # end; the eigenbasis turns fastest at the crossing, at zdot / x
    delta = 2.0 * np.hypot(p.x, max(-p.z_i, p.z_f))
    rate = _damping_rate(delta, p.beta, p.g)
    # the n at which the Magnus error bound K h^6 / t_f is tol / 2
    ends = np.array([p.z_i, p.z_f])
    drift = np.linalg.matrix_power(liouvillian_matrix(p.x, ends, p.beta, p.g), 5) \
        @ _steady_state_dz(p.x, ends, p.beta)[:, :, None]
    k = p.dz * np.linalg.norm(drift, axis=(1, 2)).sum() / 30240.0
    n = max(2.0 * p.t_f * (delta + rate) + 4.0 * p.dz / p.x,
            p.t_f * (2.0 * k / (p.t_f * tol)) ** (1.0 / 6.0))
    c0 = steady_state(p.x, p.z_i, p.beta)
    # a 4x4 step, its three generators and Taylor series included, costs about 35
    # two-level steps: 2.75 us against 0.078 us, medians of 40 alternating runs of
    # 2e5 steps each on a 2-core Xeon (per-run ratios 32-38 between quartiles)
    return step_doubling(lambda m: _magnus_coherence(p, m, c0), n, tol, p.t_f, order=6, batch=35)


def adiabatic_state_open(p):
    """Adiabatic approximation: the instantaneous steady state at z_f.

    The kernel is one-dimensional, its eigenvalue is zero (no dynamical
    factor) and the geometric connection vanishes for these eigenvectors.
    """
    return steady_state(p.x, p.z_f, p.beta)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _rate_integrals(p, t_a, t_b):
    """int |l_2| dt over [t_a, t_b]; broadcasts over intervals.

    The rate |l_2| = :func:`_damping_rate` has no elementary antiderivative. In
    theta = asinh(z / x), Delta = 2x cosh(theta) and dt = (t_f / dz) x cosh(theta)
    dtheta. Delta coth(beta Delta / 2) is regular at Delta = 0 and has its
    poles, Delta = 2 pi i k / beta, on Im theta = +-pi / 2, so the integrand is
    analytic in the strip |Im theta| < pi / 2 for every x, beta, g and t_f.
    Each interval takes ceil(|theta_b - theta_a|) equal panels (at least one)
    of 12-node Gauss-Legendre, which then converges like rho^-24 with rho =
    pi + sqrt(pi^2 + 1) ~ 6.4 (Trefethen, Approximation Theory and
    Approximation Practice, SIAM 2013, ch. 19): no tolerance, no loop. (The
    gap Delta = -2 E_1 integrates in closed form, as -2
    :func:`aia.lz_closed.dynamical_phase_gs`.)
    """
    th_a, th_b = (np.arcsinh(p.z(t) / p.x)[..., None, None] for t in (t_a, t_b))
    n = np.maximum(np.ceil(np.abs(th_b - th_a)), 1.0)  # panels per interval
    # panels past an interval's own count repeat its last one with weight zero
    panel = np.arange(np.max(n, initial=1.0))[:, None]
    width = (th_b - th_a) / n
    theta = th_a + width * (np.minimum(panel, n - 1.0) + 0.5 * (1.0 + _GL_NODES))
    delta = 2.0 * p.x * np.cosh(theta)
    weight = np.where(panel < n, 0.5 * width * _GL_WEIGHTS, 0.0)
    rate = _damping_rate(delta, p.beta, p.g)
    return (weight * (0.5 * delta) * rate).sum((-2, -1))[()] * (p.t_f / p.dz)


def _tail_rate_integrals(p, tp):
    """int_{tau_+}^{t_f} |l_2| dt of an array of tau_+, summed from the end over the cells from
    each sorted tau_+ to the next and from the last to t_f: one :func:`_rate_integrals` call,
    about one panel per cell, where direct intervals all take the widest one's count. One
    tau_+ is one interval, with the bits of the direct call."""
    order = np.argsort(tp, axis=None)
    ends = np.ravel(tp)[order]
    cells = _rate_integrals(p, ends, np.append(ends[1:], p.t_f))
    sums = np.empty_like(cells)
    sums[order] = np.cumsum(cells[::-1])[::-1]
    return sums.reshape(np.shape(tp))


def _aia_coherences(p, tm, tp):
    """:func:`aia_state_open` for windows (tm, tp), broadcast. With n = (x, z)/b and
    th = tanh(beta b): L_1.R_1 = 1, L_2.R_1 = (th_+ - th_- n_+.n_-)/sqrt2, and the j = 3, 4
    terms are complex conjugates, L_{3,4}.R_1 = th_- (n_+ x n_-)/2."""
    z_m, z_p = p.z(tm), p.z(tp)
    b_m, b_p = np.hypot(p.x, z_m), np.hypot(p.x, z_p)
    th_m, th_p = np.tanh(p.beta * b_m), np.tanh(p.beta * b_p)
    dot, cross = (p.x * p.x + z_p * z_m) / (b_p * b_m), p.x * (z_p - z_m) / (b_p * b_m)
    rate_int, delta_int = _tail_rate_integrals(p, tp), -2.0 * dynamical_phase_gs(p, tp, p.t_f)
    a2 = np.exp(-rate_int) * (th_p - th_m * dot) / np.sqrt(2.0)
    a3 = np.exp(-0.5 * rate_int - 1j * delta_int) * 0.5 * th_m * cross
    right = _eigenvectors(p.x, p.z_f, p.beta)[0]
    return (right[..., :, 0].real + a2[..., None] * right[..., :, 1].real
            + 2.0 * (a3[..., None] * right[..., :, 2]).real)


def aia_state_open(p, st):
    """Adiabatic-impulse coherence vector.

        sum_j exp(int_{tau_+}^{t_f} l_j dt)  L_j(tau_+) . R_1(tau_-)  R_j(t_f)

    The j = 1 term carries the trace (coefficient one); the others decay
    with the accumulated damping. No positivity clamp is applied, and the
    vector need not be a state on asymmetric sweeps (z_f != -z_i): where the
    Gibbs polarization at tau_+ differs from that at t_f and the damping has
    not removed it, its Bloch length sqrt2 |c_vec| can exceed 1 (1.92 at x =
    0.0119, z_i = -0.0557, z_f = 2.72, t_f = 5.35, T = 0.94, g = 0). On
    symmetric sweeps it stays within 1 + 7e-16 over 2000 random parameter
    sets. Reconstruct rho and inspect its spectrum to diagnose.
    """
    return _aia_coherences(p, *_checked_window(p, st.tau_minus, st.tau_plus))


def liouvillian_gap(x, z, beta, g):
    """min(|l_2|, |l_3|), the slowest nonzero decay scale of the generator, read
    from :func:`liouvillian_spectrum` (|l_3| = hypot(l_2 / 2, Delta))."""
    eigs = liouvillian_spectrum(x, z, beta, g).eigenvalues
    return float(min(abs(eigs[1]), abs(eigs[2])))


def trace_distance(ca, cb):
    """(1/2) sum |eigenvalues| of the difference matrix, whose eigenvalues are
    (d_0 +/- |d_vec|)/sqrt2: max(|d_0|, |d_vec|)/sqrt2. Broadcasts."""
    d = np.asarray(ca) - np.asarray(cb)
    dist = np.maximum(np.abs(d[..., 0]), np.linalg.norm(d[..., 1:], axis=-1)) / np.sqrt(2.0)
    return dist if dist.ndim else float(dist)


def switching_times_open(p, scenario):
    """Impulse window from the Hamiltonian gap: same formulas as the closed sweep."""
    return lz_switching_times(p, scenario)


def aia_distance_grid(p, dtaus, c_exact):
    """Trace distance of the centered-window AIA to c_exact, vectorized over an
    array of impulse intervals in [-t_f, t_f] (:func:`aia.lz_closed._centered_window`), with
    the damping of :func:`_tail_rate_integrals`: within about n eps int_0^t_f |l_2| of
    :func:`aia_state_open`'s for n intervals, and bitwise for one."""
    return trace_distance(_aia_coherences(p, *_centered_window(p, dtaus)), c_exact)


def optimize_dtau_open(p, c_exact):
    """Impulse interval minimizing the trace distance over [-t_f, t_f]."""
    return minimize_scalar(lambda d: aia_distance_grid(p, d, c_exact), -p.t_f, p.t_f, 1e-6, 601)
