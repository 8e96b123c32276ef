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
evolution is :func:`evolve_master`, by Magnus steps with no ODE solver.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkit import check_tolerance, minimize_scalar, step_doubling
from .lz_closed import (LzParams, SIGMA_X, SIGMA_Y, SIGMA_Z, _antiderivative, _centered_window,
                        _checked_window, _phase, switching_times as lz_switching_times)

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

    @cached_property
    def _right_f(self):  # the right eigenvectors at z_f, kept as LzParams keeps its ends
        return _eigenvectors(self.x, self.z_f, self.beta)[0]


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
    gp, gm = spectral_gamma(np.stack([delta, -delta]), beta, g)  # the bits of two calls
    s, d = gm + gp, gm - gp
    d2 = delta * delta
    # entries last and contiguous, as the Magnus steps' batched products want them, and
    # written in place (CHANGES.md, "Measurements behind src constants")
    m = np.zeros(b.shape + (16,))
    m[..., 4], m[..., 5] = 2.0 * x * d / delta, -2.0 * (x * x + d2 / 4.0) * s / d2
    two_z = 2.0 * z
    m[..., 6], m[..., 7] = -two_z, -2.0 * x * z * s / d2
    m[..., 9], m[..., 10], m[..., 11] = two_z, -0.5 * s, -2.0 * x
    m[..., 12], m[..., 13], m[..., 14] = two_z * d / delta, m[..., 7], 2.0 * x
    m[..., 15] = -2.0 * (d2 / 4.0 + z * z) * s / d2
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


# the four Gauss-Legendre nodes x_j on [-1, 1] (a step's points lie x_j / 2 of it from
# its middle), and the rows (2k + 1) w_j P_k(x_j) / 2, k = 0..3, that take the
# generator at them to its Legendre moments over the step
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(4)
_MOMENTS = np.array([(2 * k + 1) * _WEIGHTS * np.polynomial.legendre.legval(_NODES, row) / 2.0
                     for k, row in enumerate(np.eye(4))])


def _commutator(a, b):
    return a @ b - b @ a


def _step_exponent(a, b, c, d):
    """Omega of one eighth-order Magnus step from the Legendre moments a, b, c, d of h
    times the generator over the step, by six commutators:

        C_1 = [a, b],  C_2 = [a, c + C_1 / 6],
        D_1 = [a + k_1 c + k_2 C_1, b + k_3 d + k_4 C_2],
        D_2 = [a + k_5 C_1, c + k_6 C_1 + k_7 D_1],
        E = [a + k_8 c + k_9 D_1, b + k_10 d + k_11 D_2],
        F = [c + k_12 C_1 + k_13 D_1 + k_14 E, b + k_15 C_2],
        Omega = a + k_16 F + k_17 E + k_18 D_1,

    which matches the Magnus series (Blanes, Casas & Ros, BIT 40, 434, 2000) in every
    term through h^8. Each commutator pairs terms of odd and even order in h, or two of
    odd order, so no even order appears, as in the exact series. The k_i solve the
    twenty conditions of orders h^3, h^5 and h^7 in the free Lie algebra of a, b, c,
    d graded 1, 2, 3, 4 (the exact series there from the Dyson series and its log,
    in rationals); they are given to 17 digits of a 40-digit Newton solution. C_2 is
    that of the sixth-order scheme.
    """
    c_1 = _commutator(a, b)
    c_2 = _commutator(a, c + c_1 / 6.0)
    d_1 = _commutator(a - 0.89259950140715244 * c - 0.13026827871440558 * c_1,
                      b + 0.33296948736215687 * d + 0.11098982912071896 * c_2)
    d_2 = _commutator(a + 0.06265232820552398 * c_1,
                      c + 0.26009117362692699 * c_1 - 0.093424506960260319 * d_1)
    e = _commutator(a - 1.1130267367297995 * c - 0.056792533606856549 * d_1,
                    b + 2.3168146052659807 * d + 1.3680754129815553 * d_2)
    f = _commutator(c + 0.13894302756431338 * c_1 - 0.11688922629270566 * d_1
                    + 0.042925292764357512 * e, b - 0.19156167483183646 * c_2)
    return a - 0.10926714861670769 * f + 0.027973410857293474 * e - 0.19464007752396014 * d_1


# Paterson-Stockmeyer blocks of the degree-14 Taylor series of exp(X) - 1 in powers of
# Y = X^4: exp(X) - 1 = B_0 + Y (B_1 + Y (B_2 + Y B_3)), B_j = sum_r X^r / (4j + r)!
# over r = 0..3 and degrees 1..14; rows j, columns the coefficients of X, X^2, X^3
_TAYLOR = np.array([[1.0 / math.factorial(4 * j + r) if 4 * j + r <= 14 else 0.0
                     for r in (1, 2, 3)] for j in range(4)])
_TAYLOR_EYE = np.array([0.0] + [1.0 / math.factorial(4 * j) for j in (1, 2, 3)])


def _expm1(omega, squarings):
    """exp(omega) - 1 of a stack of 4x4 matrices whose norm is at most 1/2 after
    ``squarings`` halvings: the degree-14 Taylor series of X = omega / 2^s, whose
    truncation is below 0.5^15 / 15! = 2.3e-17 (degree 12 would leave 2e-14), then s
    squarings D -> 2 D + D^2, one product each. The series takes six products, X^2,
    X^3, X^4 and three in powers of X^4, and one product of :data:`_TAYLOR` with the
    stacked powers for all four blocks (why this form: CHANGES.md, "Measurements behind
    src constants"). With no constant term, the result is the deviation from the
    identity at full precision, with a first row that is zero where omega's is."""
    n = len(omega)
    powers = np.empty((3, n, 4, 4))
    x = np.multiply(omega, 0.5 ** squarings, out=powers[0])
    np.matmul(x, x, out=powers[1])
    np.matmul(powers[1], x, out=powers[2])
    x_4 = powers[2] @ x
    blocks = (_TAYLOR @ powers.reshape(3, -1)).reshape(4, n, 4, 4)
    np.einsum("jnii->jni", blocks)[...] += _TAYLOR_EYE[:, None, None]  # the diagonals
    dev = blocks[3]
    for block in blocks[2::-1]:
        dev = block + x_4 @ dev
    for _ in range(squarings):
        dev = dev + dev + dev @ dev
    return dev


def _magnus_coherence(p, n, c):
    """c evolved over [0, t_f] by n eighth-order Magnus steps.

    A step is exp(Omega), with Omega from :func:`_step_exponent` on the moments
    (2k + 1) h int P_k(2s) L ds, k = 0..3, of the generator over the step (s in
    [-1/2, 1/2]), from L at its four Gauss points; the quadrature is exact
    through order h^8. The exponential is :func:`_expm1`'s after s halvings, s the
    least with h (Delta_max + 2 |l_2|_max) / 2^s <= 1/2, which bounds ||h L|| (and so
    ||Omega|| up to its commutator terms) at any step count. Products of deviations,
    (1 + D_1)(1 + D_0) = 1 + D_1 + D_0 + D_1 D_0, lose no digits to the ones on the
    diagonal, so the rounding of the whole product does not grow with n. The steps
    are multiplied as a tree, in chunks of at most 2048, each chunk's product applied to c.
    """
    h = p.t_f / n
    delta = 2.0 * np.hypot(p.x, max(-p.z_i, p.z_f))
    norm = h * (delta + 2.0 * _damping_rate(delta, p.beta, p.g))
    squarings = max(0, int(np.ceil(np.log2(2.0 * norm))))
    for start in range(0, n, 2048):  # bounds each step array to 2048 x 4 x 4 doubles
        mid = np.arange(start, min(start + 2048, n)) + 0.5
        # one call for all four points; each point's matrices stay contiguous
        gens = liouvillian_matrix(p.x, p.z((mid + _NODES[:, None] / 2.0) * h), p.beta, p.g)
        moments = ((h * _MOMENTS) @ gens.reshape(4, -1)).reshape(gens.shape)
        dev = _expm1(_step_exponent(*moments), squarings)
        while len(dev) > 1:
            if len(dev) % 2:  # the identity as the latest step
                dev = np.append(dev, np.zeros_like(dev[:1]), 0)
            d_1, d_0 = dev[1::2], dev[::2]
            dev = d_1 + d_0 + d_1 @ d_0
        c = c + dev[0] @ c
    return c


def evolve_master(p, tol=1e-10 + 1e-12):
    """Exact final coherence vector of dc/dt = L(t) c from the Gibbs state at z_i.

    Batched eighth-order Magnus steps of the real 4x4 generator
    (:func:`_magnus_coherence`), their count set by :func:`aia.numkit.step_doubling`
    from the smaller of two first-pair n's.

    The adiabatic estimate: for a generator linear over a step, the exact exponent is
    h L + h^2 (1/y - coth(y/2) / 2) L' with y = h ad_L, and the scheme keeps its y, y^3
    and y^5 terms, so to leading order in h and 1/t_f the steps follow the generator
    L + h^8 ad_L^7 L' / 1209600. Its steady state is off by (h^8 / 1209600) L^7 dc_ss/dt;
    the state follows that offset to z_f, and the offset at z_i stays behind as a
    transient. The n-step state is then off by at most K h^8 / t_f, with
    K = dz (|L^7 dc_ss/dz| at z_i + the same at z_f) / 1209600, and n = t_f^(7/8)
    (2 K / tol)^(1/8) takes that to tol / 2, the aim of a second pair. It is at least
    4 dz / x, which keeps the turn per step of the dissipator's eigenbasis, h zdot / x at
    the crossing, at most 1/4: on coarser steps the error has not settled to its n^-8 fall.

    The bound on the whole remainder, as in :func:`aia.lz_closed._first_pair_n`: for a
    generator linear in t, the moments of a step are a = h L and b = h^2 L' / 2 and
    c = d = 0, and the terms of order h^9 that the scheme misses, summed in absolute
    value over their words in a and b, are at most h^9 R,
    R = M b' (M^6 / 4725 + 1.17e-3 M^4 b' + 3.02e-3 M^2 b'^2 + 1.62e-3 b'^3), with
    M = Delta_max + 2 |l_2|_max >= ||L|| and b' = zdot (2 + 12 pi g^2 + 2 |l_2|_max / x)
    / 2 >= ||L'|| / 2. Each later order is taken to be at most q = h^2 (M^2 + 2 b') / pi^2
    times the one before (the part linear in L' is the series of 1/y - coth(y/2) / 2,
    whose coefficients fall by 1 / (2 pi)^2 per order, and ||y|| <= 2 h M), and the
    exact evolution does not stretch differences of states, so n steps are off by at
    most t_f h^8 R / (1 - q), tol / 2 at n_sum. That is the whole remainder at g = 0,
    where the generator is linear in t. With the bath on, the rates turn with the
    eigenbasis, their curvature is not in R, and n stays at least 4 dz / x; a sudden
    sweep under a strong bath can then take a second pair (the pairs measured:
    CHANGES.md, "Measurements behind src constants").

    A pair's 3n steps count as 56 two-level steps each against
    :data:`aia.numkit.STEP_BUDGET`. The first component stays exactly 1/sqrt2: the
    generator's first row is zero, and so is that of every step's deviation from the
    identity. A ``tol`` that is not finite and positive raises ValueError first.
    """
    check_tolerance(tol)
    ends = np.array([p.z_i, p.z_f])
    gens = liouvillian_matrix(p.x, ends, p.beta, p.g)
    # the gap Delta = 2b and |l_2| = -2 L_22 are largest at an end
    delta, rate = 2.0 * np.hypot(p.x, max(-p.z_i, p.z_f)), -2.0 * gens[:, 2, 2].min()
    # the n at which the adiabatic estimate K h^8 / t_f is tol / 2
    drift = np.linalg.matrix_power(gens, 7) @ _steady_state_dz(p.x, ends, p.beta)[:, :, None]
    k = p.dz * np.linalg.norm(drift, axis=(1, 2)).sum() / 1209600.0
    n_adiabatic = p.t_f * (2.0 * k / (p.t_f * tol)) ** 0.125
    # the n at which the bound t_f h^8 R / (1 - q) on the whole remainder is tol / 2
    norm = delta + 2.0 * rate
    slope = 0.5 * p.zdot * (2.0 + 12.0 * np.pi * p.g * p.g + 2.0 * rate / p.x)
    remainder = norm * slope * (norm ** 6 / 4725.0 + 1.17e-3 * norm ** 4 * slope
                                + 3.02e-3 * norm ** 2 * slope ** 2 + 1.62e-3 * slope ** 3)
    n_sum = p.t_f * (2.0 * p.t_f * remainder / tol) ** 0.125
    q = (p.t_f / max(n_sum, 1.0)) ** 2 * (norm * norm + 2.0 * slope) / np.pi ** 2
    n_sum = n_sum / (1.0 - q) ** 0.125 if q < 1.0 else np.inf
    turn = 4.0 * p.dz / p.x
    n = min(n_sum, max(turn, n_adiabatic))
    if p.g > 0.0:  # the rates turn with the eigenbasis: n_sum leaves their curvature out
        n = max(n, turn)
    c0 = steady_state(p.x, p.z_i, p.beta)
    # a 4x4 step, its four generators and exponential included, costs about 56
    # two-level steps (CHANGES.md, "Measurements behind src constants")
    return step_doubling(lambda m: _magnus_coherence(p, m, c0), n, tol, p.t_f, batch=56)


def adiabatic_state_open(p):
    """Adiabatic approximation: the instantaneous steady state at z_f.

    The kernel is one-dimensional, its eigenvalue is zero (no dynamical
    factor) and the geometric connection vanishes for these eigenvectors.
    """
    return p._right_f[..., :, 0].real.copy()  # not a view of what p keeps


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
    Approximation Practice, SIAM 2013, ch. 19): no tolerance, no loop. The
    width theta_b - theta_a of ends u = z_a / x and v = z_b / x of one sign is
    asinh((v - u)(v + u) / (v sqrt(1 + u^2) + u sqrt(1 + v^2))), with v - u =
    dz (t_b - t_a) / (t_f x): the difference of the two asinh would lose
    eps |theta| / |theta_b - theta_a| of it relative on short intervals. (The
    gap Delta = -2 E_1 integrates in closed form, as -2
    :func:`aia.lz_closed.dynamical_phase_gs`.)
    """
    u, v = (p.z(t)[..., None, None] / p.x for t in (t_a, t_b))
    span = p.dz * (np.asarray(t_b) - t_a)[..., None, None] / (p.t_f * p.x)  # v - u
    cross = v * np.sqrt(1.0 + u * u), u * np.sqrt(1.0 + v * v)
    same = u * v > 0.0  # asinh(v) - asinh(u) = asinh(cross_0 - cross_1), which cancels here
    total = np.arcsinh(np.where(same, span * (v + u) / np.where(same, cross[0] + cross[1], 1.0),
                                cross[0] - cross[1]))
    th_a = np.arcsinh(u)
    n = np.maximum(np.ceil(np.abs(total)), 1.0)  # panels per interval
    # panels past an interval's own count repeat its last one with weight zero
    panel = np.arange(np.max(n, initial=1.0))[:, None]
    width = total / n
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
    rate_int = _tail_rate_integrals(p, tp)
    delta_int = -2.0 * _phase(p, _antiderivative(p, tp), p._prim_f)
    a2 = np.exp(-rate_int) * (th_p - th_m * dot) / np.sqrt(2.0)
    a3 = np.exp(-0.5 * rate_int - 1j * delta_int) * 0.5 * th_m * cross
    right = p._right_f
    return (right[..., :, 0].real + a2[..., None] * right[..., :, 1].real
            + 2.0 * (a3[..., None] * right[..., :, 2]).real)


def aia_state_open(p, st):
    """Adiabatic-impulse coherence vector.

        sum_j exp(int_{tau_+}^{t_f} l_j dt)  L_j(tau_+) . R_1(tau_-)  R_j(t_f)

    The j = 1 term carries the trace (coefficient one); the others decay
    with the accumulated damping. No positivity clamp is applied, and the
    vector need not be a state on asymmetric sweeps (z_f != -z_i): where the
    Gibbs polarization at tau_+ differs from that at t_f and the damping has
    not removed it, its Bloch length sqrt2 |c_vec| can exceed 1 (the cases
    measured: CHANGES.md, "Measurements behind src constants"). Reconstruct
    rho and inspect its spectrum to diagnose.
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
