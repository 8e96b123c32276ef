"""Driven two-level avoided crossing (Landau-Zener sweep), closed system.

Model:
    H(t) = x sigma_x + z(t) sigma_z,   z(t) = z_i + (z_f - z_i) t / t_f,

with constant coupling x > 0 and a linear detuning ramp that crosses the
avoided crossing at z = 0 (z_i < 0 < z_f). Energies are E_{1,2} = -/+ b with
b = sqrt(x^2 + z^2); the gap is 2b. The instantaneous eigenvectors are kept
in a fixed real gauge,

    psi_1 = (-sqrt((b - z)/2b),  sqrt((b + z)/2b)),
    psi_2 = ( sqrt((b + z)/2b),  sqrt((b - z)/2b)),

so that all Berry connections vanish and overlap bookkeeping stays real.

The module provides the exact Schroedinger propagation (an eighth-order
Magnus propagator, no ODE: see :func:`evolve_schrodinger`), the adiabatic
approximation and its first-order correction, the adiabatic-impulse
approximation (adiabatic outside an impulse window [tau_-, tau_+], frozen
inside it), four closed-form prescriptions for the switching times, and a
numerical optimizer for the impulse interval. A negative impulse interval
is meaningful: it encodes evolving adiabatically past the crossing, jumping
backwards in time, and crossing again.

The exact, adiabatic and AIA states and the dynamical phase also take a batch
of crossings with a common t_f (array x, z_i, z_f, z(t), crossing axis last),
as the Ising chain's momentum modes are.
"""

import math
from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .numkit import _CHUNK, check_tolerance, hypot_antiderivative, minimize_scalar, step_doubling

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

REGIME_WHOLE = "whole-interval-impulse"
REGIME_INTERIOR = "interior"
REGIME_COLLAPSED = "collapsed"

# the rounding floor of an exact state per unit of its phase int b dt: a pair shares the
# rounding delta of h = t_f / n, |delta| <= eps / 2, which turns each phase by |delta|
# int b dt (the floor measured: CHANGES.md, "Measurements behind src constants")
_FLOOR_PER_PHASE = np.finfo(float).eps / 2.0

# the least n of a first pair. A pass of up to ~100 steps costs its ~25 numpy calls per
# chunk and a few per tree level, whatever n (timings and accuracy: CHANGES.md,
# "Measurements behind src constants")
_MIN_STEPS = 16


class _EndPoints:
    """A sweep's values at its ends, computed on first use and kept as long as the
    parameter object: psi_1(t_f) and psi_2(t_f), the gap antiderivative at t = 0 and at
    t = t_f (at z(t_f), which need not be z_f to the bit) and delta_1(0, t_f). Every
    state of a row and every evaluation of its optimizer reads them."""

    @cached_property
    def _psi_f(self):
        return lz_eigensystem(self.x, self.z_f)[2:]

    @cached_property
    def _prim_0(self):
        return _antiderivative(self, 0.0)

    @cached_property
    def _prim_f(self):
        return _antiderivative(self, self.t_f)

    @cached_property
    def _phase_f(self):
        return _phase(self, self._prim_0, self._prim_f)


@dataclass(frozen=True)
class LzParams(_EndPoints):
    """Sweep parameters: coupling x, detuning endpoints z_i < 0 < z_f, duration t_f."""

    x: float
    z_i: float
    z_f: float
    t_f: float

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError(f"require finite parameters, got {self}")
        if self.x <= 0:
            raise ValueError(f"require x > 0, got {self.x}")
        if not (self.z_i < 0 < self.z_f):
            raise ValueError(f"require z_i < 0 < z_f, got z_i={self.z_i}, z_f={self.z_f}")
        if self.t_f <= 0:
            raise ValueError(f"require t_f > 0, got {self.t_f}")
        # every closed form stays finite here: (dz / (x^2 t_f))^2 <= 4e240, x^2 >= 1e-60
        scales = np.abs([self.x, self.z_i, self.z_f, self.t_f])
        if not np.all((1e-30 <= scales) & (scales <= 1e30)):
            raise ValueError(f"require x, |z_i|, z_f and t_f in [1e-30, 1e30], got {self}")

    @property
    def dz(self):
        return self.z_f - self.z_i

    @property
    def zdot(self):
        return self.dz / self.t_f

    def z(self, t):
        return self.z_i + self.dz * np.asarray(t) / self.t_f

    def b(self, t):
        z = self.z(t)
        return np.sqrt(self.x**2 + z * z)


@dataclass(frozen=True)
class SwitchingTimes:
    """Impulse window (tau_minus, tau_plus) with a tag for the formula branch.

    Scenario outputs always satisfy 0 <= tau_minus <= tau_plus <= t_f. A window
    with tau_plus < tau_minus is a caller's input, which :func:`aia_state` accepts.
    tau_minus and tau_plus may be arrays, the window axis first. ``width`` is the
    width without the rounding of the ends, where a prescription knows it.
    """

    tau_minus: float
    tau_plus: float
    regime: str
    width: float = None

    @property
    def dtau(self):
        return self.tau_plus - self.tau_minus if self.width is None else self.width


def lz_eigensystem(x, z):
    """Instantaneous energies and real-gauge eigenvectors at coupling x, detuning z.

    Returns (E1, E2, psi1, psi2) with E1 = -b <= E2 = +b. Broadcasts over z;
    the vectors have shape z.shape + (2,). The small component is x / (2b)
    over the large one, sqrt((b + |z|)/2b): sqrt((b - |z|)/2b) would cancel
    once x << |z|.
    """
    b = np.hypot(x, z)
    if (b == 0.0).any():
        raise ValueError("eigensystem is degenerate at x = z = 0")
    big = np.sqrt((b + np.abs(z)) / (2.0 * b))
    small = x / (2.0 * b * big)
    lo, hi = np.where(z < 0, big, small), np.where(z < 0, small, big)
    return -b, b, np.stack([-lo, hi], axis=-1), np.stack([hi, lo], axis=-1)


# sin(r) / r = sum_k (-u)^k / (2k + 1)! in u = r^2, highest power first: for u <= 1 the
# first term left out is below 1 / 19! = 8.2e-18
_SINC_TAYLOR = [(-1) ** k / math.factorial(2 * k + 1) for k in range(8, -1, -1)]


def _cos_sinc(u):
    """(cos r, sin r / r) of r = sqrt(u), for an array u >= 0, without trigonometry or a
    square root of u.

    sinc = 1 + m, with m the Taylor polynomial in u through u^8 less its constant, as
    in-place Horner steps; cos = sqrt(1 - u sinc^2), so cos^2 + u sinc^2 = 1 to
    rounding and the SU(2) steps of :func:`_magnus_state` are unitary by construction.
    1 - u sinc^2 is formed as (1 - u) - u m (2 + m), with 1 - u exact for u >= 1/2, so
    it does not cancel: for u <= 1 both are within 2 ulp of the exact values. Above 1,
    every element's angle is halved k times, k the least with max u <= 4^k, and doubled
    back k times; cos 2r is then 1 - 2 sin^2 r, which keeps the error of a small
    angle small, and the error grows like eps r. cos^2 + u sinc^2 then departs from 1
    by up to about eps u, which only scales a step (a multiple of an SU(2) matrix), and
    :func:`_magnus_state` normalizes its result.
    """
    top = float(u.max())
    halvings = 0 if top <= 1.0 else math.ceil(0.5 * math.log2(top))
    if halvings:
        u = u * 0.25 ** halvings  # exact
    sinc = u * _SINC_TAYLOR[0]
    for c in _SINC_TAYLOR[1:-1]:
        sinc += c
        sinc *= u
    cos = sinc + 2.0
    cos *= sinc
    cos *= u
    np.subtract(1.0 - u, cos, out=cos)
    np.sqrt(cos, out=cos)
    sinc += 1.0
    for _ in range(halvings):  # sinc 2r = sinc r cos r, cos 2r = 1 - 2 u sinc^2 r
        sinc, cos = sinc * cos, 1.0 - 2.0 * u * sinc * sinc
        u = 4.0 * u
    return cos, sinc


def _magnus_steps(p, n):
    """The SU(2) matrices [[a, b], [-b*, a*]] of :func:`_magnus_state`'s n steps, as
    (a, b) chunks of at most :data:`_CHUNK` elements, the step axis first."""
    h, batch = p.t_f / n, np.shape(p.z_i)
    per_chunk = 1 << max(1, _CHUNK // np.size(p.z_i)).bit_length() - 1
    # in units of the step: alpha = h x, eps = h^2 zdot, and zeta = h z_m = a_z / k_z; A_x
    # and A_y as polynomials in a_z^2, with (h b_m)^2 = alpha^2 + q a_z^2
    alpha, eps = h * p.x, h * h * p.zdot
    alpha2, eps2 = alpha * alpha, eps * eps
    k_z = 1.0 - alpha2 * eps2 / 1890.0
    q = 1.0 / (k_z * k_z)
    a_x0, c_x = alpha * (1.0 - eps2 * (1.0 / 60.0 + 2.0 * alpha2 / 945.0)), alpha * eps2 * q / 630.0
    c_y = alpha * eps / 6.0
    y_0 = c_y * (1.0 - eps2 / 140.0 + alpha2 * (1.0 / 15.0 + 2.0 * alpha2 / 315.0))
    y_1, y_2 = c_y * q * (1.0 / 15.0 + 4.0 * alpha2 / 315.0), c_y * q * q * 2.0 / 315.0
    hz_i, hdz = h * k_z * p.z_i, h * k_z * p.dz
    for start in range(0, n, per_chunk):
        s = (np.arange(start, min(start + per_chunk, n)) + 0.5) / n
        a_z = hz_i + hdz * s.reshape(s.shape + (1,) * len(batch))
        a_z2 = a_z * a_z
        a_y = y_0 + a_z2 * (y_1 + y_2 * a_z2)
        a_x = a_x0 - c_x * a_z2
        cos, sinc = _cos_sinc(a_x * a_x + a_y * a_y + a_z2)
        a, b = -1j * (sinc * a_z), -1j * (sinc * a_x)  # real and complex operands apart: faster
        a.real, b.real = cos, -sinc * a_y
        yield a, b


def _magnus_state(p, n, psi):
    """psi evolved over [0, t_f] by n eighth-order Magnus steps, normalized.

    With z linear in t, a step is exp(-i A.sigma) up to O(h^9), with z_m the
    detuning at the step's middle, b_m^2 = x^2 + z_m^2 and

        A_x = h x (1 - h^4 zdot^2 / 60 - h^6 zdot^2 (2 x^2 / 945 + z_m^2 / 630)),
        A_y = h^3 x zdot / 6 + h^5 x zdot b_m^2 / 90 + h^7 x zdot (b_m^4 / 945 - zdot^2 / 840),
        A_z = h z_m (1 - h^6 x^2 zdot^2 / 1890),

    the exact step exponent through h^7 (Dyson series, then its log: every
    coefficient a simple fraction), as the SU(2) matrix [[a, b], [-b*, a*]] with
    a = cos|A| - i sinc A_z, b = -sinc (A_y + i A_x), sinc = sin|A| / |A|, both from
    |A|^2 by :func:`_cos_sinc`. The steps are multiplied as a tree, in chunks of at
    most :data:`_CHUNK` elements.
    """
    c0, c1 = psi[..., 0], psi[..., 1]
    for a, b in _magnus_steps(p, n):
        while len(a) > 1:
            if len(a) % 2:  # the identity as the latest step
                a, b = np.append(a, np.ones_like(a[:1]), 0), np.append(b, np.zeros_like(b[:1]), 0)
            (a1, b1), (a0, b0) = (a[1::2], b[1::2]), (a[::2], b[::2])
            a, b = a1 * a0 - b1 * b0.conj(), a1 * b0 + b1 * a0.conj()
        c0, c1 = a[0] * c0 + b[0] * c1, a[0].conj() * c1 - b[0].conj() * c0
    psi = np.stack([c0, c1], axis=-1)
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def _first_pair_n(p, phase, tol):
    """The n of :func:`evolve_schrodinger`'s first pair at tolerance tol; ``phase``
    holds int b dt of each crossing.

    The steps keep the exact step exponent through h^7. The first dropped term
    is h^9 times

        x zdot b^6 / 9450 - x zdot^3 (x^2 / 3780 + z^2 / 7560) along y, and an x-z
        part of -x^2 zdot^2 b^3 / 3780 along the field (plus zdot^3 terms) and
        x z zdot^2 b^3 / 6300 across it.

    Adiabatic estimate: to leading order in 1/t_f the state follows the
    eigenvector of the perturbed Hamiltonian. The y part tilts it out of the
    x-z plane by h^8 x b^5 zdot / 9450, so the end state is off by the mean of
    the tilts at z_i and z_f; the part along the field shifts the gap and
    leaves the phase error h^8 x^2 zdot^2 int b^3 dt / 3780. The two are
    orthogonal, and together they are K h^8 / t_f with K the larger over the
    crossings of hypot(dz x (b_i^5 + b_f^5) / 18900, x^2 zdot dz int b^3 dt / 3780).
    n = t_f (2 K / (t_f tol))^(1/8) takes that to tol / 2, the aim of a second pair.

    The estimate needs the error to have settled to its n^-8 fall, which is
    not so while the eigenbasis turns by more than 1/4 in a step; at most
    4 dz max x / (x^2 + z^2) steps, z the detuning nearest 0, prevent that (as
    in :func:`aia.lindblad_open.evolve_master`). Neither needs to exceed n_sum,
    the n of a bound on the whole remainder: the h^9 term is at most h^9 R,
    R = x zdot (b_max^2 + zdot)^3 / 9450, and each later order is at most
    h^2 (b_max^2 + zdot) / pi^2 times the one before (in the part linear in
    zdot, the remainder of x zdot h^3 (1 - y cot y) / (2 y^2), y = h b, whose
    Taylor coefficients zeta(2j) / pi^(2j) fall by less than 1 / pi^2), so a
    step is off by at most h^9 R / (1 - h^2 (b_max^2 + zdot) / pi^2), and n
    steps by t_f h^8 times that. With the step angle h max b at most 1 (the
    floor t_f max b), h^2 (b_max^2 + zdot) <= 3, and n_sum stays small in the
    sudden limit. There n is at least :data:`_MIN_STEPS`.
    """
    b_i, b_f = np.hypot(p.x, p.z_i), np.hypot(p.x, p.z_f)
    b_max = np.maximum(b_i, b_f)
    # int b^3 dt, from the antiderivative z b^3 / 4 + 3 x^2 (int b dz) / 4
    cube = p.t_f * (p.z_f * b_f ** 3 - p.z_i * b_i ** 3) / (4.0 * p.dz) + 0.75 * p.x * p.x * phase
    tilt = p.dz * p.x * (b_i ** 5 + b_f ** 5) / 18900.0
    gap = p.x * p.x * p.zdot * p.dz * cube / 3780.0
    n_adiabatic = p.t_f * (2.0 * np.max(np.hypot(tilt, gap)) / (p.t_f * tol)) ** 0.125
    z_near = np.clip(0.0, p.z_i, p.z_f)
    n_turn = 4.0 * p.dz * np.max(p.x / (p.x * p.x + z_near * z_near))
    remainder = np.max(p.x * p.zdot * (b_max * b_max + p.zdot) ** 3) / 9450.0
    n_sum = p.t_f * (2.0 * p.t_f * remainder / tol) ** 0.125
    h = p.t_f / max(n_sum, p.t_f * np.max(b_max), 1.0)
    n_sum /= (1.0 - np.max(h * h * (b_max * b_max + p.zdot)) / np.pi ** 2) ** 0.125
    return max(_MIN_STEPS, p.t_f * np.max(b_max), min(n_sum, max(n_turn, n_adiabatic)))


def evolve_schrodinger(p, tol=1e-10 + 1e-12):
    """Exact final state of the sweep, starting from the ground state at t = 0.

    Batched eighth-order Magnus steps in the fixed sigma_z frame (:func:`_magnus_state`;
    Blanes et al., Phys. Rep. 470, 151, 2009). The first pair's n is :func:`_first_pair_n`'s;
    :func:`aia.numkit.step_doubling` accepts a pair and sets the state's error and the step
    budget (steps x crossings). A ``tol`` that is not finite and positive raises ValueError.

    The n- and 2n-step states share the rounding delta of h = t_f / n, which turns each
    phase by |delta| int b dt where step doubling cannot see it: a pair is accepted only
    if its difference plus |delta| int b dt (1 + h^2 zdot / 3), delta exact
    (``fractions.Fraction``; the zdot terms of the steps see delta twice), is within the
    tolerance. A tolerance below eps int b dt / 2, where that term alone can fill it,
    raises before any step; one near eps int b dt may miss both pairs and raise too.
    A batch of crossings shares the steps: shape z_i.shape + (2,).
    """
    psi0 = lz_eigensystem(p.x, p.z_i)[2]
    phase = -p._phase_f  # int b dt, per crossing
    n = _first_pair_n(p, phase, check_tolerance(tol))

    def rounding(m):  # the error that the rounding of h = t_f / m gives both states of a pair
        h = p.t_f / m  # as in _magnus_state; t_f / (2 m) is h / 2, with the same delta
        delta = abs(float(Fraction(h) * m / Fraction(p.t_f) - 1))
        return delta * np.max(phase * (1.0 + h * h * p.zdot / 3.0))

    return step_doubling(lambda m: _magnus_state(p, m, psi0), n, tol, p.t_f,
                         batch=np.size(p.z_i), floor=_FLOOR_PER_PHASE * np.max(phase),
                         shared=rounding)


def dynamical_phase_gs(p, t_a, t_b):
    """Ground-state dynamical phase int_{t_a}^{t_b} E_1(t) dt, in closed form.

    E_1 = -b < 0 throughout, so the result is negative for t_b > t_a.
    """
    return _phase(p, _antiderivative(p, t_a), _antiderivative(p, t_b))


def _antiderivative(p, t):
    """The gap's antiderivative in z at z(t), of which delta_1 is a difference."""
    return hypot_antiderivative(p.z(t), p.x)


def _phase(p, prim_a, prim_b):
    """delta_1 between the times where :func:`_antiderivative` is prim_a and prim_b."""
    return -(p.t_f / p.dz) * (prim_b - prim_a)


def adiabatic_state(p):
    """Adiabatic approximation exp(-i delta_1(0, t_f)) psi_1(t_f)."""
    return np.exp(-1j * p._phase_f)[..., None] * p._psi_f[0]


def coupling_matrix_element(p, t):
    """<psi_2 | dH/dt | psi_1> at time t; real in the fixed gauge (= -zdot x / b)."""
    return -p.zdot * p.x / p.b(t)


def m21(p, t):
    """First-order mixing coefficient t_f <psi_2|dH/dt|psi_1> / (E_2 - E_1)^2."""
    b = p.b(t)
    return p.t_f * coupling_matrix_element(p, t) / (2.0 * b) ** 2


def j21(p, t):
    """Secular phase coefficient t_f int_0^t |<psi_2|dH/dt'|psi_1>|^2 / (E2-E1)^3 dt'.

    Closed form: t_f zdot (F(z(t)) - F(z_i)) / (8 x^2), F = (1 + s)^2 (2 - s) / 3,
    s = z/b, with 1 + s = x^2 / (b (b - z)) for z < 0, free of cancellation.
    """
    def f(z):
        b = np.hypot(p.x, z)
        u = p.x * p.x / (b * (b - z)) if z < 0 else 1.0 + z / b  # 1 + s
        return u * u * (3.0 - u) / 3.0

    return float(p.t_f * p.zdot * (f(float(p.z(t))) - f(p.z_i)) / (8.0 * p.x * p.x))


def adiabatic_first_order(p):
    """Adiabatic approximation with its 1/t_f correction, normalized.

    The correction adds a secular phase along psi_1 and end-point mixing into
    psi_2 weighted by the m21 coefficients at t = 0 and t = t_f.
    """
    psi1_f, psi2_f = p._psi_f
    ph1 = np.exp(-1j * p._phase_f)
    ph2 = np.exp(+1j * p._phase_f)  # delta_2 = -delta_1
    corr = (1j * ph1 * j21(p, p.t_f) * psi1_f
            - 1j * ph1 * m21(p, p.t_f) * psi2_f
            + 1j * ph2 * m21(p, 0.0) * psi2_f)
    state = ph1 * psi1_f + corr / p.t_f
    return state / np.linalg.norm(state)


def aia_state(p, st):
    """Adiabatic-impulse state: adiabatic on [0, tau_-] and [tau_+, t_f], frozen between.

        sum_j exp(-i delta_j(tau_+, t_f)) exp(-i delta_1(0, tau_-))
              <psi_j(tau_+) | psi_1(tau_-)>  psi_j(t_f)

    tau_+ < tau_- is allowed and realizes the double crossing of the gap
    minimum (jump backwards in time). For a batch of crossings the result
    has shape z_i.shape + (2,).
    """
    tm, tp = _checked_window(p, st.tau_minus, st.tau_plus)
    z_p = p.z(tp)
    cos, sin = _frozen_overlaps(p, p.z(tm), z_p, p.x * p.x)
    tail = np.exp(-1j * _phase(p, hypot_antiderivative(z_p, p.x), p._prim_f))
    pre = np.exp(-1j * _phase(p, p._prim_0, _antiderivative(p, tm)))
    psi1_f, psi2_f = p._psi_f
    return (tail * pre * cos)[..., None] * psi1_f + (tail.conj() * pre * sin)[..., None] * psi2_f


def _checked_window(p, tm, tp):
    """(tm, tp), each checked to lie in [0, t_f]; broadcasts."""
    if not np.all((0.0 <= tm) & (tm <= p.t_f) & (0.0 <= tp) & (tp <= p.t_f)):
        raise ValueError("switching times must lie in [0, t_f]")
    return tm, tp


def _centered_window(p, dtaus):
    """tau_-/+ = t_f/2 -/+ dtau/2 of an array of impulse intervals, each in [-t_f, t_f].
    Both lie in [0, t_f] exactly when |dtau/2| <= t_f/2 (rounding is monotone, and a
    difference of distinct doubles is never 0), so two reductions check the window."""
    half, half_tf = np.asarray(dtaus, dtype=float) / 2.0, p.t_f / 2.0
    if not (-half_tf <= half.min(initial=0.0) and half.max(initial=0.0) <= half_tf):
        raise ValueError("switching times must lie in [0, t_f]")
    return half_tf - half, half_tf + half


def _frozen_overlaps(p, z_m, z_p, x2):
    """(<psi_1(tau_+)|psi_1(tau_-)>, <psi_2(tau_+)|psi_1(tau_-)>) of windows with z_m =
    z(tau_-), z_p = z(tau_+), x2 = x^2. In the fixed gauge they are cos(dtheta/2) and
    sin(dtheta/2), dtheta = atan2(x (z_- - z_+), x^2 + z_+ z_-) the turn of the
    eigenbasis, free of cancellation; |dtheta| <= pi, so cos(dtheta/2) >= 0."""
    half_turn = 0.5 * np.arctan2(p.x * (z_m - z_p), x2 + z_p * z_m)
    return np.cos(half_turn), np.sin(half_turn)


def _window(center, tf, lower, upper, half):
    """A prescription's window: (0, t_f) if t_f < lower, the crossing time ``center`` if
    t_f >= upper (np.inf: never) or half() is 0, else center -/+ half() clamped to
    [0, t_f], whose width is 2 half() where neither end is clamped."""
    if tf < lower:
        return SwitchingTimes(0.0, tf, REGIME_WHOLE)
    half = 0.0 if tf >= upper else half()
    if half == 0.0:
        return SwitchingTimes(center, center, REGIME_COLLAPSED)
    tm, tp = center - half, center + half
    width = 2.0 * half if 0.0 <= tm and tp <= tf else None
    return SwitchingTimes(min(max(tm, 0.0), tf), min(max(tp, 0.0), tf), REGIME_INTERIOR, width)


def _short_of(a, c, x, n, tf):
    """a - c x^n t_f in integers, rounded once (as ``fractions.Fraction`` rounds), or 0 where not
    positive: the factor of a half-width that vanishes at the threshold t_f = a / (c x^n)."""
    (pa, qa), (px, qx), (pt, qt) = (float(v).as_integer_ratio() for v in (a, x, tf))
    return max((pa * qx**n * qt - c * px**n * pt * qa) / (qa * qx**n * qt), 0.0)


def switching_times(p, scenario):
    """Closed-form impulse window for prescriptions 1-4.

    1: gap time equals the detuning's inverse rate of change, 1/(2b) = |z/zdot|.
    2: same with the Hamiltonian's inverse rate of change, 1/(2b) = b/zdot.
    3: crude adiabaticity breakdown, 1/(2b) = t_f.
    4: matrix-element condition |<psi_2|dH/dt|psi_1>| = (2b)^2.

    Below the lower threshold the whole sweep is impulse, (0, t_f); above the
    upper threshold (scenarios 2-4) the window collapses to the crossing time.
    """
    x, zi, zf, tf, dz = p.x, p.z_i, p.z_f, p.t_f, p.dz
    center = -zi / dz * tf  # time where z = 0; -zi / dz <= 1 keeps it <= tf

    if scenario == 1:
        # = (x t_f / (sqrt2 dz)) sqrt(hypot(1, r) - 1), r = dz / (x^2 t_f), without the cancellation
        return _window(center, tf, 0.5 * dz / (zf * np.hypot(x, zf)), np.inf,
                       lambda: 1.0 / (x * np.sqrt(2.0 + 2.0 * np.hypot(1.0, dz / (x * x * tf)))))
    # 2-4: (x t_f / (sqrt2 dz)) sqrt(-2 + dz / (x^2 t_f)), (x t_f / dz) sqrt(-1 + (2 x t_f)^-2), and
    # (x t_f / (sqrt2 dz)) sqrt(q - 2), q^3 = dz^2 / (2 x^4 t_f^2) = 8 + (q - 2) ((q + 1)^2 + 3)
    if scenario == 2:
        return _window(center, tf, 0.5 * dz / (x * x + zi * zi), 0.5 * dz / (x * x),
                       lambda: np.sqrt(tf * _short_of(dz, 2, x, 2, tf) / 2.0) / dz)
    if scenario == 3:
        return _window(center, tf, 0.5 / np.hypot(x, zf), 0.5 / x,
                       lambda: np.sqrt(_short_of(1.0, 2, x, 1, tf) * (0.25 + 0.5 * x * tf)) / dz)
    if scenario == 4:
        return _window(center, tf, 0.25 * x * dz / (x * x + zi * zi), 0.25 * dz / (x * x),
                       lambda: np.sqrt(_short_of(dz, 4, x, 2, tf) * (dz + 4.0 * x * x * tf) / (
                           (np.cbrt((dz / (x * x * tf)) ** 2 / 2.0) + 1.0) ** 2 + 3.0))
                       / (2.0 * x * dz))
    raise ValueError(f"scenario must be 1..4, got {scenario}")


def _wedge(psi, phi):
    """psi_1 phi_2 - psi_2 phi_1 of two-level states; broadcasts over leading axes."""
    psi, phi = np.asarray(psi), np.asarray(phi)
    return psi[..., 0] * phi[..., 1] - psi[..., 1] * phi[..., 0]


def state_distance(psi, phi):
    """sqrt(1 - |<psi|phi>|^2) of normalized two-level states, clamped against
    rounding; broadcasts over leading axes.

    For two-level states this equals |psi_1 phi_2 - psi_2 phi_1| (:func:`_wedge`),
    which is evaluated directly: the wedge form has no cancellation and resolves
    distances all the way down to machine precision, where 1 - |<psi|phi>|^2
    would round to zero.
    """
    d = np.minimum(np.abs(_wedge(psi, phi)), 1.0)
    return d if d.ndim else float(d)


def aia_distance_grid(p, dtaus, psi_exact):
    """Distance of the AIA state to psi_exact for an array of impulse intervals, in
    centered windows (:func:`_centered_window`); the scan's objective. The wedge of
    :func:`state_distance` is linear in the AIA state, whose pre-window phase has modulus
    one, so the distance is |e_1 cos(dtheta/2) + exp(2i delta_1(tau_+, t_f)) e_2
    sin(dtheta/2)|, clamped to 1, with e_j = _wedge(psi_j(t_f), psi_exact): per point one
    antiderivative and one complex exponential, and no state array."""
    return _distance_kit(p, psi_exact)[0](dtaus)


# the rounding margin of the envelope per crossing, for normalized states (|e_j| <= 1):
# the envelope rounds within about 3 eps, the distance within about 10 eps of its exact
# value (the complex exponential's modulus, four products, a sum and a modulus)
_ENVELOPE_MARGIN = 32 * np.finfo(float).eps


def _distance_kit(p, psi_exact):
    """(distance, envelope): functions of an array of impulse intervals in centered
    windows, with the row's constants (e_1, e_2 and their moduli, x^2, -t_f / dz)
    computed once. ``distance`` is :func:`aia_distance_grid`'s; ``envelope`` is the
    phase-free l = ||e_1| cos(dtheta/2) - |e_2| |sin(dtheta/2)|| per crossing. By the
    triangle inequality, with cos(dtheta/2) >= 0 (|dtheta| <= pi), l <= d for any tail
    phase; the rounded values keep l <= d + :data:`_ENVELOPE_MARGIN`. The envelope needs
    no antiderivative and no complex exponential."""
    e_1, e_2 = (_wedge(psi_f, psi_exact) for psi_f in p._psi_f)
    abs_1, abs_2, x2, scale = np.abs(e_1), np.abs(e_2), p.x * p.x, -(p.t_f / p.dz)

    def overlaps(dtaus):
        tm, tp = _centered_window(p, dtaus)
        z_p = p.z(tp)
        return (*_frozen_overlaps(p, p.z(tm), z_p, x2), z_p)

    def distance(dtaus):
        cos, sin, z_p = overlaps(dtaus)
        tail = scale * (p._prim_f - hypot_antiderivative(z_p, p.x))
        return np.minimum(np.abs(e_1 * cos + np.exp(2j * tail) * (e_2 * sin)), 1.0)

    def envelope(dtaus):
        cos, sin, _ = overlaps(dtaus)
        return np.abs(abs_1 * cos - abs_2 * np.abs(sin))

    return distance, envelope


def optimize_dtau(p, psi_exact):
    """Impulse interval minimizing the AIA distance, searched over [-t_f, t_f].

    The scan grid always contains dtau = 0 (which reproduces the adiabatic
    state), so the returned distance never exceeds the adiabatic one. The grid
    step min(2, 0.5 / b_max), b_max = hypot(x, max(-z_i, z_f)), resolves the
    distance's oscillation in dtau at up to b_max; zooms refine to 1e-8. The
    envelope of :func:`_distance_kit`, less its margin, prunes the scan
    (:func:`aia.numkit.minimize_scalar`) without moving its minimum.
    """
    n = int(np.ceil(2.0 * p.t_f / min(2.0, 0.5 / np.hypot(p.x, max(-p.z_i, p.z_f))))) + 1
    distance, envelope = _distance_kit(p, psi_exact)
    return minimize_scalar(distance, -p.t_f, p.t_f, 1e-8, n,
                           bound=lambda d: envelope(d) - _ENVELOPE_MARGIN)
