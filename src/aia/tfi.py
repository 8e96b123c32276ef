"""Transverse-field Ising chain driven across its critical point.

The even-parity sector of the periodic chain

    H = sum_j sigma^x_j sigma^x_{j+1} + h(t) sum_j sigma^z_j

maps onto independent two-level systems, one per positive pseudo-momentum
k = (2j-1) pi / L. In the pair basis {|0_k 0_-k>, |1_k 1_-k>} each mode is
governed by

    H_k(h) = -2 [ (h - cos k) sigma_z + sin k sigma_y ],

whose spectrum is -/+ eps_k with eps_k = 2 sqrt((h - cos k)^2 + sin^2 k).

Each mode is the two-level crossing x sigma_x + z sigma_z of :mod:`aia.lz_closed`
with x = 2 sin k, z = 2 (h - cos k), and TfiParams exposes the modes as a batch of
such crossings. A register, the many-body product state, is an (L/2, 2) complex
array of the modes' batch states in that crossing basis, one mode per row (its
pair-basis vectors are reg @ [[0, 1], [-1j, 0]].T). The register distance
sqrt(1 - prod_k (1 - d_k^2)) combines the two-level distances d_k of the
normalized modes, so it does not depend on the basis.

The sweep h(t) = h_i + (h_f - h_i) t / t_f crosses the critical point h = 1
(infinite-chain gap 2|h - 1|).
"""

from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from . import lz_closed as lz
from .numkit import find_root_bracketed, minimize_scalar
from .lz_closed import REGIME_INTERIOR, REGIME_WHOLE, SwitchingTimes


@dataclass(frozen=True)
class TfiParams(lz._EndPoints):
    """Chain length L (even), field endpoints h_i < 1 < h_f, sweep duration t_f."""

    L: int
    h_i: float
    h_f: float
    t_f: float

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError(f"require finite parameters, got {self}")
        if self.L < 2 or self.L % 2:
            raise ValueError(f"require even L >= 2, got {self.L}")
        if not (0.0 <= self.h_i < 1.0 < self.h_f):
            raise ValueError(f"require 0 <= h_i < 1 < h_f, got h_i={self.h_i}, h_f={self.h_f}")
        if self.t_f <= 0:
            raise ValueError(f"require t_f > 0, got {self.t_f}")
        # the modes' x, z_i, z_f and dz then lie within LzParams' scales
        if not (self.h_f <= 1e30 and 1e-30 <= self.t_f <= 1e30):
            raise ValueError(f"require h_f <= 1e30 and t_f in [1e-30, 1e30], got {self}")

    @property
    def dh(self):
        return self.h_f - self.h_i

    @property
    def hdot(self):
        return self.dh / self.t_f

    def h(self, t):
        return self.h_i + self.dh * np.asarray(t) / self.t_f

    # the modes as a batch of two-level crossings, mode axis last (cached)
    @cached_property
    def _cos_k(self):
        return np.cos(momenta(self.L))

    @cached_property
    def x(self):
        return 2.0 * np.sin(momenta(self.L))

    def z(self, t):
        return 2.0 * (self.h(t)[..., None] - self._cos_k)

    @cached_property
    def z_i(self):
        return 2.0 * (self.h_i - self._cos_k)

    @cached_property
    def z_f(self):
        return 2.0 * (self.h_f - self._cos_k)

    @property
    def dz(self):
        return 2.0 * self.dh

    @property
    def zdot(self):
        return self.dz / self.t_f


def momenta(L):
    """Positive pseudo-momenta (2j - 1) pi / L, j = 1 .. L/2, ascending."""
    if L < 2 or L % 2:
        raise ValueError(f"require even L >= 2, got {L}")
    j = np.arange(1, L // 2 + 1)
    return (2 * j - 1) * np.pi / L


def epsilon_k(h, k):
    """Excitation energy 2 sqrt((h - cos k)^2 + sin^2 k); broadcasts."""
    return 2.0 * np.hypot(np.asarray(h) - np.cos(k), np.sin(k))


def _ellipe(m):
    """Complete elliptic integral E(m) = int_0^{pi/2} sqrt(1 - m sin^2 x) dx, m in [0, 1],
    by the arithmetic-geometric mean; broadcasts. Eight steps converge every
    m < 1 to rounding (m = 1 - 2^-53 needs the most); E(1) = 1, where the mean is 0."""
    m = np.asarray(m, dtype=float)
    a, b = 1.0, np.sqrt(1.0 - m)
    c2_sum, pow2 = 0.5 * m, 0.5  # sum of 2^(n-1) c_n^2 from n = 0, c_0^2 = m
    for _ in range(8):
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        c2_sum = c2_sum + pow2 * c * c
    return np.where(m == 1.0, 1.0, np.pi / (2.0 * a) * (1.0 - c2_sum))


def _elliptic_term(h):
    """(1 + h) E(4h/(1 + h)^2) = (1/4) int_0^pi eps_k(h) dk; broadcasts over h >= 0."""
    h = np.asarray(h, dtype=float)
    m = np.minimum(4.0 * h / (1.0 + h) ** 2, 1.0)  # = 1 at h = 1 up to rounding
    return (h + 1.0) * _ellipe(m)


def gs_energy_thermo(h, L):
    """Infinite-chain ground energy -(L / 2 pi) int_0^pi eps_k dk, in closed form."""
    if h < 0:
        raise ValueError(f"require h >= 0, got {h}")
    return float(-2.0 * L / np.pi * _elliptic_term(h))


def tfi_gap(h, L):
    """Spectral gap min_k eps_k of the length-L chain (2|h - 1| as L -> inf)."""
    if h < 0:
        raise ValueError(f"require h >= 0, got {h}")
    return float(np.min(epsilon_k(h, momenta(L))))


def evolve_register(p, tol=1e-10 + 1e-12):
    """Exact register from the h_i ground register, :func:`aia.lz_closed.evolve_schrodinger`."""
    return lz.evolve_schrodinger(p, tol)


def adiabatic_register(p):
    """Per-mode adiabatic state: ground vector at h_f with its dynamical phase."""
    return lz.adiabatic_state(p)


def aia_register(p, st):
    """Adiabatic-impulse register (frozen on [tau_-, tau_+]), :func:`aia.lz_closed.aia_state`."""
    return lz.aia_state(p, st)


def _normalized(reg):
    return reg / np.linalg.norm(reg, axis=-1, keepdims=True)


def _product_distance(d):
    """sqrt(1 - prod_k (1 - d_k^2)) of per-mode distances (mode axis last), as
    sqrt(-expm1(sum_k log1p(-d_k^2))): free of cancellation at small d, and an
    orthogonal mode (log1p(-1) = -inf) reads exactly 1."""
    with np.errstate(divide="ignore"):
        return np.sqrt(-np.expm1(np.sum(np.log1p(-d * d), axis=-1)))


def register_distance(reg_a, reg_b):
    """sqrt(1 - prod_k |<a_k|b_k>|^2) of the normalized modes, in [0, 1]; broadcasts over
    leading axes, as a stack of registers (mode and component axes last)."""
    if np.shape(reg_a)[-2:] != np.shape(reg_b)[-2:]:
        raise ValueError(f"registers of different shape {np.shape(reg_a)} and {np.shape(reg_b)}")
    d = _product_distance(lz.state_distance(_normalized(reg_a), _normalized(reg_b)))
    return d if d.ndim else float(d)


def _kz_condition_scenario2(p, h):
    """Modified freeze-out condition |h - 1| (h + 1) E(4h/(1+h)^2) - pi hdot; broadcasts.

    Zero where the inverse infinite-chain gap 1/|h - 1| equals the chain's
    inverse rate of change (h + 1) E / (pi hdot), negative between those fields
    (the frozen region; -pi hdot at h = 1). |h - 1| (h + 1) E strictly falls on
    [0, 1) and rises on (1, inf), so each side of h = 1 holds at most one zero.
    """
    return np.abs(np.asarray(h) - 1.0) * _elliptic_term(h) - np.pi * p.hdot


def switching_times_tfi(p, scenario):
    """Impulse window for the chain sweep.

    Scenario 1 applies the freeze-out argument to the distance from
    criticality (gap 2|h - 1|), giving the closed form t_center -/+
    sqrt(t_f) / sqrt(2 dh) above the threshold t_f = dh / (2 (h_f - 1)^2);
    below it the whole sweep is impulse. Scenario 2 equates the inverse gap
    with the chain's inverse rate of change, which involves the complete
    elliptic integral: a side of h = 1 holds a root of the condition exactly
    when it is positive at the side's end, and the root is bisected between
    that end and h = 1 to the spacing of doubles. A side without one keeps
    its end (tau_- = 0, tau_+ = t_f); with neither, the whole sweep is impulse.
    """
    tf, dh = p.t_f, p.dh
    if scenario == 1:  # h = 1 is crossed at t = -(h_i - 1) t_f / dh
        return lz._window(-(p.h_i - 1.0) * tf / dh, tf, 0.5 * dh / (p.h_f - 1.0) ** 2, np.inf,
                          lambda: np.sqrt(tf) / (np.sqrt(2.0) * np.sqrt(dh)))

    if scenario != 2:
        raise ValueError(f"scenario must be 1 or 2 for the chain, got {scenario}")

    def root(end):  # the condition is -pi hdot < 0 at h = 1
        if not _kz_condition_scenario2(p, end) > 0.0:
            return None
        return find_root_bracketed(lambda h: _kz_condition_scenario2(p, h),
                                   min(end, 1.0), max(end, 1.0))

    h_minus, h_plus = root(p.h_i), root(p.h_f)
    tau_m = 0.0 if h_minus is None else (h_minus - p.h_i) * tf / dh
    tau_p = tf if h_plus is None else (h_plus - p.h_i) * tf / dh
    regime = REGIME_WHOLE if (h_minus is None and h_plus is None) else REGIME_INTERIOR
    return SwitchingTimes(tau_m, tau_p, regime)


def aia_distance_grid(p, dtaus, exact_reg):
    """Register distance of the centered-window AIA to the exact register over an array of
    impulse intervals in [-t_f, t_f], from the mode distances of lz.aia_distance_grid."""
    return _product_distance(lz.aia_distance_grid(p, dtaus, _normalized(exact_reg)))


def optimize_dtau_tfi(p, exact_reg):
    """Impulse interval minimizing the register distance over [-t_f, t_f], from a scan
    of 801 points that holds dtau = 0, so the result never exceeds the adiabatic distance.

    The scan is pruned (:func:`aia.numkit.minimize_scalar`) by the register distance of
    the modes' envelopes l_k <= d_k (:func:`aia.lz_closed._distance_kit`), capped at 1:
    sqrt(1 - prod_k (1 - d_k^2)) rises in each d_k, by at most 1 per unit of d_k. Its
    margin, L/2 (M + 3 eps), M the per-mode margin, covers the modes' margins and both
    products' rounding, about (L/2 + 5) eps / 2."""
    _, envelope = lz._distance_kit(p, _normalized(exact_reg))
    margin = p.L / 2 * (lz._ENVELOPE_MARGIN + 3 * np.finfo(float).eps)

    def bound(dtaus):
        return _product_distance(np.minimum(envelope(dtaus), 1.0)) - margin

    return minimize_scalar(lambda d: aia_distance_grid(p, d, exact_reg), -p.t_f, p.t_f, 1e-6,
                           801, bound=bound)
