"""Spectral transport of the damped-qubit generator along the sweep.

Two transports act on coherence 4-vectors:

* the kernel transport W_1, the limit of ordered products of the kernel
  projectors P_1(t) = R_1(t) L_1^T, is P_1(t) itself: L_1 = (sqrt2, 0, 0, 0)
  is constant and L_1 . R_1 = 1, so P_1(b) P_1(a) = P_1(b) on any mesh and
  the kernel connection A_1 = L_1 . dR_1/dt = d(L_1 . R_1)/dt is zero;

* the full transport U(s) carrying every spectral sector at once, defined
  on the rescaled time s = t / t_f by

      dU/ds = ( t_f L(s) + (1/2) sum_n [dP_n/ds, P_n] ) U,   U(0) = 1,

  which intertwines the instantaneous projectors, P_n(s) U(s) = U(s) P_n(0), up
  to discretization error (dP_n/ds: central differences of one broadcast call).

U and the exact propagator E are DOP853 solves of 4x4 matrix ODEs (:func:`_propagate`).

U(s) is trace preserving but only approximately completely positive; its
distance to the exact propagator (and hence its complete-positivity defect)
shrinks like 1/t_f. The Choi-matrix diagnostics (:func:`cptp_diagnostics`) quantify both.
"""

from dataclasses import replace

import numpy as np

from .numkit import fit_power_law, integrate_ode
from .lindblad_open import PAULI_BASIS, _eigenvectors, liouvillian_matrix, trace_distance


def kernel_projector(p, t):
    """Rank-one kernel projector R_1(t) L_1^T, also the kernel transport over [0, t]."""
    right, left = _eigenvectors(p.x, float(p.z(t)), p.beta)
    return np.outer(right[:, 0], left[0]).real


def spectral_projectors(p, s):
    """The projectors P_n = R_n L_n^T at rescaled times s, shape s.shape + (4, 4, 4) with n
    first; complex for the paired sectors. Each is bitwise ``np.outer`` of the scalar R_n, L_n."""
    right, left = _eigenvectors(p.x, p.z(np.asarray(s) * p.t_f), p.beta)
    return np.swapaxes(right, -1, -2)[..., None] * left[..., None, :]


_FD_STEP = 1e-6


def _commutator_term(p, s):
    """(1/2) sum_n [dP_n/ds, P_n] with dP_n/ds by central differences; real, broadcast over s
    with shape s.shape + (4, 4). Dividing by 2h lifts the projectors' rounding to ~1e-10, the
    size of the benchmark's transport deviations (its references carry that rounding), so each
    matrix keeps the bits of the loop over n in ``tests/oracles.py`` until ROADMAP item 1
    re-bases those references."""
    shifted = np.asarray(s)[..., None] + np.array([0.0, _FD_STEP, -_FD_STEP])
    pn, pp, pm = np.moveaxis(spectral_projectors(p, shifted), -4, 0)
    dp = (pp - pm) / (2.0 * _FD_STEP)
    return 0.5 * (dp @ pn - pn @ dp).sum(-3).real


def _generators(p, s, holonomy):
    """t_f L(s), plus the commutator term if ``holonomy``; broadcast over s, each matrix
    bitwise the one of a scalar s."""
    gen = p.t_f * liouvillian_matrix(p.x, p.z(np.asarray(s) * p.t_f), p.beta, p.g)
    return gen + _commutator_term(p, s) if holonomy else gen


def _propagate(p, s, rel_tol, abs_tol, holonomy):
    """X(s) of dX/ds = G(s) X, X(0) = 1, G from :func:`_generators`, by DOP853. The
    generators of each try of a step are built in one call at its 11 stage times; the rhs
    looks its generator up by exact time, and builds it alone on a miss (at s = 0, and at
    the initial-step probe). Either way it has the same bits, and so has X."""
    built = {}

    def stages(times):
        built.clear()
        built.update(zip(times.tolist(), _generators(p, times, holonomy)))

    def rhs(sv, x):
        gen = built.get(sv)
        if gen is None:
            gen = _generators(p, sv, holonomy)
        return (gen @ x.reshape(4, 4)).ravel()

    x = integrate_ode(rhs, np.eye(4).ravel(), 0.0, s, rel_tol, abs_tol, stages=stages)
    return x.reshape(4, 4)


def full_intertwiner(p, s=1.0, rel_tol=1e-10, abs_tol=1e-12):
    """Transport superoperator U(s) for the sweep stretched to duration t_f."""
    return _propagate(p, s, rel_tol, abs_tol, holonomy=True)


def exact_propagator(p, s=1.0, rel_tol=1e-10, abs_tol=1e-12):
    """Exact evolution superoperator E(s), dE/ds = t_f L(s) E, E(0) = 1."""
    return _propagate(p, s, rel_tol, abs_tol, holonomy=False)


def choi_matrix(superop):
    """Choi matrix sum_ij S(|i><j|) (x) |i><j| (output factor first); in the Pauli
    basis it is sum_mk S_mk Gamma_m (x) conj(Gamma_k)."""
    return np.einsum("mk,mab,kcd->acbd", superop, PAULI_BASIS,
                     np.conj(PAULI_BASIS)).reshape(4, 4)


def cptp_diagnostics(superop):
    """(trace_error, min_choi_eig) of a Pauli-basis superoperator.

    trace_error is the worst trace deviation over the Pauli basis inputs;
    min_choi_eig is negative when the map fails complete positivity.
    """
    superop = np.asarray(superop)
    trace_error = max(abs(np.sqrt(2.0) * superop[0, k] - np.trace(g).real)
                      for k, g in enumerate(PAULI_BASIS))
    choi = choi_matrix(superop)
    choi = 0.5 * (choi + choi.conj().T)
    return float(trace_error), float(np.linalg.eigh(choi)[0][0])


def superop_trace_norm_distance(s_a, s_b):
    """max over Pauli-basis inputs of the output trace-norm difference: column k
    is the image of Gamma_k, whose trace norm is twice its trace distance to 0."""
    return 2.0 * float(np.max(trace_distance(np.real(np.asarray(s_a) - np.asarray(s_b)).T, 0.0)))


def closeness_bound_check(p, t_f_list, rel_tol=1e-10, abs_tol=1e-12):
    """Power-law fit of ||E - U|| against t_f (probe-set induced trace norm).

    Returns (fit, norms): the transport error should shrink like C / t_f. Fewer than 3
    values of t_f, fewer than 2 distinct ones, or one that the parameters refuse (such as a
    non-finite one) raise ``ValueError`` before any transport is solved.
    """
    t_f_list = np.asarray(t_f_list, dtype=float)
    if t_f_list.size < 3 or np.unique(t_f_list).size < 2:
        raise ValueError(f"need at least 3 values of t_f, 2 of them distinct, got {t_f_list}")
    norms = []
    for q in [replace(p, t_f=float(tf)) for tf in t_f_list]:
        e = exact_propagator(q, 1.0, rel_tol, abs_tol)
        u = full_intertwiner(q, 1.0, rel_tol, abs_tol)
        norms.append(superop_trace_norm_distance(e, u))
    return fit_power_law(t_f_list, np.array(norms)), np.array(norms)
