"""Small numerical kernel: ODE integration, step-doubling error control, root
finding, scalar minimization, power-law fitting and the antiderivative of a gap.

Everything here is dimension-agnostic but tuned for the tiny systems used in
the rest of the package (state vectors of length 2, superoperators of size 4).
The module needs only numpy: scipy's ODE solver, which only the intertwiner's
transport uses, is imported on the first call of :func:`solve_ivp`.
"""

from dataclasses import dataclass

import numpy as np


_EPS = np.finfo(float).eps

# The most steps x batch that one pair of :func:`step_doubling` (n + 2n steps) may take:
# 238x the largest pair of a shipped row (the chain at t_f = 300: 3 x 2512 x 75 = 5.7e5)
# and over 6x the largest that a test runs (the open model at t_f = 1e5: 3 x 124740 x 56 =
# 2.1e7). Its cost in time: CHANGES.md, "Measurements behind src constants".
STEP_BUDGET = 2 ** 27

# elements per chunk of vectorized work: lz_closed's chunks of Magnus steps (the fastest
# of the powers of two timed: CHANGES.md, "Measurements behind src constants") and the
# blocks of scan points of minimize_scalar
_CHUNK = 65536


class IntegrationError(RuntimeError):
    """Stepping failed: step-size underflow, non-finite rhs, or the roundoff floor."""


@dataclass(frozen=True)
class FitResult:
    """Power law d = amplitude * t**exponent fitted in log-log space.

    ``residual`` is the RMS of the log-residuals; it vanishes (to rounding)
    on exact power-law data.
    """

    amplitude: float
    exponent: float
    residual: float


def solve_ivp(*args, stages=None, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call, so that importing
    the package loads no scipy module.

    With ``stages``, the method is DOP853, and before each try of a step
    ``stages(times)`` is called with the 11 times t + C[1:] h at which that try calls
    the rhs, h as scipy's ``_step_impl`` computes it (a retry's from the rejected try's
    error norm); the last, C = 1, is t + h. Only the start and the initial-step probe
    call the rhs at times not announced. Step control is scipy's, so the result and
    ``nfev`` are those of plain DOP853.
    """
    from scipy.integrate import DOP853, solve_ivp

    if stages is None:
        return solve_ivp(*args, **kwargs)

    class StagedDOP853(DOP853):
        def _announce(self, h_abs):
            t, direction = self.t, self.direction
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            stages(t + self.C[1:] * h)

        def _step_impl(self):
            t, h_abs = self.t, self.h_abs
            min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
            self._announce(self.max_step if h_abs > self.max_step
                           else min_step if h_abs < min_step else h_abs)
            return super()._step_impl()

        def _estimate_error_norm(self, K, h, scale):
            error_norm = super()._estimate_error_norm(K, h, scale)
            if not error_norm < 1:  # rejected; 0.2 and 0.9 are scipy's MIN_FACTOR and SAFETY
                self._announce(np.abs(h) * max(0.2, 0.9 * error_norm ** self.error_exponent))
            return error_norm

    kwargs["method"] = StagedDOP853
    return solve_ivp(*args, **kwargs)


def check_tolerance(tol, name="tol"):
    """``tol``, once it is checked to be finite and positive; an error names it ``name``."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and positive, got {tol}")
    return tol


def integrate_ode(rhs, y0, t0, t1, rel_tol=1e-10, abs_tol=1e-12, stages=None):
    """Propagate y' = rhs(t, y) from t0 to t1 with the embedded 8th-order pair DOP853.

    The 8th-order pair accumulates far less global error on very long sweeps
    (t1 up to 1e4 oscillation periods) than the 5(4) pair RK45. Real and
    complex state vectors are both supported; the result has the dtype of
    ``y0``. Raises :class:`IntegrationError` with the failing time if the step
    size underflows or the rhs is not finite at the start (on a non-finite
    first slope the solver would never pick a usable step), and ``ValueError`` on a
    non-finite t0 or t1 (toward which it would step forever). ``stages`` goes to
    :func:`solve_ivp`; the rhs must not depend on whether it was called.
    """
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"require finite t0 and t1, got [{t0}, {t1}]")
    if t1 < t0:
        raise ValueError(f"require t1 >= t0, got [{t0}, {t1}]")
    check_tolerance(rel_tol, "rel_tol")
    check_tolerance(abs_tol, "abs_tol")
    y0 = np.atleast_1d(np.asarray(y0))
    if t1 == t0:
        return y0.copy()
    if not np.all(np.isfinite(rhs(t0, y0))):
        raise IntegrationError(f"integration failed at t={t0:.6g}: non-finite rhs")
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=rel_tol, atol=abs_tol,
                    dense_output=False, stages=stages)
    if not sol.success:
        t_fail = sol.t[-1] if sol.t.size else t0
        raise IntegrationError(f"integration failed at t={t_fail:.6g}: {sol.message}")
    return sol.y[:, -1]


def step_doubling(propagate, n, tol, t_end, *, batch=1, floor=_EPS, shared=None):
    """Final state of an eighth-order propagator, its step count chosen by step
    doubling.

    ``propagate(m)`` returns the state after m equal steps, each of which costs
    ``batch`` two-level steps (one per crossing of a batch); the first pair
    takes ceil(n) and twice that many steps, n a float. The 2n-step state is
    returned once its largest difference from the n-step one, plus ``shared(n)``
    if given (a bound on an error that the two states have in common and their
    difference cannot see), is within ``tol``; its own error, falling like n^-8,
    is then about 1 / 255 of the difference. Otherwise the difference predicts,
    by its eighth root, the n of a second pair; if that misses too, the roundoff
    floor is reached and :class:`IntegrationError` names it, with the end time ``t_end``.
    Neither a tolerance below ``floor``, the rounding floor of the states (at
    least the machine epsilon, which no state of unit size resolves), nor a pair
    whose 3n steps x ``batch`` exceed :data:`STEP_BUDGET` (or whose n is
    infinite or NaN) is run: both raise before any step of theirs is taken, the
    budget first. A pair with a non-finite state raises, and no second pair runs.
    ``tol`` is the caller's, checked by :func:`check_tolerance`.
    """
    floor = max(floor, _EPS)
    for _ in range(2):
        n = max(np.ceil(n), 1.0)  # a shared miss with no visible difference predicts n = 0
        if not 3 * n * batch <= STEP_BUDGET:  # also refuses an infinite or NaN n
            raise IntegrationError(f"integration failed at t={t_end:.6g}: a pair of {n:.3g} "
                                   f"and {2 * n:.3g} steps x {batch} exceeds the budget "
                                   f"{STEP_BUDGET:.3g}")
        if tol < floor:  # only on the first pass
            raise IntegrationError(f"integration failed at t={t_end:.6g}: the tolerance "
                                   f"{tol:.3g} is below the roundoff floor {floor:.3g}")
        n = int(n)
        coarse, fine = propagate(n), propagate(2 * n)
        if not (np.isfinite(coarse).all() and np.isfinite(fine).all()):
            raise IntegrationError(f"integration failed at t={t_end:.6g}: a non-finite state")
        seen = float(np.max(np.abs(coarse - fine)))
        diff = seen + (shared(n) if shared else 0.0)
        if diff <= tol:
            return fine
        # aim the visible difference at tol / 2
        steps, n = 2 * n, n * (2.0 * seen / tol) ** 0.125
    raise IntegrationError(f"integration failed at t={t_end:.6g}: {steps} steps leave "
                           f"a difference {diff:.3g} above the tolerance {tol:.3g} (roundoff floor)")


def find_root_bracketed(g, a, b):
    """Root of a scalar ``g`` on [a, b], a < b, given a sign change; bisection.

    The bracket halves until its midpoint no longer splits it, so its ends are
    adjacent doubles; that midpoint is returned, within the spacing u of
    doubles at the root. An exact zero met on the way is returned at once.
    ``g`` is called at most ceil(log2((b - a) / u)) + 3 times (two ends, then
    one per halving; rounding may add a halving).
    """
    if not a < b:
        raise ValueError(f"require a < b, got [{a}, {b}]")
    ga, gb = g(a), g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if not (ga < 0.0 < gb or gb < 0.0 < ga):
        raise ValueError(f"no sign change on [{a}, {b}]: g(a)={ga:.3g}, g(b)={gb:.3g}")
    mid = 0.5 * (a + b)
    while a < mid < b:
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm < 0.0) == (ga < 0.0):
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return mid


def _finite(values, name):
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} returned non-finite values on the search grid")
    return values


def minimize_scalar(f, a, b, tol=1e-10, n_grid=201, bound=None):
    """Minimum of ``f`` on [a, b] by a grid scan, then zooms; ``f`` evaluates a numpy array.

    The scan has an odd count of at least ``n_grid`` and 201 points, so on a symmetric
    interval it holds 0 (to one rounding) and the result never exceeds f(0). Each zoom
    is one call of f on 33 points across the two cells around the best point,
    until that bracket is narrower than ``tol`` or stops shrinking (``tol``
    below the spacing of doubles). The best value seen is kept, so the result
    never exceeds the scan minimum. Every grid is np.linspace's to the bit, built as
    ``arange * step + lo`` with its last point set to the upper end.

    ``bound``, an array function with bound(x) <= f(x) at every scan point (rounding
    included), prunes a scan of more than 201 points: the bound is evaluated over the
    whole scan, f at the 33 points of least bound, and f again only where the bound
    is at most the least of those 33 values, f_ref. The scan minimum is at most f_ref,
    so every point that can hold it is kept, and the result is that of the full scan
    to the bit. The scan's grid, bounds and kept points go to f and ``bound`` in blocks
    of at most :data:`_CHUNK` points. Values of f are checked where f is evaluated.
    """
    if not a < b:
        raise ValueError(f"require a < b, got [{a}, {b}]")
    check_tolerance(tol)
    a, b = float(a), float(b)
    n = max(int(n_grid) | 1, 201)
    step = (b - a) / (n - 1)

    def point(i):  # np.linspace(a, b, n)[i]
        return b if i == n - 1 else i * step + a

    def blocks():  # (start, np.linspace(a, b, n)[start:stop]) of each block
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            xs = np.arange(start, stop) * step + a
            if stop == n:
                xs[-1] = b
            yield start, xs

    i_best, f_best = 0, np.inf

    def scan(start, xs, keep=None):  # the first least value of f over xs[keep]
        nonlocal i_best, f_best
        fs = _finite(f(xs if keep is None else xs[keep]), "objective")
        i = int(np.argmin(fs))
        if fs[i] < f_best:
            i_best, f_best = start + (i if keep is None else int(keep[i])), float(fs[i])

    if bound is None or n == 201:
        for start, xs in blocks():
            scan(start, xs)
    else:
        ref_x, ref_b, kept = np.empty(0), np.empty(0), []
        for start, xs in blocks():
            lb = _finite(bound(xs), "bound")
            if n <= _CHUNK:  # one block keeps its bounds for the second pass
                kept.append((start, xs, lb))
            ref_x, ref_b = np.append(ref_x, xs), np.append(ref_b, lb)
            if ref_b.size > 33:
                least = np.argpartition(ref_b, 32)[:33]
                ref_x, ref_b = ref_x[least], ref_b[least]
        f_ref = _finite(f(ref_x), "objective").min()
        for start, xs, lb in kept or ((s, xs, _finite(bound(xs), "bound")) for s, xs in blocks()):
            keep = np.flatnonzero(lb <= f_ref)
            if keep.size:
                scan(start, xs, keep)

    lo, hi, x_best = point(max(i_best - 1, 0)), point(min(i_best + 1, n - 1)), point(i_best)
    width = np.inf
    while tol < hi - lo < width:
        width = hi - lo
        xs = np.arange(33.0) * ((hi - lo) / 32) + lo
        xs[-1] = hi
        fs = _finite(f(xs), "objective")
        i = int(np.argmin(fs))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, 32)]
        if fs[i] < f_best:
            x_best, f_best = float(xs[i]), float(fs[i])
    return x_best, f_best


def fit_power_law(t, d):
    """Least-squares fit of d = A * t**p in (log t, log d) coordinates.

    Needs at least 3 points, at least 2 distinct t, and every t and d finite and
    positive; anything else raises ``ValueError``.
    """
    t = np.asarray(t, dtype=float)
    d = np.asarray(d, dtype=float)
    if t.size < 3:
        raise ValueError("need at least 3 points to fit a power law")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(d))):
        raise ValueError(f"power-law fit requires finite data, got t={t}, d={d}")
    if np.any(t <= 0) or np.any(d <= 0):
        raise ValueError("power-law fit requires strictly positive data")
    if np.unique(t).size < 2:
        raise ValueError(f"power-law fit needs at least 2 distinct t, got {t}")
    lt, ld = np.log(t), np.log(d)
    p, c = np.polyfit(lt, ld, 1)
    resid = ld - (p * lt + c)
    return FitResult(amplitude=float(np.exp(c)), exponent=float(p),
                     residual=float(np.sqrt(np.mean(resid**2))))


def hypot_antiderivative(u, a):
    """Antiderivative in u of sqrt(u^2 + a^2), a != 0; broadcasts.

    Every gap in the package has this form, so every dynamical phase is a
    difference of two of these values. The asinh form stays finite at any
    coupling; the equivalent log(u + sqrt(u^2 + a^2)) rounds to log 0 for
    u < 0 once |a| is below ~1e-8 |u|. The root is sqrt(u * u + a * a), not
    np.hypot (the costs: CHANGES.md, "Measurements behind src constants").
    Every parameter class bounds its scales to
    [1e-30, 1e30]; for |u| and |a| up to a few 1e30 no square overflows, and
    with |a| >= 1e-30 an underflowing u * u leaves the root at |a|. There the
    result is within 2 eps relative of its exact value for either sign of u
    (both terms share it).
    """
    return 0.5 * (u * np.sqrt(u * u + a * a) + a * a * np.arcsinh(u / a))

