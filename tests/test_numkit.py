"""Numerical kernel: oracle-backed checks for every operation."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from aia import numkit, tfi


# ---------------------------------------------------------------- integrate_ode

def test_ode_exponential_decay():
    y = numkit.integrate_ode(lambda t, y: -y, [1.0], 0.0, 1.0)
    assert abs(y[0] - np.exp(-1.0)) < 1e-9


def test_ode_phase_rotation_preserves_norm():
    y = numkit.integrate_ode(lambda t, y: 1j * y, np.array([1.0 + 0j]), 0.0, np.pi)
    assert abs(y[0] - (-1.0)) < 1e-9
    assert abs(abs(y[0]) - 1.0) < 1e-9


def _lz_rhs(x, z_i, z_f, t_f):
    zdot = (z_f - z_i) / t_f

    def rhs(t, c):
        z = z_i + zdot * t
        return -1j * np.array([z * c[0] + x * c[1], x * c[0] - z * c[1]])

    return rhs


def _rk4_richardson(rhs, y0, t0, t1, n):
    """Fixed-step classical RK4 at n and 2n steps, Richardson extrapolated."""
    def run(steps):
        h = (t1 - t0) / steps
        y, t = np.array(y0, dtype=complex), t0
        for _ in range(steps):
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return y

    y1, y2 = run(n), run(2 * n)
    return y2 + (y2 - y1) / 15.0


def test_ode_matches_fixed_step_richardson_oracle():
    # two-level sweep x=0.1, z: -1 -> 1, t_f = 10
    rhs = _lz_rhs(0.1, -1.0, 1.0, 10.0)
    b_i = np.hypot(0.1, 1.0)
    y0 = np.array([-np.sqrt((b_i - (-1.0)) / (2 * b_i)),
                   np.sqrt((b_i + (-1.0)) / (2 * b_i))], dtype=complex)
    got = numkit.integrate_ode(rhs, y0, 0.0, 10.0, 1e-12, 1e-14)
    oracle = _rk4_richardson(rhs, y0, 0.0, 10.0, 20000)
    assert np.abs(got - oracle).max() < 1e-8


def test_ode_schrodinger_norm_preservation():
    rhs = _lz_rhs(0.1, -1.0, 1.0, 50.0)
    y0 = np.array([1.0, 0.0], dtype=complex)
    for rel in (1e-8, 1e-10):
        y = numkit.integrate_ode(rhs, y0, 0.0, 50.0, rel, rel * 1e-2)
        assert abs(np.linalg.norm(y) - 1.0) < 10 * rel


def test_ode_tolerance_halving_self_consistency():
    rhs = _lz_rhs(0.1, -1.0, 1.0, 10.0)
    y0 = np.array([1.0, 0.0], dtype=complex)
    a = numkit.integrate_ode(rhs, y0, 0.0, 10.0, 1e-8, 1e-10)
    b = numkit.integrate_ode(rhs, y0, 0.0, 10.0, 5e-9, 5e-11)
    assert np.abs(a - b).max() < 1e-8


def test_ode_rejects_bad_interval_and_tolerances():
    with pytest.raises(ValueError):
        numkit.integrate_ode(lambda t, y: -y, [1.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        numkit.integrate_ode(lambda t, y: -y, [1.0], 0.0, 1.0, rel_tol=0.0)


def test_ode_failure_reports_time():
    # finite-time blow-up: y' = y^2, y(0) = 1 diverges at t = 1
    with pytest.raises(numkit.IntegrationError, match="t="):
        numkit.integrate_ode(lambda t, y: y * y, [1.0], 0.0, 2.0)


def test_ode_non_finite_rhs_at_start_raises_at_once(within_10_s):
    # on a NaN first slope the adaptive solver would loop forever
    with pytest.raises(numkit.IntegrationError, match="t=0.*non-finite"):
        numkit.integrate_ode(lambda t, y: np.full_like(y, np.nan), [1.0], 0.0, 1.0)


@pytest.mark.parametrize("t0, t1", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0),
                                    (-np.inf, 1.0), (np.inf, np.inf)])
def test_ode_non_finite_end_times_raise_at_once(within_10_s, t0, t1):
    # toward a NaN or infinite end the solver would step forever
    with pytest.raises(ValueError, match="finite t0 and t1"):
        numkit.integrate_ode(lambda t, y: -y, [1.0], t0, t1)


def test_ode_announces_every_stage_time_and_keeps_the_plain_solution(monkeypatch):
    # a decay rate peaked at t = 1, so that some tries are rejected and retried
    def rhs(t, y):
        return -y / (1e-2 + (t - 1.0) ** 2)

    y0 = np.array([1.0])
    sols, real = [], numkit.solve_ivp

    def solve_ivp(*args, **kwargs):
        sols.append(real(*args, **kwargs))
        return sols[-1]

    calls, announced, missed = 0, [set()], []

    def recorded(t, y):
        nonlocal calls
        calls += 1
        if t not in announced[-1]:
            missed.append(calls)
        return rhs(t, y)

    def stages(times):
        assert times.shape == (11,)
        announced.append(set(times.tolist()))

    monkeypatch.setattr(numkit, "solve_ivp", solve_ivp)
    got = numkit.integrate_ode(recorded, y0, 0.0, 2.0, 1e-10, 1e-12, stages=stages)
    want = numkit.integrate_ode(rhs, y0, 0.0, 2.0, 1e-10, 1e-12)
    staged, plain = sols
    assert np.array_equal(got, want) and np.array_equal(staged.t, plain.t)
    assert staged.nfev == plain.nfev == calls - 1
    # only the check of the first slope, the first slope and the initial-step probe
    # were not announced; each try calls the rhs 12 times at its 11 stage times (the
    # new slope at the last), and some tries were retries
    assert missed == [1, 2, 3]
    tries = len(announced) - 1
    assert 12 * tries == calls - 3 and tries > staged.t.size - 1 + 10


# --------------------------------------------------------------- step_doubling

def _octic(passes, floor):
    """An eighth-order 'propagator': the state after n steps is n^-8 off, plus a
    rounding error of +-floor that alternates between calls."""
    def propagate(n):
        passes.append(n)
        return np.array([1.0 + float(n) ** -8, 1.0 + floor * (-1) ** len(passes)])
    return propagate


def test_step_doubling_returns_the_fine_state_of_the_predicted_pair():
    # a 1e-10 tolerance: the first pair (10, 20) misses, and its difference
    # predicts the n of the second, aimed at half the tolerance, which meets it;
    # the state handed back is that pair's 2n-step one
    passes = []
    got = numkit.step_doubling(_octic(passes, 0.0), 10, 1e-10 + 1e-12, 1.0)
    n = int(np.ceil(10 * (2.0 * (10.0 ** -8 - 20.0 ** -8) / 1.01e-10) ** (1 / 8)))
    assert passes == [10, 20, n, 2 * n]
    assert got[0] == 1.0 + float(2 * n) ** -8 and (n ** -8.0 - (2 * n) ** -8.0) <= 1.01e-10


def test_step_doubling_predicts_an_octic_pair_with_the_eighth_root():
    # an eighth-order 'propagator', n^-8 off: at a 1e-12 tolerance the prediction
    # takes the eighth root of the miss, where the sixth root would overshoot n by
    # (2 diff / tol)^(1/24) ~ 1.5; the 2n-step state is about 1 / (2^8 - 1) of the
    # pair's difference off
    passes = []
    got = numkit.step_doubling(_octic(passes, 0.0), 10, 1e-12 + 1e-14, 1.0)
    n = int(np.ceil(10 * (2.0 * (10.0 ** -8 - 20.0 ** -8) / 1.01e-12) ** (1 / 8)))
    assert passes == [10, 20, n, 2 * n] and n == 35
    assert got[0] == 1.0 + float(2 * n) ** -8 and (n ** -8.0 - (2 * n) ** -8.0) <= 1.01e-12
    assert (2 * n) ** -8.0 == pytest.approx((n ** -8.0 - (2 * n) ** -8.0) / 255.0)


def test_step_doubling_adds_a_shared_error_to_the_difference():
    # an error common to both states of a pair (the same at every n here) counts
    # against the tolerance: a pair whose own difference passes is refused, and
    # with no pair left the roundoff floor is named; a small one still passes.
    # States that agree exactly predict no steps, and the second pair takes one
    passes = []

    def converged(n):
        passes.append(n)
        return np.ones(2)

    with pytest.raises(numkit.IntegrationError, match="roundoff floor"):
        numkit.step_doubling(converged, 100, 1e-10 + 1e-12, 1.0,
                             shared=lambda m: 1.1e-10)
    assert passes == [100, 200, 1, 2]
    passes.clear()
    numkit.step_doubling(_octic(passes, 0.0), 100, 1e-10 + 1e-12, 1.0,
                         shared=lambda m: 1e-12)
    assert passes == [100, 200]


def test_step_doubling_raises_after_two_pairs_at_the_roundoff_floor():
    # a rounding floor of 2e-12 between two runs: a 1e-13 tolerance, above
    # the machine epsilon, is out of reach, and step_doubling gives up after its
    # second pair instead of refining forever
    passes = []
    with pytest.raises(numkit.IntegrationError, match=r"t=5: \d+ steps .* \(roundoff floor\)"):
        numkit.step_doubling(_octic(passes, 1e-12), 10, 1e-13 + 1e-15, 5.0)
    assert len(passes) == 4 and passes[1::2] == [2 * n for n in passes[::2]], passes


def test_step_doubling_below_machine_epsilon_takes_no_step():
    passes = []
    with pytest.raises(numkit.IntegrationError, match="below the roundoff floor"):
        numkit.step_doubling(_octic(passes, 0.0), 10, 2e-17, 1.0)
    assert passes == []


def test_step_doubling_refuses_a_pair_above_the_step_budget():
    # a first pair of 3n steps x batch above the budget raises before any step;
    # one just inside it runs
    budget, passes = numkit.STEP_BUDGET, []
    for n, batch in ((budget // 3 + 1, 1), (budget // 300 + 1, 100), (10 ** 30, 1)):
        with pytest.raises(numkit.IntegrationError, match=r"t=2: a pair .* exceeds the budget"):
            numkit.step_doubling(_octic(passes, 0.0), n, 1e-10 + 1e-12, 2.0, batch=batch)
    assert passes == []

    def cheap(n):  # the state of a propagator converged at any n, without its steps
        passes.append(n)
        return np.ones(2)

    numkit.step_doubling(cheap, budget // 300, 1e-10 + 1e-12, 2.0, batch=100)
    assert passes == [budget // 300, 2 * (budget // 300)]


def test_step_doubling_refuses_an_infinite_or_nan_step_count():
    # an overflowing first-pair estimate raises before any step, and a finite
    # float n is rounded up to the first pair's step count
    passes = []
    for n in (np.inf, np.nan):
        with pytest.raises(numkit.IntegrationError, match="exceeds the budget"):
            numkit.step_doubling(_octic(passes, 0.0), n, 1e-10 + 1e-12, 1.0)
    assert passes == []
    numkit.step_doubling(_octic(passes, 0.0), 9.2, 1e-10 + 1e-12, 1.0)
    assert passes[:2] == [10, 20] and all(type(m) is int for m in passes), passes


def test_step_doubling_refuses_a_predicted_pair_above_the_step_budget():
    # the first pair runs; the second, predicted from its miss, would exceed
    # the budget, and raises before its first step
    passes = []
    n = numkit.STEP_BUDGET // 30
    with pytest.raises(numkit.IntegrationError, match="exceeds the budget"):
        numkit.step_doubling(lambda m: (passes.append(m), np.array([1e3 / m]))[1], n,
                             1e-10 + 1e-12, 1.0, batch=3)
    assert passes == [n, 2 * n]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("which", ["coarse", "fine"])
def test_step_doubling_names_a_non_finite_state(bad, which):
    # a propagator that returns a NaN or infinite state is named as such, with no
    # warning from the pair's difference and no second pair; it used to read as
    # "a pair of nan and nan steps ... exceeds the budget"
    passes = []

    def propagate(n):
        passes.append(n)
        return np.array([1.0, bad if (n == 20) == (which == "fine") else 0.0])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(numkit.IntegrationError, match=r"^integration failed at t=3: "
                                                          r"a non-finite state$"):
            numkit.step_doubling(propagate, 10, 1e-10 + 1e-12, 3.0)
    assert passes == [10, 20]


# -------------------------------------------------------- hypot_antiderivative

@pytest.mark.parametrize("a", [1e-12, 1e-8, 0.1, 1.0, 3.0])
def test_hypot_antiderivative_against_quadrature_oracle(a):
    for u0, u1 in ((-1.0, 1.0), (-2.0, -0.5), (0.3, 4.0)):
        oracle, _ = quad(lambda u: np.hypot(u, a), u0, u1,
                         points=[0.0] if u0 < 0 < u1 else None, epsabs=1e-13, epsrel=1e-13)
        got = numkit.hypot_antiderivative(u1, a) - numkit.hypot_antiderivative(u0, a)
        assert abs(got - oracle) < 1e-13 * max(1.0, abs(oracle))


def test_hypot_antiderivative_against_mpmath_over_the_parameter_scales():
    # |u| and a log-uniform over [1e-30, 1e30], the scale bound of every Params class,
    # u of both signs: the two terms share the sign of u, so neither cancels, and
    # the root sqrt(u * u + a * a) neither overflows nor loses a to underflow
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(27)
    u = 10.0 ** rng.uniform(-30.0, 30.0, 3000) * rng.choice([-1.0, 1.0], 3000)
    a = 10.0 ** rng.uniform(-30.0, 30.0, 3000)
    u[:4], a[:4] = [1e30, -1e30, 1e-30, -1e-30], [1e-30, 1e-30, 1e30, 1e30]
    got = numkit.hypot_antiderivative(u, a)
    with mpmath.workdps(40):
        for ui, ai, g in zip(u, a, got):
            ui, ai = mpmath.mpf(float(ui)), mpmath.mpf(float(ai))
            want = (ui * mpmath.sqrt(ui * ui + ai * ai) + ai * ai * mpmath.asinh(ui / ai)) / 2
            assert abs(float(g) - want) <= 2.0 * np.finfo(float).eps * abs(want), (ui, ai)


# ---------------------------------------------------------- find_root_bracketed

def test_root_sqrt2():
    assert abs(numkit.find_root_bracketed(lambda x: x * x - 2, 1, 2) - np.sqrt(2)) < 1e-10


def test_root_cos():
    assert abs(numkit.find_root_bracketed(np.cos, 1, 2) - np.pi / 2) < 1e-10


def test_root_requires_sign_change():
    with pytest.raises(ValueError, match="sign change"):
        numkit.find_root_bracketed(lambda x: 1.0 + x * x, -1, 1)


def _counted(g, limit=200):
    """g, taking one float only, with its calls counted in ``calls``; raises past
    ``limit`` calls, so a root finder that never stops fails instead of hanging."""
    calls = []

    def wrapped(x):
        assert isinstance(x, float), type(x)
        calls.append(x)
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} calls")
        return g(x)
    return wrapped, calls


def test_root_within_tol_on_wide_bracket():
    # a scalar-only g (math.log rejects arrays) with its root far from both ends;
    # the bisection's tolerance is the spacing of doubles at the root
    root = 12345.678
    g, _ = _counted(lambda t: math.log(t) - math.log(root))
    assert abs(numkit.find_root_bracketed(g, 1e2, 1e6) - root) <= np.spacing(root)


def test_root_exact_zero_at_either_end_is_returned():
    assert numkit.find_root_bracketed(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert numkit.find_root_bracketed(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_root_call_count_bound():
    for a, b in ((1.0, 2.0), (0.0, 3.0), (1e2, 1e6), (-5.0, 7.0)):
        root = a + (b - a) / math.pi
        g, calls = _counted(lambda x: math.atan(x - root) + 1e-3 * (x - root))
        numkit.find_root_bracketed(g, a, b)
        u = abs(np.spacing(root))
        assert len(calls) <= math.ceil(math.log2((b - a) / u)) + 3, (a, b)


@pytest.mark.parametrize("a, b, root", [(1.0, 2.0, math.sqrt(2.0)), (0.5, 11.0, 1.7),
                                        (0.0, 1.0, 3e-300)])
def test_root_tol_zero_bisects_to_adjacent_doubles(a, b, root):
    # the bisection ends at adjacent doubles: within the spacing u of doubles
    # at the root, after at most ceil(log2((b - a) / u)) + 3 calls
    u = np.spacing(root)
    g, calls = _counted(lambda x: x - root, limit=1100)
    x = numkit.find_root_bracketed(g, a, b)
    assert abs(x - root) <= u
    assert len(calls) <= math.ceil(math.log2(b - a) - math.log2(u)) + 3, len(calls)


# -------------------------------------------------------------- minimize_scalar

def test_minimize_parabola():
    x, fx = numkit.minimize_scalar(lambda x: (x - 3.0) ** 2, 0.0, 10.0)
    assert abs(x - 3.0) < 1e-8


def test_minimize_sine():
    x, _ = numkit.minimize_scalar(np.sin, 0.0, 2 * np.pi)
    assert abs(x - 3 * np.pi / 2) < 1e-6


def test_minimize_beats_scan_grid():
    f = lambda x: np.sin(5 * x) + 0.1 * x * x
    xs = np.linspace(-4, 4, 201)
    x, fx = numkit.minimize_scalar(f, -4.0, 4.0)
    assert fx <= np.min([f(v) for v in xs]) + 1e-15


def test_minimize_calls_f_on_arrays():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return (x - 0.3) ** 2

    numkit.minimize_scalar(f, -1.0, 1.0, tol=1e-8, n_grid=400)
    # an even n_grid scans one point more; every zoom is one call on 33 points
    assert sizes[0] == 401 and sizes[1:] and set(sizes[1:]) == {33}


def test_minimize_keeps_the_best_value_seen():
    # zooms that find nothing lower than the scan leave its best point
    calls = []

    def f(x):
        calls.append(x.size)
        return (x - 0.3) ** 2 + (len(calls) > 1)

    xs = np.linspace(-1.0, 1.0, 201)
    i = int(np.argmin((xs - 0.3) ** 2))
    assert numkit.minimize_scalar(f, -1.0, 1.0) == (xs[i], (xs[i] - 0.3) ** 2)
    assert len(calls) > 1


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
def test_minimize_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        numkit.minimize_scalar(np.cos, 0.0, 1.0, tol=tol)


def test_minimize_rejects_non_finite_values_on_scan_and_zoom_grids():
    with pytest.raises(ValueError, match="non-finite") as on_scan:
        numkit.minimize_scalar(lambda x: np.where(x > 0.5, np.nan, x * x), -1.0, 1.0)
    calls = []

    def nan_after_scan(x):
        calls.append(x.size)
        return (x - 0.3) ** 2 if len(calls) == 1 else np.full(x.shape, np.inf)

    with pytest.raises(ValueError, match="non-finite") as on_zoom:
        numkit.minimize_scalar(nan_after_scan, -1.0, 1.0)
    assert calls == [201, 33]
    assert str(on_zoom.value) == str(on_scan.value)


def test_minimize_stops_when_the_bracket_stops_shrinking():
    # tol = 1e-6 is below the spacing of doubles at 1e11 (1.5e-5), so the bracket
    # can never get that narrow; a golden-section loop on this tol never ends
    calls = []

    def f(x):
        calls.append(x.size)
        if len(calls) > 50:
            raise RuntimeError("the zooms do not end")
        return (x - 1e11 - 0.3) ** 2

    x, fx = numkit.minimize_scalar(f, 1e11 - 1.0, 1e11 + 1.0, tol=1e-6)
    # the scan's best bracket is 0.02 wide and each zoom narrows it 16-fold, so
    # three zooms reach the spacing of doubles; one more finds no progress
    assert len(calls) <= 6, calls
    assert abs(x - (1e11 + 0.3)) <= np.spacing(1e11)
    assert fx == f(np.array([x]))[0]


def test_minimize_grids_are_linspace_to_the_bit_and_scans_come_in_blocks():
    calls = []

    def f(x):
        calls.append(np.array(x))
        return np.sin(7.0 * x) + 0.01 * x

    n = 150_001
    numkit.minimize_scalar(f, -3.0, 5.0, tol=1e-12, n_grid=n)
    block = numkit._CHUNK
    assert [xs.size for xs in calls[:3]] == [block, block, n - 2 * block]
    assert np.array_equal(np.concatenate(calls[:3]), np.linspace(-3.0, 5.0, n))
    assert len(calls) > 3
    for xs in calls[3:]:
        assert xs.size == 33 and np.array_equal(xs, np.linspace(xs[0], xs[-1], 33))


@pytest.mark.parametrize("n", [1001, 150_001])
def test_minimize_with_a_bound_evaluates_fewer_points_and_returns_the_same_bits(n):
    def f(x):
        return (x - 1.0) ** 2 + 0.1 * np.sin(20.0 * x) ** 2

    sizes = {"f": [], "bound": [], "unpruned": []}

    def counted(key, fn):
        def call(x):
            sizes[key].append(x.size)
            return fn(x)
        return call

    pruned = numkit.minimize_scalar(counted("f", f), -3.0, 5.0, 1e-12, n,
                                    bound=counted("bound", lambda x: (x - 1.0) ** 2))
    assert pruned == numkit.minimize_scalar(counted("unpruned", f), -3.0, 5.0, 1e-12, n)
    # the bound's two passes over the scan (one with a single block)
    assert sum(sizes["bound"]) == n * (1 if n <= numkit._CHUNK else 2)
    assert max(sizes["f"] + sizes["bound"] + sizes["unpruned"]) <= numkit._CHUNK
    # both zoom alike, so the difference is the scan's: n points against 33 and the kept
    assert sum(sizes["unpruned"]) - sum(sizes["f"]) > n - n // 10, sizes


def test_minimize_rejects_a_non_finite_bound():
    with pytest.raises(ValueError, match="bound returned non-finite"):
        numkit.minimize_scalar(np.cos, 0.0, 1.0, n_grid=401, bound=lambda x: np.full(x.shape, np.nan))


# ---------------------------------------------------------------- fit_power_law

def test_fit_exact_power_law():
    t = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fr = numkit.fit_power_law(t, 3.0 * t ** -2.0)
    assert abs(fr.amplitude - 3.0) < 1e-12
    assert abs(fr.exponent + 2.0) < 1e-12
    assert fr.residual < 1e-12


def test_fit_single_decade_inverse_law():
    t = np.geomspace(1e3, 1e4, 12)
    fr = numkit.fit_power_law(t, 0.074 / t)
    assert abs(fr.amplitude - 0.074) < 1e-10
    assert abs(fr.exponent + 1.0) < 1e-12


def test_fit_with_multiplicative_noise():
    rng = np.random.default_rng(42)
    t = np.geomspace(1.0, 100.0, 40)
    d = 2.5 * t ** -1.3 * (1.0 + 0.01 * rng.standard_normal(t.size))
    fr = numkit.fit_power_law(t, d)
    assert abs(fr.exponent + 1.3) < 0.05


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        numkit.fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        numkit.fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])


@pytest.mark.parametrize("t, d, match", [
    ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0], "finite"),
    ([1.0, 2.0, np.inf], [1.0, 2.0, 3.0], "finite"),
    ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0], "finite"),
    ([1.0, 2.0, 3.0], [np.nan, 2.0, 3.0], "finite"),
    ([5.0, 5.0, 5.0], [1.0, 2.0, 3.0], "2 distinct t")])
def test_fit_rejects_non_finite_or_single_abscissa_data(t, d, match):
    # before any log or least-squares solve: no LAPACK message, no RankWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            numkit.fit_power_law(t, d)


# ------------------------------------------------- complete elliptic integral E(m)

def test_agm_ellipe_against_scipy_on_dense_grid():
    m = np.linspace(0.0, 1.0, 100_001)
    assert np.max(np.abs(tfi._ellipe(m) / ellipe(m) - 1.0)) <= 1e-14


def test_agm_ellipe_against_scipy_toward_one():
    m = np.concatenate([1.0 - np.geomspace(1e-1, 1e-16, 400), [1.0 - 2.0 ** -53, 1.0]])
    assert np.max(np.abs(tfi._ellipe(m) / ellipe(m) - 1.0)) <= 1e-14
    assert tfi._ellipe(1.0) == 1.0


def test_agm_ellipe_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    ms = [0.0, 1e-9, 0.1, 0.5, 0.75, 0.9, 1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0 ** -53, 1.0]
    got = tfi._ellipe(np.array(ms))
    with mpmath.workdps(30):
        for m, e in zip(ms, got):
            oracle = mpmath.ellipe(mpmath.mpf(m))
            assert abs(e - oracle) <= 1e-14 * oracle, m
            # the batch and a single point agree to the bit
            assert tfi._ellipe(m) == e


# The chain reads E(m) (tfi._ellipe) through tfi._elliptic_term(h) = (1 + h) E(4h/(1+h)^2),
# in its scenario-2 condition and in gs_energy_thermo. These oracles read E
# back out of it at the field h < 1 where m = 4h/(1+h)^2.

def _elliptic_e_at_field(h):
    """E(4h/(1+h)^2) recovered from tfi._elliptic_term at field h."""
    return float(tfi._elliptic_term(h) / (h + 1.0))


def _elliptic_e(m):
    """E(m) through the chain's field at h = m / (2 - m + 2 sqrt(1 - m)), m < 1."""
    return _elliptic_e_at_field(m / (2.0 - m + 2.0 * np.sqrt(1.0 - m)))


def test_elliptic_endpoints():
    assert abs(_elliptic_e(0.0) - np.pi / 2) < 1e-15
    # m = 4h/(1+h)^2 rounds to 1 within 1e-9 of the critical field
    assert _elliptic_e_at_field(1.0 - 1e-9) == 1.0


def test_elliptic_half_against_quadrature_oracle():
    oracle, _ = quad(lambda x: np.sqrt(1 - 0.5 * np.sin(x) ** 2), 0, np.pi / 2,
                     epsabs=1e-14, epsrel=1e-14)
    assert abs(_elliptic_e(0.5) - 1.350643881) < 1e-9
    assert abs(_elliptic_e(0.5) - oracle) < 1e-12


def test_elliptic_quadrature_oracle_on_grid():
    for m in np.linspace(0.0, 0.99, 21):
        oracle, _ = quad(lambda x: np.sqrt(1 - m * np.sin(x) ** 2), 0, np.pi / 2,
                         epsabs=1e-13, epsrel=1e-13)
        assert abs(_elliptic_e(m) - oracle) < 1e-12


def test_elliptic_monotone_decreasing():
    vals = [_elliptic_e(m) for m in np.linspace(0, 1, 101)[:-1]] + [
        _elliptic_e_at_field(1.0 - 1e-9)]
    assert np.all(np.diff(vals) < 0)


def test_step_doubling_below_a_given_floor_takes_no_step():
    # a caller's floor above the tolerance refuses it before the first pair, as
    # the machine epsilon does; a floor below the epsilon counts as the epsilon
    passes = []
    with pytest.raises(numkit.IntegrationError, match="t=2: the tolerance 1.01e-13 is below "
                                                      "the roundoff floor 1e-12"):
        numkit.step_doubling(_octic(passes, 0.0), 10, 1e-13 + 1e-15, 2.0, floor=1e-12)
    with pytest.raises(numkit.IntegrationError, match="below the roundoff floor 2.22e-16"):
        numkit.step_doubling(_octic(passes, 0.0), 10, 1e-16 + 1e-18, 2.0, floor=1e-20)
    assert passes == []
    numkit.step_doubling(_octic(passes, 0.0), 10, 1e-10 + 1e-12, 2.0, floor=1e-12)
    assert len(passes) == 4
