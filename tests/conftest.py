"""Shared sweep fixtures; the expensive ones are session-scoped and reused
by both the module tests and the acceptance suite."""

import signal
import time

import numpy as np
import pytest

from aia import lz_closed as lz
from aia import tfi


@pytest.fixture
def within_10_s():
    """Turns a test that has not returned within 10 s into a failure (SIGALRM): a solver
    that never picks a usable step would otherwise hang the suite."""
    def hung(signum, frame):
        raise TimeoutError("the test did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def lz_sweep_data():
    """24 log-spaced t_f in [1e2, 1e4] at the default tolerance: distances, windows,
    optimizer output, and the single-threaded wall time of the whole sweep.

    This is the stated window of acceptance criteria 1 and 2. Up to
    t_f ~ 1.5e3 the distances there are dominated by Landau-Zener tunnelling,
    exp(-pi x^2 t_f / (2 dz)), so those criteria check them against the
    tunnelling amplitude plus the adiabatic boundary terms."""
    tfs = np.geomspace(1e2, 1e4, 24)
    rows = []
    t0 = time.time()
    for tf in tfs:
        p = lz.LzParams(0.1, -1.0, 1.0, float(tf))
        psi = lz.evolve_schrodinger(p)
        row = {
            "d_adi": lz.state_distance(psi, lz.adiabatic_state(p)),
            "d_adi1": lz.state_distance(psi, lz.adiabatic_first_order(p)),
        }
        for s in (1, 2, 3, 4):
            st = lz.switching_times(p, s)
            row[f"d_aia{s}"] = lz.state_distance(psi, lz.aia_state(p, st))
            row[f"dtau{s}"] = st.dtau
        row["dtau_opt"], row["d_aia_opt"] = lz.optimize_dtau(p, psi_exact=psi)
        rows.append(row)
    elapsed = time.time() - t0
    return tfs, rows, elapsed


def lz_rms_tail_row(tf, n_phase=4, spacing=1.6):
    """Distances RMS-averaged over ~one phase-oscillation period around tf.

    The raw distances oscillate (boundary-term interference, period ~ 6 in
    t_f) inside power-law envelopes; the local RMS recovers the envelopes.
    """
    acc = []
    for j in range(n_phase):
        p = lz.LzParams(0.1, -1.0, 1.0, tf + j * spacing)
        psi = lz.evolve_schrodinger(p)
        st1 = lz.switching_times(p, 1)
        dt_opt, d_opt = lz.optimize_dtau(p, psi_exact=psi)
        acc.append((lz.state_distance(psi, lz.adiabatic_state(p)),
                    lz.state_distance(psi, lz.adiabatic_first_order(p)),
                    lz.state_distance(psi, lz.aia_state(p, st1)),
                    d_opt))
    return np.sqrt(np.mean(np.array(acc) ** 2, axis=0))


@pytest.fixture(scope="session")
def lz_tail_envelopes():
    """Oscillation-averaged envelopes of d_adi, d_adi1, d_aia1, d_aia_opt on
    10 points spanning the asymptotic window [2.5e3, 1e4].

    The tunnelling amplitude is below 1% of the target terms 0.074 / t_f and
    2.06 / t_f^2.03 of criteria 1 and 2 from t_f = 1.88e3 and 2.52e3 on.
    Criteria 1 and 2 fit their power laws on the points past those edges,
    criteria 3 and 6 on all ten."""
    tfs = np.geomspace(2.5e3, 1e4, 10)
    rows = np.array([lz_rms_tail_row(float(tf)) for tf in tfs])
    return tfs, {"d_adi": rows[:, 0], "d_adi1": rows[:, 1],
                 "d_aia1": rows[:, 2], "d_aia_opt": rows[:, 3]}


@pytest.fixture(scope="session")
def tfi_sweep_data():
    """12 log-spaced t_f in [10, 300] for the L=150 chain, scenarios 1, 2, opt.

    This is the stated window of criterion 7. The many-body distance is
    saturated there (d_adi from 0.999 to 0.662) and follows the per-mode
    Landau-Zener prediction; the chain's power laws only set in from
    t_f ~ 8e3, which criterion 7 evaluates itself."""
    tfs = np.geomspace(10.0, 300.0, 12)
    rows = []
    t0 = time.time()
    for tf in tfs:
        p = tfi.TfiParams(150, 0.5, 1.5, float(tf))
        exact = tfi.evolve_register(p)
        row = {"d_adi": tfi.register_distance(exact, tfi.adiabatic_register(p))}
        for s in (1, 2):
            st = tfi.switching_times_tfi(p, s)
            row[f"d_aia{s}"] = tfi.register_distance(exact, tfi.aia_register(p, st))
            row[f"dtau{s}"] = st.dtau
        row["dtau_opt"], row["d_aia_opt"] = tfi.optimize_dtau_tfi(p, exact_reg=exact)
        rows.append(row)
    elapsed = time.time() - t0
    return tfs, rows, elapsed
