"""Sweep configs, CSV contract, fits, impulse-interval scans, CLI surface."""

import csv
import dataclasses
import itertools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from aia import lindblad_open as lo
from aia import lz_closed as lz
from aia import sweeps, tfi
from aia.cli import main as cli_main
from aia.numkit import IntegrationError

LZ_CFG = """\
model = lz
x = 0.1
z_i = -1
z_f = 1
tf_min = 10
tf_max = 60
tf_points = 4
scenarios = 1,2,3,4,opt
"""

OPEN_CFG = """\
model = open
x = 0.1
z_i = -1
z_f = 1
g = 0.01
temperatures = 0.05, 0.5
tf_min = 10
tf_max = 40
tf_points = 3
scenarios = 1,opt
"""

# the chain-sweep benchmark's rows: L = 150, t_f 5 and 300, of uneven cost
CHAIN_CFG = """\
model = tfi
L = 150
h_i = 0.5
h_f = 1.5
tf_min = 5
tf_max = 300
tf_points = 2
scenarios = 1,2,opt
"""

TFI_CFG = """\
model = tfi
L = 20
h_i = 0.5
h_f = 1.5
tf_min = 5
tf_max = 20
tf_points = 3
scenarios = 1,2,opt
"""


# ---------------------------------------------------------------------- parsing

def test_parse_defaults_and_comments():
    cfg = sweeps.parse_config("# header\nmodel = lz\nx=0.1\nz_i=-1\nz_f=1\n"
                              "tf_min=1\ntf_max=10\n")
    assert cfg.scenarios == ("1", "2", "3", "4", "opt")
    assert cfg.rel_tol == 1e-10 and cfg.abs_tol == 1e-12
    assert cfg.tf_points == 60


def test_parse_rejects_unknown_key_with_line_number():
    text = LZ_CFG + "volume = 11\n"
    with pytest.raises(sweeps.ConfigError, match=r"line 9: unknown key 'volume'"):
        sweeps.parse_config(text)


def test_parse_rejects_bad_value_with_line_number():
    with pytest.raises(sweeps.ConfigError, match="line 2"):
        sweeps.parse_config("model = lz\nx = fast\nz_i=-1\nz_f=1\n"
                            "tf_min=1\ntf_max=10\ntf_points=3\n")


@pytest.mark.parametrize("text, lineno", [
    (LZ_CFG.replace("x = 0.1", "x = nan"), 2),
    (LZ_CFG.replace("z_i = -1", "z_i = -inf"), 3),
    (LZ_CFG.replace("tf_max = 60", "tf_max = inf"), 6),
    (OPEN_CFG.replace("0.05, 0.5", "0.05, nan"), 6),
], ids=["x", "z_i", "tf_max", "temperatures"])
def test_parse_rejects_non_finite_values_with_line_number(text, lineno):
    with pytest.raises(sweeps.ConfigError, match=rf"line {lineno}: .* not finite"):
        sweeps.parse_config(text)


@pytest.mark.parametrize("text, match", [
    (LZ_CFG.replace("x = 0.1", "x = -0.1"), r"lines 2, 3, 4: require x > 0"),
    (TFI_CFG.replace("L = 20", "L = 151"), r"lines 2, 3, 4: require even L >= 2"),
    (OPEN_CFG.replace("0.05, 0.5", "0.05, -1"), r"lines 2, 3, 4, 5, 6: require T > 0"),
    (OPEN_CFG.replace("0.05, 0.5", ""), r"line 6: temperature list is empty"),
    (LZ_CFG + "rel_tol = 0\n", "line 9: need rel_tol > 0"),
    (LZ_CFG + "abs_tol = -1e-12\n", "line 9: need abs_tol > 0"),
], ids=["lz-x", "tfi-L", "open-T", "open-no-T", "rel_tol", "abs_tol"])
def test_parse_rejects_out_of_range_values(text, match):
    with pytest.raises(sweeps.ConfigError, match=match):
        sweeps.parse_config(text)


def test_parse_rejects_empty_scenarios():
    text = LZ_CFG.replace("scenarios = 1,2,3,4,opt", "scenarios =")
    with pytest.raises(sweeps.ConfigError, match="empty"):
        sweeps.parse_config(text)


def test_parse_rejects_tfi_scenarios_3_4():
    with pytest.raises(sweeps.ConfigError, match="invalid scenarios"):
        sweeps.parse_config(TFI_CFG.replace("scenarios = 1,2,opt", "scenarios = 3"))


def test_parse_rejects_missing_and_duplicate_keys():
    with pytest.raises(sweeps.ConfigError, match="missing required key 'x'"):
        sweeps.parse_config("model = lz\nz_i=-1\nz_f=1\ntf_min=1\ntf_max=10\ntf_points=3\n")
    with pytest.raises(sweeps.ConfigError, match="duplicate"):
        sweeps.parse_config("model = lz\nmodel = lz\n")


def test_parse_grid_sanity():
    with pytest.raises(sweeps.ConfigError, match="tf_min < tf_max"):
        sweeps.parse_config("model = lz\nx=.1\nz_i=-1\nz_f=1\n"
                            "tf_min=10\ntf_max=1\ntf_points=3\n")
    with pytest.raises(sweeps.ConfigError, match="line 5: need 0 < tf_min"):
        sweeps.parse_config("model = lz\nx=.1\nz_i=-1\nz_f=1\n"
                            "tf_min=0\ntf_max=1\ntf_points=3\n")


_TF_MAX_OUT_OF_RANGE = {
    # each model's parameters pass at tf_min and fail at tf_max
    "lz": LZ_CFG.replace("tf_min = 10", "tf_min = 1e29").replace("tf_max = 60", "tf_max = 1e31"),
    "tfi": TFI_CFG.replace("tf_min = 5", "tf_min = 1e29").replace("tf_max = 20", "tf_max = 1e31"),
    "open": (OPEN_CFG.replace("tf_min = 10", "tf_min = 1e29")
             .replace("tf_max = 40", "tf_max = 1e31")),
}


@pytest.mark.parametrize("model", sorted(_TF_MAX_OUT_OF_RANGE))
def test_parse_rejects_tf_max_out_of_range(tmp_path, capsys, model):
    # every bound on t_f is an interval and the grid holds both ends exactly, so the
    # parameters are checked at tf_min and tf_max; a failure at tf_max names its line
    text = _TF_MAX_OUT_OF_RANGE[model]
    tf_max_line = text.splitlines().index("tf_max = 1e31") + 1
    with pytest.raises(sweeps.ConfigError, match=rf"^line {tf_max_line}: require .*t_f in "
                                                 r"\[1e-30, 1e30\], got "):
        sweeps.parse_config(text)
    cfg_path, out = tmp_path / f"{model}.cfg", tmp_path / "never.csv"
    cfg_path.write_text(text)
    assert cli_main([model, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: line {tf_max_line}: require ")
    assert not out.exists()


_TF_MIN_OUT_OF_RANGE = {
    "lz": "model = lz\nx = 0.1\nz_i = -1\nz_f = 1\ntf_min = 1e-31\ntf_max = 1\ntf_points = 3\n",
    "tfi": TFI_CFG.replace("tf_min = 5", "tf_min = 1e-31"),
    "open": OPEN_CFG.replace("tf_min = 10", "tf_min = 1e-31"),
}


@pytest.mark.parametrize("model", sorted(_TF_MIN_OUT_OF_RANGE))
def test_parse_rejects_tf_min_out_of_range_on_its_own_line(model):
    # the model's keys pass, so the error names the tf_min line, not theirs
    text = _TF_MIN_OUT_OF_RANGE[model]
    tf_min_line = text.splitlines().index("tf_min = 1e-31") + 1
    assert model != "lz" or tf_min_line == 5
    with pytest.raises(sweeps.ConfigError, match=rf"^line {tf_min_line}: require .*t_f in "
                                                 r"\[1e-30, 1e30\], got "):
        sweeps.parse_config(text)


# ------------------------------------------------------------------------ sweeps

@pytest.fixture(scope="module")
def lz_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "lz.csv"
    cfg = sweeps.parse_config(LZ_CFG)
    out, rows, n_failed = sweeps.run_sweep(cfg, out=str(path))
    assert n_failed == 0
    return out


def test_csv_format(lz_csv):
    with open(lz_csv) as fh:
        content = fh.read()
    lines = content.split("\n")
    assert lines[0] == ("t_f,d_adi,d_adi1,d_aia1,d_aia2,d_aia3,d_aia4,"
                       "d_aia_opt,dtau1,dtau2,dtau3,dtau4,dtau_opt,err")
    assert len(lines) == 1 + 4 + 1  # header + rows + trailing newline
    assert "\r" not in content
    first = lines[1].split(",")
    assert float(first[0]) == 10.0
    assert first[-1] == ""  # no error


def test_csv_deterministic_and_parallel_identical(tmp_path):
    cfg = sweeps.parse_config(LZ_CFG)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    sweeps.run_sweep(cfg, out=str(a))
    sweeps.run_sweep(cfg, out=str(b))
    sweeps.run_sweep(cfg, out=str(c), threads=3)
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_rewriting_a_csv_gives_identical_bytes_and_keeps_a_symlink(tmp_path, monkeypatch):
    # an existing CSV is unlinked before it is written again, not truncated (ext4
    # forces a truncated file's new data out at close); a symlinked out stays a
    # link, and the CSV is written through it
    unlinked = []
    real_unlink = os.unlink
    monkeypatch.setattr(os, "unlink", lambda path: (unlinked.append(path), real_unlink(path)))
    cfg = sweeps.parse_config(LZ_CFG.replace("1,2,3,4,opt", "1,2"))
    for write in (lambda out: sweeps.run_sweep(cfg, out=out),
                  lambda out: sweeps.run_dtau_scan(cfg, 10.0, out=out)):
        path, target, link = tmp_path / "out.csv", tmp_path / "target.csv", tmp_path / "link.csv"
        write(str(path))
        first, unlinked[:] = path.read_bytes(), []
        write(str(path))
        assert path.read_bytes() == first and unlinked == [str(path)]
        target.write_text("stale\n")
        link.symlink_to(target)
        write(str(link))
        assert link.is_symlink() and target.read_bytes() == first
        assert unlinked == [str(path)]
        for f in (path, target, link):
            f.unlink()


@pytest.mark.parametrize("threads", [0, -5])
def test_run_sweep_rejects_thread_count_below_one(tmp_path, monkeypatch, threads):
    def no_work(*args, **kwargs):
        raise AssertionError("a row or a pool started despite the invalid thread count")

    monkeypatch.setattr(sweeps, "_compute_task", no_work)
    monkeypatch.setattr(sweeps.concurrent.futures, "ThreadPoolExecutor", no_work)
    cfg = sweeps.parse_config(LZ_CFG)
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        sweeps.run_sweep(cfg, out=str(tmp_path / "never.csv"), threads=threads)
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("threads, workers", [(2, 2), (4, 4), (5000, 4)])
def test_run_sweep_caps_pool_at_row_count(tmp_path, monkeypatch, threads, workers):
    # a thread beyond the row count would sit idle, so a 4-row sweep never asks
    # for more than 4; no thread is started here
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sweeps.concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(sweeps, "_compute_task", lambda task: {"t_f": task[1], "err": ""})
    cfg = sweeps.parse_config(LZ_CFG)
    _, rows, _ = sweeps.run_sweep(cfg, out=str(tmp_path / "rows.csv"), threads=threads)
    assert opened == [workers] and len(rows) == 4


@pytest.mark.parametrize("text", [CHAIN_CFG, OPEN_CFG], ids=["chain", "open"])
def test_threads_give_the_serial_bytes_without_a_warning(tmp_path, text):
    # rows computed on 2 or 4 threads are the serial rows, and no thread warns: each
    # row's np.errstate is its own (numpy >= 2.0 keeps it per thread); a short switch
    # interval makes the threads interleave often
    cfg = sweeps.parse_config(text)
    csvs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for threads in (1, 2, 4):
                _, _, n_failed = sweeps.run_sweep(cfg, out=str(tmp_path / f"{threads}.csv"),
                                                  threads=threads)
                assert n_failed == 0
                csvs.append((tmp_path / f"{threads}.csv").read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert caught == []
    assert csvs[0] == csvs[1] == csvs[2]


@pytest.mark.parametrize("out_kind", ["missing-dir", "a-dir"])
@pytest.mark.parametrize("command", ["sweep", "dtau-scan"])
def test_an_unwritable_out_fails_before_any_row_runs(tmp_path, monkeypatch, command, out_kind):
    # the error is the one opening the CSV would raise, and nothing is created
    def no_work(*args, **kwargs):
        raise AssertionError("a row or an exact evolution ran before the output was checked")

    monkeypatch.setattr(sweeps, "_compute_task", no_work)
    monkeypatch.setattr(lz, "evolve_schrodinger", no_work)
    cfg = sweeps.parse_config(LZ_CFG)
    out = str(tmp_path / "no-such-dir" / "x.csv" if out_kind == "missing-dir" else tmp_path)
    with pytest.raises(OSError) as opening:
        open(out, "w")
    with pytest.raises(OSError) as raised:
        if command == "sweep":
            sweeps.run_sweep(cfg, out=out, threads=2)
        else:
            sweeps.run_dtau_scan(cfg, 20.0, out=out)
    assert type(raised.value) is type(opening.value)
    assert str(raised.value) == str(opening.value)
    assert list(tmp_path.iterdir()) == []


def test_rows_ascending_in_tf(lz_csv):
    data = sweeps.read_csv(lz_csv)
    assert np.all(np.diff(data["t_f"]) > 0)


def test_open_sweep_has_temperature_column(tmp_path):
    cfg = sweeps.parse_config(OPEN_CFG)
    path, rows, n_failed = sweeps.run_sweep(cfg, out=str(tmp_path / "open.csv"))
    assert n_failed == 0
    data = sweeps.read_csv(path)
    assert data["T"][:2] == [0.05, 0.5]
    assert len(data["t_f"]) == 6  # 3 grid points x 2 temperatures
    assert all(v is None for v in data["d_adi1"])  # first-order column lz-only


def test_tfi_sweep_columns(tmp_path):
    cfg = sweeps.parse_config(TFI_CFG)
    path, rows, n_failed = sweeps.run_sweep(cfg, out=str(tmp_path / "tfi.csv"))
    assert n_failed == 0
    data = sweeps.read_csv(path)
    assert all(v is None for v in data["d_aia3"])
    assert all(v is not None for v in data["d_aia1"])


# -------------------------------------------------------------------------- fit

def test_run_fit_synthetic_power_law(tmp_path):
    path = tmp_path / "synthetic.csv"
    ts = np.geomspace(1, 100, 12)
    with open(path, "w") as fh:
        fh.write("t_f,d_adi,err\n")
        for t in ts:
            fh.write(f"{t:.17g},{3.0 * t ** -2:.17g},\n")
    fr = sweeps.run_fit(str(path), "d_adi", 1.0, 100.0)
    assert abs(fr.amplitude - 3.0) < 1e-10
    assert abs(fr.exponent + 2.0) < 1e-12
    line = sweeps.fit_line("d_adi", fr)
    assert line.startswith("fit d_adi A=3 p=-2 rms=")


def test_run_fit_errors(lz_csv):
    with pytest.raises(ValueError, match="column"):
        sweeps.run_fit(lz_csv, "nope", 1, 100)
    with pytest.raises(ValueError, match=">= 3 rows"):
        sweeps.run_fit(lz_csv, "d_adi", 10, 11)


# -------------------------------------------------------------------- dtau scan

def _scan_reference(model, tf):
    """(d_adi, (dtau_opt, d_opt)) at t_f from the model modules directly."""
    if model == "lz":
        p = lz.LzParams(0.1, -1.0, 1.0, tf)
        exact = lz.evolve_schrodinger(p)
        return lz.state_distance(exact, lz.adiabatic_state(p)), lz.optimize_dtau(p, exact)
    if model == "tfi":
        p = tfi.TfiParams(20, 0.5, 1.5, tf)
        exact = tfi.evolve_register(p)
        return (tfi.register_distance(exact, tfi.adiabatic_register(p)),
                tfi.optimize_dtau_tfi(p, exact))
    p = lo.OpenParams(0.1, -1.0, 1.0, tf, 0.05, 0.01)  # the first temperature
    exact = lo.evolve_master(p)
    return (lo.trace_distance(exact, lo.adiabatic_state_open(p)),
            lo.optimize_dtau_open(p, exact))


@pytest.mark.parametrize("model, text, tf", [
    ("lz", LZ_CFG, 50.0),
    ("tfi", TFI_CFG, 12.0),
    ("open", OPEN_CFG, 20.0),
], ids=["lz", "tfi", "open"])
def test_dtau_scan_consistency(tmp_path, model, text, tf):
    cfg = sweeps.parse_config(text)
    path, dtaus, dists = sweeps.run_dtau_scan(cfg, tf, out=str(tmp_path / "scan.csv"))
    assert len(dtaus) == 2001
    d_adi, (dt_opt, d_opt) = _scan_reference(model, tf)
    i = int(np.argmin(dists))
    assert abs(dists[i] - d_opt) < 1e-3
    assert abs(dtaus[i] - dt_opt) <= 2 * (dtaus[1] - dtaus[0])
    # the dtau = 0 row reproduces the adiabatic distance
    j = int(np.argmin(np.abs(dtaus)))
    assert dtaus[j] == 0.0
    assert abs(dists[j] - d_adi) < 1e-12


_EVOLVERS = {"lz": (lz, "evolve_schrodinger"), "tfi": (tfi, "evolve_register"),
             "open": (lo, "evolve_master")}


@pytest.mark.parametrize("model, text", [("lz", LZ_CFG), ("tfi", TFI_CFG), ("open", OPEN_CFG)],
                         ids=["lz", "tfi", "open"])
def test_row_and_scan_evolve_at_the_summed_tolerance(tmp_path, monkeypatch, model, text):
    # a row's and a scan's exact state is bitwise evolve(p, rel_tol + abs_tol)
    cfg = sweeps.parse_config(text + "rel_tol = 1e-13\nabs_tol = 1e-15\n")
    module, name = _EVOLVERS[model]
    real, states = getattr(module, name), []

    def recorded(p, *args):
        states.append((p, real(p, *args)))
        return states[-1][1]

    monkeypatch.setattr(module, name, recorded)
    temperature = sweeps.pipeline(cfg).temperatures[0]
    assert sweeps._compute_task((cfg, cfg.tf_min, temperature))["err"] == ""
    sweeps.run_dtau_scan(cfg, cfg.tf_min, out=str(tmp_path / "scan.csv"))
    assert len(states) == 2
    for p, got in states:
        assert np.array_equal(got, real(p, 1e-13 + 1e-15))
        assert not np.array_equal(got, real(p))


@pytest.mark.parametrize("model, p", [("lz", lz.LzParams(0.1, -1.0, 1.0, 50.0)),
                                      ("tfi", tfi.TfiParams(20, 0.5, 1.5, 10.0)),
                                      ("open", lo.OpenParams(0.1, -1.0, 1.0, 20.0, 0.5, 0.01))],
                         ids=["lz", "tfi", "open"])
def test_default_tolerance_is_the_sum_of_the_default_pair(model, p):
    module, name = _EVOLVERS[model]
    evolve = getattr(module, name)
    cfg = sweeps.SweepConfig(model, {}, 1.0, 2.0)
    assert np.array_equal(evolve(p), evolve(p, 1e-10 + 1e-12))
    assert np.array_equal(evolve(p), evolve(p, cfg.rel_tol + cfg.abs_tol))


_ROWS = [("lz", LZ_CFG, "optimize_dtau"), ("tfi", TFI_CFG, "optimize_dtau_tfi"),
         ("open", OPEN_CFG, "optimize_dtau_open")]


@pytest.mark.parametrize("model, text, optimizer", _ROWS, ids=[r[0] for r in _ROWS])
def test_a_row_computes_its_end_point_values_once(monkeypatch, model, text, optimizer):
    # a row's parameter object keeps psi_j(t_f) and (open) the right eigenvectors at z_f:
    # the eigensystem runs once at z_i (the exact state's start) and once at z_f, and
    # every evaluation of the optimizer reads what the row has kept
    cfg = sweeps.parse_config(text)
    m = sweeps.pipeline(cfg)
    p = m.params(cfg.tf_min, m.temperatures[0])
    lz_calls, open_calls = [], []

    def counted(calls, real):
        def wrapper(x, z, *args):
            calls.append(np.asarray(z))
            return real(x, z, *args)
        return wrapper

    monkeypatch.setattr(lz, "lz_eigensystem", counted(lz_calls, lz.lz_eigensystem))
    monkeypatch.setattr(lo, "_eigenvectors", counted(open_calls, lo._eigenvectors))
    module = lz if model == "lz" else tfi if model == "tfi" else lo
    real_optimizer, added = getattr(module, optimizer), []

    def optimize(*args):
        before = len(lz_calls), len(open_calls)
        result = real_optimizer(*args)
        added.append((len(lz_calls), len(open_calls)) != before)
        return result

    monkeypatch.setattr(module, optimizer, optimize)
    assert sweeps._compute_task((cfg, cfg.tf_min, m.temperatures[0]))["err"] == ""
    assert added == [False]
    if model == "open":
        assert sum(np.array_equal(z, p.z_f) for z in open_calls) == 1
        assert lz_calls == []
    else:
        assert len(lz_calls) == 2
        assert np.array_equal(lz_calls[0], p.z_i) and np.array_equal(lz_calls[1], p.z_f)
        assert open_calls == []


_SWITCHING = {"lz": (lz, "switching_times", "aia_state"),
              "tfi": (tfi, "switching_times_tfi", "aia_register"),
              "open": (lo, "switching_times_open", "aia_state_open")}


@pytest.mark.parametrize("model, text", [("lz", LZ_CFG), ("tfi", TFI_CFG),
                                         ("open", OPEN_CFG.replace("1,opt", "1,2,3,4"))],
                         ids=["lz", "tfi", "open"])
def test_a_row_evaluates_its_windows_in_one_call_as_one_call_each_would(monkeypatch, model,
                                                                        text):
    # the row's scenarios take an interior, a collapsed, a whole-interval and a
    # reversed window (the chain's two scenarios in two rows), and every AIA state of
    # the row comes from one call: its distances are those of one call per window, to
    # rounding; the open model's tail integrals are sums of cells, within n eps
    # int_0^t_f |l_2| dt for n windows (aia_distance_grid)
    cfg = sweeps.parse_config(text.replace(",opt", ""))
    m = sweeps.pipeline(cfg)
    tf, temperature = cfg.tf_min, m.temperatures[0]
    p = m.params(tf, temperature)
    windows = [lz.SwitchingTimes(0.3 * tf, 0.55 * tf, lz.REGIME_INTERIOR),
               lz.SwitchingTimes(0.5 * tf, 0.5 * tf, lz.REGIME_COLLAPSED),
               lz.SwitchingTimes(0.0, tf, lz.REGIME_WHOLE),
               lz.SwitchingTimes(0.7 * tf, 0.2 * tf, "reversed", width=-0.5 * tf)]
    module, switching, aia = _SWITCHING[model]
    real_aia, calls = getattr(module, aia), []
    monkeypatch.setattr(module, aia, lambda p, st: calls.append(st) or real_aia(p, st))
    exact = m.exact(p, cfg.rel_tol + cfg.abs_tol)
    eps = np.finfo(float).eps
    bound = 4 * eps if model != "open" else 4 * eps * lo._rate_integrals(p, 0.0, tf)
    scenarios = [s for s in "1234" if s in cfg.scenarios]
    for shift in range(0, 4, len(scenarios)):
        picked = {int(s): windows[(i + shift) % 4] for i, s in enumerate(scenarios)}
        monkeypatch.setattr(module, switching, lambda p, s: picked[s])
        calls.clear()
        row = sweeps._row(cfg, tf, temperature)
        assert len(calls) == 1 and np.shape(calls[0].tau_minus) == (len(scenarios),)
        for s in scenarios:
            st = picked[int(s)]
            want = m.distance(exact, real_aia(p, st))
            assert abs(row[f"d_aia{s}"] - want) <= bound, (s, st)
            assert row[f"dtau{s}"] == st.dtau


@pytest.mark.parametrize("p", [lz.LzParams(0.1, -1.0, 1.0, 50.0), tfi.TfiParams(20, 0.5, 1.5, 10.0),
                               lo.OpenParams(0.1, -1.0, 1.0, 20.0, 0.5, 0.01)],
                         ids=["lz", "tfi", "open"])
def test_kept_end_point_values_belong_to_one_parameter_object(p):
    # a replaced object computes its own values: its states are those of a fresh object
    model = {lz.LzParams: "lz", tfi.TfiParams: "tfi", lo.OpenParams: "open"}[type(p)]
    m = sweeps.pipeline(sweeps.SweepConfig(model, {}, 1.0, 2.0))
    st = lz.SwitchingTimes(0.3 * p.t_f, 0.6 * p.t_f, lz.REGIME_INTERIOR)

    def states(q):
        exact = m.exact(q)
        out = [exact, m.adiabatic(q), m.aia(q, st), m.distance_grid(q, [-0.5 * q.t_f, 0.2], exact)]
        return out + ([m.first_order(q)] if m.first_order else [])

    kept = ["_psi_f", "_prim_0", "_prim_f", "_phase_f"] + (["_right_f"] if model == "open" else [])
    for name in kept:
        getattr(p, name)
    before = states(p)
    doubled = dataclasses.replace(p, t_f=2.0 * p.t_f)
    fresh = type(p)(**{f.name: getattr(doubled, f.name) for f in dataclasses.fields(p)})
    assert not set(kept) & set(vars(doubled))
    got = states(doubled)
    for state, want in zip(got, states(fresh)):
        assert np.array_equal(state, want)
    assert not np.array_equal(got[2], before[2])  # the AIA state moves with t_f


# -------------------------------------------------------------------------- CLI

def test_cli_sweep_and_fit_roundtrip(tmp_path):
    cfg_path = tmp_path / "lz.cfg"
    cfg_path.write_text(LZ_CFG)
    out = tmp_path / "lz.csv"
    assert cli_main(["lz", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.exists()
    assert cli_main(["fit", "--csv", str(out), "--column", "d_adi",
                     "--tmin", "10", "--tmax", "60"]) == 0
    assert cli_main(["dtau-scan", "--config", str(cfg_path), "--tf", "20",
                     "--out", str(tmp_path / "scan.csv")]) == 0


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(LZ_CFG + "volume = 11\n")
    assert cli_main(["lz", "--config", str(bad)]) == 1
    missing = tmp_path / "nope.cfg"
    assert cli_main(["lz", "--config", str(missing)]) == 1
    # an out-of-range parameter is a config error, not a sweep of failed rows
    bad.write_text(LZ_CFG.replace("x = 0.1", "x = -0.1"))
    assert cli_main(["lz", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    assert "config error: lines 2, 3, 4: require x > 0" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_cli_model_mismatch(tmp_path):
    cfg_path = tmp_path / "lz.cfg"
    cfg_path.write_text(LZ_CFG)
    assert cli_main(["tfi", "--config", str(cfg_path)]) == 1


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_thread_count_below_one(tmp_path, monkeypatch, capsys, threads):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started despite the invalid thread count")

    monkeypatch.setattr("aia.cli.run_sweep", no_sweep)
    cfg_path = tmp_path / "lz.cfg"
    cfg_path.write_text(LZ_CFG)
    assert cli_main(["lz", "--config", str(cfg_path), "--threads", threads]) == 1
    assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err


def test_cli_dtau_scan_exit_codes(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "lz.cfg"
    cfg_path.write_text(LZ_CFG)
    out = tmp_path / "scan.csv"
    assert cli_main(["dtau-scan", "--config", str(cfg_path), "--tf", "-5",
                     "--out", str(out)]) == 1
    assert "config error: require t_f > 0" in capsys.readouterr().err

    def diverging(*args, **kwargs):
        raise IntegrationError("integration failed at t=1: synthetic")

    monkeypatch.setattr(lz, "evolve_schrodinger", diverging)
    assert cli_main(["dtau-scan", "--config", str(cfg_path), "--tf", "20",
                     "--out", str(out)]) == 2
    assert "numerical failure: integration failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out_kind", ["missing-dir", "a-dir"])
@pytest.mark.parametrize("command", [["lz", "--threads", "1"], ["dtau-scan", "--tf", "20"]],
                         ids=["lz", "dtau-scan"])
def test_cli_unwritable_out_is_a_config_error(tmp_path, command, out_kind):
    # an --out that cannot be opened is refused before any row runs, in one line
    # on stderr and exit 1, not in a traceback
    cfg_path = tmp_path / "lz.cfg"
    cfg_path.write_text(LZ_CFG.replace("tf_points = 4", "tf_points = 2")
                        .replace("1,2,3,4,opt", "1"))
    out = tmp_path / "no-such-dir" / "x.csv" if out_kind == "missing-dir" else tmp_path
    proc = subprocess.run([sys.executable, "-m", "aia.cli", *command[:1],
                           "--config", str(cfg_path), *command[1:], "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
    assert str(out) in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_entry_point_installed(tmp_path):
    cfg_path = tmp_path / "lz.cfg"
    cfg_path.write_text(LZ_CFG.replace("tf_points = 4", "tf_points = 2"))
    out = tmp_path / "cli.csv"
    proc = subprocess.run([sys.executable, "-m", "aia.cli", "lz",
                           "--config", str(cfg_path), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# -------------------------------------------------------------- failure handling

def test_row_failures_recorded_and_sweep_continues(tmp_path, monkeypatch):
    cfg = sweeps.parse_config(LZ_CFG)
    real = lz.evolve_schrodinger

    def flaky(p, *args, **kwargs):
        if abs(p.t_f - 10.0) < 1e-9:
            raise RuntimeError("synthetic blow-up")
        return real(p, *args, **kwargs)

    monkeypatch.setattr(lz, "evolve_schrodinger", flaky)
    for threads in (1, 2):
        path, rows, n_failed = sweeps.run_sweep(cfg, out=str(tmp_path / "flaky.csv"),
                                                threads=threads)
        assert n_failed == 1
        data = sweeps.read_csv(path)
        assert data["err"][0].startswith("RuntimeError")
        assert data["d_adi"][0] is None
        assert all(e == "" for e in data["err"][1:])
        assert all(v is not None for v in data["d_adi"][1:])


def test_an_err_cell_with_commas_survives_the_round_trip(tmp_path, monkeypatch):
    # the message is one quoted cell: every line has the header's field count, and
    # read_csv gives the whole message back
    real = lz.adiabatic_state

    def failing(p):
        if abs(p.t_f - 10.0) < 1e-9:
            raise ValueError('a, "b", c')
        return real(p)

    monkeypatch.setattr(lz, "adiabatic_state", failing)
    path, _, n_failed = sweeps.run_sweep(sweeps.parse_config(LZ_CFG),
                                         out=str(tmp_path / "commas.csv"))
    assert n_failed == 1
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert len(lines) == 5 and {len(line) for line in lines} == {len(lines[0])}
    assert sweeps.read_csv(path)["err"] == ['ValueError: a, "b", c', "", "", ""]


def test_cli_exit_2_when_every_row_fails(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("synthetic blow-up")

    monkeypatch.setattr(lz, "evolve_schrodinger", broken)
    cfg_path = tmp_path / "lz.cfg"
    cfg_path.write_text(LZ_CFG)
    code = cli_main(["lz", "--config", str(cfg_path),
                     "--out", str(tmp_path / "broken.csv")])
    assert code == 2


def test_cli_exit_2_below_the_roundoff_floor(tmp_path, capsys):
    # a tolerance no double-precision state reaches: every row's exact
    # evolution raises IntegrationError, so the sweep exits 2, and so does
    # the scan
    cfg_path = tmp_path / "lz.cfg"
    cfg_path.write_text(LZ_CFG + "rel_tol = 1e-17\nabs_tol = 1e-17\n")
    out = tmp_path / "floor.csv"
    assert cli_main(["lz", "--config", str(cfg_path), "--out", str(out)]) == 2
    errors = sweeps.read_csv(out)["err"]
    assert len(errors) == 4 and all(e.startswith("IntegrationError") for e in errors)
    assert cli_main(["dtau-scan", "--config", str(cfg_path), "--tf", "20",
                     "--out", str(tmp_path / "scan.csv")]) == 2
    assert "roundoff floor" in capsys.readouterr().err


def test_cli_exit_2_below_the_roundoff_floor_open(tmp_path):
    # the damped qubit's evolution shares the step doubling and its floor
    cfg_path = tmp_path / "open.cfg"
    cfg_path.write_text(OPEN_CFG + "rel_tol = 1e-17\nabs_tol = 1e-17\n")
    out = tmp_path / "floor.csv"
    assert cli_main(["open", "--config", str(cfg_path), "--out", str(out)]) == 2
    errors = sweeps.read_csv(out)["err"]
    assert len(errors) == 6 and all(e.startswith("IntegrationError") for e in errors)


def test_cli_exit_2_beyond_the_step_budget(tmp_path, monkeypatch):
    # t_f up to 1e30 used to run forever; every row's first step-doubling pair
    # is now refused before its first step, and the sweep exits 2
    passes = []
    real = lz._magnus_state
    monkeypatch.setattr(lz, "_magnus_state",
                        lambda p, n, psi: (passes.append(n), real(p, n, psi))[1])
    cfg_path = tmp_path / "lz.cfg"
    cfg_path.write_text(LZ_CFG.replace("tf_min = 10", "tf_min = 1e28")
                        .replace("tf_max = 60", "tf_max = 1e30"))
    out = tmp_path / "budget.csv"
    assert cli_main(["lz", "--config", str(cfg_path), "--out", str(out)]) == 2
    errors = sweeps.read_csv(out)["err"]
    assert len(errors) == 4 and all("exceeds the budget" in e for e in errors)
    assert passes == []


_OVERFLOWING = {
    # the modes' detuning 2 (h_f - cos k) ~ 2e300: its cube overflows
    "chain": ("model = tfi\nL = 8\nh_i = 0.5\nh_f = 1e300\ntf_min = 1e9\ntf_max = 1e10\n"
              "tf_points = 2\nscenarios = 1,2,opt\n", "1e10", "h_f <= 1e30"),
    # the damping rate ~ g^2 overflows
    "open": ("model = open\nx = 0.1\nz_i = -1\nz_f = 1\ng = 1e200\ntemperatures = 0.05\n"
             "tf_min = 1\ntf_max = 1000\ntf_points = 2\n", "10", "g <= 1"),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING))
def test_cli_rejects_overflowing_parameters_cleanly(tmp_path, capsys, case):
    # the parameters are refused when the config is read: the scan and the sweep
    # exit 1 with one config error, before any arithmetic that could warn
    text, tf, reason = _OVERFLOWING[case]
    cfg_path = tmp_path / f"{case}.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "scan.csv"
    model = text.split("\n", 1)[0].split(" = ")[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the test
        for argv in (["dtau-scan", "--config", str(cfg_path), "--tf", tf],
                     [model, "--config", str(cfg_path)]):
            assert cli_main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and reason in err, err
            assert err.count("\n") == 1 and "Traceback" not in err and not out.exists()


# ------------------------------------------------------------------ repo configs

_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_shipped_config_files_parse():
    names = sorted(f for f in os.listdir(_CONFIGS) if f.endswith(".cfg"))
    assert len(names) == 8
    for name in names:
        with open(os.path.join(_CONFIGS, name)) as fh:
            cfg = sweeps.parse_config(fh.read())
        assert cfg.model in ("lz", "tfi", "open")


def test_no_two_shipped_configs_run_the_same_sweep():
    # configs that differ only in their output path write byte-identical CSVs
    names = sorted(f for f in os.listdir(_CONFIGS) if f.endswith(".cfg"))
    cfgs = {name: dataclasses.replace(sweeps.load_config(os.path.join(_CONFIGS, name)), out="")
            for name in names}
    assert [(a, b) for a, b in itertools.combinations(names, 2) if cfgs[a] == cfgs[b]] == []
