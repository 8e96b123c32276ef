"""Parameter sweeps over the total evolution time, CSV emission, power-law fits.

Config files are flat ``key = value`` text ('#' starts a comment). Keys:

    model        lz | tfi | open                        (required)
    x, z_i, z_f  two-level sweep parameters             (lz, open)
    L, h_i, h_f  chain parameters                       (tfi)
    g            system-bath coupling                   (open)
    temperatures comma-separated bath temperatures      (open; default 0.05, 0.1, 0.5, 1.0)
    tf_min, tf_max, tf_points                           (log-spaced grid; 60 points by default)
    scenarios    comma-separated subset of 1,2,3,4,opt  (tfi: only 1,2,opt)
    rel_tol, abs_tol                                    (exact states within their sum)
    out          output path                            (optional)

Model parameters are checked when the config is parsed. All three models
run one row and one scan (:func:`pipeline`): the distance of the exact final
state to the adiabatic state, its first-order correction (lz only), the
adiabatic-impulse state of each prescription and of the optimal impulse
interval, which may be negative (:func:`run_dtau_scan` scans that interval).

Rows are one per t_f (times one per temperature for the open model), written
in ascending order with 17-significant-digit floats, so identical configs
produce byte-identical files regardless of thread count.
"""

import concurrent.futures
import contextlib
import csv
import errno
import os
import stat
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import lindblad_open as lo
from . import lz_closed as lz
from . import tfi
from .numkit import fit_power_law

COLUMNS = ["t_f", "T", "d_adi", "d_adi1", "d_aia1", "d_aia2", "d_aia3", "d_aia4",
           "d_aia_opt", "dtau1", "dtau2", "dtau3", "dtau4", "dtau_opt", "err"]

_MODEL_KEYS = {
    "lz": {"x", "z_i", "z_f"},
    "tfi": {"L", "h_i", "h_f"},
    "open": {"x", "z_i", "z_f", "g", "temperatures"},
}
MODELS = tuple(_MODEL_KEYS)
_COMMON_KEYS = {"model", "tf_min", "tf_max", "tf_points",
                "scenarios", "rel_tol", "abs_tol", "out"}
_SCENARIOS = {"lz": {"1", "2", "3", "4", "opt"},
              "open": {"1", "2", "3", "4", "opt"},
              "tfi": {"1", "2", "opt"}}


# One model's sweep row and scan: params(t_f, T) builds its parameter set (T is
# None for the closed models, whose only temperature is None), exact(p, tol) its
# exact final state, tol = rel_tol + abs_tol, and distance compares that with the
# adiabatic, first-order (lz only, else None) and adiabatic-impulse states.
Pipeline = namedtuple("Pipeline", "params temperatures exact adiabatic first_order "
                                  "switching aia distance distance_grid optimize")


def pipeline(cfg):
    """The ``Pipeline`` of ``cfg.model``. Its functions are read from the model
    modules at each call, so a patched module attribute is the one rows call."""
    if cfg.model == "lz":
        return Pipeline(lambda tf, T: lz.LzParams(t_f=tf, **cfg.params), (None,),
                        lz.evolve_schrodinger, lz.adiabatic_state, lz.adiabatic_first_order,
                        lz.switching_times, lz.aia_state, lz.state_distance,
                        lz.aia_distance_grid, lz.optimize_dtau)
    if cfg.model == "tfi":
        return Pipeline(lambda tf, T: tfi.TfiParams(t_f=tf, **cfg.params), (None,),
                        tfi.evolve_register, tfi.adiabatic_register, None,
                        tfi.switching_times_tfi, tfi.aia_register, tfi.register_distance,
                        tfi.aia_distance_grid, tfi.optimize_dtau_tfi)
    return Pipeline(lambda tf, T: lo.OpenParams(t_f=tf, T=T, **cfg.params), cfg.temperatures,
                    lo.evolve_master, lo.adiabatic_state_open, None,
                    lo.switching_times_open, lo.aia_state_open, lo.trace_distance,
                    lo.aia_distance_grid, lo.optimize_dtau_open)


class ConfigError(ValueError):
    """Malformed sweep configuration; message carries the offending line."""


@dataclass
class SweepConfig:
    model: str
    params: dict
    tf_min: float
    tf_max: float
    tf_points: int = 60  # 60 log points per 5 decades
    scenarios: tuple = ("1", "2", "3", "4", "opt")
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    temperatures: tuple = (0.05, 0.1, 0.5, 1.0)
    out: str = ""

    def tf_grid(self):
        return np.geomspace(self.tf_min, self.tf_max, self.tf_points)


def _parse_value(key, raw, lineno):
    try:
        if key in ("model", "out"):
            return raw
        if key in ("tf_points", "L"):
            return int(raw)
        if key == "scenarios":
            return tuple(s.strip() for s in raw.split(",") if s.strip())
        if key == "temperatures":
            value = tuple(float(s) for s in raw.split(",") if s.strip())
        else:
            value = float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {raw!r} for key {key!r}") from None
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"line {lineno}: value {raw!r} for key {key!r} is not finite")
    return value


def parse_config(text):
    """Parse config text into a SweepConfig; errors carry line numbers."""
    entries = {}
    lines = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = _parse_value(key, raw, lineno)
        lines[key] = lineno

    if "model" not in entries:
        raise ConfigError("line 1: missing required key 'model'")
    model = entries["model"]
    if model not in _MODEL_KEYS:
        raise ConfigError(f"line {lines['model']}: unknown model {model!r}")

    allowed = _COMMON_KEYS | _MODEL_KEYS[model]
    for key in entries:
        if key not in allowed:
            raise ConfigError(f"line {lines[key]}: unknown key {key!r} for model {model!r}")
    for key in ["tf_min", "tf_max", *sorted(_MODEL_KEYS[model] - {"temperatures"})]:
        if key not in entries:
            raise ConfigError(f"line 1: missing required key {key!r} for model {model!r}")

    scenarios = entries.get("scenarios", tuple(sorted(_SCENARIOS[model])))
    if not scenarios:
        raise ConfigError(f"line {lines.get('scenarios', 1)}: scenario list is empty")
    bad = [s for s in scenarios if s not in _SCENARIOS[model]]
    if bad:
        raise ConfigError(f"line {lines.get('scenarios', 1)}: invalid scenarios {bad} "
                          f"for model {model!r}")

    # keys absent from the config take the SweepConfig defaults
    params = _MODEL_KEYS[model] - {"temperatures"}
    fields = {k: v for k, v in entries.items() if k not in params}
    fields["scenarios"] = tuple(scenarios)
    cfg = SweepConfig(params={k: entries[k] for k in params}, **fields)
    if not 0 < cfg.tf_min < cfg.tf_max:
        raise ConfigError(f"line {lines['tf_min']}: need 0 < tf_min < tf_max")
    if cfg.tf_points < 2:
        raise ConfigError(f"line {lines['tf_points']}: need tf_points >= 2")
    for key in ("rel_tol", "abs_tol"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"line {lines[key]}: need {key} > 0")
    m = pipeline(cfg)
    if not m.temperatures:
        raise ConfigError(f"line {lines['temperatures']}: temperature list is empty")
    # the model's keys at t_f = 1, inside every model's bounds on t_f; then the grid's ends,
    # which np.geomspace returns exactly: every bound on t_f is an interval
    where = ", ".join(map(str, sorted(lines[k] for k in _MODEL_KEYS[model] if k in lines)))
    for tf, at in ((1.0, f"lines {where}"), (cfg.tf_min, f"line {lines['tf_min']}"),
                   (cfg.tf_max, f"line {lines['tf_max']}")):
        for temperature in m.temperatures:
            try:
                m.params(tf, temperature)
            except ValueError as exc:
                raise ConfigError(f"{at}: {exc}") from None
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _fmt(value):  # a float to 17 significant digits; csv writes None as an empty cell
    return value if value is None or isinstance(value, str) else f"{value:.17g}"


def _row(cfg, tf, temperature):
    m = pipeline(cfg)
    p = m.params(tf, temperature)
    exact = m.exact(p, cfg.rel_tol + cfg.abs_tol)
    row = {"d_adi": m.distance(exact, m.adiabatic(p))}
    if m.first_order is not None:
        row["d_adi1"] = m.distance(exact, m.first_order(p))
    scenarios = [s for s in "1234" if s in cfg.scenarios]
    if scenarios:  # every window's AIA state and distance in one call, the window axis first
        sts = [m.switching(p, int(s)) for s in scenarios]
        windows = lz.SwitchingTimes(np.array([st.tau_minus for st in sts]),
                                    np.array([st.tau_plus for st in sts]),
                                    tuple(st.regime for st in sts))
        for s, st, d in zip(scenarios, sts, m.distance(exact, m.aia(p, windows))):
            row[f"d_aia{s}"], row[f"dtau{s}"] = float(d), st.dtau
    if "opt" in cfg.scenarios:
        row["dtau_opt"], row["d_aia_opt"] = m.optimize(p, exact)
    return row


def _compute_task(args):
    cfg, tf, temperature = args
    key = {"t_f": tf} if temperature is None else {"t_f": tf, "T": temperature}
    try:
        return {**key, **_row(cfg, tf, temperature), "err": ""}
    except Exception as exc:  # recorded per row; the sweep continues
        return {**key, "err": f"{type(exc).__name__}: {exc}"}


def _check_out(path):
    """Raise now the OSError that opening ``path`` in :func:`_write_csv` would raise
    where it names a directory or its directory is missing (ENOENT) or a file
    (ENOTDIR), so that no row is computed first. Nothing is created or unlinked; a
    directory without write permission is still found at the write."""
    try:
        if os.path.isdir(path):
            code = errno.EISDIR
        elif stat.S_ISDIR(os.stat(os.path.dirname(os.path.realpath(path))).st_mode):
            return
        else:
            code = errno.ENOTDIR
    except OSError as exc:
        code = exc.errno
    raise OSError(code, os.strerror(code), path)


def _write_csv(path, columns, rows):
    """Write a header of ``columns`` and one line per row of cells (:func:`_fmt`) with
    :mod:`csv`, LF ends; a cell holding a comma or a quote is quoted.

    An existing regular file at ``path`` is unlinked first, so that the CSV goes to a
    new file: rewriting a truncated one can wait on a flush (CHANGES.md, "Measurements
    behind src constants"). A symlink stays, and the CSV is written through it; where
    the unlink fails (a directory without write permission), the file is truncated."""
    if os.path.isfile(path) and not os.path.islink(path):
        with contextlib.suppress(OSError):
            os.unlink(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(map(_fmt, row) for row in rows)


def run_sweep(cfg, out=None, threads=1):
    """Run the sweep and write the CSV; returns (path, rows, n_failed)."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    path = out or cfg.out or f"{cfg.model}_sweep.csv"
    _check_out(path)
    temperatures = pipeline(cfg).temperatures
    tasks = [(cfg, float(tf), T) for tf in cfg.tf_grid() for T in temperatures]

    # rows on threads: numpy releases the GIL in the rows' large array operations, so
    # they overlap; a thread beyond the row count would only sit idle
    workers = min(threads, len(tasks))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_compute_task, tasks))
    else:
        rows = [_compute_task(t) for t in tasks]

    rows.sort(key=lambda r: (r["t_f"], r.get("T", 0.0)))
    columns = COLUMNS if temperatures != (None,) else [c for c in COLUMNS if c != "T"]
    _write_csv(path, columns, ([row.get(c) for c in columns] for row in rows))
    n_failed = sum(1 for r in rows if r["err"])
    return path, rows, n_failed


def read_csv(path):
    """Read a sweep CSV back into {column: list}, empty fields as None."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        data = {c: [] for c in reader.fieldnames}
        for row in reader:
            for c in data:
                data[c].append(row[c] if c == "err" else float(row[c]) if row[c] else None)
    return data


def run_fit(csv_path, column, t_min, t_max):
    """Power-law fit of one CSV column over a t_f window."""
    data = read_csv(csv_path)
    if column not in data:
        raise ValueError(f"column {column!r} not in {csv_path} "
                         f"(have {[c for c in data if c != 'err']})")
    pairs = [(t, d) for t, d in zip(data["t_f"], data[column])
             if d is not None and t_min <= t <= t_max]
    if len(pairs) < 3:
        raise ValueError(f"need >= 3 rows with data in [{t_min:g}, {t_max:g}], "
                         f"got {len(pairs)}")
    arr = np.array(pairs)
    return fit_power_law(arr[:, 0], arr[:, 1])


def fit_line(column, fr):
    """The machine-readable one-line fit report."""
    return f"fit {column} A={fr.amplitude:.6g} p={fr.exponent:.6g} rms={fr.residual:.6g}"


def run_dtau_scan(cfg, tf, out=None):
    """Distance as a function of the impulse interval at fixed t_f; writes CSV.

    The grid spans [-t_f, t_f] with 2001 points, an odd count so that the
    dtau = 0 row is present. The open model scans at its first temperature.
    """
    m = pipeline(cfg)
    try:
        p = m.params(tf, m.temperatures[0])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    path = out or f"{cfg.model}_dtau_scan.csv"
    _check_out(path)
    dtaus = np.linspace(-tf, tf, 2001)
    dists = m.distance_grid(p, dtaus, m.exact(p, cfg.rel_tol + cfg.abs_tol))
    _write_csv(path, ["dtau", "d"], zip(dtaus, dists))
    return path, dtaus, np.asarray(dists)
