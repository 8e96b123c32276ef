"""Parameter sweeps over the total evolution time, CSV emission, power-law fits.

Config files are flat ``key = value`` text ('#' starts a comment). Keys:

    model        lz | tfi | open                        (required)
    x, z_i, z_f  two-level sweep parameters             (lz, open)
    L, h_i, h_f  chain parameters                       (tfi)
    g            system-bath coupling                   (open)
    temperatures comma-separated bath temperatures      (open; default 0.05, 0.1, 0.5, 1.0)
    tf_min, tf_max, tf_points, tf_log                   (grid; log-spaced, 60 points by default)
    scenarios    comma-separated subset of 1,2,3,4,opt  (tfi: only 1,2,opt)
    rel_tol, abs_tol                                    (integrator control)
    dtau_points  grid size for impulse-interval scans   (default 2001)
    out          output path                            (optional)

Rows are one per t_f (times one per temperature for the open model), written
in ascending order with 17-significant-digit floats, so identical configs
produce byte-identical files regardless of worker count.
"""

import concurrent.futures
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
_COMMON_KEYS = {"model", "tf_min", "tf_max", "tf_points", "tf_log",
                "scenarios", "rel_tol", "abs_tol", "dtau_points", "out"}
_SCENARIOS = {"lz": {"1", "2", "3", "4", "opt"},
              "open": {"1", "2", "3", "4", "opt"},
              "tfi": {"1", "2", "opt"}}


class ConfigError(ValueError):
    """Malformed sweep configuration; message carries the offending line."""


@dataclass
class SweepConfig:
    model: str
    params: dict
    tf_min: float
    tf_max: float
    tf_points: int = 60
    tf_log: bool = True
    scenarios: tuple = ("1", "2", "3", "4", "opt")
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    temperatures: tuple = (0.05, 0.1, 0.5, 1.0)
    dtau_points: int = 2001
    out: str = ""

    def tf_grid(self):
        if self.tf_log:
            return np.geomspace(self.tf_min, self.tf_max, self.tf_points)
        return np.linspace(self.tf_min, self.tf_max, self.tf_points)


def _parse_value(key, raw, lineno):
    try:
        if key in ("model", "out"):
            return raw
        if key == "tf_log":
            if raw.lower() not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError(raw)
            return raw.lower() in ("true", "1", "yes")
        if key in ("tf_points", "L", "dtau_points"):
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
    for key in ("tf_min", "tf_max"):
        if key not in entries:
            raise ConfigError(f"line 1: missing required key {key!r}")
    for key in _MODEL_KEYS[model] - {"temperatures"}:
        if key not in entries:
            raise ConfigError(f"line 1: missing required key {key!r} for model {model!r}")

    scenarios = entries.get("scenarios", tuple(sorted(_SCENARIOS[model])))
    if not scenarios:
        raise ConfigError(f"line {lines.get('scenarios', 1)}: scenario list is empty")
    bad = [s for s in scenarios if s not in _SCENARIOS[model]]
    if bad:
        raise ConfigError(f"line {lines.get('scenarios', 1)}: invalid scenarios {bad} "
                          f"for model {model!r}")

    cfg = SweepConfig(
        model=model,
        params={k: entries[k] for k in _MODEL_KEYS[model] - {"temperatures"}},
        tf_min=entries["tf_min"], tf_max=entries["tf_max"],
        tf_points=entries.get("tf_points", 60),  # 60 log points per 5 decades
        tf_log=entries.get("tf_log", True),
        scenarios=tuple(scenarios),
        rel_tol=entries.get("rel_tol", 1e-10), abs_tol=entries.get("abs_tol", 1e-12),
        temperatures=entries.get("temperatures", (0.05, 0.1, 0.5, 1.0)),
        dtau_points=entries.get("dtau_points", 2001),
        out=entries.get("out", ""),
    )
    if not 0 < cfg.tf_min < cfg.tf_max:
        raise ConfigError(f"line {lines['tf_min']}: need 0 < tf_min < tf_max")
    if cfg.tf_points < 2:
        raise ConfigError(f"line {lines['tf_points']}: need tf_points >= 2")
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


def _lz_row(cfg, tf):
    row = {"t_f": tf}
    p = lz.LzParams(cfg.params["x"], cfg.params["z_i"], cfg.params["z_f"], tf)
    psi = lz.evolve_schrodinger(p, cfg.rel_tol, cfg.abs_tol)
    row["d_adi"] = lz.state_distance(psi, lz.adiabatic_state(p))
    row["d_adi1"] = lz.state_distance(psi, lz.adiabatic_first_order(p))
    for s in "1234":
        if s in cfg.scenarios:
            st = lz.switching_times(p, int(s))
            row[f"d_aia{s}"] = lz.state_distance(psi, lz.aia_state(p, st))
            row[f"dtau{s}"] = st.dtau
    if "opt" in cfg.scenarios:
        dt, d = lz.optimize_dtau(p, psi_exact=psi)
        row["d_aia_opt"], row["dtau_opt"] = d, dt
    return row


def _tfi_row(cfg, tf):
    row = {"t_f": tf}
    p = tfi.TfiParams(cfg.params["L"], cfg.params["h_i"], cfg.params["h_f"], tf)
    exact = tfi.evolve_register(p, cfg.rel_tol, cfg.abs_tol)
    row["d_adi"] = tfi.register_distance(exact, tfi.adiabatic_register(p))
    for s in "12":
        if s in cfg.scenarios:
            st = tfi.switching_times_tfi(p, int(s))
            row[f"d_aia{s}"] = tfi.register_distance(exact, tfi.aia_register(p, st))
            row[f"dtau{s}"] = st.dtau
    if "opt" in cfg.scenarios:
        dt, d = tfi.optimize_dtau_tfi(p, exact_reg=exact)
        row["d_aia_opt"], row["dtau_opt"] = d, dt
    return row


def _open_row(cfg, tf, temperature):
    row = {"t_f": tf, "T": temperature}
    p = lo.OpenParams(cfg.params["x"], cfg.params["z_i"], cfg.params["z_f"],
                      tf, temperature, cfg.params["g"])
    c_exact = lo.evolve_master(p, cfg.rel_tol, cfg.abs_tol)
    row["d_adi"] = lo.trace_distance(c_exact, lo.adiabatic_state_open(p))
    for s in "1234":
        if s in cfg.scenarios:
            st = lo.switching_times_open(p, int(s))
            row[f"d_aia{s}"] = lo.trace_distance(c_exact, lo.aia_state_open(p, st))
            row[f"dtau{s}"] = st.dtau
    if "opt" in cfg.scenarios:
        dt, d = lo.optimize_dtau_open(p, c_exact=c_exact)
        row["d_aia_opt"], row["dtau_opt"] = d, dt
    return row


def _compute_task(args):
    cfg, tf, temperature = args
    try:
        if cfg.model == "lz":
            row = _lz_row(cfg, tf)
        elif cfg.model == "tfi":
            row = _tfi_row(cfg, tf)
        else:
            row = _open_row(cfg, tf, temperature)
        row["err"] = ""
    except Exception as exc:  # recorded per row; the sweep continues
        row = {"t_f": tf, "err": f"{type(exc).__name__}: {exc}"}
        if temperature is not None:
            row["T"] = temperature
    return row


def run_sweep(cfg, out=None, threads=1):
    """Run the sweep and write the CSV; returns (path, rows, n_failed)."""
    path = out or cfg.out or f"{cfg.model}_sweep.csv"
    tasks = []
    for tf in cfg.tf_grid():
        if cfg.model == "open":
            tasks.extend((cfg, float(tf), float(T)) for T in cfg.temperatures)
        else:
            tasks.append((cfg, float(tf), None))

    if threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_compute_task, tasks))
    else:
        rows = [_compute_task(t) for t in tasks]

    rows.sort(key=lambda r: (r["t_f"], r.get("T", 0.0)))
    columns = COLUMNS if cfg.model == "open" else [c for c in COLUMNS if c != "T"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")
    n_failed = sum(1 for r in rows if r["err"])
    return path, rows, n_failed


def read_csv(path):
    """Read a sweep CSV back into {column: list}, empty fields as None."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = {c: [] for c in header}
        for line in fh:
            for c, cell in zip(header, line.rstrip("\n").split(",")):
                if c == "err":
                    data[c].append(cell)
                else:
                    data[c].append(float(cell) if cell else None)
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

    The grid spans [-t_f, t_f] with ``dtau_points`` points (forced odd so the
    dtau = 0 row is present). The open model scans at its first temperature.
    """
    path = out or f"{cfg.model}_dtau_scan.csv"
    n = cfg.dtau_points
    if n % 2 == 0:
        n += 1
    dtaus = np.linspace(-tf, tf, n)
    if cfg.model == "lz":
        p = lz.LzParams(cfg.params["x"], cfg.params["z_i"], cfg.params["z_f"], tf)
        psi = lz.evolve_schrodinger(p, cfg.rel_tol, cfg.abs_tol)
        dists = lz.aia_distance_grid(p, dtaus, psi)
    elif cfg.model == "tfi":
        p = tfi.TfiParams(cfg.params["L"], cfg.params["h_i"], cfg.params["h_f"], tf)
        exact = tfi.evolve_register(p, cfg.rel_tol, cfg.abs_tol)
        dists = tfi.aia_distance_grid(p, dtaus, exact)
    else:
        p = lo.OpenParams(cfg.params["x"], cfg.params["z_i"], cfg.params["z_f"],
                          tf, cfg.temperatures[0], cfg.params["g"])
        c_exact = lo.evolve_master(p, cfg.rel_tol, cfg.abs_tol)
        dists = lo.aia_distance_grid(p, dtaus, c_exact)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("dtau,d\n")
        for dt, d in zip(dtaus, dists):
            fh.write(f"{dt:.17g},{d:.17g}\n")
    return path, dtaus, np.asarray(dists)
