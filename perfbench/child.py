"""Processes the benchmark starts: set-up probes and the measured run.

    python3 perfbench/child.py probe   --root R --work DIR --workload W --seed N
    python3 perfbench/child.py measure --root R --work DIR --workload W --seed N
                                       --seconds S --trace 0|1

``probe`` is a fresh interpreter that imports ``aia`` from ``R/src``,
generates the workload's inputs and parses them, and prints a line; the
parent times it from start to that line. It then times ``calibrate()``.

``measure`` repeats the workload until the time is up, timing
``calibrate()`` before and after each untraced repetition, writes every
repetition's output under DIR for the gate, and writes
``DIR/measure.json``. Running the measurement in its own process keeps the
set-up probes out of its CPU and peak-memory figures; its only children
are pool workers (the sweep's, and for a pooled sweep the calibration's).
"""

import argparse
import concurrent.futures
import contextlib
import io
import json
import multiprocessing
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import spans
import workloads

MIN_REPS = 3
CAL_SOLVES = 20


def import_aia(root):
    sys.path.insert(0, str(Path(root) / "src"))
    t0 = time.perf_counter()
    import aia.cli  # the package and its command-line entry point
    import_s = time.perf_counter() - t0
    src = (Path(root) / "src").resolve()
    if src not in Path(aia.__file__).resolve().parents:
        raise SystemExit(f"imported aia from {aia.__file__}, not from {src}")
    return aia, import_s


def prepare(aia, w, seed, work):
    """Generate the inputs: a config file (sweeps) or a parameter set."""
    if w.model == "transport":
        keys = {k: float(v) for k, v in w.keys}
        tfs = workloads.tf_points(w, seed)
        return aia.lindblad_open.OpenParams(t_f=tfs[0], **keys), tfs
    path = Path(work) / f"{w.name}.cfg"
    path.write_text(workloads.config_text(w, seed), encoding="utf-8")
    return path, None


def calibrate():
    """Seconds for a fixed scipy task that runs no ``aia`` code.

    The host's speed swings by up to a factor of two within seconds (other
    tenants; no steal time is visible), and wall and CPU time swing with it.
    The task is the same kind of work as the workloads (DOP853 with a Python
    rhs on a small complex state), so timing it next to every repetition
    measures the speed the repetition ran at.
    """
    import numpy
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return -1j * numpy.array([0.3 * y[0] + 0.1 * t * y[1], 0.1 * y[0] - 0.3 * y[1]])

    y0 = numpy.array([1.0 + 0.0j, 0.0j])
    t0 = time.perf_counter()
    for _ in range(CAL_SOLVES):
        solve_ivp(rhs, (0.0, 60.0), y0, method="DOP853", rtol=1e-10, atol=1e-12)
    return time.perf_counter() - t0


def cpu_now():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def run_transport(aia, p, tfs, out, tol=(workloads.REL_TOL, workloads.ABS_TOL)):
    """Demo 06's check: the closeness fit, then the cptp diagnostics of each U."""
    itw = aia.intertwiner
    fit, norms = itw.closeness_bound_check(p, tfs, *tol)
    diags = [itw.cptp_diagnostics(itw.full_intertwiner(replace(p, t_f=tf), 1.0, *tol))
             for tf in tfs]
    Path(out).write_text(json.dumps({
        "t_f": list(tfs), "norm": [float(n) for n in norms],
        "trace_error": [d[0] for d in diags], "min_choi_eig": [d[1] for d in diags],
        "exponent": fit.exponent}), encoding="utf-8")
    return len(tfs)


def run_rep(aia, w, inputs, out, threads, via_cli=False):
    """One repetition; returns (wall_s, cpu_s, rows)."""
    source, tfs = inputs
    if w.model != "transport" and not via_cli:
        cfg = aia.sweeps.load_config(source)
    cpu0 = cpu_now()
    t0 = time.perf_counter()
    if w.model == "transport":
        rows = run_transport(aia, source, tfs, out)
    elif via_cli:
        with contextlib.redirect_stdout(io.StringIO()):
            code = aia.cli.main([w.model, "--config", str(source), "--out", str(out),
                                 "--threads", str(threads)])
        if code != 0:
            raise RuntimeError(f"aia {w.model} exited with code {code}")
        rows = None
    else:
        _, result, _ = aia.sweeps.run_sweep(cfg, out=str(out), threads=threads)
        rows = len(result)
    wall = time.perf_counter() - t0
    return wall, cpu_now() - cpu0, rows


def measure(args):
    aia, _ = import_aia(args.root)
    w = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    inputs = prepare(aia, w, args.seed, work)
    ext = "json" if w.model == "transport" else "csv"
    reps = {"plain": [], "serial": [], "traced": []}
    layers = []
    outputs = []

    def rep(kind, threads, tracer=None):
        out = work / f"out-{len(outputs):03d}-{kind}.{ext}"
        if tracer is None:
            wall, cpu, rows = run_rep(aia, w, inputs, out, threads)
        else:
            tracer.reset()
            tracer.install()
            try:
                wall, cpu, rows = run_rep(aia, w, inputs, out, threads, via_cli=True)
            finally:
                tracer.uninstall()
            layers.append(tracer.summary())
        reps[kind].append({"wall_s": wall, "cpu_s": cpu, "rows": rows})
        outputs.append({"kind": kind, "path": out.name})

    cals = []
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        # a pooled sweep runs on every core, so it is calibrated on every core
        with concurrent.futures.ProcessPoolExecutor(
                w.threads, mp_context=multiprocessing.get_context("spawn")) as pool:
            def calibrate_all():
                if w.threads == 1:
                    return calibrate()
                runs = [pool.submit(calibrate) for _ in range(w.threads)]
                return sum(r.result() for r in runs) / len(runs)

            cals.append(calibrate_all())
            while time.perf_counter() < deadline or len(reps["plain"]) < MIN_REPS:
                rep("plain", w.threads)
                cals.append(calibrate_all())
    else:
        tracer = spans.Tracer(aia)
        if w.threads > 1:
            rep("plain", w.threads)  # pooled output, compared with the traced serial one
        while not reps["traced"] or time.perf_counter() < deadline:
            rep("serial", 1)
            rep("traced", 1, tracer)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    (work / "measure.json").write_text(json.dumps({
        "reps": reps, "layers": layers, "outputs": outputs, "cals": cals,
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
    }), encoding="utf-8")


def probe(args):
    aia, import_s = import_aia(args.root)
    w = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    cfg_path, _ = prepare(aia, w, args.seed, args.work)
    if w.model != "transport":
        aia.sweeps.load_config(cfg_path)
    import numpy
    import scipy
    print(json.dumps({"import_s": import_s, "prepare_s": time.perf_counter() - t0,
                      "numpy": numpy.__version__, "scipy": scipy.__version__}), flush=True)
    print(json.dumps({"calibrate_s": calibrate()}))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["probe", "measure"])
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    probe(args) if args.mode == "probe" else measure(args)


if __name__ == "__main__":
    main()
