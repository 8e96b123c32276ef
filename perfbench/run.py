"""Sweep benchmark for aia: time to an accurate result on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads are defined in
``workloads.py``; the seed picks the input variant. A run

1. times ``PROBES`` fresh interpreters that import ``aia`` from ``src/``,
   generate the inputs and parse them (``setup_s``);
2. starts one measuring process (``child.py measure``) that repeats the
   workload for S seconds. With ``--trace 0`` every repetition runs the
   sweep as a user would (chain-sweep with 2 pool workers) and untraced,
   and is timed between two runs of a fixed calibration task; the
   end-to-end times are scaled to the speed at which that task takes
   ``CAL_REF_S`` (see README.md: the host's speed swings by up to 2x).
   With ``--trace 1`` it alternates untraced and traced serial repetitions,
   the traced one through the ``aia`` CLI entry point with every layer's
   public functions wrapped (``spans.py``); chain-sweep also runs once with
   its 2 workers so its CSV can be compared with the serial ones;
3. gates every repetition's output against ``refs/`` (``gate.py``) and
   checks that all outputs of the run are byte-identical;
4. prints each metric with its unit, sample count, median and quartiles,
   a run record (machine, versions, seed), and as its last line the JSON
   result ``{"correct", "attempted", "failed", "metrics"}``.

``attempted`` and ``failed`` count output rows (t_f points) over all
repetitions. Exits 2 without a result when ``src/aia`` is missing or a
process it starts fails. Reads and writes only inside the checkout; its
scratch directory ``.perfbench-work/`` is removed at exit.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 4
MEASURE_TIMEOUT = 150.0
# Seconds child.calibrate() takes at the reference speed: its usual time on
# the 2-core Xeon sandbox the benchmark was defined on, when not slowed.
CAL_REF_S = 0.30

# (name, unit) of what each mode reports; BENCHMARK.json lists the same.
END_TO_END = [
    ("wall_s", "s"), ("rows_per_s", "1/s"), ("cpu_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("dist_err_ratio", "ratio"),
]
PER_LAYER = [
    ("numkit.integrate_ode.s", "s"), ("numkit.integrate_ode.calls", "count"),
    ("numkit.integrate_ode.rhs_evals", "count"),
    ("numkit.minimize_scalar.s", "s"), ("numkit.minimize_scalar.f_evals", "count"),
    ("numkit.minimize_scalar.grid_points", "count"),
    ("lz_closed.evolve_schrodinger.s", "s"), ("lz_closed.evolve_schrodinger.self_s", "s"),
    ("lz_closed.adiabatic_first_order.s", "s"), ("lz_closed.aia_state.s", "s"),
    ("lz_closed.optimize_dtau.s", "s"),
    ("tfi.evolve_register.s", "s"), ("tfi.optimize_dtau_tfi.s", "s"),
    ("tfi.aia_distance_grid.points", "count"), ("tfi.switching_times_tfi.s", "s"),
    ("lindblad_open.evolve_master.s", "s"), ("lindblad_open.optimize_dtau_open.s", "s"),
    ("lindblad_open.aia_state_open.calls", "count"),
    ("intertwiner.full_intertwiner.s", "s"), ("intertwiner.exact_propagator.s", "s"),
    ("intertwiner.cptp_diagnostics.s", "s"),
    ("sweeps.run_sweep.self_s", "s"), ("sweeps.rows", "count"),
    ("cli.load_config.s", "s"), ("setup.import.s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("dist_err_max", "distance"), ("rows_failed_frac", "fraction"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child(*args, timeout):
    """Run child.py; returns (seconds to its first line of output, its output)."""
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        try:
            rest, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{' '.join(cmd[2:4])} took longer than {timeout} s")
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[2:4])} exited with {proc.returncode}:\n{err[-2000:]}")
    return ready, first + rest


def stats(values):
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def gate_outputs(w, seed, work, outputs):
    """(attempted, failed, (dist_err_max, its value when the references were
    made), problems) over every output file."""
    ref = gate.load_refs(w.name)["variants"][workloads.variant_of(seed)]
    first = (work / outputs[0]["path"]).read_bytes()
    attempted = failed = 0
    worst = 0.0
    problems = []
    for o in outputs:
        path = work / o["path"]
        n, bad, dev, probs = gate.check(gate.read_output(path), ref, gate.GATES[w.name])
        if path.read_bytes() != first:
            bad = n
            probs = [f"{o['path']} ({o['kind']}) differs from {outputs[0]['path']} "
                     f"({outputs[0]['kind']})"] + probs
        attempted += n
        failed += bad
        worst = max(worst, dev)
        problems += probs
    return attempted, failed, (worst, ref["default_dev"]), problems


def samples_of(m, trace, setup, probes, attempted, failed, accuracy):
    """({metric: samples} for the mode, problems found in the counts)."""
    samples, problems = {}, []
    if not trace:
        # each repetition at the reference speed, from the calibrations on
        # either side of it; each probe's from the calibration it ran next
        cals = m["cals"]
        speed = [CAL_REF_S / (0.5 * (a + b)) for a, b in zip(cals, cals[1:])]
        reps = m["reps"]["plain"]
        samples["wall_s"] = [r["wall_s"] * k for r, k in zip(reps, speed)]
        samples["rows_per_s"] = [r["rows"] / (r["wall_s"] * k) for r, k in zip(reps, speed)]
        samples["cpu_s"] = [r["cpu_s"] * k for r, k in zip(reps, speed)]
        samples["setup_s"] = [s * CAL_REF_S / p["calibrate_s"] for s, p in zip(setup, probes)]
        samples["peak_rss_mb"] = [m["peak_rss_mb"]]
        samples["dist_err_ratio"] = [accuracy[0] / accuracy[1]]
        return samples, problems
    layers = m["layers"]
    for name, unit in PER_LAYER:
        if name in layers[0]:
            values = [lay[name] for lay in layers]
            if unit == "count" and len(set(values)) > 1:
                problems.append(f"count {name} differs between traced runs: {values}")
            samples[name] = values
    traced = [r["wall_s"] for r in m["reps"]["traced"]]
    serial = [r["wall_s"] for r in m["reps"]["serial"]]
    samples["trace.wall_s"] = traced
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(serial)]
    samples["setup.import.s"] = [p["import_s"] for p in probes]
    samples["dist_err_max"] = [accuracy[0]]
    samples["rows_failed_frac"] = [failed / attempted]
    return samples, problems


def unscaled(m, setup):
    """Statistics of the raw timings, for the record; traced runs have no
    calibrations."""
    raw = {"setup_s": stats(setup)}
    if m["cals"]:
        raw["calibrate_s"] = stats(m["cals"])
    for kind, reps in m["reps"].items():
        for key in ("wall_s", "cpu_s"):
            if reps:
                raw[f"{kind}.{key}"] = stats([r[key] for r in reps])
    return raw


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "aia" / "__init__.py").is_file():
        fail(f"no package at {ROOT / 'src' / 'aia'}: run from a checkout of the repository")
    w = workloads.WORKLOADS[args.workload]

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        common = ["--root", ROOT, "--workload", w.name, "--seed", args.seed]
        setup, probes = [], []
        for _ in range(PROBES):
            ready, out = child("probe", "--work", work, *common, timeout=60)
            probe, cal = map(json.loads, out.splitlines()[:2])
            setup.append(ready)
            probes.append({**probe, **cal})
        child("measure", "--work", work, *common, "--seconds", args.seconds,
              "--trace", args.trace, timeout=MEASURE_TIMEOUT)
        m = json.loads((work / "measure.json").read_text(encoding="utf-8"))
        attempted, failed, accuracy, problems = gate_outputs(w, args.seed, work,
                                                             m["outputs"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    samples, more = samples_of(m, args.trace, setup, probes, attempted, failed, accuracy)
    problems += more
    failed += len(more)
    wanted = PER_LAYER if args.trace else END_TO_END

    metrics, record = {}, {}
    for name, unit in wanted:
        st = stats(samples[name])
        metrics[name] = {"value": st["median"], "unit": unit}
        record[name] = st
        print(f"{name:40s} {st['median']:.6g} {unit}  (n={st['n']}, "
              f"q1={st['q1']:.6g}, q3={st['q3']:.6g})")
    print(f"rows attempted {attempted}, failed {failed}")
    for p in problems:
        print(f"gate: {p}")
    raw = unscaled(m, setup)
    print("unscaled: " + ", ".join(f"{k} {v['median']:.4g}" for k, v in raw.items()))
    print("record " + json.dumps({
        **machine(), "numpy": probes[0]["numpy"], "scipy": probes[0]["scipy"],
        "workload": w.name, "seed": args.seed, "variant": workloads.variant_of(args.seed),
        "seconds": args.seconds, "trace": args.trace, "metrics": record, "unscaled": raw}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
