"""Compute the committed accuracy references for every workload and variant.

    python3 perfbench/make_refs.py [--workload NAME ...]

For each variant the workload runs three times: at the configs' tolerances
(1e-10 / 1e-12), and at two tighter ones, 1e-12 / 1e-14 and 1e-13 / 1e-15.
The tightest run is stored as the reference. The file also records, per
variant, how far the two tight runs differ (``converged``) and how far the
configs' tolerances land from the reference (``default_dev``, the run's
``dist_err_max`` at the commit that made the references); the script
refuses to write a reference whose two tight runs differ by more than a
hundredth of the gate, or whose default run would fail the gate.

Run it from the repository root; it reads and writes only inside it, and
takes about ten minutes for all workloads on two cores (one process each).
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import child
import gate
import workloads

TIGHT = (1e-12, 1e-14)
REFERENCE = (1e-13, 1e-15)


def run(aia, w, seed, tol, work):
    if w.model == "transport":
        p, tfs = child.prepare(aia, w, seed, work)
        out = work / "out.json"
        child.run_transport(aia, p, tfs, out, tol)
        return gate.read_output(out)
    cfg = aia.sweeps.parse_config(workloads.config_text(w, seed, *tol))
    out = work / "out.csv"
    aia.sweeps.run_sweep(cfg, out=str(out), threads=1)
    return gate.read_output(out)


def max_dev(a, b):
    worst = 0.0
    for col in gate.value_columns(b):
        for x, y in zip(a.get(col, []), b.get(col, [])):
            if x is not None and y is not None:
                worst = max(worst, abs(x - y))
    return worst


def write_refs(name, variants):
    """One variant per line, so a diff of the file shows which one moved."""
    head = json.dumps({"workload": name, "tolerances": {
        "reference": REFERENCE, "convergence_check": TIGHT,
        "default": [workloads.REL_TOL, workloads.ABS_TOL]}})
    body = ",\n".join(json.dumps(v) for v in variants)
    (gate.REFS / f"{name}.json").write_text(
        head[:-1] + ', "variants": [\n' + body + "\n]}\n", encoding="utf-8")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    aia, _ = child.import_aia(root)
    (root / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench-work"))
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            w = workloads.WORKLOADS[name]
            limit = gate.GATES[name]
            variants = []
            for v in range(workloads.N_VARIANTS):
                default = run(aia, w, v, (workloads.REL_TOL, workloads.ABS_TOL), work)
                tight = run(aia, w, v, TIGHT, work)
                ref = run(aia, w, v, REFERENCE, work)
                ref = {k: ref[k] for k in ("t_f", *gate.value_columns(ref)) if k in ref}
                conv = max_dev(tight, ref)
                _, failed, dev, problems = gate.check(default, ref, limit)
                print(f"{name} variant {v}: converged {conv:.2e}, "
                      f"default deviation {dev:.2e}", flush=True)
                if conv > limit / 100 or failed:
                    sys.exit(f"{name} variant {v}: reference not usable: {problems}")
                variants.append({"variant": v, "converged": conv, "default_dev": dev,
                                 **ref})
            write_refs(name, variants)
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it


if __name__ == "__main__":
    main()
