#!/usr/bin/env python3
"""Print a sha256 digest of each output that one source tree produces.

    python3 tools/output_digest.py TREE > digests.txt

TREE is a checkout of this repository, and ``aia`` is imported from TREE/src.
One line ``sha256 name`` is printed for

  * the CSV of each shipped sweep config (``configs/*.cfg``);
  * one impulse-interval scan per model (``SCANS``);
  * the stdout of each demo (``demos/*.py``), run from TREE;
  * the values of the spectral-transport check at the benchmark's transport
    parameters: the closeness norms, the fitted exponent and the
    ``cptp_diagnostics`` of each transport U; then the bytes of the transports U
    (``full_intertwiner``) and of the exact propagators E (``exact_propagator``)
    themselves, at the same t_f.

Two trees that compute the same numbers print the same lines, so a ``diff``
of two runs names the outputs that a change moved. Compare digests only
between runs on the same host and the same numpy build: numpy may round an
array's vectorized body and its tail differently. Each config is also run
at ``threads=2``; if that CSV is not the serial one byte for byte, the run
stops with a non-zero exit that names the config. On a 2-core host a run
takes about 8 s.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

CONFIGS = (
    "lz_adiabatic_scaling.cfg", "lz_aia_scenarios.cfg", "lz_optimal_distance.cfg",
    "lz_optimal_window.cfg", "open_scenarios.cfg", "open_temperature_sweep.cfg",
    "tfi_distance_scaling.cfg", "tfi_switching_windows.cfg",
)
DEMOS = (
    "01_two_level_sweep.py", "02_switching_windows.py", "03_optimal_impulse_window.py",
    "04_ising_chain.py", "05_damped_qubit.py", "06_spectral_transport.py",
)
# one scan per model: (config, t_f); lz at the double-crossing landscape of demo 03
SCANS = (("lz_optimal_window.cfg", 2000.0), ("tfi_distance_scaling.cfg", 30.0),
         ("open_scenarios.cfg", 50.0))
# the transport workload: OpenParams(x, z_i, z_f, t_f, T, g) at t_f = 10, 300^(1/2), 30
TRANSPORT_PARAMS = (0.25, -1.0, 1.0, 10.0, 0.3, 1e-3)
TRANSPORT_TFS = tuple(np.geomspace(10.0, 30.0, 3))


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _import_aia(tree):
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import aia.intertwiner
    import aia.lindblad_open
    import aia.sweeps
    if src not in Path(aia.__file__).resolve().parents:
        raise SystemExit(f"imported aia from {aia.__file__}, not from {src}")
    return aia


def digests(tree):
    """Yield (sha256, name) for every output of ``tree``, in the order listed above."""
    aia = _import_aia(tree)
    sweeps = aia.sweeps
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            cfg = sweeps.load_config(tree / "configs" / name)
            csvs = []
            for threads in (1, 2):
                out = os.path.join(tmp, f"{name}.{threads}.csv")
                path, _, _ = sweeps.run_sweep(cfg, out=out, threads=threads)
                csvs.append(Path(path).read_bytes())
            if csvs[1] != csvs[0]:
                raise SystemExit(f"configs/{name}: the threads=2 CSV differs from the serial one")
            yield _digest(csvs[0]), f"configs/{name}"
        for name, tf in SCANS:
            cfg = sweeps.load_config(tree / "configs" / name)
            path, _, _ = sweeps.run_dtau_scan(cfg, tf, out=os.path.join(tmp, "scan.csv"))
            yield _digest(Path(path).read_bytes()), f"dtau-scan {name} t_f={tf:g}"

    env = dict(os.environ, PYTHONPATH=str((tree / "src").resolve()))
    for name in DEMOS:
        proc = subprocess.run([sys.executable, str(tree / "demos" / name)], cwd=tree, env=env,
                              capture_output=True, check=True)
        yield _digest(proc.stdout), f"demos/{name}"

    itw = aia.intertwiner
    p = aia.lindblad_open.OpenParams(*TRANSPORT_PARAMS)
    fit, norms = itw.closeness_bound_check(p, TRANSPORT_TFS)
    us = [itw.full_intertwiner(replace(p, t_f=tf), 1.0) for tf in TRANSPORT_TFS]
    diags = [itw.cptp_diagnostics(u) for u in us]
    for name, values in (("norms", norms), ("exponent", [fit.exponent]),
                         ("cptp_diagnostics", [v for d in diags for v in d])):
        text = "\n".join(repr(float(v)) for v in values) + "\n"
        yield _digest(text.encode()), f"transport {name}"
    es = [itw.exact_propagator(replace(p, t_f=tf), 1.0) for tf in TRANSPORT_TFS]
    for name, superops in (("U", us), ("E", es)):
        yield _digest(b"".join(s.tobytes() for s in superops)), f"transport {name}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="repository checkout to import aia from")
    args = parser.parse_args(argv)
    for sha, name in digests(args.tree):
        print(sha, name, flush=True)


if __name__ == "__main__":
    main()
