"""Correctness gate: compare a workload's output with the committed references.

The references (``refs/<workload>.json``) were computed once at tolerances
three orders tighter than the configs' and checked for convergence against
a second tight run (see ``make_refs.py``); the gate never recomputes them
with the code under test.

A row passes when its ``err`` is empty, every distance the reference has is
present, finite and within [0, 1] (transport norms: finite and >= 0), and
every value lies within the workload's gate of the reference. Failing rows
are counted, not raised.
"""

import csv
import json
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

DISTANCES = ("d_adi", "d_adi1", "d_aia1", "d_aia2", "d_aia3", "d_aia4", "d_aia_opt")
TRANSPORT_VALUES = ("norm", "min_choi_eig")
TRACE_ERROR_MAX = 1e-12

# Largest allowed |value - reference| per workload: at least ten times the
# worst deviation of a run at the configs' tolerances over all variants, and
# a hundred times the disagreement of the two tight runs. The transport
# references agree only to ~1e-10 between tight runs: that is the roundoff
# of the finite-difference commutator in intertwiner.full_intertwiner.
GATES = {"lz-sweep": 1e-9, "chain-sweep": 1e-6, "open-sweep": 2e-8, "transport": 1e-7}


def read_output(path):
    """{column: list} from a sweep CSV (empty cells as None) or a transport JSON."""
    path = Path(path)
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cols = {}
    for row in rows:
        for key, cell in row.items():
            if key != "err":
                cell = float(cell) if cell else None
            cols.setdefault(key, []).append(cell)
    return cols


def load_refs(workload):
    return json.loads((REFS / f"{workload}.json").read_text(encoding="utf-8"))


def value_columns(out):
    return TRANSPORT_VALUES if "norm" in out else DISTANCES


def check(out, ref, gate):
    """(rows attempted, rows failed, largest distance deviation, first problems)."""
    n_ref = len(ref["t_f"])
    n = len(out.get("t_f", []))
    if n != n_ref:
        return max(n, n_ref), max(n, n_ref), math.inf, [f"{n} rows, reference has {n_ref}"]
    transport = "norm" in ref
    failed, worst, problems = 0, 0.0, []
    for i in range(n):
        bad = []
        if not math.isclose(out["t_f"][i], ref["t_f"][i], rel_tol=1e-12):
            bad.append(f"t_f {out['t_f'][i]!r} != reference {ref['t_f'][i]!r}")
        if not transport and out["err"][i]:
            bad.append(f"err {out['err'][i]!r}")
        if transport and not out["trace_error"][i] <= TRACE_ERROR_MAX:
            bad.append(f"trace error {out['trace_error'][i]!r}")
        for col in value_columns(ref):
            r = ref[col][i] if col in ref else None
            v = out[col][i] if col in out else None
            if r is None and v is None:
                continue
            if r is None or v is None or not math.isfinite(v):
                bad.append(f"{col} = {v!r}, reference {r!r}")
                continue
            dev = abs(v - r)
            if col in DISTANCES or col == "norm":
                worst = max(worst, dev)
                lo, hi = 0.0, (math.inf if transport else 1.0)
                if not lo <= v <= hi:
                    bad.append(f"{col} = {v!r} outside [{lo}, {hi}]")
            if not dev <= gate:
                bad.append(f"{col} = {v!r} is {dev:.3g} from reference {r!r}")
        if bad:
            failed += 1
            problems.append(f"row {i} (t_f={out['t_f'][i]!r}): " + "; ".join(bad))
    return n, failed, worst, problems[:5]
