#!/usr/bin/env python3
"""Name the CSV cells that a change moves, config by config and column by column.

    python3 tools/csv_delta.py PARENT_TREE CHANGE_TREE

Each shipped config (``configs/*.cfg`` of CHANGE_TREE) runs serially in both
trees, one ``python -m aia.cli MODEL --config configs/NAME --out ...`` process
at a time, from the tree's root with ``aia`` imported from its ``src``. For
each config and each column of its CSV, one line gives the number of cells
whose text moved and the largest absolute and relative |delta| over them, the
relative one against the parent's value; an empty cell against a number counts
as moved and enters neither maximum. A run that exits non-zero, or two CSVs
with different headers or row counts, stops the comparison.
"""

import argparse
import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def run_config(tree, config, out):
    """Run ``config`` (a path relative to the tree's root) in ``tree``; the CSV's rows."""
    model = re.search(r"^\s*model\s*=\s*(\w+)", (tree / config).read_text(), re.M).group(1)
    env = dict(os.environ, PYTHONPATH=str((tree / "src").resolve()))
    cmd = [sys.executable, "-m", "aia.cli", model, "--config", str(config), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def column_deltas(parent, change):
    """(column, moved, n, max |delta|, max relative |delta|) per column of two CSVs."""
    if parent[0] != change[0] or len(parent) != len(change):
        raise SystemExit(f"the CSVs differ in shape: header {parent[0]} with {len(parent) - 1} "
                         f"rows against {change[0]} with {len(change) - 1}")
    out = []
    for j, column in enumerate(parent[0]):
        moved, big, rel = 0, 0.0, 0.0
        for a, b in ((r[j], s[j]) for r, s in zip(parent[1:], change[1:])):
            if a == b:
                continue
            moved += 1
            if a and b and column != "err":
                delta = abs(float(b) - float(a))
                big = max(big, delta)
                rel = max(rel, delta / abs(float(a)) if float(a) else float(delta > 0.0))
        out.append((column, moved, len(parent) - 1, big, rel))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    args = ap.parse_args(argv)
    configs = sorted(p.relative_to(args.change) for p in (args.change / "configs").glob("*.cfg"))
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            runs = [run_config(tree, config, Path(tmp) / f"{side}.csv")
                    for side, tree in (("parent", args.parent), ("change", args.change))]
            for column, moved, n, big, rel in column_deltas(*runs):
                print(f"{config.name:28s} {column:9s} moved {moved:3d}/{n:<3d} "
                      f"max |d| {big:.3g}  max rel {rel:.3g}", flush=True)


if __name__ == "__main__":
    main()
