#!/usr/bin/env python3
"""Compare two source trees on benchmark workloads by alternating pairs of runs.

    python3 tools/ab_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seconds S
                              [--seeds 0,3,7]

W is a workload, a comma-separated list of them, or ``all``, every workload of
CHANGE_TREE's ``BENCHMARK.json`` in its order; the workloads run one after another,
each with its own pairs and its own verdicts, since a bound holds per workload.
Each pair runs ``perfbench/run.py --workload W --seed K --seconds S --trace 0`` once
in each tree, from that tree's root; the tree that runs first alternates from pair to
pair, and pair i takes the i-th seed of ``--seeds``, cycling. The last line of a run
is its JSON result. After a line ``== W ==``, for every end-to-end metric of
CHANGE_TREE's ``BENCHMARK.json`` one line gives each side's median and quartiles over
the pairs, the pairs the change won (ties count for neither side), the change of the
median against the parent's, and two verdicts:

  * ``gain``: the change won at least nine tenths of the pairs and its median is
    better than the parent's by more than the parent's interquartile range;
  * ``bound``: the change's median is not worse than the parent's by more than the
    metric's bound, as a fraction of the parent's median.

A run that exits non-zero, or whose result is not ``correct``, stops the comparison.
Nothing under either tree's ``perfbench/`` is changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree, workload, seed, seconds):
    """The metrics {name: value} of one untraced run of the benchmark in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: seed {seed} failed the benchmark's gate:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3), as ``perfbench/run.py`` reports them."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def verdict(metric, parent, change):
    """One report line for ``metric`` (a ``BENCHMARK.json`` entry) over paired runs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * value: lower is better
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain = won >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    moved = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
    return (f"{metric['name']:15s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} "
            f"[{c1:.4g}, {c3:.4g}]  {moved}  won {won}/{len(parent)}  "
            f"gain {'met' if gain else 'not met'}  "
            f"bound {'held' if worse <= metric['bound'] else 'exceeded'} ({metric['bound']:g})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, help="a workload, a comma-separated list, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--seeds", default="0", help="comma-separated seeds, cycled over the pairs")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1:
        raise SystemExit(f"--pairs must be at least 1, got {args.pairs}")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        raise SystemExit(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json has "
                         f"{', '.join(known)}")

    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run(getattr(args, side), workload, seed, args.seconds))
            print(f"{workload} pair {i + 1} seed {seed} ({order[0]} first): wall_s parent "
                  f"{runs['parent'][-1]['wall_s']:.4g}, change {runs['change'][-1]['wall_s']:.4g}",
                  flush=True)
        print(f"== {workload} ==")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            print(verdict(metric, [r[name] for r in runs["parent"]],
                          [r[name] for r in runs["change"]]), flush=True)

if __name__ == "__main__":
    main()
