"""The four benchmark workloads and the inputs each seed generates for them.

Each sweep workload is a slice of a shipped config's t_f grid, cut so that
one sweep takes a few seconds and a run can repeat it; the reason the grid
was chosen holds for the slice (see ``WORKLOADS[...].why``). ``transport``
is the demo 06 closeness check on the first cell of the demo's t_f grid,
10 to 30, at three log-spaced points (the check needs three): the demo's
next point, t_f = 100, alone would take longer than the three together.

A seed selects one of ``N_VARIANTS`` input variants (``seed % N_VARIANTS``);
the accuracy references under ``refs/`` cover every variant. Variant 0 is
the shipped grid itself. Any other variant scales every t_f point by one
factor in [1, ``MAX_SCALE``), which keeps each point inside its cell of the
shipped log grid. The cost of a sweep is about proportional to t_f, so it
moves by under one per cent across seeds, while every distance changes: the
phases of the oscillating distances move by radians at the largest t_f.

This module uses only the standard library, so the benchmark's driver can
import it without importing the package under test.
"""

import random
from dataclasses import dataclass

N_VARIANTS = 16
MAX_SCALE = 1.01

REL_TOL = 1e-10  # the shipped configs' stated tolerances
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    model: str        # lz | tfi | open | transport
    source: str       # the shipped config (or demo) the inputs are cut from
    keys: tuple       # fixed config lines, as (key, value) pairs
    grid: tuple       # the shipped log grid: (tf_min, tf_max, tf_points)
    pick: tuple       # (first, last, stride): indices into the shipped grid
    threads: int
    why: str

    def shipped_points(self):
        lo, hi, n = self.grid
        return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


WORKLOADS = {w.name: w for w in [
    Workload(
        name="lz-sweep", model="lz", source="configs/lz_aia_scenarios.cfg",
        keys=(("x", "0.1"), ("z_i", "-1"), ("z_f", "1"),
              ("scenarios", "1,2,3,4,opt")),
        grid=(0.1, 10000.0, 60), pick=(3, 51, 4), threads=1,
        why="two-level sweep, t_f 0.18..2.1e3 (13 of 60 points): about 90% of its "
            "time is lz_closed.evolve_schrodinger, the exact-propagator path"),
    Workload(
        name="chain-sweep", model="tfi", source="configs/tfi_switching_windows.cfg",
        keys=(("L", "150"), ("h_i", "0.5"), ("h_f", "1.5"),
              ("scenarios", "1,2,opt")),
        grid=(1.0, 300.0, 40), pick=(11, 39, 28), threads=2,
        why="L=150 chain, t_f 5 and 300, 2 workers: the only sweep through the "
            "process pool, rows of uneven cost; the quadrature optimizer dominates"),
    Workload(
        name="open-sweep", model="open", source="configs/open_scenarios.cfg",
        keys=(("x", "0.1"), ("z_i", "-1"), ("z_f", "1"), ("g", "0.01"),
              ("temperatures", "0.05"), ("scenarios", "1,2,3,4,opt")),
        grid=(1.0, 1000.0, 30), pick=(9, 24, 5), threads=1,
        why="damped qubit, t_f 8.5..304 (4 of 30 points): master-equation ODE plus "
            "the optimizer's Python loop over aia_state_open"),
    Workload(
        name="transport", model="transport", source="demos/06_spectral_transport.py",
        keys=(("x", "0.25"), ("z_i", "-1"), ("z_f", "1"), ("T", "0.3"),
              ("g", "1e-3")),
        grid=(10.0, 30.0, 3), pick=(0, 2, 1), threads=1,
        why="intertwiner closeness check at t_f 10, 17.3, 30 plus cptp diagnostics: "
            "the only workload that reaches the intertwiner"),
]}


def variant_of(seed):
    return seed % N_VARIANTS


def tf_points(w, seed):
    """The t_f values the seed gives, before the program's own grid rounding."""
    first, last, stride = w.pick
    base = w.shipped_points()[first:last + 1:stride]
    v = variant_of(seed)
    if v == 0:
        return base
    factor = MAX_SCALE ** random.Random(f"{w.name}/{v}").random()
    return [t * factor for t in base]


def config_text(w, seed, rel_tol=REL_TOL, abs_tol=ABS_TOL):
    """Sweep config for the workload; its log grid runs through tf_points()."""
    pts = tf_points(w, seed)
    lines = [f"# {w.name}, seed {seed}: cut from {w.source}", f"model = {w.model}"]
    lines += [f"{k} = {v}" for k, v in w.keys]
    lines += [f"tf_min = {pts[0]!r}", f"tf_max = {pts[-1]!r}",
              f"tf_points = {len(pts)}",
              f"rel_tol = {rel_tol!r}", f"abs_tol = {abs_tol!r}"]
    return "\n".join(lines) + "\n"
