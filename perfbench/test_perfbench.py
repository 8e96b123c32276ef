"""Tests of the benchmark itself: metric names, trace counts, the gate and
the workload generator. Run with ``python -m pytest perfbench -q``."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import child
import gate
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
aia, _ = child.import_aia(ROOT)


def test_benchmark_json_names_what_the_command_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_metric_is_assembled_in_both_modes():
    layer = {n: 1.0 for n, _ in run.PER_LAYER}
    m = {"reps": {"plain": [{"wall_s": 2.0, "cpu_s": 2.1, "rows": 6}] * 3,
                  "serial": [{"wall_s": 2.0, "cpu_s": 2.0, "rows": 6}],
                  "traced": [{"wall_s": 2.2, "cpu_s": 2.2, "rows": None}]},
         "layers": [layer], "peak_rss_mb": 90.0, "cals": [0.3, 0.4, 0.3, 0.3]}
    probes = [{"import_s": 0.5, "calibrate_s": 0.3}] * 2
    for trace, wanted in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        samples, problems = run.samples_of(m, trace, [0.7, 0.8], probes, 18, 0, (1e-9, 1e-9))
        assert sorted(samples) == sorted(n for n, _ in wanted)
        assert problems == []
    # a traced run times no calibrations
    raw = run.unscaled({**m, "cals": [], "reps": {**m["reps"], "plain": []}}, [0.7, 0.8])
    assert sorted(raw) == ["serial.cpu_s", "serial.wall_s", "setup_s",
                           "traced.cpu_s", "traced.wall_s"]


def small_configs(tmp_path):
    texts = {
        "lz": "model = lz\nx = 0.1\nz_i = -1\nz_f = 1\ntf_min = 1\ntf_max = 80\n"
              "tf_points = 3\nscenarios = 1,2,3,4,opt\n",
        "tfi": "model = tfi\nL = 8\nh_i = 0.5\nh_f = 1.5\ntf_min = 1\ntf_max = 5\n"
               "tf_points = 2\nscenarios = 1,2,opt\n",
        "open": "model = open\nx = 0.1\nz_i = -1\nz_f = 1\ng = 0.01\ntemperatures = 0.05\n"
                "tf_min = 1\ntf_max = 3\ntf_points = 2\nscenarios = 1,2,3,4,opt\n",
    }
    for model, text in texts.items():
        (tmp_path / f"{model}.cfg").write_text(text)
    return list(texts)


def traced_counts(tmp_path, models):
    tracer = spans.Tracer(aia)
    tracer.install()
    try:
        for model in models:
            assert aia.cli.main([model, "--config", str(tmp_path / f"{model}.cfg"),
                                 "--out", str(tmp_path / f"{model}.csv")]) == 0
        p = aia.lindblad_open.OpenParams(0.25, -1.0, 1.0, 2.0, 0.3, 1e-3)
        child.run_transport(aia, p, [2.0, 3.0, 4.0], tmp_path / "transport.json")
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_trace_counts_repeat_and_tracer_restores_the_package(tmp_path):
    models = small_configs(tmp_path)
    originals = {m: dict(vars(m)) for m in spans.Tracer(aia).modules}
    first = traced_counts(tmp_path, models)
    second = traced_counts(tmp_path, models)
    for m, attrs in originals.items():
        assert all(vars(m)[k] is v for k, v in attrs.items())
    counts = {k: v for k, v in first.items() if not k.endswith("s")}
    assert counts == {k: second[k] for k in counts}
    assert first["sweeps.rows"] == 3 + 2 + 2
    assert first["cli.load_config.calls"] == 3
    assert first["numkit.integrate_ode.rhs_evals"] > 0
    assert first["numkit.minimize_scalar.f_evals"] > 0
    assert first["tfi.aia_distance_grid.points"] >= 2 * 201
    assert first["intertwiner.full_intertwiner.calls"] == 6
    for name in spans.TRACED["lz_closed"]:
        assert first[f"lz_closed.{name}.self_s"] <= first[f"lz_closed.{name}.s"] + 1e-9


def reference_csv(tmp_path, ref):
    cols = ["t_f"] + [c for c in gate.DISTANCES] + ["err"]
    lines = [",".join(cols)]
    for i in range(len(ref["t_f"])):
        cells = [ref[c][i] if c in ref else None for c in cols[:-1]]
        lines.append(",".join("" if v is None else repr(v) for v in cells) + ",")
    path = tmp_path / "out.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_gate_counts_a_corrupted_row(tmp_path):
    ref = gate.load_refs("lz-sweep")["variants"][0]
    limit = gate.GATES["lz-sweep"]
    out = gate.read_output(reference_csv(tmp_path, ref))
    n, failed, worst, _ = gate.check(out, ref, limit)
    assert (n, failed, worst) == (len(ref["t_f"]), 0, 0.0)

    out["d_aia2"][5] += 3 * limit
    out["d_adi"][7] = float("nan")
    out["err"][9] = "IntegrationError: step size underflow"
    out["d_aia_opt"][11] = -1e-3
    n, failed, worst, problems = gate.check(out, ref, limit)
    assert failed == 4 and len(problems) == 4
    assert worst >= 3 * limit


def test_gate_rejects_transport_outside_its_checks():
    ref = gate.load_refs("transport")["variants"][0]
    out = {k: list(ref[k]) for k in ("t_f", "norm", "min_choi_eig")}
    out["trace_error"] = [0.0] * len(ref["t_f"])
    assert gate.check(out, ref, gate.GATES["transport"])[1] == 0
    out["trace_error"][0] = 1e-9
    out["norm"][1] *= 1.01
    assert gate.check(out, ref, gate.GATES["transport"])[1] == 2


@pytest.mark.parametrize("name", [n for n, w in workloads.WORKLOADS.items()
                                  if w.model != "transport"])
def test_default_seed_reproduces_the_shipped_grid(name):
    w = workloads.WORKLOADS[name]
    shipped = aia.sweeps.load_config(ROOT / w.source)
    cfg = aia.sweeps.parse_config(workloads.config_text(w, 0))
    first, last, stride = w.pick
    np.testing.assert_allclose(cfg.tf_grid(), shipped.tf_grid()[first:last + 1:stride],
                               rtol=1e-13)
    assert (shipped.tf_min, shipped.tf_max, shipped.tf_points) == w.grid
    assert cfg.params == shipped.params and cfg.temperatures == shipped.temperatures
    assert set(shipped.scenarios) <= set(cfg.scenarios)
    assert (cfg.rel_tol, cfg.abs_tol) == (shipped.rel_tol, shipped.abs_tol)


def test_default_seed_spans_the_first_cell_of_the_demo_transport_grid():
    w = workloads.WORKLOADS["transport"]
    demo = (ROOT / w.source).read_text()
    tfs = re.search(r"tfs = \[([^\]]*)\]", demo).group(1)
    assert tuple(float(t) for t in tfs.split(",")[:2]) == w.grid[:2]
    params = re.search(r"OpenParams\(([^)]*)\)", demo).group(1).split(",")
    p, _ = child.prepare(aia, w, 0, None)
    assert (p.x, p.z_i, p.z_f, p.T, p.g) == tuple(float(params[i]) for i in (0, 1, 2, 4, 5))
    assert workloads.tf_points(w, 0) == pytest.approx([10.0, 300 ** 0.5, 30.0], rel=1e-15)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seeds_move_points_within_their_cells(name):
    w = workloads.WORKLOADS[name]
    shipped = w.shipped_points()
    assert min(b / a for a, b in zip(shipped, shipped[1:])) > workloads.MAX_SCALE
    base = workloads.tf_points(w, 0)
    for seed in range(1, 3 * workloads.N_VARIANTS):
        pts = workloads.tf_points(w, seed)
        assert pts == workloads.tf_points(w, seed)
        assert all(b <= t < b * workloads.MAX_SCALE for b, t in zip(base, pts))
        assert (pts != base) == (seed % workloads.N_VARIANTS != 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_references_cover_every_variant_and_are_converged(name):
    refs = gate.load_refs(name)
    limit = gate.GATES[name]
    assert [v["variant"] for v in refs["variants"]] == list(range(workloads.N_VARIANTS))
    w = workloads.WORKLOADS[name]
    for v in refs["variants"]:
        if w.model == "transport":
            expected = workloads.tf_points(w, v["variant"])
        else:
            expected = aia.sweeps.parse_config(workloads.config_text(w, v["variant"])).tf_grid()
        np.testing.assert_allclose(v["t_f"], expected, rtol=1e-12)
        assert v["converged"] <= limit / 100
        assert v["default_dev"] <= limit / 10
