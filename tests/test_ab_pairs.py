"""tools/ab_pairs.py: its verdicts, and its pairs on stub benchmark trees."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}
RATE = {"name": "rows_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
WORKLOADS = ["lz-sweep", "chain-sweep", "open-sweep"]


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parents_spread():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [0.80] * 10
    assert "won 10/10  gain met  bound held" in ab_pairs.verdict(WALL, parent, faster)
    # eight wins of ten, a tie counting for neither side
    mixed = [0.80] * 8 + [1.00, 1.50]
    assert "won 8/10  gain not met" in ab_pairs.verdict(WALL, parent, mixed)
    # every pair won, but by less than the parent's interquartile range
    close = [p - 0.001 for p in parent]
    assert "won 10/10  gain not met" in ab_pairs.verdict(WALL, parent, close)
    # a rate is better when higher; 30% lower is past its bound of 0.2
    assert "won 0/10  gain not met  bound exceeded" in ab_pairs.verdict(
        RATE, parent, [0.7 * p for p in parent])


def _stub_tree(tmp_path, name, wall, log):
    tree = tmp_path / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [WALL], "workloads": [{"name": w} for w in WORKLOADS]}))
    (tree / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        f"open({str(log)!r}, 'a').write({name!r} + ' ' + sys.argv[sys.argv.index('--seed') + 1]"
        " + ' ' + sys.argv[sys.argv.index('--workload') + 1] + '\\n')\n"
        "print('a line before the result')\n"
        f"print(json.dumps({{'correct': True, 'metrics': {{'wall_s': {{'value': {wall}}}}}}}))\n")
    return tree


def test_pairs_alternate_which_tree_runs_first_and_cycle_the_seeds(tmp_path, capsys):
    log = tmp_path / "order.log"
    parent, change = (_stub_tree(tmp_path, "parent", 2.0, log),
                      _stub_tree(tmp_path, "change", 1.0, log))
    ab_pairs.main([str(parent), str(change), "--workload", "lz-sweep", "--pairs", "3",
                   "--seconds", "1", "--seeds", "4,9"])
    assert log.read_text().split("\n") == [
        f"{side} {seed} lz-sweep" for side, seed in [("parent", 4), ("change", 4), ("change", 9),
                                                    ("parent", 9), ("parent", 4), ("change", 4)]
    ] + [""]
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == "== lz-sweep =="
    assert out[-1].startswith("wall_s          parent 2 [2, 2]  change 1 [1, 1]  -50.0%  won 3/3")


def _runs_and_headers(tmp_path, capsys, workload):
    log = tmp_path / "order.log"
    parent, change = (_stub_tree(tmp_path, "parent", 2.0, log),
                      _stub_tree(tmp_path, "change", 1.0, log))
    ab_pairs.main([str(parent), str(change), "--workload", workload, "--pairs", "2",
                   "--seconds", "1"])
    out = capsys.readouterr().out.splitlines()
    runs = [line.split()[2] for line in log.read_text().splitlines()]
    return runs, [(line, out[i + 1]) for i, line in enumerate(out) if line.startswith("==")]


def test_all_runs_every_workload_of_the_benchmark_in_turn_with_its_own_verdicts(tmp_path,
                                                                               capsys):
    runs, verdicts = _runs_and_headers(tmp_path, capsys, "all")
    assert runs == [w for w in WORKLOADS for _ in range(4)]
    assert [h for h, _ in verdicts] == [f"== {w} ==" for w in WORKLOADS]
    assert all(v.startswith("wall_s") and "won 2/2" in v for _, v in verdicts)


def test_a_list_runs_its_workloads_in_its_order(tmp_path, capsys):
    runs, verdicts = _runs_and_headers(tmp_path, capsys, "open-sweep,lz-sweep")
    assert runs == ["open-sweep"] * 4 + ["lz-sweep"] * 4
    assert [h for h, _ in verdicts] == ["== open-sweep ==", "== lz-sweep =="]


def test_an_unknown_workload_stops_before_any_run(tmp_path, capsys):
    log = tmp_path / "order.log"
    parent, change = (_stub_tree(tmp_path, "parent", 2.0, log),
                      _stub_tree(tmp_path, "change", 1.0, log))
    with pytest.raises(SystemExit, match="unknown workload"):
        ab_pairs.main([str(parent), str(change), "--workload", "lz-sweep,nope"])
    assert not log.exists()
