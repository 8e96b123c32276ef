"""tools/csv_delta.py: its per-column counts, and its runs on stub source trees."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("csv_delta", ROOT / "tools" / "csv_delta.py")
csv_delta = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_delta)

HEADER = ["t_f", "d_aia1", "dtau1", "err"]


def test_counts_moved_cells_and_their_largest_absolute_and_relative_change():
    parent = [HEADER, ["1", "0.5", "2", ""], ["2", "0.25", "4", ""], ["3", "", "8", ""]]
    change = [HEADER, ["1", "0.5", "2.5", ""], ["2", "0.3", "4.5", "boom"], ["3", "0.1", "8", ""]]
    rows = {c[0]: c[1:] for c in csv_delta.column_deltas(parent, change)}
    assert rows["t_f"] == (0, 3, 0.0, 0.0)
    # an empty cell against a number moves, and enters neither maximum
    assert rows["d_aia1"] == (2, 3, pytest.approx(0.05), pytest.approx(0.2))
    assert rows["dtau1"] == (2, 3, 0.5, 0.25)
    assert rows["err"] == (1, 3, 0.0, 0.0)
    with pytest.raises(SystemExit, match="differ in shape"):
        csv_delta.column_deltas(parent, change[:-1])


def _stub_tree(tmp_path, name, dtau, log):
    """A tree whose ``aia.cli`` logs its run and writes a two-row CSV."""
    tree = tmp_path / name
    (tree / "configs").mkdir(parents=True)
    (tree / "src" / "aia").mkdir(parents=True)
    for cfg, model in (("a.cfg", "lz"), ("b.cfg", "open")):
        (tree / "configs" / cfg).write_text(f"# stub\nmodel = {model}\n")
    (tree / "src" / "aia" / "__init__.py").write_text("")
    (tree / "src" / "aia" / "cli.py").write_text(
        "import sys\n"
        "args = sys.argv[1:]\n"
        f"open({str(log)!r}, 'a').write({name!r} + ' ' + args[0] + ' ' "
        "+ args[args.index('--config') + 1] + '\\n')\n"
        "open(args[args.index('--out') + 1], 'w').write("
        f"'t_f,d_aia1,dtau1,err\\n1,0.5,2,\\n2,0.25,{dtau},\\n')\n")
    return tree


def test_runs_each_config_in_both_trees_serially_and_reports_every_column(tmp_path, capsys):
    log = tmp_path / "runs.log"
    parent, change = _stub_tree(tmp_path, "parent", "4", log), _stub_tree(tmp_path, "change",
                                                                          "4.002", log)
    csv_delta.main([str(parent), str(change)])
    assert log.read_text().splitlines() == [
        "parent lz configs/a.cfg", "change lz configs/a.cfg",
        "parent open configs/b.cfg", "change open configs/b.cfg"]
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 8
    assert out[2].split() == ["a.cfg", "dtau1", "moved", "1/2", "max", "|d|", "0.002",
                              "max", "rel", "0.0005"]
    assert out[1].split()[:4] == ["a.cfg", "d_aia1", "moved", "0/2"]
    assert [line.split()[0] for line in out] == ["a.cfg"] * 4 + ["b.cfg"] * 4


def test_a_failing_run_stops_the_comparison(tmp_path):
    log = tmp_path / "runs.log"
    parent, change = _stub_tree(tmp_path, "parent", "4", log), _stub_tree(tmp_path, "change",
                                                                          "4", log)
    (change / "src" / "aia" / "cli.py").write_text("raise SystemExit(2)\n")
    with pytest.raises(SystemExit, match="exited with 2"):
        csv_delta.main([str(parent), str(change)])
