"""A standing line budget for ``src/aia`` (ROADMAP item 20)."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "aia"

# the total of `wc -l src/aia/*.py`; a change that adds lines raises this bound in its
# own diff and says in CHANGES.md what the lines are for (ROADMAP item 20)
LINE_BUDGET = 2216


def test_src_aia_stays_within_its_line_budget():
    lines = {f.name: f.read_bytes().count(b"\n") for f in sorted(SRC.glob("*.py"))}
    assert sum(lines.values()) <= LINE_BUDGET, lines
