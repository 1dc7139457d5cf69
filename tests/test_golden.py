"""Golden order tables and solution dumps: three small sweeps and three
small dumps are frozen.

The files under tests/golden come from scripts/make_golden.py.  Every
change that promises the same tables must reproduce them: the same empty
(failed) cells and every D, uniform rows included, within 1e-10 relative.
A dump must list the same (x, y) lines in the same order, with u within
1e-10.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from spcd import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("make_golden", ROOT / "scripts" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

RTOL = 1e-10


def _cells(text):
    """{(eps, N): D} over every row of a table.csv; D is NaN when empty."""
    cells = {}
    for line in text.strip().splitlines()[1:]:
        eps, N, D, _ = line.split(",")
        cells[(eps, int(N))] = float(D) if D else math.nan
    return cells


@pytest.mark.parametrize("problem", make_golden.PROBLEMS)
def test_golden_table(problem, tmp_path):
    assert cli.run(make_golden.table_argv(problem, tmp_path)) == 0
    got = _cells((tmp_path / "table.csv").read_text())
    want = _cells((make_golden.GOLDEN_DIR / f"table-p{problem}.csv").read_text())
    assert got.keys() == want.keys()
    for key, D in want.items():
        if math.isnan(D):
            assert math.isnan(got[key]), key
        else:
            assert abs(got[key] - D) <= RTOL * abs(D), (key, got[key], D)


def _dump(text):
    """(x, y) lines and u values of a solution.txt, in file order."""
    rows = [line.split() for line in text.strip().splitlines()]
    return [(x, y) for x, y, _ in rows], [float(u) for _, _, u in rows]


@pytest.mark.parametrize("problem", make_golden.PROBLEMS)
def test_golden_dump(problem, tmp_path):
    assert cli.run(make_golden.solve_argv(problem, tmp_path)) == 0
    got_xy, got_u = _dump((tmp_path / "solution.txt").read_text())
    want_xy, want_u = _dump((make_golden.GOLDEN_DIR / f"dump-p{problem}.txt").read_text())
    assert got_xy == want_xy
    for xy, u, v in zip(want_xy, got_u, want_u):
        assert abs(u - v) <= 1e-10, (xy, u, v)
