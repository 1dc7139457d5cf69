"""Golden order tables: the D values of three small sweeps are frozen.

The CSVs under tests/golden come from scripts/make_golden.py.  Every
change that promises the same tables must reproduce them: the same empty
(failed) cells and every D, uniform rows included, within 1e-10 relative.
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
