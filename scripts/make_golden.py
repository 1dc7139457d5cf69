"""Write the golden order tables that tests/test_golden.py compares with.

    PYTHONPATH=src python3 scripts/make_golden.py

Runs one ``spcd table`` sweep per catalog problem (beta = 0.5, catalog
strip width, eps = 2^0, 2^-10, 2^-20, N = 8..64, one job) and copies each
``table.csv`` to ``tests/golden/table-p<problem>.csv``.  The numerics are
meant to stay frozen: rerun this only for a change that is meant to move
D values, and record the cause and the largest relative change.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from spcd import cli

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
PROBLEMS = (1, 2, 3)
EPS_POWS = "0:20:10"
N_POWS = "3:6"


def table_argv(problem, out):
    return ["table", "--problem", str(problem), "--eps-pows", EPS_POWS,
            "--N-pows", N_POWS, "--jobs", "1", "--out", str(out)]


def main():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for p in PROBLEMS:
            out = Path(tmp) / f"p{p}"
            if cli.run(table_argv(p, out)) != 0:
                print(f"problem {p}: spcd table failed", file=sys.stderr)
                return 1
            shutil.copyfile(out / "table.csv", GOLDEN_DIR / f"table-p{p}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
