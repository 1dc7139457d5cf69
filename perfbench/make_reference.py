"""Write the reference outputs of the default seed to perfbench/reference.

    python3 perfbench/make_reference.py

Runs one sweep of cli-solve, table-seq and large-warm at full size with
beta = 0.5 and stores the solution dumps, the table CSV and a sample of
the large-warm nodal values.  Rerun it only when a change to spcd is
meant to change these outputs, and say so in the change.
"""

import logging
import os
import shutil
import sys

import numpy as np

import run
import workloads


def main():
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    modules = run.import_spcd()
    outdir = run.ROOT / ".perfbench_run" / f"ref-{os.getpid()}"
    ref = workloads.REFERENCE_DIR
    ref.mkdir(exist_ok=True)
    try:
        r = workloads.Run(modules, run.beta_for_seed(run.DEFAULT_SEED), workloads.FULL,
                          outdir, reference=False)
        solve = workloads.CliSolve()
        solve.setup(r)
        solve.sweep(r)
        for p, path in zip(solve.problems, solve.outputs(r)):
            np.savez_compressed(ref / f"solve-p{p}.npz", xyu=np.loadtxt(path))

        table = workloads.Table("table-seq", jobs=1)
        table.setup(r)
        table.sweep(r)
        (ref / "table-p1.csv").write_text(table.csvs[0])

        large = workloads.LargeWarm()
        large.setup(r)
        large.sweep(r)
        np.savez_compressed(ref / "large-p1.npz", **{
            f"eps={eps!r}": workloads.nodal_sample(approx, r.sizes.large_stride)
            for eps, (_, approx) in large.last.items()})
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if r.tally.failed:
        print("\n".join(r.tally.errors), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
