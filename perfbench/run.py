"""Benchmark of spcd: end-to-end run or traced per-layer run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; spcd is imported from ./src.  The seed
picks the shape parameter beta of the catalog problems from [0.45, 0.6];
seed 0 gives the catalog value 0.5, whose outputs are compared with the
files in perfbench/reference.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it describes the machine.  See perfbench/README.md.
"""

import os
import sys

# BLAS and OpenMP pools are pinned before numpy loads: table-pool already
# runs one worker per core, and one thread keeps every workload steady.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SPCD_MODULES = ("cli", "geometry", "grids", "harness", "linsolve", "operators",
                "pipeline", "problems")
IMPORT_PROBES = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                f"import {', '.join('spcd.' + m for m in SPCD_MODULES)}; "
                "print(time.perf_counter() - t0)")


def beta_for_seed(seed):
    """Shape parameter of the run: 0.5 for the default seed, else drawn
    from [0.45, 0.6].  Below 0.45 the R = 0.1 strip is wider than the
    curvature radius of problems 1 and 3, so those inputs are inadmissible."""
    if seed == DEFAULT_SEED:
        return 0.5
    return round(random.Random(seed).uniform(0.45, 0.6), 6)


def import_spcd():
    """spcd's modules, imported from ./src."""
    if not (SRC / "spcd" / "__init__.py").is_file():
        raise SystemExit(f"error: no spcd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"spcd.{name}") for name in SPCD_MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: spcd imported from {origin}, not from {SRC}")
    return modules


def import_seconds():
    """Median wall time of importing spcd's modules, each time in a fresh
    interpreter; one import is too short to time steadily."""
    times = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return statistics.median(times)


def machine():
    import numpy
    import scipy
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(ram / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def end_to_end(wl, run, seconds):
    """Untraced run: set up several times, then repeat the sweep."""
    setups = [_timed(wl.setup, run) for _ in range(wl.setup_repeats)]
    sweeps, by_case = [], defaultdict(list)
    per_op = wl.solves_per_op(run.sizes)
    start = time.perf_counter()
    while True:
        op_times = wl.sweep(run)
        sweeps.append(sum(t for _, t in op_times))
        for case, t in op_times:
            by_case[case].append(t / per_op)
        if len(sweeps) >= wl.min_sweeps and time.perf_counter() - start >= seconds:
            break
    wl.finish(run)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # the import probes run after the peak RSS is read, so it leaves them out
    import_s = import_seconds()
    n = run.tally.attempted
    return {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "solve_s": (statistics.median([t for ts in by_case.values() for t in ts]), "s"),
        "solve_max_s": (max(statistics.median(ts) for ts in by_case.values()), "s"),
        "table_s": (statistics.median(sweeps), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_frac": ((n - run.tally.failed) / n if n else 0.0, "frac"),
    }, {"sweeps": len(sweeps)}


def traced(wl, run, seconds):
    """Traced run: one traced set-up, then untraced and traced sweeps in
    turn; per-layer numbers are per traced sweep."""
    from tracing import Tracer, aggregate
    tracer = Tracer(run.m, run.outdir / "trace")
    with tracer.active("setup"):
        wl.setup(run)
    plain, timed, written = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(_timed(wl.sweep, run))
        with tracer.active("pass"):
            t0 = time.perf_counter()
            ops = len(wl.sweep(run))
            timed.append(time.perf_counter() - t0)
        written.append(sum(p.stat().st_size for p in wl.outputs(run) if p.exists()))
        if time.perf_counter() - start >= seconds:
            break
    wl.finish(run)
    spans = tracer.spans()
    tracer.close()
    agg, agg_setup = aggregate(spans, "pass"), aggregate(spans, "setup")
    n = len(timed)

    def self_s(name, stats=agg, per=n):
        return stats[name]["self"] / per if name in stats else 0.0

    def calls(name):
        return agg[name]["calls"] / n if name in agg else 0.0

    def count(name, key):
        return agg[name]["counts"][key] / n if name in agg else 0.0

    solve_calls = calls("pipeline.solve_problem")
    table_wall = agg["harness.order_table"]["wall"] if "harness.order_table" in agg else 0.0
    busy = agg["harness.two_mesh_difference"]["wall"] if "harness.two_mesh_difference" in agg else 0.0
    overhead = statistics.median(timed) - statistics.median(plain)
    needed = wl.solves_per_op(run.sizes) * ops
    metrics = {
        "geometry.contains_batch_s": (self_s("geometry.contains_batch"), "s"),
        "geometry.contains_points": (count("geometry.contains_batch", "points"), "count"),
        "geometry.contains_batch_setup_s": (self_s("geometry.contains_batch", agg_setup, 1), "s"),
        "geometry.outflow_arcs_s": (self_s("geometry.outflow_arcs"), "s"),
        "grids.build_rect_grid_s": (self_s("grids.build_rect_grid"), "s"),
        "grids.rect_grids_per_solve": (calls("grids.build_rect_grid") / solve_calls if solve_calls else 0.0, "ratio"),
        "grids.build_strip_mesh_s": (self_s("grids.build_strip_mesh"), "s"),
        "grids.locate_batch_s": (self_s("grids.locate_batch"), "s"),
        "grids.locate_points": (count("grids.locate_batch", "points"), "count"),
        "operators.assemble_outer_s": (self_s("operators.assemble_outer"), "s"),
        "operators.assemble_strip_s": (self_s("operators.assemble_strip"), "s"),
        "operators.nnz": (count("operators.assemble_outer", "nnz") + count("operators.assemble_strip", "nnz"), "count"),
        "linsolve.solve_s": (self_s("linsolve.solve"), "s"),
        "linsolve.splu_s": (self_s("linsolve.splu"), "s"),
        "linsolve.lu_fill_nnz": (count("linsolve.splu", "fill"), "count"),
        "linsolve.unknowns": (count("linsolve.solve", "unknowns"), "count"),
        "linsolve.refine_steps": (count("linsolve.solve", "refine_steps"), "count"),
        "pipeline.solve_problem_s": (self_s("pipeline.solve_problem"), "s"),
        "pipeline.solve_problem_calls": (solve_calls, "count"),
        "pipeline.dump_solution_s": (self_s("pipeline.dump_solution"), "s"),
        "harness.two_mesh_difference_s": (self_s("harness.two_mesh_difference"), "s"),
        "harness.order_table_s": (self_s("harness.order_table"), "s"),
        "harness.solve_efficiency": (needed / solve_calls if solve_calls else 0.0, "ratio"),
        "harness.worker_busy_frac": (busy / (table_wall * wl.jobs) if table_wall else 0.0, "frac"),
        "cli.run_s": (self_s("cli.run"), "s"),
        "cli.bytes_written": (statistics.median(written), "bytes"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (overhead / statistics.median(plain), "frac"),
    }
    seen = {name: st["calls"] for name, st in agg.items()}
    seen_setup = {name: st["calls"] for name, st in agg_setup.items()}
    pids = len({s["pid"] for s in spans if s["tag"] == "pass"})
    return metrics, {"sweeps": n, "spans": seen, "setup_spans": seen_setup, "pids": pids}


def measure(workload, seed, seconds, trace, sizes=None):
    """One run; returns (result, details).  ``result`` is the JSON object
    of the last output line, ``details`` what the smoke test inspects."""
    modules = import_spcd()
    import workloads
    sizes = sizes or workloads.FULL
    wl = workloads.make(workload)
    beta = beta_for_seed(seed)
    reference = seed == DEFAULT_SEED and sizes == workloads.FULL
    outdir = ROOT / ".perfbench_run" / str(os.getpid())
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    try:
        run = workloads.Run(modules, beta, sizes, outdir, reference)
        if trace:
            metrics, details = traced(wl, run, seconds)
        else:
            metrics, details = end_to_end(wl, run, seconds)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass
    details.update(beta=beta, reference=reference, errors=run.tally.errors)
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # spcd's INFO lines would go to stderr on every call; warnings stay
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    for err in details["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed,
                      "beta": details["beta"], "trace": args.trace,
                      "reference_checked": details["reference"],
                      "sweeps": details["sweeps"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
