"""Smoke test of the benchmark at toy size (N <= 32); takes a few seconds.

    python3 perfbench/smoke.py

For every workload, an untraced and a traced run must be correct and
report every metric BENCHMARK.json names, with its unit, and the traced
run must see every layer wrapper fire that the workload exercises.  A
wrapper that a call site bypasses (a name bound by ``from x import y``)
fails here instead of reporting a silent zero.
"""

import json
import logging
import math
import sys
from pathlib import Path

import run
import workloads

SOLVE_LAYERS = {
    "pipeline.solve_problem", "geometry.contains_batch", "geometry.outflow_arcs",
    "grids.build_rect_grid", "grids.build_strip_mesh", "grids.locate_batch",
    "operators.assemble_outer", "operators.assemble_strip", "linsolve.solve",
    "linsolve.splu",
}
TABLE_LAYERS = SOLVE_LAYERS | {"cli.run", "harness.order_table", "harness.two_mesh_difference"}

# span names each workload must produce in its timed sweeps (and set-up)
EXPECTED = {
    "cli-solve": (SOLVE_LAYERS | {"cli.run", "pipeline.dump_solution"}, set()),
    "table-seq": (TABLE_LAYERS, set()),
    "table-pool": (TABLE_LAYERS, set()),
    "large-warm": (
        SOLVE_LAYERS - {"geometry.contains_batch", "grids.build_rect_grid", "grids.locate_batch"},
        {"pipeline.solve_problem", "geometry.contains_batch", "grids.build_rect_grid"},
    ),
}


def check(workload, trace, declared):
    result, details = run.measure(workload, seed=1, seconds=0, trace=trace, sizes=workloads.TOY)
    problems = [f"{workload} trace={trace}: {e}" for e in details["errors"]]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: result {result['attempted']} attempted, "
                        f"{result['failed']} failed")
    if set(result["metrics"]) != set(declared):
        problems.append(f"{workload} trace={trace}: metrics {sorted(result['metrics'])}, "
                        f"declared {sorted(declared)}")
    for name, unit in declared.items():
        m = result["metrics"].get(name)
        if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
            problems.append(f"{workload} trace={trace}: metric {name} is {m}, unit {unit}")
    if trace:
        sweep, setup = EXPECTED[workload]
        missing = (sweep - set(details["spans"])) | (setup - set(details["setup_spans"]))
        if missing:
            problems.append(f"{workload}: wrappers never fired: {sorted(missing)}")
        if workload == "table-pool" and details["pids"] < 2:
            problems.append("table-pool: no spans from the pool workers")
    return problems


def main():
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        problems.append(f"BENCHMARK.json workloads differ from {workloads.NAMES}")
    for workload in workloads.NAMES:
        for trace in (0, 1):
            found = check(workload, trace, declared[trace])
            print(f"{workload:11s} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
