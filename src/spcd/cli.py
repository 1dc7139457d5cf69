"""Command-line front end.

Subcommands: ``solve`` runs one (eps, N) pair and dumps the solution
lattice, ``table`` sweeps an (eps, N) grid and writes the order table as
CSV and fixed-width text, ``geometry`` reports characteristic points and
arc data, and ``validate`` runs the manufactured-solution convergence
check.  A plain key=value file can set defaults; flags override it.
"""

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import geometry, grids, harness, pipeline, problems

log = logging.getLogger("spcd")


def _parse_config_file(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _add_common(p):
    p.add_argument("--config", help="key=value file with defaults")
    p.add_argument("--problem", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--R", type=float, default=None,
                   help="strip width (default: per-problem catalog value)")
    p.add_argument("--c-star", dest="c_star", type=float, default=2.0)
    p.add_argument("--padding", type=float, default=1e-3)
    p.add_argument("--out", default=".", help="output directory")


def _case_and_config(args):
    case = problems.test_problem(args.problem, args.beta)
    cfg = pipeline.SolveConfig.from_mapping(case.config)
    if args.R is not None:
        cfg.R = args.R
    cfg.c_star = args.c_star
    cfg.padding = args.padding
    return case, cfg


def _parse_pows(text, step_allowed=True):
    parts = text.split(":")
    if len(parts) == 2:
        a, b, s = int(parts[0]), int(parts[1]), 1
    elif len(parts) == 3 and step_allowed:
        a, b, s = int(parts[0]), int(parts[1]), int(parts[2])
    else:
        raise ValueError(f"bad power range {text!r}")
    return list(range(a, b + 1, s))


def cmd_solve(args):
    if args.resolution < 3:
        raise ValueError(f"--resolution must be >= 3, got {args.resolution}")
    case, cfg = _case_and_config(args)
    from dataclasses import replace
    data = replace(case.data, eps=args.eps)
    approx = pipeline.solve_problem(case.boundary, data, args.N, cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "solution.txt")
    with open(path, "w") as fh:
        pipeline.dump_solution(approx, fh, resolution=args.resolution)
    log.info("wrote %s", path)
    return 0


def cmd_table(args):
    if args.jobs < 0:
        raise ValueError(f"--jobs must be >= 0, got {args.jobs}")
    case, cfg = _case_and_config(args)
    eps_list = [2.0**-i for i in _parse_pows(args.eps_pows)]
    N_list = [2**j for j in _parse_pows(args.N_pows, step_allowed=False)]
    jobs = args.jobs or os.cpu_count() or 1
    table = harness.order_table(case, eps_list, N_list, cfg, jobs=jobs)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "table.csv")
    txt_path = os.path.join(args.out, "table.txt")
    with open(csv_path, "w") as fh:
        fh.write(table.to_csv())
    text = table.render_text()
    with open(txt_path, "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    log.info("wrote %s and %s", csv_path, txt_path)
    failed = int(np.count_nonzero(np.isnan(table.D)))
    if failed:
        log.error("%d of %d table cells failed", failed, table.D.size)
        return 1
    return 0


def cmd_geometry(args):
    case, cfg = _case_and_config(args)
    boundary = case.boundary
    points = geometry.find_characteristic_points(boundary)
    print(f"{case.label}: {len(points)} characteristic points")
    for p in points:
        print(f"  t={p.t: .10f}  point=({p.point[0]: .10f}, {p.point[1]: .10f})  "
              f"{p.kind:8s}  kappa={p.kappa_at: .6f}")
    arcs = geometry.outflow_arcs(boundary)
    print(f"outflow arcs ({len(arcs)}):")
    for ta, tb in arcs:
        bound = grids.strip_width_bound(boundary, (ta, tb))
        print(f"  t in ({ta:.10f}, {tb:.10f})  width bound R < {bound:.6f}")
    ts = np.linspace(0, boundary.period, 4096, endpoint=False)
    kap = geometry.frame_arrays(boundary, ts)[3]
    print(f"curvature over boundary: min={kap.min():.6f} max={kap.max():.6f}")
    if args.delta_trim > 0:
        print(f"theta (delta_trim={args.delta_trim:g}): "
              f"{geometry.theta_min(boundary, args.delta_trim):.6f}")
    return 0


def cmd_validate(args):
    boundary = problems.circle(1.0)
    exact = problems.BubbleExp()
    N_list = [int(v) for v in args.N_list.split(",")]
    worst = math.inf
    for eps in [float(v) for v in args.eps_list.split(",")]:
        case = problems.manufactured_case(boundary, exact, eps)
        cfg = pipeline.SolveConfig.from_mapping(case.config)
        errs = []
        for N in N_list:
            approx = pipeline.solve_problem(case.boundary, case.data, N, cfg)
            g = approx.grid
            X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
            sel = g.inside
            num = pipeline.evaluate_many(approx, X[sel], Y[sel])
            errs.append(float(np.max(np.abs(num - exact.u(X[sel], Y[sel])))))
        print(f"eps={eps:g}: errors " + " ".join(f"{e:.3e}" for e in errs))
        for k in range(len(errs) - 1):
            order = math.log2(errs[k] / errs[k + 1])
            worst = min(worst, order)
            print(f"  order N={N_list[k]}->{N_list[k + 1]}: {order:.4f}")
    print(f"minimum observed order: {worst:.4f} (threshold {args.min_order})")
    return 0 if worst >= args.min_order else 1


def _build_parser():
    parser = argparse.ArgumentParser(prog="spcd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="one (eps, N) run plus solution dump")
    _add_common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--resolution", type=int, default=101)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="double-mesh order table")
    _add_common(p)
    p.add_argument("--eps-pows", dest="eps_pows", default="0:20:4",
                   help="a:b[:s] -> eps = 2^-a .. 2^-b step s")
    p.add_argument("--N-pows", dest="N_pows", default="3:7",
                   help="a:b -> N = 2^a .. 2^b")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = all cores)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("geometry", help="characteristic point report")
    _add_common(p)
    p.add_argument("--delta-trim", dest="delta_trim", type=float, default=0.0)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("validate", help="manufactured-solution convergence")
    p.add_argument("--config", help="key=value file with defaults")
    p.add_argument("--eps-list", dest="eps_list", default="1,0.5")
    p.add_argument("--N-list", dest="N_list", default="32,64,128")
    p.add_argument("--min-order", dest="min_order", type=float, default=0.8)
    p.set_defaults(func=cmd_validate)
    return parser, sub


def run(argv) -> int:
    """Parse flags and dispatch; returns the process exit code."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser, sub = _build_parser()
    try:
        # values from --config become parser defaults, so explicit flags
        # always win over the file (argparse casts string defaults)
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config", default=None)
        known, _ = pre.parse_known_args(argv)
        if known.config:
            file_values = _parse_config_file(known.config)
            for sp in sub.choices.values():
                valid = {a.dest for a in sp._actions}
                sp.set_defaults(**{k: v for k, v in file_values.items() if k in valid})
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
