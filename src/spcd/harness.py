"""Double-mesh convergence-order estimation.

For a case and a perturbation parameter, the two-mesh difference compares
the interpolants of the N-cell and 2N-cell runs: over the union of inside
rectangle nodes excluding the strips for the outer phase, and over the
union of both strip node sets in (r, t) coordinates for the correction
phase.  Orders are base-2 log ratios of consecutive differences, and the
parameter-uniform row takes the worst difference over the eps list before
forming ratios.
"""

import logging
import math
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import pipeline
from .pipeline import SolveConfig

__all__ = ["ConvergenceTable", "two_mesh_difference", "order_table"]

log = logging.getLogger(__name__)

_STRIP_MASK_CACHE = weakref.WeakKeyDictionary()


def _case_config(case, config):
    if config is not None:
        return config
    return SolveConfig.from_mapping(case.config)


def _solve_case(case, eps, N, config, cache=None):
    """Solve at (eps, N) once per cache: a failed solve is cached as its
    exception and raised again, never retried."""
    cache = {} if cache is None else cache
    key = (eps, N)
    if key not in cache:
        data = replace(case.data, eps=eps)
        try:
            cache[key] = pipeline.solve_problem(case.boundary, data, N, config)
        except (ValueError, RuntimeError) as exc:
            cache[key] = exc
    if isinstance(cache[key], Exception):
        raise cache[key]
    return cache[key]


def _outer_strip_mask(sol, config):
    """True where an inside node of the rectangle grid lies strictly
    inside a strip (r < R); nodes whose inversion finds no perpendicular
    foot count as outside the strip."""
    boundary = sol.boundary
    per_boundary = _STRIP_MASK_CACHE.setdefault(boundary, {})
    key = (sol.grid.N, config.R, config.padding)
    mask = per_boundary.get(key)
    if mask is None:
        grid = sol.grid
        X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        sel = grid.inside.ravel()
        idx = np.full(sel.shape, -1, dtype=int)
        r = np.full(sel.shape, np.nan)
        if sel.any():
            idx_s, r_s, _ = sol.locator.locate_batch(X.ravel()[sel], Y.ravel()[sel])
            idx[sel] = idx_s
            r[sel] = r_s
        mask = ((idx >= 0) & (r < config.R)).reshape(grid.inside.shape)
        per_boundary[key] = mask
    return mask


def two_mesh_difference(case, eps, N, config: SolveConfig = None, _cache=None):
    """Maximum local two-mesh global difference D at (eps, N).

    Solves at N and 2N; the outer part is the max interpolant difference
    over the union of both grids' inside nodes outside the strips (the
    2N grid nodes contain the N grid nodes), the strip part is the max
    over the union of both strip node sets per arc, and D is the larger
    of the two.
    """
    config = _case_config(case, config)
    sol_n = _solve_case(case, eps, N, config, _cache)
    sol_2n = _solve_case(case, eps, 2 * N, config, _cache)

    grid2 = sol_2n.grid
    keep = grid2.inside & ~_outer_strip_mask(sol_2n, config)
    X, Y = np.meshgrid(grid2.xs, grid2.ys, indexing="ij")
    outer = 0.0
    if keep.any():
        coarse = pipeline.bilinear_eval_many(sol_n.grid, sol_n.U0, X[keep], Y[keep])
        outer = float(np.max(np.abs(coarse - sol_2n.U0[keep])))

    strip = 0.0
    for (mesh_a, U_a), (mesh_b, U_b) in zip(sol_n.strips, sol_2n.strips):
        for mesh in (mesh_a, mesh_b):
            Rg, Tg = np.meshgrid(mesh.r, mesh.t, indexing="ij")
            va = pipeline.bilinear_eval_strip_many(mesh_a, U_a, Rg.ravel(), Tg.ravel())
            vb = pipeline.bilinear_eval_strip_many(mesh_b, U_b, Rg.ravel(), Tg.ravel())
            strip = max(strip, float(np.max(np.abs(va - vb))))
    return max(outer, strip)


def order_from_differences(D_coarse, D_fine):
    """log2 ratio of consecutive two-mesh differences; NaN when either
    value is missing (None or NaN) or not positive."""
    if D_coarse is None or D_fine is None:
        return math.nan
    if not (D_coarse > 0 and D_fine > 0):
        return math.nan
    return math.log2(D_coarse / D_fine)


@dataclass
class ConvergenceTable:
    """Differences and orders over an (eps, N) sweep.

    ``D[i, k]`` is the two-mesh difference for eps_list[i] at N_list[k]
    (NaN marks a failed cell), ``p[i, k]`` the order between N_list[k]
    and N_list[k+1].  The uniform rows take the max difference over eps
    first, skipping missing cells.
    """

    eps_list: list
    N_list: list
    D: np.ndarray
    p: np.ndarray
    D_uniform: np.ndarray
    p_uniform: np.ndarray

    @classmethod
    def from_differences(cls, eps_list, N_list, D):
        D = np.asarray(D, dtype=float)
        n_eps, n_N = D.shape
        p = np.full((n_eps, max(n_N - 1, 0)), np.nan)
        for i in range(n_eps):
            for k in range(n_N - 1):
                p[i, k] = order_from_differences(D[i, k], D[i, k + 1])
        D_uniform = np.fmax.reduce(D, axis=0, initial=np.nan)  # fmax skips NaN
        p_uniform = np.full(max(n_N - 1, 0), np.nan)
        for k in range(n_N - 1):
            p_uniform[k] = order_from_differences(D_uniform[k], D_uniform[k + 1])
        return cls(eps_list=list(eps_list), N_list=list(N_list), D=D, p=p,
                   D_uniform=D_uniform, p_uniform=p_uniform)

    def to_csv(self) -> str:
        lines = ["eps,N,D,p"]

        def fmt_D(v):
            return "" if np.isnan(v) else f"{v:.17g}"

        def fmt_p(v):
            return "" if np.isnan(v) else f"{v:.4f}"

        for i, eps in enumerate(self.eps_list):
            for k, N in enumerate(self.N_list):
                pval = self.p[i, k] if k < self.p.shape[1] else np.nan
                lines.append(f"{eps:.17g},{N},{fmt_D(self.D[i, k])},{fmt_p(pval)}")
        for k, N in enumerate(self.N_list):
            pval = self.p_uniform[k] if k < self.p_uniform.size else np.nan
            lines.append(f"uniform,{N},{fmt_D(self.D_uniform[k])},{fmt_p(pval)}")
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        """Fixed-width table of orders: one row per eps, orders at 4
        decimals, and a final parameter-uniform row."""
        cols = self.N_list[:-1]
        head = f"{'eps':>12} |" + "".join(f"{'N=' + str(N):>10}" for N in cols)
        lines = [head, "-" * len(head)]

        def fmt(v):
            return f"{v:10.4f}" if not np.isnan(v) else f"{'--':>10}"

        for i, eps in enumerate(self.eps_list):
            row = f"{eps:12.6f} |" + "".join(fmt(self.p[i, k]) for k in range(len(cols)))
            lines.append(row)
        lines.append("-" * len(head))
        lines.append(f"{'p_uniform':>12} |" + "".join(fmt(self.p_uniform[k]) for k in range(len(cols))))
        return "\n".join(lines) + "\n"


def _row_worker(args):
    """Differences of one eps row: each N of N_list and 2*N_max is solved
    once, and a solution is dropped after the last cell that needs it.
    Returns D, or the error message of a failed cell, per N."""
    case, eps, N_list, config = args
    cache = {}
    out = []
    for N in N_list:
        try:
            out.append(two_mesh_difference(case, eps, N, config, _cache=cache))
        except (ValueError, RuntimeError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        cache.pop((eps, N), None)
    return out


def order_table(case, eps_list, N_list, config: SolveConfig = None,
                jobs: int = 1) -> ConvergenceTable:
    """Full (eps, N) sweep of two-mesh differences and orders.

    ``N_list`` must consist of consecutive doublings.  Each eps row is one
    task; with ``jobs > 1`` the rows run on a pool of up to ``jobs``
    processes.  Results are identical for any pool size because every
    solve is deterministic.  Failed cells are logged and excluded from the
    uniform maxima.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    N_list = list(N_list)
    for a, b in zip(N_list, N_list[1:]):
        if b != 2 * a:
            raise ValueError("N list must be consecutive doublings")
    config = _case_config(case, config)

    rows = [(case, eps, N_list, config) for eps in eps_list]
    workers = min(jobs, len(rows))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_row_worker, rows))
    else:
        results = [_row_worker(row) for row in rows]

    D = np.full((len(eps_list), len(N_list)), np.nan)
    for i, (eps, row) in enumerate(zip(eps_list, results)):
        for k, (N, res) in enumerate(zip(N_list, row)):
            if isinstance(res, str):
                log.warning("cell eps=%g N=%d failed: %s", eps, N, res)
            else:
                D[i, k] = res
    return ConvergenceTable.from_differences(eps_list, N_list, D)
