"""Two-phase solve: outer grid approximation plus strip correction.

Phase 1 solves the upwind scheme on the enclosing rectangle and forms a
global bilinear interpolant.  Phase 2 builds a Shishkin strip mesh over
every outflow arc, takes its inner Dirichlet data from the phase-1
interpolant, solves the boundary-fitted upwind scheme there, and the
corrected global approximation evaluates to the strip interpolant inside
the strips and to the outer interpolant elsewhere.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, grids, linsolve, operators

__all__ = [
    "SolveConfig",
    "GlobalApproximation",
    "bilinear_eval",
    "bilinear_eval_many",
    "bilinear_eval_strip",
    "bilinear_eval_strip_many",
    "solve_problem",
    "evaluate",
    "dump_solution",
]


@dataclass
class SolveConfig:
    """Solver parameters shared by both phases."""

    R: float = 0.1
    c_star: float = 2.0
    delta_trim: float = 0.0
    padding: float = 1e-3

    @classmethod
    def from_mapping(cls, mapping):
        known = {k: v for k, v in mapping.items() if k in cls.__dataclass_fields__}
        return cls(**known)


@dataclass
class GlobalApproximation:
    """Corrected global approximation: outer values plus strip values."""

    grid: grids.RectGrid
    U0: np.ndarray
    strips: list          # (StripMesh, U1 array) per outflow arc
    R: float
    boundary: object
    locator: grids.StripLocator


# ---------------------------------------------------------------------------
# Bilinear interpolation


def _uniform_weights(nodes_min, step, n_cells, q):
    s = (np.asarray(q, dtype=float) - nodes_min) / step
    if np.any(s < -1e-9) or np.any(s > n_cells + 1e-9):
        raise ValueError("point outside rectangle")
    i = np.clip(np.floor(s).astype(int), 0, n_cells - 1)
    return i, s - i


def bilinear_eval_many(grid, U0, xs, ys):
    """Vectorized bilinear interpolation on the uniform rectangle grid."""
    i, wx = _uniform_weights(grid.xmin, grid.hx, grid.N, xs)
    j, wy = _uniform_weights(grid.ymin, grid.hy, grid.N, ys)
    return ((1 - wx) * (1 - wy) * U0[i, j] + wx * (1 - wy) * U0[i + 1, j]
            + (1 - wx) * wy * U0[i, j + 1] + wx * wy * U0[i + 1, j + 1])


def bilinear_eval(grid, U0, x: float, y: float) -> float:
    """Tensor-product bilinear value at one point; exact at the nodes."""
    return float(bilinear_eval_many(grid, U0, np.asarray([x]), np.asarray([y]))[0])


def _nonuniform_weights(nodes, q):
    q = np.asarray(q, dtype=float)
    lo, hi = nodes[0], nodes[-1]
    span = hi - lo
    if np.any(q < lo - 1e-9 * max(1.0, span)) or np.any(q > hi + 1e-9 * max(1.0, span)):
        raise ValueError("point outside strip mesh")
    i = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, nodes.size - 2)
    w = (q - nodes[i]) / (nodes[i + 1] - nodes[i])
    return i, np.clip(w, 0.0, 1.0)


def bilinear_eval_strip_many(mesh, U1, rs, ts):
    """Vectorized bilinear interpolation on the (r, t) strip mesh."""
    i, wr = _nonuniform_weights(mesh.r, rs)
    j, wt = _nonuniform_weights(mesh.t, ts)
    return ((1 - wr) * (1 - wt) * U1[i, j] + wr * (1 - wt) * U1[i + 1, j]
            + (1 - wr) * wt * U1[i, j + 1] + wr * wt * U1[i + 1, j + 1])


def bilinear_eval_strip(mesh, U1, r: float, t: float) -> float:
    """Bilinear value on the strip mesh; piecewise linear in the
    nonuniform r coordinate and in t."""
    return float(bilinear_eval_strip_many(mesh, U1, np.asarray([r]), np.asarray([t]))[0])


# ---------------------------------------------------------------------------
# Two-phase solve


def solve_problem(boundary, data, N: int, config: SolveConfig = None) -> GlobalApproximation:
    """Run both phases and return the corrected global approximation.

    The outer solution is pinned to zero at every outside node; strip
    Dirichlet data on the inner edge and the arc-end columns is the outer
    interpolant at the node images, stored bit-for-bit in the strip
    values.  Raises ``ValueError`` before any linear solve when eps,
    alpha, R or c_star is not finite and positive, when padding is not
    finite and nonnegative, or when N or R does not admit a strip mesh.
    """
    if config is None:
        config = SolveConfig()
    for name, value in (("eps", data.eps), ("alpha", data.alpha),
                        ("R", config.R), ("c_star", config.c_star)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    if not (math.isfinite(config.padding) and config.padding >= 0):
        raise ValueError(f"padding must be finite and >= 0, got {config.padding!r}")

    # the strip meshes depend only on the geometry, N, R, eps and alpha:
    # build them first, so that a bad N or R fails before any factorization
    arcs = geometry.outflow_arcs(boundary)
    theta = geometry.theta_min(boundary, config.delta_trim) if config.delta_trim > 0 else 0.0
    meshes = [
        grids.build_strip_mesh(boundary, arc, N, config.R, data.eps, data.alpha,
                               c_star=config.c_star, theta=theta)
        for arc in arcs
    ]

    grid = grids.build_rect_grid(boundary, N, config.padding)
    system = operators.assemble_outer(grid, data)
    x, _ = linsolve.solve(system)
    U0 = x.reshape(N + 1, N + 1)
    U0[~grid.inside] = 0.0

    strips = []
    for mesh in meshes:
        Rg, Tg = np.meshgrid(mesh.r, mesh.t, indexing="ij")
        X, Y = geometry.offset_points(boundary, Rg, Tg)
        bc = np.zeros_like(Rg)
        edge = np.zeros_like(Rg, dtype=bool)
        edge[-1, :] = edge[:, 0] = edge[:, -1] = True
        edge[0, :] = False
        bc[edge] = bilinear_eval_many(grid, U0, X[edge], Y[edge])
        strip_system = operators.assemble_strip(mesh, boundary, data, bc)
        u1, _ = linsolve.solve(strip_system)
        U1 = u1.reshape(mesh.r.size, mesh.t.size)
        U1[0, :] = 0.0
        U1[edge] = bc[edge]
        strips.append((mesh, U1))

    locator = grids.StripLocator(boundary, arcs, config.R)
    return GlobalApproximation(grid=grid, U0=U0, strips=strips, R=config.R,
                               boundary=boundary, locator=locator)


def evaluate(approx: GlobalApproximation, x: float, y: float) -> float:
    """Corrected approximation at one point of the closed domain.

    Strip membership decides the branch; points within 1e-12 of the strip
    inner edge use the strip side.  Raises ``ValueError`` outside the
    domain.
    """
    hit = approx.locator.locate(x, y)
    if hit is not None:
        idx, p = hit
        if p.r < approx.R or abs(p.r - approx.R) <= 1e-12:
            mesh, U1 = approx.strips[idx]
            return bilinear_eval_strip(mesh, U1, p.r, p.t)
    if geometry.contains(approx.boundary, x, y):
        return bilinear_eval(approx.grid, approx.U0, x, y)
    if geometry.boundary_distance(approx.boundary, x, y) <= 1e-9:
        return bilinear_eval(approx.grid, approx.U0, x, y)
    raise ValueError("point outside domain")


def dump_solution(approx: GlobalApproximation, stream, resolution: int = 101):
    """Write 'x y u' lines over an evaluation lattice of the domain.

    The lattice has ``resolution`` points per side of the bounding box;
    below 3 it holds at most the box corners, which lie outside the
    domain, so that raises ``ValueError``.
    """
    if resolution < 3:
        raise ValueError(f"resolution must be >= 3, got {resolution}")
    g = approx.grid
    xs = np.linspace(g.xmin, g.xmax, resolution)
    ys = np.linspace(g.ymin, g.ymax, resolution)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    keep = geometry.contains_batch(approx.boundary, X.ravel(), Y.ravel())
    idx, r, t = approx.locator.locate_batch(X.ravel(), Y.ravel())
    in_strip = (idx >= 0) & (r <= approx.R + 1e-12)
    vals = np.full(X.size, np.nan)
    outer = keep & ~in_strip
    if outer.any():
        vals[outer] = bilinear_eval_many(g, approx.U0, X.ravel()[outer], Y.ravel()[outer])
    for a, (mesh, U1) in enumerate(approx.strips):
        sel = in_strip & (idx == a)
        if sel.any():
            vals[sel] = bilinear_eval_strip_many(mesh, U1, r[sel], t[sel])
    emit = keep | in_strip
    for x, y, v in zip(X.ravel()[emit], Y.ravel()[emit], vals[emit]):
        stream.write(f"{x:.17g} {y:.17g} {v:.17g}\n")
