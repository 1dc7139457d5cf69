"""Grids: the uniform enclosing rectangle and the layer-fitted strip meshes.

The rectangle grid covers a bounding box of the domain; its inside mask
drives which nodes receive equations.  Each strip mesh is a tensor grid in
boundary-fitted (r, t) coordinates over one outflow arc: piecewise-uniform
(Shishkin) in the normal coordinate r with transition point

    sigma = min(R/2, c_star * (eps/alpha) * ln N),

half the cells condensed into [0, sigma], and uniform in t.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import CurvilinearPoint, frame_arrays, _ArcSampling, _invert_batch

__all__ = [
    "RectGrid",
    "StripMesh",
    "StripLocator",
    "build_rect_grid",
    "build_strip_mesh",
    "dump_strip_mesh",
]

_BOX_SAMPLES = 8192


@dataclass
class RectGrid:
    """Uniform N x N tensor grid on [xmin, xmax] x [ymin, ymax].

    ``inside[i, j]`` is True when node (xs[i], ys[j]) lies strictly inside
    the domain.  The rectangle encloses the closed domain, so the mask is
    False on all four grid edges.
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    N: int
    xs: np.ndarray
    ys: np.ndarray
    inside: np.ndarray

    @property
    def hx(self) -> float:
        return (self.xmax - self.xmin) / self.N

    @property
    def hy(self) -> float:
        return (self.ymax - self.ymin) / self.N


def bounding_box(boundary, samples: int = _BOX_SAMPLES):
    """Componentwise extremes of the sampled boundary."""
    ts = np.linspace(0.0, boundary.period, samples, endpoint=False)
    x, y = boundary.eval(ts)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(x.min()), float(x.max()), float(y.min()), float(y.max())


def build_rect_grid(boundary, N: int, padding: float = 1e-3) -> RectGrid:
    """Enclosing rectangle grid with an inside mask.

    The box is the sampled bounding box expanded on each side by
    ``padding * max(Lx, Ly)``; slight padding keeps boundary points off
    the grid lines.
    """
    if N < 4:
        raise ValueError("N must be at least 4")
    xmin, xmax, ymin, ymax = bounding_box(boundary)
    pad = padding * max(xmax - xmin, ymax - ymin)
    xmin, xmax = xmin - pad, xmax + pad
    ymin, ymax = ymin - pad, ymax + pad
    xs = xmin + np.arange(N + 1) * ((xmax - xmin) / N)
    ys = ymin + np.arange(N + 1) * ((ymax - ymin) / N)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    inside = geometry.contains_batch(boundary, X.ravel(), Y.ravel()).reshape(N + 1, N + 1)
    if inside[0, :].any() or inside[-1, :].any() or inside[:, 0].any() or inside[:, -1].any():
        raise RuntimeError("rectangle does not strictly enclose the domain")
    return RectGrid(xmin=xmin, xmax=xmax, ymin=ymin, ymax=ymax, N=N,
                    xs=xs, ys=ys, inside=inside)


@dataclass
class StripMesh:
    """Tensor mesh over one outflow arc: Shishkin in r, uniform in t."""

    arc: tuple
    R: float
    sigma: float
    r: np.ndarray
    t: np.ndarray
    alpha: float
    c_star: float

    @property
    def N(self) -> int:
        return self.r.size - 1


def strip_width_bound(boundary, arc, samples: int = 4096):
    """Upper bound on admissible strip widths over one arc.

    min over the box extents (measured from the origin) and the minimal
    radius of curvature of the arc.
    """
    from scipy.optimize import minimize_scalar

    xmin, xmax, ymin, ymax = bounding_box(boundary)
    ts = np.linspace(arc[0], arc[1], samples)
    kap = np.abs(frame_arrays(boundary, ts)[3])
    k = int(np.argmax(kap))
    lo, hi = ts[max(0, k - 1)], ts[min(samples - 1, k + 1)]
    res = minimize_scalar(
        lambda t: -abs(float(frame_arrays(boundary, [t])[3][0])),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-13},
    )
    kmax = max(float(kap[k]), -float(res.fun))
    bound = min(xmax, abs(ymin), ymax)
    if kmax > 0:
        bound = min(bound, 1.0 / kmax)
    return bound


def build_strip_mesh(boundary, arc, N: int, R: float, eps: float,
                     alpha: float, c_star: float = 2.0) -> StripMesh:
    """Shishkin strip mesh with N cells in each coordinate.

    N must be even; N/2 uniform cells cover [0, sigma] and N/2 cover
    [sigma, R].  Raises ``ValueError`` when R violates the admissible
    width bound for this arc.
    """
    if N < 4 or N % 2:
        raise ValueError("N must be even and at least 4")
    if R >= strip_width_bound(boundary, arc):
        raise ValueError("strip too wide")
    sigma = min(R / 2, c_star * (eps / alpha) * math.log(N))
    half = N // 2
    r = np.concatenate([
        np.linspace(0.0, sigma, half + 1),
        np.linspace(sigma, R, half + 1)[1:],
    ])
    t = np.linspace(arc[0], arc[1], N + 1)
    return StripMesh(arc=(float(arc[0]), float(arc[1])), R=float(R),
                     sigma=float(sigma), r=r, t=t, alpha=float(alpha),
                     c_star=float(c_star))


class StripLocator:
    """Batched membership queries against the strips over all arcs.

    Caches a dense sample of every arc so that repeated queries (mask
    construction, global evaluation) reuse the seed structures.
    """

    def __init__(self, boundary, arcs, R):
        self.boundary = boundary
        self.arcs = list(arcs)
        self.R = float(R)
        self._samplings = [_ArcSampling(boundary, arc) for arc in self.arcs]

    def locate_batch(self, xs, ys):
        """Returns (arc_idx, r, t); arc_idx = -1 where no arc matches.

        The first arc containing a point wins.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        idx = np.full(xs.shape, -1, dtype=int)
        r = np.full(xs.shape, np.nan)
        t = np.full(xs.shape, np.nan)
        todo = np.ones(xs.shape, dtype=bool)
        for a, (arc, sampling) in enumerate(zip(self.arcs, self._samplings)):
            if not todo.any():
                break
            sel = np.where(todo)[0]
            found, rr, tt = _invert_batch(self.boundary, arc, self.R,
                                          xs[sel], ys[sel], sampling=sampling)
            hit = sel[found]
            idx[hit] = a
            r[hit] = rr[found]
            t[hit] = tt[found]
            todo[hit] = False
        return idx, r, t

    def locate(self, x, y):
        idx, r, t = self.locate_batch([x], [y])
        if idx[0] < 0:
            return None
        return int(idx[0]), CurvilinearPoint(r=float(r[0]), t=float(t[0]))


def dump_strip_mesh(mesh: StripMesh, boundary, stream):
    """Write 'r t x y' per strip node (debug dump)."""
    Rg, Tg = np.meshgrid(mesh.r, mesh.t, indexing="ij")
    X, Y = geometry.offset_points(boundary, Rg, Tg)
    for r, t, x, y in zip(Rg.ravel(), Tg.ravel(), X.ravel(), Y.ravel()):
        stream.write(f"{r:.17g} {t:.17g} {x:.17g} {y:.17g}\n")
