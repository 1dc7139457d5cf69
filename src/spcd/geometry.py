"""Differential geometry of smooth closed parametric boundaries.

The domain is described by a closed curve t -> (x(t), y(t)) on [0, T].
This module computes the frame data attached to the curve (tangent
magnitude, signed curvature, inward unit normal), the boundary-fitted
coordinate map (r, t) -> (x, y) along inward normals together with its
inversion, the characteristic points where the inward normal becomes
perpendicular to the convection direction (the x axis), the resulting
inflow/outflow splitting of the boundary, and a winding-number
point-in-domain test against the exact curve.

Sign conventions: the normal returned by :func:`frame` always points into
the domain regardless of the parameterization direction, and the signed
curvature is positive where the boundary is locally convex (seen from
inside).  With these conventions the metric factor ``eta = 1 - kappa*r``
of the boundary-fitted coordinates stays positive for offsets r smaller
than the minimal radius of curvature.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.spatial import cKDTree

__all__ = [
    "ParametricBoundary",
    "FunctionBoundary",
    "FrameSample",
    "CharacteristicPoint",
    "CurvilinearPoint",
    "frame",
    "frame_arrays",
    "to_cartesian",
    "to_curvilinear",
    "find_characteristic_points",
    "outflow_arcs",
    "contains",
    "contains_batch",
    "boundary_distance",
    "theta_min",
    "validate_boundary",
]

_TANGENT_TOL = 1e-14
_ROOT_TOL = 1e-10


class ParametricBoundary:
    """Closed parametric curve with two derivatives.

    Subclasses implement ``eval``, ``deriv1`` and ``deriv2``; each takes a
    scalar or ndarray parameter value and returns the pair of coordinate
    arrays.  ``period`` is the parameter length T of one traversal and
    ``orientation`` is +1 for an anticlockwise parameterization, -1 for a
    clockwise one.

    Parameter values are used exactly as given; callers that work with
    wrapped arcs (intervals extending past T) reduce the parameter modulo
    the period before evaluating.
    """

    def __init__(self, period: float, orientation: int = 1):
        if period <= 0:
            raise ValueError("period must be positive")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.period = float(period)
        self.orientation = int(orientation)

    def eval(self, t):
        raise NotImplementedError

    def deriv1(self, t):
        raise NotImplementedError

    def deriv2(self, t):
        raise NotImplementedError


class FunctionBoundary(ParametricBoundary):
    """Boundary defined by user callables.

    ``eval_fn`` must return the coordinate pair; missing derivative
    callables fall back to centered finite differences with step
    ``1e-6 * period`` (second derivatives need this only for curvature,
    which tolerates the reduced accuracy).
    """

    def __init__(self, eval_fn, period, orientation=1, deriv1_fn=None, deriv2_fn=None):
        super().__init__(period, orientation)
        self._eval = eval_fn
        self._deriv1 = deriv1_fn
        self._deriv2 = deriv2_fn
        self._h = 1e-6 * self.period

    def eval(self, t):
        return self._eval(t)

    def deriv1(self, t):
        if self._deriv1 is not None:
            return self._deriv1(t)
        h = self._h
        xp, yp = self._eval(t + h)
        xm, ym = self._eval(t - h)
        return (xp - xm) / (2 * h), (yp - ym) / (2 * h)

    def deriv2(self, t):
        if self._deriv2 is not None:
            return self._deriv2(t)
        h = self._h
        xp, yp = self._eval(t + h)
        x0, y0 = self._eval(t)
        xm, ym = self._eval(t - h)
        return (xp - 2 * x0 + xm) / h**2, (yp - 2 * y0 + ym) / h**2


@dataclass(frozen=True)
class FrameSample:
    """Frame of the boundary at one parameter value."""

    t: float
    point: tuple
    tau: float
    kappa: float
    normal: tuple


@dataclass(frozen=True)
class CharacteristicPoint:
    """Boundary point where the inward normal has zero x component."""

    t: float
    point: tuple
    kind: str  # "internal" or "external"
    kappa_at: float


@dataclass(frozen=True)
class CurvilinearPoint:
    """Boundary-fitted coordinates: offset r along the inward normal at t."""

    r: float
    t: float


def _wrap(t, period):
    return np.mod(t, period)


def frame_arrays(boundary, t):
    """Vectorized frame evaluation.

    Parameters are reduced modulo the period, so wrapped arc coordinates
    are valid inputs.  Returns arrays ``(x, y, tau, kappa, n1, n2)`` with
    the orientation-corrected inward normal and signed curvature.
    """
    t = _wrap(np.asarray(t, dtype=float), boundary.period)
    x, y = boundary.eval(t)
    x1, y1 = boundary.deriv1(t)
    x2, y2 = boundary.deriv2(t)
    x, y, x1, y1, x2, y2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x, y, x1, y1, x2, y2))
    )
    tau = np.hypot(x1, y1)
    if np.any(tau < _TANGENT_TOL):
        raise ValueError("singular parameterization")
    sign = boundary.orientation
    kappa = sign * (x1 * y2 - y1 * x2) / tau**3
    n1 = -sign * y1 / tau
    n2 = sign * x1 / tau
    return x, y, tau, kappa, n1, n2


def frame(boundary, t: float) -> FrameSample:
    """Frame of the boundary at parameter ``t``.

    Returns the point, the tangent magnitude, the signed curvature and the
    inward unit normal.  Raises ``ValueError`` when the tangent vector is
    degenerate.
    """
    x, y, tau, kappa, n1, n2 = frame_arrays(boundary, np.asarray([t], dtype=float))
    return FrameSample(
        t=float(t),
        point=(float(x[0]), float(y[0])),
        tau=float(tau[0]),
        kappa=float(kappa[0]),
        normal=(float(n1[0]), float(n2[0])),
    )


def offset_points(boundary, r, t):
    """Cartesian images of boundary-fitted coordinates (vectorized)."""
    x, y, _, _, n1, n2 = frame_arrays(boundary, t)
    r = np.asarray(r, dtype=float)
    return x + r * n1, y + r * n2


def to_cartesian(boundary, p: CurvilinearPoint):
    """Map a curvilinear point to Cartesian coordinates."""
    x, y = offset_points(boundary, np.asarray([p.r]), np.asarray([p.t]))
    return float(x[0]), float(y[0])


# ---------------------------------------------------------------------------
# Inversion of the normal-offset map


class _ArcSampling:
    """Dense sample of one boundary arc used to seed Newton inversion."""

    def __init__(self, boundary, arc, n=1024):
        self.boundary = boundary
        self.t0, self.t1 = float(arc[0]), float(arc[1])
        ts = np.linspace(self.t0, self.t1, n)
        x, y, *_ = frame_arrays(boundary, ts)
        self.ts = ts
        self.tree = cKDTree(np.column_stack([x, y]))
        seg = np.hypot(np.diff(x), np.diff(y))
        self.max_gap = float(seg.max()) if seg.size else 0.0


def _invert_batch(boundary, arc, r_max, xs, ys, sampling=None, maxiter=60):
    """Invert the normal-offset map for many points over one arc.

    Returns ``(found, r, t)`` arrays; points without a perpendicular foot
    on the arc within ``r_max`` have ``found = False``.  Raises
    ``RuntimeError`` when Newton and the bounded-minimization fallback fail
    to resolve a point that is not clearly outside the reach of the arc.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if sampling is None:
        sampling = _ArcSampling(boundary, arc)
    t0, t1 = sampling.t0, sampling.t1
    ttol = 1e-9 * max(1.0, boundary.period)
    rtol = 1e-12

    dist, idx = sampling.tree.query(np.column_stack([xs, ys]))
    found = np.zeros(xs.shape, dtype=bool)
    r_out = np.full(xs.shape, np.nan)
    t_out = np.full(xs.shape, np.nan)

    # Points farther from the arc than r_max (minus the sampling gap) have
    # no preimage with r <= r_max.
    candidate = dist <= r_max + sampling.max_gap + 1e-9
    if not np.any(candidate):
        return found, r_out, t_out

    act = np.where(candidate)[0]
    t = sampling.ts[idx[act]].copy()
    px, py = xs[act], ys[act]
    slack = 0.05 * (t1 - t0) + 1e-12
    orient = boundary.orientation
    gtol = 1e-13 * np.maximum(1.0, np.maximum(np.abs(px), np.abs(py)))

    # state: 0 = iterating, 1 = converged, 2 = retry with scalar fallback
    state = np.zeros(t.shape, dtype=np.int8)
    for _ in range(maxiter):
        m = state == 0
        if not np.any(m):
            break
        bx, by, tau, kappa, n1, n2 = frame_arrays(boundary, t[m])
        dx = px[m] - bx
        dy = py[m] - by
        g = dx * n2 - dy * n1
        rhat = dx * n1 + dy * n2
        gp = -orient * tau * (1.0 - kappa * rhat)
        conv = np.abs(g) <= gtol[m]
        flat = np.abs(gp) <= 1e-14
        tn = t[m] - np.where(flat, 0.0, g / np.where(flat, 1.0, gp))
        off = (tn < t0 - slack) | (tn > t1 + slack)
        idxs = np.where(m)[0]
        state[idxs[conv]] = 1
        bad = ~conv & (flat | off)
        state[idxs[bad]] = 2
        step = ~conv & ~(flat | off)
        t[idxs[step]] = tn[step]
    state[state == 0] = 2
    t[state == 2] = np.nan

    # Points Newton left unresolved get the scalar fallback (None: the
    # foot lies beyond the arc ends); then classify every foot at once.
    for k in np.nonzero(state == 2)[0]:
        tk = _invert_fallback(boundary, (t0, t1), px[k], py[k], r_max)
        if tk is not None:
            t[k] = tk
    ok = np.nonzero(np.isfinite(t))[0]
    tk = t[ok]
    bx, by, _, _, n1, n2 = frame_arrays(boundary, tk)
    rhat = (px[ok] - bx) * n1 + (py[ok] - by) * n2
    hit = (rhat >= -rtol) & (rhat <= r_max + 1e-12) & (tk >= t0 - ttol) & (tk <= t1 + ttol)
    j = act[ok[hit]]
    found[j] = True
    r_out[j] = np.clip(rhat[hit], 0.0, r_max)
    t_out[j] = np.clip(tk[hit], t0, t1)
    return found, r_out, t_out


def _invert_fallback(boundary, arc, x, y, r_max):
    """Bounded distance minimization plus Newton polish.

    Returns the foot parameter, or None when the perpendicular foot lies
    beyond an arc endpoint (the nearest approach is the endpoint itself),
    which callers treat as "not in the strip of this arc".
    """
    t0, t1 = arc

    def dist2(t):
        bx, by = offset_points(boundary, 0.0, np.asarray([t]))
        return float((bx[0] - x) ** 2 + (by[0] - y) ** 2)

    res = minimize_scalar(dist2, bounds=(t0, t1), method="bounded",
                          options={"xatol": 1e-14})
    tk = float(res.x)
    slack = 0.25 * (t1 - t0)
    gtol = 1e-13 * max(1.0, abs(x), abs(y))
    orient = boundary.orientation
    g = math.inf
    for _ in range(60):
        bx, by, tau, kappa, n1, n2 = (float(v[0]) for v in frame_arrays(boundary, [tk]))
        dx, dy = x - bx, y - by
        g = dx * n2 - dy * n1
        if abs(g) <= gtol:
            break
        gp = -orient * tau * (1.0 - kappa * (dx * n1 + dy * n2))
        if abs(gp) < 1e-14:
            return None
        tk -= g / gp
        if not (t0 - slack <= tk <= t1 + slack):
            return None  # foot beyond the arc ends
    if abs(g) > _ROOT_TOL:
        raise RuntimeError("inversion failed")
    ttol = 1e-9 * max(1.0, boundary.period)
    if not (t0 - ttol <= tk <= t1 + ttol):
        return None
    return tk


def to_curvilinear(boundary, x, y, arc, r_max):
    """Invert the normal-offset map for one point.

    Looks for ``(r, t)`` with ``t`` in ``arc`` and ``0 <= r <= r_max``
    such that the point equals the boundary point at ``t`` offset by ``r``
    along the inward normal, to residual 1e-10.  Returns ``None`` when no
    such pair exists (the point is not in the strip above this arc).
    """
    found, r, t = _invert_batch(boundary, arc, r_max, [x], [y])
    if not found[0]:
        return None
    return CurvilinearPoint(r=float(r[0]), t=float(t[0]))


# ---------------------------------------------------------------------------
# Characteristic points and boundary splitting


def find_characteristic_points(boundary, samples: int = 4096):
    """Locate all boundary points where the normal x component vanishes.

    Scans ``samples`` uniform parameter values for sign changes of n1 and
    refines each root by bisection to |n1| <= 1e-10.  A root is classified
    external when the boundary is locally convex there (the tangent line
    stays outside the domain) and internal when it is locally concave (the
    tangent line enters the domain).

    Raises ``ValueError`` when n1 vanishes on a whole parameter interval,
    which signals a characteristic arc instead of isolated points.
    """
    if samples < 1024:
        raise ValueError("sample count must be at least 1024")
    T = boundary.period
    ts = np.linspace(0.0, T, samples, endpoint=False)
    _, _, _, _, n1, _ = frame_arrays(boundary, ts)

    zero = np.abs(n1) <= 1e-12
    if np.any(zero & np.roll(zero, -1)):
        raise ValueError("non-isolated characteristic points")

    roots = []
    for k in range(samples):
        k2 = (k + 1) % samples
        a, b = ts[k], ts[k] + T / samples
        fa, fb = n1[k], n1[k2]
        if zero[k]:
            roots.append(a)
            continue
        if zero[k2] or fa * fb > 0:
            continue
        # bisection on [a, b]
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = float(frame_arrays(boundary, [m])[4][0])
            if abs(fm) <= _ROOT_TOL:
                a = b = m
                break
            if fa * fm < 0:
                b, fb = m, fm
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))

    points = []
    for t in sorted(roots):
        x, y, _, kappa, _, _ = (float(v[0]) for v in frame_arrays(boundary, [t]))
        kind = "external" if kappa > 0 else "internal"
        points.append(CharacteristicPoint(t=t, point=(x, y), kind=kind, kappa_at=kappa))
    return points


def outflow_arcs(boundary, samples: int = 4096):
    """Maximal parameter intervals of the outflow boundary (n1 < 0).

    Arcs are bounded by consecutive characteristic points; an arc that
    crosses the parameter origin is returned wrapped, with its upper end
    exceeding the period.
    """
    points = find_characteristic_points(boundary, samples)
    if not points:
        raise ValueError("boundary has no characteristic points")
    T = boundary.period
    tvals = [p.t for p in points]
    arcs = []
    for k, ta in enumerate(tvals):
        tb = tvals[(k + 1) % len(tvals)]
        if tb <= ta:
            tb += T
        mid = 0.5 * (ta + tb)
        n1_mid = float(frame_arrays(boundary, [mid])[4][0])
        if n1_mid < 0:
            arcs.append((ta, tb))
    return arcs


def theta_min(boundary, delta: float = 0.0, samples: int = 4096):
    """Minimal |n1| over the outflow arcs trimmed by ``delta``.

    Each arc is shrunk by ``delta`` parameter units at both ends before
    taking the minimum; with ``delta = 0`` the open arcs are sampled just
    inside their endpoints, so the value tends to zero as the sampling is
    refined (the infimum at the characteristic points).  Raises
    ``ValueError`` when trimming empties every arc.
    """
    arcs = outflow_arcs(boundary)
    best = None
    for ta, tb in arcs:
        lo, hi = ta + delta, tb - delta
        if lo >= hi:
            continue
        ts = np.linspace(lo, hi, max(64, samples // max(1, len(arcs))))
        if delta == 0.0:
            ts = ts[1:-1]
        vals = np.abs(frame_arrays(boundary, ts)[4])
        k = int(np.argmin(vals))
        lo_w = ts[max(0, k - 1)]
        hi_w = ts[min(len(ts) - 1, k + 1)]
        res = minimize_scalar(
            lambda t: float(np.abs(frame_arrays(boundary, [t])[4][0])),
            bounds=(lo_w, hi_w), method="bounded", options={"xatol": 1e-13},
        )
        cand = min(float(vals[k]), float(res.fun))
        best = cand if best is None else min(best, cand)
    if best is None:
        raise ValueError("strip arcs degenerate")
    return best


# ---------------------------------------------------------------------------
# Point-in-domain test
#
# The winding number of the exact curve around a point is the signed count
# of the curve's crossings of the horizontal ray to the right of the point
# (Hormann & Agathos, Comput. Geom. 20, 2001).  The curve is split at the
# extrema of y(t) into pieces that are monotone in y, so each piece crosses
# a horizontal line at most once, and every distinct query ordinate is
# crossed by solving y(t) = y on each piece whose y-range holds it.

_SCAN_SAMPLES = 8192
_BOUNDARY_TOL = 1e-12   # times the coordinate scale: closer counts as outside
_NEAR_SCREEN = 1e-6     # times the scale: closer gets the exact distance test


def _curve(boundary, order, t):
    """Point (order 0), first or second derivative of the curve at t mod T,
    as float arrays shaped like t."""
    fn = (boundary.eval, boundary.deriv1, boundary.deriv2)[order]
    x, y = fn(np.mod(t, boundary.period))
    return (np.broadcast_to(np.asarray(x, dtype=float), t.shape),
            np.broadcast_to(np.asarray(y, dtype=float), t.shape))


def _bracketed_newton(fn, lo, hi, t, tol):
    """Vectorized Newton iteration safeguarded by bisection.

    ``fn(t, idx)`` returns ``(f, f')`` at the parameters ``t`` of the
    entries ``idx``; every bracket [lo, hi] is expected to hold a root
    with f <= 0 at lo and f > 0 at hi, and a step that leaves the bracket
    is replaced by bisection.  Stops per entry once a step is below
    ``tol``; without a root an entry converges to an end of its bracket.
    """
    lo, hi, t = (np.array(v, dtype=float) for v in (lo, hi, t))
    todo = np.arange(t.size)
    for _ in range(200):
        if todo.size == 0:
            break
        tk = t[todo]
        f, fp = fn(tk, todo)
        below = f <= 0
        lo[todo] = np.where(below, tk, lo[todo])
        hi[todo] = np.where(below, hi[todo], tk)
        with np.errstate(divide="ignore", invalid="ignore"):
            tn = tk - f / fp
        bisect = ~((tn >= lo[todo]) & (tn <= hi[todo]))
        tn = np.where(bisect, 0.5 * (lo[todo] + hi[todo]), tn)
        tn = np.where(f == 0, tk, tn)
        t[todo] = tn
        todo = todo[np.abs(tn - tk) > tol]
    return t


class _YPieces:
    """The curve split at the extrema of y(t) into pieces monotone in y.

    The extrema are the sign changes of y'(t) over ``_SCAN_SAMPLES``
    uniform samples, refined by bisection.  ``splits`` holds 0, the extrema
    and T; ``scale`` is the largest coordinate magnitude (at least 1).
    """

    def __init__(self, boundary):
        self.boundary = boundary
        self.ts = np.linspace(0.0, boundary.period, _SCAN_SAMPLES + 1)
        x, self.ys = _curve(boundary, 0, self.ts)
        self.scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(self.ys))))
        up = _curve(boundary, 1, self.ts)[1] > 0
        k = np.nonzero(up[:-1] != up[1:])[0]
        lo, hi, up_lo = self.ts[k], self.ts[k + 1], up[k]
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            same = (_curve(boundary, 1, mid)[1] > 0) == up_lo
            lo = np.where(same, mid, lo)
            hi = np.where(same, hi, mid)
        self.extrema = 0.5 * (lo + hi)
        self.y_extrema = _curve(boundary, 0, self.extrema)[1]
        self.splits = np.concatenate([[0.0], self.extrema, [boundary.period]])

    def crossings(self, yq):
        """Crossings of the curve with the horizontal lines ``y = yq``.

        ``yq`` is sorted and distinct.  Returns ``(row, x, direction)``:
        the index into ``yq``, the abscissa and +1 (upward) or -1.  A piece
        counts a line when its lower end is at or below it and its upper
        end above it, the half-open rule of the crossing-number test, so a
        line through a maximum of y crosses nothing there and a line
        through a minimum crosses twice with opposite directions.
        """
        rows, lo, hi, t0, sign = [], [], [], [], []
        y_ends = _curve(self.boundary, 0, self.splits)[1]
        for a, b, ya, yb in zip(self.splits[:-1], self.splits[1:], y_ends[:-1], y_ends[1:]):
            if ya == yb:
                continue
            s = 1.0 if yb > ya else -1.0
            r = np.arange(np.searchsorted(yq, min(ya, yb)), np.searchsorted(yq, max(ya, yb)))
            if r.size == 0:
                continue
            # bracket each crossing between two samples of the piece;
            # rounding can break monotonicity by an ulp next to an extremum
            inner = slice(np.searchsorted(self.ts, a, "right"), np.searchsorted(self.ts, b, "left"))
            tn = np.concatenate([[a], self.ts[inner], [b]])
            yn = np.maximum.accumulate(s * np.concatenate([[ya], self.ys[inner], [yb]]))
            j = np.clip(np.searchsorted(yn, s * yq[r], "right") - 1, 0, tn.size - 2)
            w = np.clip((s * yq[r] - yn[j]) / np.maximum(yn[j + 1] - yn[j], 1e-300), 0.0, 1.0)
            rows.append(r)
            lo.append(tn[j])
            hi.append(tn[j + 1])
            t0.append(tn[j] + w * (tn[j + 1] - tn[j]))
            sign.append(np.full(r.size, s))
        if not rows:
            return np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)
        rows, sign = np.concatenate(rows), np.concatenate(sign)
        target = sign * yq[rows]

        def fn(t, idx):
            y = _curve(self.boundary, 0, t)[1]
            return sign[idx] * y - target[idx], sign[idx] * _curve(self.boundary, 1, t)[1]

        t = _bracketed_newton(fn, np.concatenate(lo), np.concatenate(hi),
                              np.concatenate(t0), 1e-12 * self.boundary.period)
        return rows, _curve(self.boundary, 0, t)[0], sign


def _foot_distance(boundary, xs, ys, sampling):
    """Distance from each point to the exact curve.

    The foot parameter is seeded at the nearest point of ``sampling`` and
    refined by bracketed Newton on (c(t) - p) . c'(t) = 0 within one
    sample step on either side.  The result is a distance to a point of
    the curve, so it never underestimates; it is exact when the foot lies
    within that bracket, which holds for points near the curve.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    dist, k = sampling.tree.query(np.column_stack([xs, ys]))
    h = sampling.ts[1] - sampling.ts[0]

    def fn(t, idx):
        x, y = _curve(boundary, 0, t)
        x1, y1 = _curve(boundary, 1, t)
        x2, y2 = _curve(boundary, 2, t)
        dx, dy = x - xs[idx], y - ys[idx]
        return dx * x1 + dy * y1, x1 * x1 + y1 * y1 + dx * x2 + dy * y2

    t = sampling.ts[k]
    t = _bracketed_newton(fn, t - h, t + h, t, 1e-12 * boundary.period)
    bx, by = _curve(boundary, 0, t)
    return np.minimum(np.hypot(bx - xs, by - ys), dist)


def _curve_sampling(boundary):
    return _ArcSampling(boundary, (0.0, boundary.period), n=_SCAN_SAMPLES)


def contains_batch(boundary, xs, ys):
    """Winding-number inside test of many points against the exact curve.

    A point is inside when the winding number of the curve around it is
    nonzero.  Points within 1e-12 (times the largest coordinate magnitude
    of the curve, at least 1) of the curve are classified outside, so
    boundary nodes never receive an equation.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if xs.size == 0:
        return np.zeros(xs.shape, dtype=bool)
    pieces = _YPieces(boundary)
    yq, row = np.unique(ys, return_inverse=True)
    row = row.reshape(xs.shape)
    c_row, c_x, c_dir = pieces.crossings(yq)

    # numpy orders complex numbers lexicographically, real part first, so
    # row + 1j*x sorts and searches by (row, x) exactly
    order = np.lexsort((c_x, c_row))
    c_row, c_x, c_dir = c_row[order], c_x[order], c_dir[order]
    suffix = np.append(np.cumsum(c_dir[::-1])[::-1], 0.0)
    first = np.searchsorted(c_row, row, "left")
    end = np.searchsorted(c_row, row, "right")
    right = np.searchsorted(c_row + 1j * c_x, row + 1j * xs, "right")
    inside = suffix[right] != suffix[end]

    # the exact distance decides for points next to a crossing or on a
    # line that grazes an extremum of y, where the crossings are unreliable
    near = _NEAR_SCREEN * pieces.scale
    gap = np.full(xs.shape, np.inf)
    has_left = right > first
    has_right = right < end
    gap[has_left] = xs[has_left] - c_x[right[has_left] - 1]
    gap[has_right] = np.minimum(gap[has_right], c_x[right[has_right]] - xs[has_right])
    graze = np.any(np.abs(yq[:, None] - pieces.y_extrema[None, :]) <= near, axis=1)
    check = np.nonzero(inside & ((gap <= near) | graze[row]))[0]
    if check.size:
        d = _foot_distance(boundary, xs[check], ys[check], _curve_sampling(boundary))
        inside[check[d <= _BOUNDARY_TOL * pieces.scale]] = False
    return inside


def contains(boundary, x: float, y: float) -> bool:
    """True iff (x, y) is strictly inside the closed boundary."""
    return bool(contains_batch(boundary, [x], [y])[0])


def boundary_distance(boundary, x: float, y: float) -> float:
    """Distance from a point to the boundary curve; exact for points near
    the curve (see ``_foot_distance``)."""
    return float(_foot_distance(boundary, [x], [y], _curve_sampling(boundary))[0])


# ---------------------------------------------------------------------------
# Validation helpers


def validate_boundary(boundary, samples: int = 4096):
    """Check closure, regularity and derivative consistency.

    Raises ``ValueError`` with a description on the first violated
    invariant.  Finite-difference consistency is checked at interior
    parameter values only, so piecewise-smooth boundaries with isolated
    curvature jumps at t = 0 pass.
    """
    T = boundary.period
    x0, y0 = boundary.eval(0.0)
    xT, yT = boundary.eval(T)
    if abs(float(x0) - float(xT)) > 1e-12 or abs(float(y0) - float(yT)) > 1e-12:
        raise ValueError("boundary curve is not closed")

    ts = np.linspace(0.0, T, samples, endpoint=False)
    x1, y1 = boundary.deriv1(ts)
    tau = np.hypot(np.asarray(x1, dtype=float), np.asarray(y1, dtype=float))
    if np.any(tau < _TANGENT_TOL):
        raise ValueError("singular parameterization")

    # second differences of eval at this step size sit below the roundoff
    # floor, so deriv2 is checked against centered differences of deriv1
    h = 1e-5
    ts = np.linspace(0.05 * T, 0.95 * T, 64)
    xp, yp = boundary.eval(ts + h)
    xm, ym = boundary.eval(ts - h)
    d1x, d1y = boundary.deriv1(ts)
    d2x, d2y = boundary.deriv2(ts)
    scale1 = np.maximum(1.0, np.hypot(d1x, d1y))
    err1 = np.hypot((xp - xm) / (2 * h) - d1x, (yp - ym) / (2 * h) - d1y) / scale1
    d1xp, d1yp = boundary.deriv1(ts + h)
    d1xm, d1ym = boundary.deriv1(ts - h)
    scale2 = np.maximum(1.0, np.hypot(d2x, d2y))
    err2 = np.hypot((d1xp - d1xm) / (2 * h) - d2x,
                    (d1yp - d1ym) / (2 * h) - d2y) / scale2
    if np.max(err1) > 1e-6:
        raise ValueError("deriv1 inconsistent with finite differences")
    if np.max(err2) > 1e-6:
        raise ValueError("deriv2 inconsistent with finite differences")
    return True
