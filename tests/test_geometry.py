import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcd import geometry, grids, problems
from spcd.geometry import FunctionBoundary, ParametricBoundary


BETA = 0.5


@pytest.fixture(scope="module")
def blob1():
    return problems.omega1(BETA)


@pytest.fixture(scope="module")
def blob3():
    return problems.omega3(BETA)


@pytest.fixture(scope="module")
def unit_circle():
    return problems.circle(1.0)


# ---------------------------------------------------------------------------
# frame


def test_frame_circle_identities():
    b = problems.circle(0.5)
    for t in (0.0, 0.3, 1.7, 4.0):
        fr = geometry.frame(b, t)
        assert fr.kappa == pytest.approx(2.0, abs=1e-12)
        assert fr.tau == pytest.approx(0.5, abs=1e-12)
        assert fr.normal[0] == pytest.approx(-math.cos(t), abs=1e-12)
        assert fr.normal[1] == pytest.approx(-math.sin(t), abs=1e-12)


def test_frame_blob1_curvature_at_top(blob1):
    fr = geometry.frame(blob1, math.pi / 2)
    assert fr.kappa == pytest.approx((3 + BETA) * (1 + BETA) ** -2, abs=1e-12)


def test_frame_blob3_values(blob3):
    # right tip: same formula as the blob1 top since rho and rho'' match there
    fr = geometry.frame(blob3, 0.0)
    assert fr.kappa == pytest.approx((3 + BETA) * (1 + BETA) ** -2, abs=1e-12)
    # waist points are concave with |kappa| = (2 - beta)/beta^2
    fr = geometry.frame(blob3, math.pi / 2)
    assert fr.kappa == pytest.approx(-(2 - BETA) / BETA**2, abs=1e-12)


def test_frame_normal_is_unit_and_orthogonal(blob1):
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, blob1.period, 50):
        fr = geometry.frame(blob1, t)
        n1, n2 = fr.normal
        assert n1 * n1 + n2 * n2 == pytest.approx(1.0, abs=1e-12)
        d1x, d1y = (float(v) for v in blob1.deriv1(t))
        assert n1 * d1x + n2 * d1y == pytest.approx(0.0, abs=1e-12)


def test_frame_singular_tangent_raises():
    # parameter speed s' = 1 - cos t vanishes at t = 0
    def ev(t):
        s = t - np.sin(t)
        return np.cos(s), np.sin(s)

    def d1(t):
        s = t - np.sin(t)
        sp = 1 - np.cos(t)
        return -np.sin(s) * sp, np.cos(s) * sp

    b = FunctionBoundary(ev, period=2 * math.pi, deriv1_fn=d1)
    with pytest.raises(ValueError, match="singular parameterization"):
        geometry.frame(b, 0.0)


def test_builtin_boundaries_validate(blob1, blob3, unit_circle):
    for b in (blob1, blob3, unit_circle, problems.omega2(BETA)):
        assert geometry.validate_boundary(b)


# ---------------------------------------------------------------------------
# coordinate map


def test_to_cartesian_r_zero_is_boundary(blob1):
    for t in (0.1, 2.0, 5.5):
        x, y = geometry.to_cartesian(blob1, geometry.CurvilinearPoint(r=0.0, t=t))
        bx, by = (float(v) for v in blob1.eval(t))
        assert (x, y) == pytest.approx((bx, by), abs=1e-14)


def test_to_cartesian_circle_inward():
    b = problems.circle(1.0)
    x, y = geometry.to_cartesian(b, geometry.CurvilinearPoint(r=0.25, t=0.0))
    assert (x, y) == pytest.approx((0.75, 0.0), abs=1e-14)


def test_to_cartesian_blob1_top(blob1):
    x, y = geometry.to_cartesian(blob1, geometry.CurvilinearPoint(r=0.1, t=math.pi / 2))
    assert (x, y) == pytest.approx((0.0, 1.4), abs=1e-12)


def test_to_curvilinear_circle_trivial(unit_circle):
    p = geometry.to_curvilinear(unit_circle, 0.75, 0.0, (0.0, 2 * math.pi), 0.5)
    assert p is not None
    assert p.r == pytest.approx(0.25, abs=1e-10)
    assert min(abs(p.t), abs(p.t - 2 * math.pi)) < 1e-9


def test_to_curvilinear_not_in_strip(unit_circle):
    assert geometry.to_curvilinear(unit_circle, 0.1, 0.0, (0.0, 2 * math.pi), 0.5) is None


def test_to_curvilinear_roundtrip(blob1):
    arc = geometry.outflow_arcs(blob1)[0]
    rng = np.random.default_rng(42)
    rs = rng.uniform(0.0, 0.1, 1000)
    ts = rng.uniform(arc[0] + 1e-9, arc[1] - 1e-9, 1000)
    xs, ys = geometry.offset_points(blob1, rs, ts)
    for r0, t0, x, y in zip(rs, ts, xs, ys):
        p = geometry.to_curvilinear(blob1, x, y, arc, 0.1)
        assert p is not None
        assert p.r == pytest.approx(r0, abs=1e-9)
        assert p.t == pytest.approx(t0, abs=1e-9)


def test_inversion_residual(blob1):
    arc = geometry.outflow_arcs(blob1)[0]
    p = geometry.to_curvilinear(blob1, 0.52, 0.11, arc, 0.1)
    if p is not None:
        x, y = geometry.to_cartesian(blob1, p)
        assert math.hypot(x - 0.52, y - 0.11) < 1e-10


def test_map_orthogonality_fd(blob1):
    rng = np.random.default_rng(7)
    rs = rng.uniform(0, 0.1, 1000)
    ts = rng.uniform(0, blob1.period, 1000)
    h = 1e-6
    xr1, yr1 = geometry.offset_points(blob1, rs + h, ts)
    xr0, yr0 = geometry.offset_points(blob1, rs - h, ts)
    xt1, yt1 = geometry.offset_points(blob1, rs, ts + h)
    xt0, yt0 = geometry.offset_points(blob1, rs, ts - h)
    ar = np.column_stack([(xr1 - xr0), (yr1 - yr0)]) / (2 * h)
    at = np.column_stack([(xt1 - xt0), (yt1 - yt0)]) / (2 * h)
    dot = np.abs((ar * at).sum(axis=1))
    assert dot.max() < 1e-8
    # normalized measure also holds for the large clockwise domain
    b2 = problems.omega2(BETA)
    rs = rng.uniform(0, 1.0, 1000)
    ts = rng.uniform(0.05, b2.period - 0.05, 1000)
    xr1, yr1 = geometry.offset_points(b2, rs + h, ts)
    xr0, yr0 = geometry.offset_points(b2, rs - h, ts)
    xt1, yt1 = geometry.offset_points(b2, rs, ts + h)
    xt0, yt0 = geometry.offset_points(b2, rs, ts - h)
    ar = np.column_stack([(xr1 - xr0), (yr1 - yr0)]) / (2 * h)
    at = np.column_stack([(xt1 - xt0), (yt1 - yt0)]) / (2 * h)
    cosang = np.abs((ar * at).sum(axis=1)) / (np.linalg.norm(ar, axis=1) * np.linalg.norm(at, axis=1))
    assert cosang.max() < 1e-8


def test_frame_ode_consistency(blob1):
    # n1' = -kappa*tau*n2 and n2' = kappa*tau*n1 for the anticlockwise form
    rng = np.random.default_rng(1)
    ts = rng.uniform(0, blob1.period, 300)
    h = 1e-6
    _, _, tau, kap, n1, n2 = geometry.frame_arrays(blob1, ts)
    n1p = (geometry.frame_arrays(blob1, ts + h)[4] - geometry.frame_arrays(blob1, ts - h)[4]) / (2 * h)
    n2p = (geometry.frame_arrays(blob1, ts + h)[5] - geometry.frame_arrays(blob1, ts - h)[5]) / (2 * h)
    assert np.abs(n1p + kap * tau * n2).max() < 1e-6
    assert np.abs(n2p - kap * tau * n1).max() < 1e-6


# ---------------------------------------------------------------------------
# characteristic points


def test_characteristic_points_blob1(blob1):
    pts = geometry.find_characteristic_points(blob1)
    assert len(pts) == 2
    assert all(p.kind == "external" for p in pts)
    got = sorted((p.point for p in pts), key=lambda q: q[1])
    assert got[0] == pytest.approx((0.0, -(1 + BETA)), abs=1e-9)
    assert got[1] == pytest.approx((0.0, 1 + BETA), abs=1e-9)
    for p in pts:
        assert p.kappa_at == pytest.approx((3 + BETA) * (1 + BETA) ** -2, abs=1e-9)


def test_characteristic_points_circle(unit_circle):
    pts = geometry.find_characteristic_points(unit_circle)
    assert len(pts) == 2
    got = sorted((p.point for p in pts), key=lambda q: q[1])
    assert got[0] == pytest.approx((0.0, -1.0), abs=1e-9)
    assert got[1] == pytest.approx((0.0, 1.0), abs=1e-9)
    assert all(p.kind == "external" for p in pts)


def test_characteristic_points_blob3(blob3):
    pts = geometry.find_characteristic_points(blob3)
    assert len(pts) == 6
    P = 2 * (1 + BETA) / 3 * math.sqrt((2 - BETA) / 3)
    Q = 2 * (1 + BETA) / 3 * math.sqrt((1 + BETA) / 3)
    expected = {
        (P, Q): "external", (-P, Q): "external",
        (-P, -Q): "external", (P, -Q): "external",
        (0.0, BETA): "internal", (0.0, -BETA): "internal",
    }
    for p in pts:
        match = min(expected, key=lambda q: math.hypot(q[0] - p.point[0], q[1] - p.point[1]))
        assert p.point == pytest.approx(match, abs=1e-9)
        assert p.kind == expected[match]


def test_characteristic_points_blob2():
    b = problems.omega2(BETA)
    pts = geometry.find_characteristic_points(b)
    assert len(pts) == 2
    My = 2.5 * math.pi**2 + BETA
    got = sorted((p.point for p in pts), key=lambda q: q[1])
    assert got[0] == pytest.approx((0.0, -My), abs=1e-9)
    assert got[1] == pytest.approx((0.0, My), abs=1e-9)
    assert all(p.kind == "external" for p in pts)


def test_characteristic_points_sample_count_precondition(blob1):
    with pytest.raises(ValueError):
        geometry.find_characteristic_points(blob1, samples=512)


class _Stadium(ParametricBoundary):
    """Two horizontal segments joined by semicircular caps; the segments
    are characteristic arcs (n1 = 0 on an interval)."""

    def __init__(self):
        super().__init__(period=4.0, orientation=1)

    def _pieces(self, t):
        t = np.asarray(t, dtype=float)
        x = np.empty_like(t)
        y = np.empty_like(t)
        dx = np.empty_like(t)
        dy = np.empty_like(t)
        d2x = np.empty_like(t)
        d2y = np.empty_like(t)
        m0 = t < 1
        m1 = (t >= 1) & (t < 2)
        m2 = (t >= 2) & (t < 3)
        m3 = t >= 3
        # top edge (1,1) -> (-1,1)
        x[m0], y[m0] = 1 - 2 * t[m0], 1.0
        dx[m0], dy[m0] = -2.0, 0.0
        d2x[m0], d2y[m0] = 0.0, 0.0
        # left cap
        a = math.pi / 2 + np.pi * (t[m1] - 1)
        x[m1], y[m1] = -1 + np.cos(a), np.sin(a)
        dx[m1], dy[m1] = -np.pi * np.sin(a), np.pi * np.cos(a)
        d2x[m1], d2y[m1] = -np.pi**2 * np.cos(a), -np.pi**2 * np.sin(a)
        # bottom edge (-1,-1) -> (1,-1)
        x[m2], y[m2] = -1 + 2 * (t[m2] - 2), -1.0
        dx[m2], dy[m2] = 2.0, 0.0
        d2x[m2], d2y[m2] = 0.0, 0.0
        # right cap
        a = -math.pi / 2 + np.pi * (t[m3] - 3)
        x[m3], y[m3] = 1 + np.cos(a), np.sin(a)
        dx[m3], dy[m3] = -np.pi * np.sin(a), np.pi * np.cos(a)
        d2x[m3], d2y[m3] = -np.pi**2 * np.cos(a), -np.pi**2 * np.sin(a)
        return x, y, dx, dy, d2x, d2y

    def eval(self, t):
        out = self._pieces(t)
        return out[0], out[1]

    def deriv1(self, t):
        out = self._pieces(t)
        return out[2], out[3]

    def deriv2(self, t):
        out = self._pieces(t)
        return out[4], out[5]


def test_characteristic_arc_rejected():
    with pytest.raises(ValueError, match="non-isolated characteristic points"):
        geometry.find_characteristic_points(_Stadium())


class _Reversed(ParametricBoundary):
    def __init__(self, base):
        super().__init__(base.period, -base.orientation)
        self.base = base

    def eval(self, t):
        return self.base.eval(self.period - np.asarray(t, dtype=float))

    def deriv1(self, t):
        dx, dy = self.base.deriv1(self.period - np.asarray(t, dtype=float))
        return -np.asarray(dx), -np.asarray(dy)

    def deriv2(self, t):
        return self.base.deriv2(self.period - np.asarray(t, dtype=float))


def test_characteristic_points_reparameterization_invariant(blob3):
    fwd = geometry.find_characteristic_points(blob3)
    rev = geometry.find_characteristic_points(_Reversed(blob3))
    assert len(fwd) == len(rev)
    fwd_pts = sorted(p.point for p in fwd)
    rev_pts = sorted(p.point for p in rev)
    for a, b in zip(fwd_pts, rev_pts):
        assert a == pytest.approx(b, abs=1e-9)
    fwd_kinds = {tuple(round(c, 6) for c in p.point): p.kind for p in fwd}
    for p in rev:
        assert fwd_kinds[tuple(round(c, 6) for c in p.point)] == p.kind


# ---------------------------------------------------------------------------
# outflow arcs


def test_outflow_arcs_blob1(blob1):
    arcs = geometry.outflow_arcs(blob1)
    assert len(arcs) == 1
    ta, tb = arcs[0]
    assert tb - ta == pytest.approx(math.pi, abs=1e-8)
    # the arc is the x > 0 half: its midpoint is the right waist
    tm = 0.5 * (ta + tb)
    x, _ = (float(v) for v in blob1.eval(tm % blob1.period))
    assert x > 0
    # every sampled arc point sits at x > 0
    ts = np.linspace(ta + 1e-6, tb - 1e-6, 200)
    xs, _ = geometry.frame_arrays(blob1, ts)[:2]
    assert np.all(xs > 0)


def test_outflow_arcs_circle(unit_circle):
    arcs = geometry.outflow_arcs(unit_circle)
    assert len(arcs) == 1
    assert arcs[0][1] - arcs[0][0] == pytest.approx(math.pi, abs=1e-8)


def test_outflow_arcs_blob3_disconnected(blob3):
    # three maximal arcs: the right cap (wrapping through t = 0) plus the
    # two right-facing waist walls of the left lobe
    arcs = geometry.outflow_arcs(blob3)
    assert len(arcs) >= 2  # disconnected outflow
    assert len(arcs) == 3
    n1_mid = [float(geometry.frame_arrays(blob3, [0.5 * (a + b)])[4][0]) for a, b in arcs]
    assert all(v < 0 for v in n1_mid)
    total = sum(b - a for a, b in arcs)
    theta_arc = math.asin(math.sqrt((1 + BETA) / 3))
    # arcs: (theta, pi/2)-like pieces; total outflow length = 2*theta + 2*(pi/2 - theta) + ...
    expected = 2 * theta_arc + 2 * (math.pi / 2 - theta_arc)
    assert total == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# contains


def _polar_inside(b, xs, ys):
    """Exact inside test of a catalog domain by its polar radius."""
    if b.swap:
        angle = np.mod(np.arctan2(xs, ys), 2 * math.pi)
    else:
        angle = np.mod(np.arctan2(ys, xs), 2 * math.pi)
    return np.hypot(xs, ys) < b.polar_radius(angle)


def _winding_reference(b, xs, ys, vertices=8192):
    """Brute-force winding number of the sampled polygon around each point.

    Per distinct ordinate only the edges that straddle it are summed; the
    others add zero to the winding number.  Points on the polygon are not
    special-cased, so use lattices that keep off it.
    """
    t = np.linspace(0.0, b.period, vertices + 1)
    px, py = (np.asarray(v, dtype=float) for v in b.eval(np.mod(t, b.period)))
    ax, ay, bx, by = px[:-1], py[:-1], px[1:], py[1:]
    inside = np.zeros(xs.shape, dtype=bool)
    for y in np.unique(ys):
        pts = np.nonzero(ys == y)[0]
        up = (ay <= y) & (by > y)
        dn = (ay > y) & (by <= y)
        e = up | dn
        left = ((bx[e] - ax[e])[None, :] * (y - ay[e])[None, :]
                - (xs[pts, None] - ax[e][None, :]) * (by[e] - ay[e])[None, :])
        wn = ((up[e] & (left > 0)).sum(axis=1) - (dn[e] & (left < 0)).sum(axis=1))
        inside[pts] = wn != 0
    return inside


def _grid_mask(b, N):
    """Nodes and inside mask of the rectangle grid the solver builds."""
    grid = grids.build_rect_grid(b, N)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    return X.ravel(), Y.ravel(), grid.inside.ravel()


def _rotated_ellipse(cx, cy, a, b, phi, orientation):
    """Ellipse with centre (cx, cy), semi-axes a, b and axis angle phi, as
    a FunctionBoundary with exact derivatives, and its closed-form level
    function ((u/a)^2 + (v/b)^2, below 1 strictly inside)."""
    c, s, o = math.cos(phi), math.sin(phi), orientation

    def ev(t):
        u, v = a * np.cos(t), o * b * np.sin(t)
        return cx + c * u - s * v, cy + s * u + c * v

    def d1(t):
        u, v = -a * np.sin(t), o * b * np.cos(t)
        return c * u - s * v, s * u + c * v

    def d2(t):
        u, v = -a * np.cos(t), -o * b * np.sin(t)
        return c * u - s * v, s * u + c * v

    def level(x, y):
        u = (x - cx) * c + (y - cy) * s
        v = -(x - cx) * s + (y - cy) * c
        return (u / a) ** 2 + (v / b) ** 2

    boundary = FunctionBoundary(ev, 2 * math.pi, orientation, deriv1_fn=d1, deriv2_fn=d2)
    return boundary, level


def test_contains_origin_all_builtins(blob1, blob3, unit_circle):
    for b in (blob1, blob3, unit_circle, problems.omega2(BETA)):
        assert geometry.contains(b, 0.0, 0.0)


def test_contains_outside_box(blob1):
    assert not geometry.contains(blob1, 50.0, 50.0)


def test_contains_boundary_points_are_outside(blob1, blob3, unit_circle):
    # points of the true curve, among them the extrema of y, where a grid
    # row grazes the curve; for omega3 the y' = 0 points besides pi/2 and
    # 3pi/2 solve sin^2 t = (1 + beta)/3
    rng = np.random.default_rng(5)
    waist = math.asin(math.sqrt((1 + BETA) / 3))
    cases = [
        (blob1, [math.pi / 2, 3 * math.pi / 2]),
        (unit_circle, [math.pi / 2, 3 * math.pi / 2]),
        (blob3, [math.pi / 2, 3 * math.pi / 2, waist, math.pi - waist,
                 math.pi + waist, 2 * math.pi - waist]),
        (problems.omega2(BETA), [0.0, math.pi]),
        (_rotated_ellipse(0.3, -1.2, 2.0, 0.5, 0.4, -1)[0], []),
    ]
    for b, t_ext in cases:
        t = np.concatenate([t_ext, rng.uniform(0, b.period, 200)])
        x, y = (np.asarray(v, dtype=float) for v in b.eval(t))
        assert not geometry.contains_batch(b, x, y).any()
        for k in range(len(t_ext)):
            assert not geometry.contains(b, float(x[k]), float(y[k]))


def test_contains_points_just_off_the_curve(blob1, blob3):
    # offsets along the inward normal resolve the crossings far below the
    # grid spacing: +d is inside, -d outside
    rng = np.random.default_rng(6)
    for b in (blob1, blob3, problems.omega2(BETA),
              _rotated_ellipse(0.3, -1.2, 2.0, 0.5, 0.4, -1)[0]):
        t = rng.uniform(0, b.period, 200)
        for d in (1e-10, 1e-8, 1e-6):
            xi, yi = geometry.offset_points(b, np.full(t.size, d), t)
            xo, yo = geometry.offset_points(b, np.full(t.size, -d), t)
            assert geometry.contains_batch(b, xi, yi).all()
            assert not geometry.contains_batch(b, xo, yo).any()


def test_contains_matches_radial_rule(blob1, blob3, unit_circle):
    rng = np.random.default_rng(11)
    for b in (blob1, blob3, unit_circle):
        xs = rng.uniform(-2, 2, 10_000)
        ys = rng.uniform(-2, 2, 10_000)
        got = geometry.contains_batch(b, xs, ys)
        assert np.array_equal(got, _polar_inside(b, xs, ys))


def test_contains_matches_radial_rule_swapped_axes():
    b = problems.omega2(BETA)
    rng = np.random.default_rng(12)
    xs = rng.uniform(-30, 30, 10_000)
    ys = rng.uniform(-30, 30, 10_000)
    got = geometry.contains_batch(b, xs, ys)
    assert np.array_equal(got, _polar_inside(b, xs, ys))


@pytest.mark.parametrize("problem", [1, 2, 3])
def test_contains_grid_matches_polar_rule_n2048(problem):
    # the 8192-vertex polygon of earlier versions put a node of problem 2
    # that lies 3.8e-7 inside the curve outside at this size
    b = problems.test_problem(problem, BETA).boundary
    X, Y, inside = _grid_mask(b, 2048)
    assert np.array_equal(inside, _polar_inside(b, X, Y))


@pytest.mark.parametrize("beta", [BETA, 0.450227])
@pytest.mark.parametrize("problem", [1, 2, 3])
def test_contains_grid_matches_winding_reference(problem, beta):
    b = problems.test_problem(problem, beta).boundary
    for N in (64, 256):
        X, Y, inside = _grid_mask(b, N)
        assert np.array_equal(inside, _winding_reference(b, X, Y))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    cx=st.floats(-5, 5), cy=st.floats(-5, 5),
    a=st.floats(0.2, 3), b=st.floats(0.2, 3), phi=st.floats(0, math.pi),
    orientation=st.sampled_from([1, -1]),
    nx=st.integers(2, 40), ny=st.integers(2, 40), shift=st.floats(0, 1),
)
def test_contains_rotated_ellipse_lattice(cx, cy, a, b, phi, orientation, nx, ny, shift):
    boundary, level = _rotated_ellipse(cx, cy, a, b, phi, orientation)
    r = max(a, b) * 1.1
    hx, hy = 2 * r / nx, 2 * r / ny
    xs = cx - r + hx * (shift + np.arange(nx))
    ys = cy - r + hy * (shift + np.arange(ny))
    X, Y = (v.ravel() for v in np.meshgrid(xs, ys, indexing="ij"))
    q = level(X, Y)
    got = geometry.contains_batch(boundary, X, Y)
    clear = np.abs(q - 1) > 1e-9
    assert np.array_equal(got[clear], q[clear] < 1)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_contains_radial_property(x, y):
    b = problems.omega1(BETA)
    want = math.hypot(x, y) < float(b.polar_radius(math.atan2(y, x)))
    # rounding decides within a few ulps of the curve
    if abs(math.hypot(x, y) - float(b.polar_radius(math.atan2(y, x)))) > 1e-12:
        assert geometry.contains(b, x, y) == want


def test_boundary_distance_exact_near_curve(blob1, unit_circle):
    for d in (0.0, 1e-12, 1e-9, 1e-5, 0.05):
        assert geometry.boundary_distance(unit_circle, 1.0 - d, 0.0) == pytest.approx(d, abs=1e-15)
        assert geometry.boundary_distance(unit_circle, 0.0, -1.0 - d) == pytest.approx(d, abs=1e-15)
    # offsets along the inward normal, shorter than the curvature radius
    for t in (0.0, 0.7, math.pi / 2, 4.0):
        for r in (1e-10, 1e-6, 0.05):
            x, y = geometry.offset_points(blob1, np.array([r]), np.array([t]))
            got = geometry.boundary_distance(blob1, float(x[0]), float(y[0]))
            assert got == pytest.approx(r, rel=1e-6, abs=1e-15)


# ---------------------------------------------------------------------------
# theta


def test_theta_min_circle_quarter_trim(unit_circle):
    got = geometry.theta_min(unit_circle, delta=math.pi / 4)
    assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-10)


def test_theta_min_decreases_with_delta(unit_circle):
    t1 = geometry.theta_min(unit_circle, delta=0.5)
    t2 = geometry.theta_min(unit_circle, delta=0.1)
    t3 = geometry.theta_min(unit_circle, delta=0.0)
    assert t1 > t2 > t3 > 0


def test_theta_min_blob3_transition_angle(blob3):
    # the arcs meet the inflow at parameter angle arcsin(sqrt((1+beta)/3));
    # for beta = 0.5 that angle is pi/4
    theta_arc = math.asin(math.sqrt((1 + BETA) / 3))
    assert theta_arc == pytest.approx(math.pi / 4, abs=1e-12)


def test_theta_min_degenerate_trim(unit_circle):
    with pytest.raises(ValueError, match="strip arcs degenerate"):
        geometry.theta_min(unit_circle, delta=10.0)
