import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcd import geometry, grids, problems


BETA = 0.5


@pytest.fixture(scope="module")
def blob1():
    return problems.omega1(BETA)


@pytest.fixture(scope="module")
def blob1_arc(blob1):
    return geometry.outflow_arcs(blob1)[0]


# ---------------------------------------------------------------------------
# rectangle grid


def test_rect_grid_circle_box():
    grid = grids.build_rect_grid(problems.circle(1.0), 8, padding=0.0)
    assert (grid.xmin, grid.xmax) == pytest.approx((-1.0, 1.0), abs=1e-6)
    assert (grid.ymin, grid.ymax) == pytest.approx((-1.0, 1.0), abs=1e-6)


def test_rect_grid_blob2_top():
    grid = grids.build_rect_grid(problems.omega2(BETA), 8, padding=0.0)
    assert grid.ymax == pytest.approx(2.5 * math.pi**2 + BETA, abs=1e-9)


def test_rect_grid_center_inside_edges_outside(blob1):
    grid = grids.build_rect_grid(blob1, 16)
    ic = int(np.argmin(np.abs(grid.xs)))
    jc = int(np.argmin(np.abs(grid.ys)))
    assert grid.inside[ic, jc]
    assert not grid.inside[0, :].any()
    assert not grid.inside[-1, :].any()
    assert not grid.inside[:, 0].any()
    assert not grid.inside[:, -1].any()


def test_rect_grid_padding_expands(blob1):
    g0 = grids.build_rect_grid(blob1, 8, padding=0.0)
    g1 = grids.build_rect_grid(blob1, 8, padding=1e-3)
    assert g1.xmin < g0.xmin and g1.xmax > g0.xmax
    assert g1.ymin < g0.ymin and g1.ymax > g0.ymax


def test_rect_grid_rejects_tiny_N(blob1):
    with pytest.raises(ValueError):
        grids.build_rect_grid(blob1, 2)


# ---------------------------------------------------------------------------
# strip mesh


def test_sigma_uniform_regime(blob1, blob1_arc):
    mesh = grids.build_strip_mesh(blob1, blob1_arc, 8, R=0.1, eps=1.0, alpha=1.0, c_star=2.0)
    assert mesh.sigma == min(0.1 / 2, 2.0 * (1.0 / 1.0) * math.log(8))
    assert mesh.sigma == 0.05
    assert np.allclose(np.diff(mesh.r), 0.1 / 8, rtol=1e-12)


def test_sigma_fine_regime(blob1, blob1_arc):
    eps = 2.0**-20
    mesh = grids.build_strip_mesh(blob1, blob1_arc, 64, R=0.1, eps=eps, alpha=1.0, c_star=2.0)
    assert mesh.sigma == min(0.1 / 2, 2.0 * (eps / 1.0) * math.log(64))
    assert mesh.sigma == pytest.approx(7.932439963073104e-06, abs=0)


def test_sigma_bit_exact_sweep(blob1, blob1_arc):
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(10):  # fine regime
        cases.append((float(2.0 ** -rng.integers(8, 24)), int(2 ** rng.integers(3, 8)),
                      float(rng.uniform(0.05, 0.15)), float(rng.uniform(1, 3)), float(rng.uniform(0.5, 2))))
    for _ in range(10):  # uniform regime
        cases.append((float(rng.uniform(0.5, 1.0)), int(2 ** rng.integers(3, 8)),
                      float(rng.uniform(0.05, 0.15)), float(rng.uniform(1, 3)), float(rng.uniform(0.5, 2))))
    fine = coarse = 0
    for eps, N, R, c_star, alpha in cases:
        mesh = grids.build_strip_mesh(blob1, blob1_arc, N, R=R, eps=eps, alpha=alpha, c_star=c_star)
        expect = min(R / 2, c_star * (eps / alpha) * math.log(N))
        assert mesh.sigma == expect  # bit exact
        if expect == R / 2:
            coarse += 1
        else:
            fine += 1
    assert fine > 0 and coarse > 0


def test_shishkin_node_layout(blob1, blob1_arc):
    N = 16
    mesh = grids.build_strip_mesh(blob1, blob1_arc, N, R=0.1, eps=1e-4, alpha=1.0, c_star=2.0)
    assert mesh.r.size == N + 1
    assert mesh.t.size == N + 1
    assert mesh.r[0] == 0.0 and mesh.r[-1] == 0.1
    assert mesh.r[N // 2] == mesh.sigma
    h = np.diff(mesh.r)
    assert np.allclose(h[: N // 2], 2 * mesh.sigma / N, rtol=1e-12)
    assert np.allclose(h[N // 2:], 2 * (0.1 - mesh.sigma) / N, rtol=1e-12)
    assert np.all(np.diff(mesh.r) > 0)
    assert np.all(np.diff(mesh.t) > 0)
    assert mesh.t[0] == blob1_arc[0] and mesh.t[-1] == blob1_arc[1]


def test_sigma_regime_switch(blob1, blob1_arc):
    N, R, c_star = 32, 0.1, 2.0
    eps_cross = R / (2 * c_star * math.log(N))
    lo = grids.build_strip_mesh(blob1, blob1_arc, N, R, eps=0.5 * eps_cross, alpha=1.0, c_star=c_star)
    hi = grids.build_strip_mesh(blob1, blob1_arc, N, R, eps=2.0 * eps_cross, alpha=1.0, c_star=c_star)
    assert lo.sigma < R / 2
    assert hi.sigma == R / 2


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.floats(1e-8, 1.0), st.sampled_from([8, 16, 32, 64, 128]))
def test_sigma_formula_property(eps, N):
    blob = problems.omega1(BETA)
    arc = geometry.outflow_arcs(blob)[0]
    mesh = grids.build_strip_mesh(blob, arc, N, R=0.1, eps=eps, alpha=1.0, c_star=2.0)
    assert mesh.sigma == min(0.1 / 2, 2.0 * eps * math.log(N))
    assert mesh.sigma <= 0.05


def test_strip_width_bound_blob1(blob1, blob1_arc):
    assert grids.strip_width_bound(blob1, blob1_arc) == pytest.approx(1 / 6, abs=1e-12)


def test_strip_too_wide(blob1, blob1_arc):
    with pytest.raises(ValueError, match="strip too wide"):
        grids.build_strip_mesh(blob1, blob1_arc, 8, R=0.17, eps=1.0, alpha=1.0)
    grids.build_strip_mesh(blob1, blob1_arc, 8, R=0.16, eps=1.0, alpha=1.0)


def test_strip_mesh_requires_even_N(blob1, blob1_arc):
    with pytest.raises(ValueError):
        grids.build_strip_mesh(blob1, blob1_arc, 7, R=0.1, eps=1.0, alpha=1.0)


# ---------------------------------------------------------------------------
# membership


def test_membership_boundary_point(blob1, blob1_arc):
    tm = 0.5 * (blob1_arc[0] + blob1_arc[1])
    x, y = (float(v[0]) for v in geometry.frame_arrays(blob1, [tm])[:2])
    hit = grids.strip_membership(blob1, [blob1_arc], 0.1, x, y)
    assert hit is not None
    idx, p = hit
    assert idx == 0
    assert p.r == pytest.approx(0.0, abs=1e-10)


def test_membership_origin_outside(blob1, blob1_arc):
    assert grids.strip_membership(blob1, [blob1_arc], 0.1, 0.0, 0.0) is None


def test_membership_half_width(blob1, blob1_arc):
    tm = 0.5 * (blob1_arc[0] + blob1_arc[1])
    R = 0.1
    x, y = (float(v[0]) for v in geometry.offset_points(blob1, np.asarray([R / 2]), np.asarray([tm])))
    hit = grids.strip_membership(blob1, [blob1_arc], R, x, y)
    assert hit is not None
    _, p = hit
    assert p.r == pytest.approx(R / 2, abs=1e-9)


def test_locator_batch_matches_scalar(blob1, blob1_arc):
    loc = grids.StripLocator(blob1, [blob1_arc], 0.1)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1.6, 1.6, 200)
    ys = rng.uniform(-1.6, 1.6, 200)
    idx, r, t = loc.locate_batch(xs, ys)
    for k in range(0, 200, 17):
        hit = loc.locate(xs[k], ys[k])
        if hit is None:
            assert idx[k] == -1
        else:
            assert idx[k] == hit[0]
            assert r[k] == pytest.approx(hit[1].r, abs=1e-12)


@pytest.mark.parametrize("problem", [1, 3])
def test_locator_inverts_offset_map(monkeypatch, problem):
    # points built forward through offset_points: (r, t) nodes with
    # 0 < r < R map back to their arc; points a little beyond an arc end,
    # or at R < r < 2R, lie in no strip
    fallback = geometry._invert_fallback
    fallback_calls = []

    def spy(*args, **kwargs):
        fallback_calls.append(args)
        return fallback(*args, **kwargs)

    monkeypatch.setattr(geometry, "_invert_fallback", spy)
    case = problems.test_problem(problem, BETA)
    b, R = case.boundary, case.config["R"]
    arcs = geometry.outflow_arcs(b)
    loc = grids.StripLocator(b, arcs, R)
    cx, cy = b.eval(np.linspace(0.0, b.period, 1 << 16, endpoint=False))
    for a, (t0, t1) in enumerate(arcs):
        rr, tt = np.meshgrid(np.linspace(0.0, R, 9)[1:-1], np.linspace(t0, t1, 17)[1:-1],
                             indexing="ij")
        idx, r, t = loc.locate_batch(*geometry.offset_points(b, rr.ravel(), tt.ravel()))
        assert np.all(idx == a)
        assert np.abs(r - rr.ravel()).max() <= 1e-12
        assert np.abs(t - tt.ravel()).max() <= 1e-12

        L = t1 - t0
        beyond = np.array([t0 - 0.06 * L, t0 - 0.02 * L, t1 + 0.02 * L, t1 + 0.06 * L])
        rr, tt = np.meshgrid(R * np.array([0.05, 0.3, 0.7]), beyond, indexing="ij")
        idx, _, _ = loc.locate_batch(*geometry.offset_points(b, rr.ravel(), tt.ravel()))
        assert np.all(idx == -1)

        rr, tt = np.meshgrid(R * np.array([1.05, 1.5, 1.95]), np.linspace(t0, t1, 9)[1:-1],
                             indexing="ij")
        xs, ys = geometry.offset_points(b, rr.ravel(), tt.ravel())
        # sampled distance to the whole curve: these points really are
        # farther than R from the boundary
        dist = np.hypot(xs[:, None] - cx, ys[:, None] - cy).min(axis=1)
        assert dist.min() > R
        idx, _, _ = loc.locate_batch(xs, ys)
        assert np.all(idx == -1)
    if problem == 3:
        # the points 6% beyond the short arcs' ends leave Newton's window
        assert fallback_calls


def test_blob3_three_strips():
    b = problems.omega3(BETA)
    arcs = geometry.outflow_arcs(b)
    for arc in arcs:
        mesh = grids.build_strip_mesh(b, arc, 8, R=0.1, eps=0.01, alpha=1.0)
        assert mesh.r.size == 9


def test_mesh_dump_format(blob1, blob1_arc):
    mesh = grids.build_strip_mesh(blob1, blob1_arc, 4, R=0.1, eps=1.0, alpha=1.0)
    buf = io.StringIO()
    grids.dump_strip_mesh(mesh, blob1, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 25
    r, t, x, y = (float(v) for v in lines[0].split())
    assert r == 0.0
    bx, by = (float(v[0]) for v in geometry.frame_arrays(blob1, [t])[:2])
    assert (x, y) == pytest.approx((bx, by), abs=1e-12)
