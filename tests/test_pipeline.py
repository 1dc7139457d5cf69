import io
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcd import geometry, grids, linsolve, pipeline, problems
from spcd.problems import _const_field


BETA = 0.5


def hat_interpolant(xs, ys, U, x, y):
    """Independent bilinear evaluator: explicit sum of tensor hat
    functions over every node."""
    def hat(nodes, q):
        w = np.zeros(nodes.size)
        for i, c in enumerate(nodes):
            left = nodes[i - 1] if i > 0 else c
            right = nodes[i + 1] if i < nodes.size - 1 else c
            if left < q <= c and c > left:
                w[i] = (q - left) / (c - left)
            elif c <= q < right and right > c:
                w[i] = (right - q) / (right - c)
            elif q == c:
                w[i] = 1.0
        return w

    wx = hat(xs, x)
    wy = hat(ys, y)
    return float(wx @ U @ wy)


@pytest.fixture(scope="module")
def circle_grid():
    return grids.build_rect_grid(problems.circle(1.0), 8, padding=0.0)


# ---------------------------------------------------------------------------
# bilinear interpolation on the rectangle


def test_bilinear_reproduces_nodes(circle_grid):
    rng = np.random.default_rng(0)
    U = rng.standard_normal((9, 9))
    for i in (0, 3, 8):
        for j in (0, 5, 8):
            got = pipeline.bilinear_eval(circle_grid, U, circle_grid.xs[i], circle_grid.ys[j])
            assert got == U[i, j]


def test_bilinear_cell_center(circle_grid):
    U = np.zeros((9, 9))
    U[1, 1] = 1.0
    x = 0.5 * (circle_grid.xs[0] + circle_grid.xs[1])
    y = 0.5 * (circle_grid.ys[0] + circle_grid.ys[1])
    assert pipeline.bilinear_eval(circle_grid, U, x, y) == pytest.approx(0.25, abs=1e-15)


def test_bilinear_matches_hat_sum(circle_grid):
    rng = np.random.default_rng(1)
    U = rng.standard_normal((9, 9))
    for _ in range(50):
        x = rng.uniform(circle_grid.xmin, circle_grid.xmax)
        y = rng.uniform(circle_grid.ymin, circle_grid.ymax)
        got = pipeline.bilinear_eval(circle_grid, U, x, y)
        want = hat_interpolant(circle_grid.xs, circle_grid.ys, U, x, y)
        assert got == pytest.approx(want, abs=1e-14)


def test_bilinear_outside_rectangle_raises(circle_grid):
    with pytest.raises(ValueError):
        pipeline.bilinear_eval(circle_grid, np.zeros((9, 9)), 2.0, 0.0)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.floats(-1, 1), st.floats(-1, 1))
def test_bilinear_bounded_by_corners(x, y):
    grid = grids.build_rect_grid(problems.circle(1.0), 4, padding=0.0)
    rng = np.random.default_rng(2)
    U = rng.standard_normal((5, 5))
    got = pipeline.bilinear_eval(grid, U, x, y)
    assert U.min() - 1e-12 <= got <= U.max() + 1e-12


# ---------------------------------------------------------------------------
# bilinear interpolation on the strip


@pytest.fixture(scope="module")
def shishkin_mesh():
    b = problems.omega1(BETA)
    arc = geometry.outflow_arcs(b)[0]
    return grids.build_strip_mesh(b, arc, 8, R=0.1, eps=1e-3, alpha=1.0, c_star=2.0)


def test_strip_bilinear_reproduces_nodes(shishkin_mesh):
    rng = np.random.default_rng(3)
    U = rng.standard_normal((9, 9))
    for i in (0, 4, 8):
        for j in (0, 2, 8):
            got = pipeline.bilinear_eval_strip(shishkin_mesh, U, shishkin_mesh.r[i], shishkin_mesh.t[j])
            assert got == U[i, j]


def test_strip_bilinear_shishkin_cell_center(shishkin_mesh):
    U = np.zeros((9, 9))
    U[3, 3] = 1.0
    r = 0.5 * (shishkin_mesh.r[3] + shishkin_mesh.r[4])
    t = 0.5 * (shishkin_mesh.t[3] + shishkin_mesh.t[4])
    # direct tensor formula: the hat centered at node 3 has value 1/2
    assert pipeline.bilinear_eval_strip(shishkin_mesh, U, r, t) == pytest.approx(0.25, abs=1e-14)


def test_strip_bilinear_zero_edge(shishkin_mesh):
    rng = np.random.default_rng(4)
    U = rng.standard_normal((9, 9))
    U[0, :] = 0.0
    for t in np.linspace(shishkin_mesh.t[0], shishkin_mesh.t[-1], 7):
        assert pipeline.bilinear_eval_strip(shishkin_mesh, U, 0.0, t) == 0.0


def test_strip_bilinear_matches_hat_sum(shishkin_mesh):
    rng = np.random.default_rng(5)
    U = rng.standard_normal((9, 9))
    for _ in range(50):
        r = rng.uniform(0, shishkin_mesh.R)
        t = rng.uniform(shishkin_mesh.t[0], shishkin_mesh.t[-1])
        got = pipeline.bilinear_eval_strip(shishkin_mesh, U, r, t)
        want = hat_interpolant(shishkin_mesh.r, shishkin_mesh.t, U, r, t)
        assert got == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# two-phase solve


def _zero_case(eps=1e-2):
    return problems.manufactured_case(problems.circle(1.0), problems.ZeroSolution(), eps)


def test_zero_data_gives_zero_solution():
    case = _zero_case()
    approx = pipeline.solve_problem(case.boundary, case.data, 8,
                                    pipeline.SolveConfig.from_mapping(case.config))
    assert np.abs(approx.U0).max() == 0.0
    for _, U1 in approx.strips:
        assert np.abs(U1).max() == 0.0


def _f_nan_at_origin(x, y):
    return np.where(np.hypot(x, y) < 0.1, np.nan, 1.0)


def test_nan_in_f_raises_instead_of_nan_solution():
    case = _zero_case()
    data = replace(case.data, f=_f_nan_at_origin)
    grid = grids.build_rect_grid(case.boundary, 8, 1e-3)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    assert np.count_nonzero(grid.inside & (np.hypot(X, Y) < 0.1)) == 1
    with pytest.raises(ValueError, match="f is not finite at 1 of"):
        pipeline.solve_problem(case.boundary, data, 8,
                               pipeline.SolveConfig.from_mapping(case.config))


@pytest.mark.parametrize("field, value, N, R, message", [
    ("eps", 0.0, 8, 0.1, "eps must be finite and > 0"),
    ("eps", -0.01, 8, 0.1, "eps must be finite and > 0"),
    ("eps", math.nan, 8, 0.1, "eps must be finite and > 0"),
    ("eps", math.inf, 8, 0.1, "eps must be finite and > 0"),
    ("alpha", 0.0, 8, 0.1, "alpha must be finite and > 0"),
    ("eps", 1.0, 8, 5.0, "strip too wide"),
    ("eps", 1.0, 33, 0.1, "N must be even"),
    ("eps", 1.0, 8, 0.0, "R must be finite and > 0"),
    ("eps", 1.0, 8, -0.1, "R must be finite and > 0"),
    ("c_star", 0.0, 8, 0.1, "c_star must be finite and > 0"),
    ("padding", math.nan, 8, 0.1, "padding must be finite and >= 0"),
])
def test_bad_input_fails_before_any_solve(monkeypatch, field, value, N, R, message):
    # field names a SolveConfig field or else a field of the problem data
    calls = []
    monkeypatch.setattr(linsolve, "solve", lambda *a, **k: calls.append(a))
    case = problems.test_problem(1, BETA)
    data, config = case.data, pipeline.SolveConfig(R=R)
    if field in pipeline.SolveConfig.__dataclass_fields__:
        config = replace(config, **{field: value})
    else:
        data = replace(data, **{field: value})
    with pytest.raises(ValueError, match=message):
        pipeline.solve_problem(case.boundary, data, N, config)
    assert calls == []


@pytest.fixture(scope="module")
def solved_problem1():
    case = problems.test_problem(1, BETA)
    data = replace(case.data, eps=1e-3)
    cfg = pipeline.SolveConfig.from_mapping(case.config)
    return case, pipeline.solve_problem(case.boundary, data, 64, cfg)


def test_interior_matches_reduced_solution(solved_problem1):
    # away from the layer the solution follows the first-order transport
    # problem along y = 0: inflow at x = -0.5, so u(0,0) is close to
    # f * (1 - exp(-1/2))
    _, approx = solved_problem1
    reduced = 2.25 * (1 - math.exp(-0.5))
    assert pipeline.evaluate(approx, 0.0, 0.0) == pytest.approx(reduced, abs=0.05)


def test_layer_from_interior_to_outflow(solved_problem1):
    # the outflow boundary value is zero and the rise happens within the
    # strip: sharp near the wall, flat outside
    case, approx = solved_problem1
    arc = geometry.outflow_arcs(case.boundary)[0]
    fr = geometry.frame(case.boundary, 0.5 * (arc[0] + arc[1]))
    def v(r):
        return pipeline.evaluate(approx, fr.point[0] + r * fr.normal[0],
                                 fr.point[1] + r * fr.normal[1])
    assert v(0.0) == 0.0
    assert abs(v(0.002)) < 0.9 * abs(v(0.05))
    assert abs(v(0.05) - v(0.09)) < 0.2 * abs(v(0.05))


def test_interface_values_stored_bit_for_bit(solved_problem1):
    _, approx = solved_problem1
    for mesh, U1 in approx.strips:
        Rg, Tg = np.meshgrid(mesh.r, mesh.t, indexing="ij")
        X, Y = geometry.offset_points(approx.boundary, Rg, Tg)
        edge = np.zeros_like(Rg, dtype=bool)
        edge[-1, :] = edge[:, 0] = edge[:, -1] = True
        edge[0, :] = False
        want = pipeline.bilinear_eval_many(approx.grid, approx.U0, X[edge], Y[edge])
        assert np.array_equal(U1[edge], want)
        assert np.all(U1[0, :] == 0.0)


def test_outside_nodes_pinned_zero(solved_problem1):
    _, approx = solved_problem1
    assert np.all(approx.U0[~approx.grid.inside] == 0.0)


def test_evaluate_branches(solved_problem1):
    case, approx = solved_problem1
    # origin is far from the strip: the outer interpolant answers
    assert pipeline.evaluate(approx, 0.0, 0.0) == pipeline.bilinear_eval(
        approx.grid, approx.U0, 0.0, 0.0)
    # outflow boundary point sits on the strip r = 0 edge
    arc = geometry.outflow_arcs(case.boundary)[0]
    x, y = (float(v) for v in case.boundary.eval((0.5 * (arc[0] + arc[1])) % case.boundary.period))
    assert pipeline.evaluate(approx, x, y) == 0.0
    with pytest.raises(ValueError, match="outside domain"):
        pipeline.evaluate(approx, 3.0, 3.0)


def test_evaluate_interface_consistency(solved_problem1):
    # at an inner-interface node both branches agree: the stored strip
    # value is the outer interpolant there by construction
    _, approx = solved_problem1
    mesh, U1 = approx.strips[0]
    j = mesh.t.size // 2
    x, y = (float(v[0]) for v in geometry.offset_points(
        approx.boundary, np.asarray([mesh.R]), np.asarray([mesh.t[j]])))
    strip_val = pipeline.evaluate(approx, x, y)
    outer_val = pipeline.bilinear_eval(approx.grid, approx.U0, x, y)
    assert strip_val == pytest.approx(outer_val, abs=1e-10)


def test_nonnegative_solution_for_nonnegative_data(solved_problem1):
    _, approx = solved_problem1
    assert approx.U0.min() >= -1e-12
    for _, U1 in approx.strips:
        assert U1.min() >= -1e-12
    rng = np.random.default_rng(6)
    for _ in range(200):
        x, y = rng.uniform(-1.4, 1.4, 2)
        if geometry.contains(approx.boundary, x, y):
            assert pipeline.evaluate(approx, x, y) >= -1e-12


def test_solution_dump_format(solved_problem1):
    _, approx = solved_problem1
    buf = io.StringIO()
    pipeline.dump_solution(approx, buf, resolution=21)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) > 100
    x, y, u = (float(v) for v in lines[0].split())
    assert np.isfinite(u)


@pytest.mark.parametrize("resolution", [0, 1, 2])
def test_solution_dump_rejects_a_lattice_that_misses_the_domain(solved_problem1, resolution):
    _, approx = solved_problem1
    buf = io.StringIO()
    with pytest.raises(ValueError, match="resolution must be >= 3"):
        pipeline.dump_solution(approx, buf, resolution=resolution)
    assert buf.getvalue() == ""


def test_problem2_pipeline_smoke():
    # clockwise parameterization, strip width 1, curvature jump on inflow
    case = problems.test_problem(2, BETA)
    data = replace(case.data, eps=2.0**-6)
    cfg = pipeline.SolveConfig.from_mapping(case.config)
    approx = pipeline.solve_problem(case.boundary, data, 16, cfg)
    assert len(approx.strips) == 1
    assert np.all(np.isfinite(approx.U0))
    assert approx.U0.min() >= -1e-12
    mesh, U1 = approx.strips[0]
    assert np.all(np.isfinite(U1))
    assert mesh.R == 1.0
    # solution is nonzero inside and zero outside the domain
    assert approx.U0.max() > 0
    assert np.all(approx.U0[~approx.grid.inside] == 0.0)
    val = pipeline.evaluate(approx, 10.0, 0.0)
    assert np.isfinite(val) and val >= -1e-12


def test_manufactured_convergence_small():
    # quick classical-regime sanity: error shrinks when N doubles
    boundary = problems.circle(1.0)
    exact = problems.BubbleExp()
    case = problems.manufactured_case(boundary, exact, 1.0)
    cfg = pipeline.SolveConfig.from_mapping(case.config)
    errs = []
    for N in (16, 32):
        approx = pipeline.solve_problem(case.boundary, case.data, N, cfg)
        g = approx.grid
        X, Y = np.meshgrid(g.xs, g.ys, indexing="ij")
        sel = g.inside
        vals = np.array([pipeline.evaluate(approx, x, y) for x, y in zip(X[sel], Y[sel])])
        errs.append(np.abs(vals - exact.u(X[sel], Y[sel])).max())
    assert errs[1] < 0.75 * errs[0]
