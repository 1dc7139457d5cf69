import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from spcd import geometry, grids, linsolve, operators, problems
from spcd.geometry import ParametricBoundary
from spcd.problems import _const_field


BETA = 0.5


def const_data(a=1.0, b=1.0, f=1.0, eps=1.0, alpha=None):
    return operators.ProblemData(
        a=partial(_const_field, value=a),
        b=partial(_const_field, value=b),
        f=partial(_const_field, value=f),
        eps=eps,
        alpha=a if alpha is None else alpha,
    )


@pytest.fixture(scope="module")
def circle_grid4():
    # padding 0 on the unit circle gives the box [-1, 1]^2, so h = 0.5
    return grids.build_rect_grid(problems.circle(1.0), 4, padding=0.0)


# ---------------------------------------------------------------------------
# outer scheme


def test_outer_stencil_hand_values(circle_grid4):
    data = const_data(a=1.0, b=1.0, f=3.25, eps=1.0)
    system = operators.assemble_outer(circle_grid4, data)
    n1 = 5
    k = 2 * n1 + 2  # center node (0, 0)
    row = system.matrix.getrow(k).toarray().ravel()
    assert row[k - n1] == -6.0   # west: -eps/h^2 - a/h
    assert row[k + n1] == -4.0   # east
    assert row[k - 1] == -4.0    # south
    assert row[k + 1] == -4.0    # north
    assert row[k] == 19.0        # diagonal
    assert system.rhs[k] == 3.25


def test_outer_annihilates_constants_without_reaction():
    grid = grids.build_rect_grid(problems.circle(1.0), 16, padding=0.0)
    data = const_data(a=1.0, b=0.0, f=0.0)
    system = operators.assemble_outer(grid, data)
    z = np.full(system.n, 4.2)
    res = system.matrix @ z
    inside = grid.inside
    core = inside.copy()
    core[1:-1, 1:-1] &= inside[:-2, 1:-1] & inside[2:, 1:-1] & inside[1:-1, :-2] & inside[1:-1, 2:]
    core[0, :] = core[-1, :] = core[:, 0] = core[:, -1] = False
    assert np.abs(res.reshape(inside.shape)[core]).max() < 1e-12


def test_outer_outside_rows_are_identity(circle_grid4):
    system = operators.assemble_outer(circle_grid4, const_data())
    outside = ~circle_grid4.inside.ravel()
    for k in np.where(outside)[0]:
        row = system.matrix.getrow(k)
        assert row.nnz == 1
        assert row.toarray().ravel()[k] == 1.0
        assert system.rhs[k] == 0.0


def test_outer_coefficient_bounds(circle_grid4):
    bad_a = operators.ProblemData(
        a=partial(_const_field, value=0.5), b=partial(_const_field, value=1.0),
        f=partial(_const_field, value=0.0), eps=1.0, alpha=1.0)
    with pytest.raises(ValueError, match="coefficient bound violated"):
        operators.assemble_outer(circle_grid4, bad_a)
    bad_b = operators.ProblemData(
        a=partial(_const_field, value=1.0), b=partial(_const_field, value=-0.1),
        f=partial(_const_field, value=0.0), eps=1.0, alpha=1.0)
    with pytest.raises(ValueError, match="coefficient bound violated"):
        operators.assemble_outer(circle_grid4, bad_b)


def _nan_near_origin(x, y):
    return np.where(np.hypot(x, y) < 0.1, np.nan, 1.0)


def test_outer_rejects_non_finite_fields(circle_grid4):
    for name in ("a", "b", "f"):
        data = replace(const_data(), **{name: _nan_near_origin})
        with pytest.raises(ValueError, match=f"^{name} is not finite at 1 of"):
            operators.assemble_outer(circle_grid4, data)


# ---------------------------------------------------------------------------
# strip scheme


class _FlatWall(ParametricBoundary):
    """Straight vertical wall with unit speed; kappa = 0, tau = 1 and the
    inward normal is (-1, 0), so the strip coordinates are Cartesian."""

    def __init__(self):
        super().__init__(period=100.0, orientation=1)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 + 0 * t, t.copy()

    def deriv1(self, t):
        t = np.asarray(t, dtype=float)
        return 0 * t, 1.0 + 0 * t

    def deriv2(self, t):
        t = np.asarray(t, dtype=float)
        return 0 * t, 0 * t


def _node(system, i, j):
    """Unknown index of tensor node (i, j)."""
    return i * system.shape[1] + j


def _flat_mesh(nr=4, nt=4):
    return grids.StripMesh(arc=(1.0, 2.0), R=0.5, sigma=0.25,
                           r=np.linspace(0, 0.5, nr + 1), t=np.linspace(1, 2, nt + 1),
                           alpha=1.0, c_star=2.0)


def test_strip_flat_limit_reduces_to_cartesian_stencil():
    mesh = _flat_mesh()
    data = const_data(a=1.0, b=1.0, f=0.0)
    system = operators.assemble_strip(mesh, _FlatWall(), data, np.zeros((5, 5)))
    hr, ht = 0.125, 0.25
    k = _node(system, 2, 2)
    row = system.matrix.getrow(k).toarray().ravel()
    # convection speed a*n1 = -1 < 0 uses the forward difference in r
    assert row[_node(system, 1, 2)] == pytest.approx(-1 / hr**2, abs=1e-12)
    assert row[_node(system, 3, 2)] == pytest.approx(-1 / hr**2 - 1 / hr, abs=1e-12)
    assert row[_node(system, 2, 1)] == pytest.approx(-1 / ht**2, abs=1e-12)
    assert row[_node(system, 2, 3)] == pytest.approx(-1 / ht**2, abs=1e-12)
    assert row[k] == pytest.approx(2 / hr**2 + 2 / ht**2 + 1 / hr + 1.0, abs=1e-12)


def test_strip_outflow_uses_forward_difference_only():
    # with a*n1 < 0 the backward-side entry carries no convection part
    mesh = _flat_mesh()
    diff_only = const_data(a=1e-12, b=0.0, f=0.0, alpha=1e-12)
    convect = const_data(a=1.0, b=0.0, f=0.0)
    wall = _FlatWall()
    A0 = operators.assemble_strip(mesh, wall, diff_only, np.zeros((5, 5))).matrix
    A1 = operators.assemble_strip(mesh, wall, convect, np.zeros((5, 5))).matrix
    k = A1.shape[0] // 2
    i, j = divmod(k, 5)
    if not (0 < i < 4 and 0 < j < 4):
        i = j = 2
        k = i * 5 + j
    south = i * 5 + j - 5
    assert A1[k, south] == pytest.approx(A0[k, south], abs=1e-9)


def test_strip_dirichlet_rows():
    mesh = _flat_mesh()
    bc = np.arange(25, dtype=float).reshape(5, 5)
    system = operators.assemble_strip(mesh, _FlatWall(), const_data(), bc)
    for i in (0, 4):
        for j in range(5):
            k = _node(system, i, j)
            row = system.matrix.getrow(k)
            assert row.nnz == 1 and row.toarray().ravel()[k] == 1.0
            assert system.rhs[k] == (0.0 if i == 0 else bc[i, j])
    for j in (0, 4):
        for i in range(1, 4):
            k = _node(system, i, j)
            assert system.rhs[k] == bc[i, j]


def test_strip_rejects_non_finite_fields():
    mesh = _flat_mesh()
    zero = np.zeros((mesh.r.size, mesh.t.size))
    for name in ("a", "b", "f"):
        data = replace(const_data(), **{name: _nan_at_wall_node})
        with pytest.raises(ValueError, match=f"^{name} is not finite at 1 of"):
            operators.assemble_strip(mesh, _FlatWall(), data, zero)


def _nan_at_wall_node(x, y):
    # the flat-wall strip maps (r, t) to (1 - r, t); spoil node (0.25, 1.5)
    return np.where((np.abs(x - 0.75) < 1e-12) & (np.abs(y - 1.5) < 1e-12), np.nan, 1.0)


def test_strip_callable_inner_bc():
    mesh = _flat_mesh()
    system = operators.assemble_strip(mesh, _FlatWall(), const_data(),
                                      lambda x, y: x + 10 * y)
    # inner edge r = R: cartesian image is (1 - r, t) = (0.5, t_j)
    for j, t in enumerate(mesh.t):
        assert system.rhs[_node(system, 4, j)] == pytest.approx(0.5 + 10 * t, abs=1e-12)


def test_strip_curvature_radius_guard():
    b = problems.circle(1.0)
    mesh = grids.StripMesh(arc=(0.0, 1.0), R=1.5, sigma=0.75,
                           r=np.linspace(0, 1.5, 5), t=np.linspace(0, 1, 5),
                           alpha=1.0, c_star=2.0)
    with pytest.raises(ValueError, match="strip exceeds curvature radius"):
        operators.assemble_strip(mesh, b, const_data(), np.zeros((5, 5)))


def _dense_line_solve(r, eta_fun, speed, eps, f_vals, left, right):
    """Independent dense solve of the radial two-point problem on one
    t-line: conservative diffusion with metric factor eta plus upwinded
    convection with constant speed."""
    n = r.size - 1
    A = np.zeros((n + 1, n + 1))
    rhs = np.zeros(n + 1)
    h = np.diff(r)
    for i in range(1, n):
        hup, hdn = h[i], h[i - 1]
        hbar = 0.5 * (hup + hdn)
        e_c = eta_fun(r[i])
        e_up = eta_fun(0.5 * (r[i] + r[i + 1]))
        e_dn = eta_fun(0.5 * (r[i] + r[i - 1]))
        cN = -eps * e_up / (e_c * hbar * hup)
        cS = -eps * e_dn / (e_c * hbar * hdn)
        diag = -(cN + cS)
        sp, sm = max(speed, 0.0), min(speed, 0.0)
        diag += sp / hdn - sm / hup
        cS -= sp / hdn
        cN += sm / hup
        A[i, i - 1], A[i, i + 1], A[i, i] = cS, cN, diag
        rhs[i] = f_vals[i]
    A[0, 0] = A[n, n] = 1.0
    rhs[0], rhs[n] = left, right
    return np.linalg.solve(A, rhs)


def test_strip_matches_radial_line_oracle():
    """Dual-route check of the strip assembly: with the convection field
    chosen so that the radial speed is the same constant on every t-line
    and all data radially symmetric, the 2D strip solve decouples into
    identical two-point problems, solved independently with dense linear
    algebra."""
    b = problems.circle(1.0)
    arc = (-math.pi / 4, math.pi / 4)
    N, R, eps = 16, 0.1, 0.01
    mesh = grids.build_strip_mesh(b, arc, N, R, eps, alpha=1.0, c_star=2.0)

    def a_sec(x, y):
        return 1.0 / np.cos(np.arctan2(np.asarray(y, float), np.asarray(x, float)))

    data = operators.ProblemData(a=a_sec, b=partial(_const_field, value=0.0),
                                 f=partial(_const_field, value=1.0), eps=eps, alpha=1.0)
    eta_fun = lambda r: 1.0 - r  # kappa = 1 on the unit circle
    oracle = _dense_line_solve(mesh.r, eta_fun, -1.0, eps,
                               np.ones(N + 1), 0.0, 0.7)
    bc = np.tile(oracle[:, None], (1, N + 1))
    system = operators.assemble_strip(mesh, b, data, bc)
    x, _ = linsolve.solve(system)
    U = x.reshape(N + 1, N + 1)
    assert np.abs(U - oracle[:, None]).max() < 1e-8


def literal_circle_line_mismatch(N=16, R=0.1, eps=0.01, c_end=0.7):
    """Max deviation of the a = 1 constant-data circle strip solve from
    the per-t-line two-point oracle (used by the acceptance suite)."""
    b = problems.circle(1.0)
    arc = (-math.pi / 4, math.pi / 4)
    mesh = grids.build_strip_mesh(b, arc, N, R, eps, alpha=1.0, c_star=2.0)
    data = const_data(a=1.0, b=0.0, f=1.0, eps=eps)
    bc = np.full((N + 1, N + 1), c_end)
    system = operators.assemble_strip(mesh, b, data, bc)
    x, _ = linsolve.solve(system)
    U = x.reshape(N + 1, N + 1)
    eta_fun = lambda r: 1.0 - r
    worst = 0.0
    for j in range(N + 1):
        speed = -math.cos(mesh.t[j] % (2 * math.pi))
        line = _dense_line_solve(mesh.r, eta_fun, speed, eps, np.ones(N + 1), 0.0, c_end)
        worst = max(worst, float(np.abs(U[:, j] - line).max()))
    return worst


# ---------------------------------------------------------------------------
# matrix-vector products


def test_apply_identity_rows(circle_grid4):
    system = operators.assemble_outer(circle_grid4, const_data())
    z = np.arange(system.n, dtype=float)
    res = system.matrix @ z
    outside = ~circle_grid4.inside.ravel()
    assert np.array_equal(res[outside], z[outside])


def test_apply_basis_vector_gives_column(circle_grid4):
    system = operators.assemble_outer(circle_grid4, const_data())
    k = system.n // 2
    e = np.zeros(system.n)
    e[k] = 1.0
    assert np.array_equal(system.matrix @ e,
                          system.matrix.toarray()[:, k])


def test_apply_matches_dense_product():
    grid = grids.build_rect_grid(problems.circle(1.0), 12, padding=0.0)
    system = operators.assemble_outer(grid, const_data(f=2.0))
    assert system.n <= 200 or True
    rng = np.random.default_rng(8)
    dense = system.matrix.toarray()
    for _ in range(5):
        z = rng.standard_normal(system.n)
        assert np.abs(system.matrix @ z - dense @ z).max() < 1e-12


# ---------------------------------------------------------------------------
# monotonicity across the catalog


def _all_systems(case, eps, N):
    data = replace(case.data, eps=eps)
    grid = grids.build_rect_grid(case.boundary, N)
    yield operators.assemble_outer(grid, data)
    R = case.config["R"]
    for arc in geometry.outflow_arcs(case.boundary):
        mesh = grids.build_strip_mesh(case.boundary, arc, N, R, eps, data.alpha)
        yield operators.assemble_strip(mesh, case.boundary, data, np.zeros((N + 1, N + 1)))


@pytest.mark.parametrize("problem_id", [1, 2, 3])
@pytest.mark.parametrize("eps", [1.0, 2.0**-10, 2.0**-20])
def test_mmatrix_structure_catalog(problem_id, eps):
    case = problems.test_problem(problem_id, BETA)
    for N in (8, 16, 32):
        for system in _all_systems(case, eps, N):
            A = system.matrix.tocoo()
            diag = A.diagonal()
            assert np.all(diag > 0)
            off = A.data[A.row != A.col]
            assert np.all(off <= 0)
            rowsum = np.asarray(system.matrix.sum(axis=1)).ravel()
            assert rowsum.min() > -1e-9


def test_discrete_comparison_principle():
    case = problems.test_problem(1, BETA)
    for eps in (1.0, 2.0**-10):
        data = replace(case.data, eps=eps)
        grid = grids.build_rect_grid(case.boundary, 16)
        system = operators.assemble_outer(grid, data)
        assert np.asarray(data.f(0.0, 0.0)) >= 0
        x, _ = linsolve.solve(system)
        assert x.min() >= -1e-12


def test_consistency_first_order():
    # L^N applied to a quadratic: the only truncation term is the upwind
    # convection, a*h/2*u_xx, which is exactly first order
    b = problems.circle(1.0)

    def u(x, y):
        return 1.0 + x + 2 * y + x * x + 0.5 * y * y + 0.25 * x * y

    def Lu(x, y, eps=1.0):
        lap = 2.0 + 1.0
        ux = 1.0 + 2 * x + 0.25 * y
        return -eps * lap + ux + u(x, y)

    res_norm = []
    for N in (16, 32, 64):
        grid = grids.build_rect_grid(b, N, padding=0.0)
        data = const_data(a=1.0, b=1.0, f=0.0)
        system = operators.assemble_outer(grid, data)
        X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        z = u(X, Y).ravel()
        res = (system.matrix @ z).reshape(X.shape) - Lu(X, Y)
        core = grid.inside.copy()
        core[1:-1, 1:-1] &= (grid.inside[:-2, 1:-1] & grid.inside[2:, 1:-1]
                             & grid.inside[1:-1, :-2] & grid.inside[1:-1, 2:])
        core[0, :] = core[-1, :] = core[:, 0] = core[:, -1] = False
        res_norm.append(float(np.abs(res[core]).max()))
    orders = [math.log2(res_norm[k] / res_norm[k + 1]) for k in range(2)]
    assert min(orders) >= 0.9


def test_matrix_triplets_span_the_unknowns(circle_grid4):
    system = operators.assemble_outer(circle_grid4, const_data())
    assert system.matrix.tocoo().shape[0] == system.n
