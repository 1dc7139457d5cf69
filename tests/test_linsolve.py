import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import spcd
from spcd import grids, linsolve, operators, problems
from spcd.operators import SparseSystem


def _system(matrix, rhs):
    m = sp.csr_matrix(matrix)
    return SparseSystem(matrix=m, rhs=np.asarray(rhs, dtype=float), shape=(m.shape[0], 1))


def random_mmatrix(rng, n):
    """Random strictly diagonally dominant matrix with nonpositive
    off-diagonal entries (an M-matrix)."""
    A = np.zeros((n, n))
    for i in range(n):
        cols = rng.choice(n, size=min(4, n - 1), replace=False)
        for j in cols:
            if j != i:
                A[i, j] = -rng.uniform(0.0, 1.0)
        A[i, i] = -A[i].sum() + rng.uniform(0.1, 1.0)
    return A


def gaussian_elimination(A, b):
    """Textbook dense Gaussian elimination with partial pivoting; kept
    independent of any library solver on purpose."""
    A = A.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if p != k:
            A[[k, p]] = A[[p, k]]
            b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            m = A[i, k] / A[k, k]
            A[i, k + 1:] -= m * A[k, k + 1:]
            A[i, k] = 0.0
            b[i] -= m * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - A[i, i + 1:] @ x[i + 1:]) / A[i, i]
    return x


def test_identity_system():
    v = np.array([3.0, -1.5, 0.25, 7.0])
    x, rep = linsolve.solve(_system(np.eye(4), v))
    assert np.array_equal(x, v)
    assert rep.iterations == 0


def test_matches_dense_elimination_oracle():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(5, 201))
        A = random_mmatrix(rng, n)
        b = rng.standard_normal(n)
        x, _ = linsolve.solve(_system(A, b))
        ref = gaussian_elimination(A, b)
        assert np.abs(x - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def test_geometric_barrier_closed_form():
    # constant-coefficient upwind convection-diffusion on a uniform mesh:
    # -eps*d2 u + s*D^- u = 0, u_0 = 0, u_N = 1 has the exact discrete
    # solution (lam^i - 1)/(lam^N - 1) with lam = 1 + s*h/eps
    eps, s, N = 1e-3, 0.7, 64
    h = 0.01 / N
    lam = 1 + s * h / eps
    A = np.zeros((N + 1, N + 1))
    rhs = np.zeros(N + 1)
    for i in range(1, N):
        A[i, i - 1] = -eps / h**2 - s / h
        A[i, i + 1] = -eps / h**2
        A[i, i] = 2 * eps / h**2 + s / h
    A[0, 0] = A[N, N] = 1.0
    rhs[N] = 1.0
    x, _ = linsolve.solve(_system(A, rhs))
    exact = (lam ** np.arange(N + 1) - 1.0) / (lam**N - 1.0)
    assert np.abs(x - exact).max() < 1e-9


def test_inverse_positivity():
    rng = np.random.default_rng(7)
    A = random_mmatrix(rng, 120)
    b = rng.uniform(0.0, 1.0, 120)
    x, _ = linsolve.solve(_system(A, b))
    assert x.min() >= -1e-12


def test_row_scaling_equivariance_power_of_two():
    rng = np.random.default_rng(9)
    A = random_mmatrix(rng, 50)
    b = rng.standard_normal(50)
    x1, _ = linsolve.solve(_system(A, b))
    x2, _ = linsolve.solve(_system(4.0 * A, 4.0 * b))
    assert np.array_equal(x1, x2)


def test_row_scaling_equivariance_general():
    rng = np.random.default_rng(10)
    A = random_mmatrix(rng, 50)
    b = rng.standard_normal(50)
    x1, _ = linsolve.solve(_system(A, b))
    scale = rng.uniform(0.5, 3.0, 50)
    x2, _ = linsolve.solve(_system(np.diag(scale) @ A, scale * b))
    assert np.abs(x1 - x2).max() < 5e-13 * max(1.0, np.abs(x1).max())


def test_singular_system_raises():
    A = np.eye(4)
    A[2, 2] = 0.0
    with pytest.raises(RuntimeError, match="singular system"):
        linsolve.solve(_system(A, np.ones(4)))


def test_nan_rhs_raises():
    # a NaN residual fails the `res > target` test; it must not pass
    b = np.ones(4)
    b[1] = np.nan
    with pytest.raises(RuntimeError, match="residual target"):
        linsolve.solve(_system(2.0 * np.eye(4), b))


def test_residual_is_reported():
    rng = np.random.default_rng(11)
    A = random_mmatrix(rng, 30)
    b = rng.standard_normal(30)
    x, rep = linsolve.solve(_system(A, b), rtol=1e-10, atol=1e-12)
    assert rep.method == "splu"
    assert rep.residual_norm <= 1e-10 * np.abs(b).max() + 1e-10  # equilibrated rows


def test_mmatrix_factorization_beats_default_splu():
    # problem-1 outer system: minimum degree on A + A^T without pivoting
    # needs less fill than SuperLU's defaults (COLAMD, partial pivoting)
    # and gives the same solution with no refinement step
    case = problems.test_problem(1, 0.5, eps=2.0**-12)
    grid = grids.build_rect_grid(case.boundary, 128)
    system = operators.assemble_outer(grid, case.data)
    x, rep = linsolve.solve(system)

    A = system.matrix.tocsr()
    row_max = np.asarray(abs(A).max(axis=1).todense()).ravel()
    scale = np.exp2(-np.ceil(np.log2(row_max)))
    default = splu((sp.diags(scale) @ A).tocsc())
    assert rep.fill < default.nnz
    assert np.abs(x - default.solve(scale * system.rhs)).max() <= 1e-12
    assert rep.iterations == 0


@pytest.mark.parametrize("perm", [[1, 0], [2, 3, 4, 0, 1]])
def test_zero_diagonal_permutation_solves_exactly_or_raises(perm):
    # no M-matrix and no usable diagonal: the public solver must either
    # find the exact solution or raise, never return a wrong x
    n = len(perm)
    A = np.eye(n)[perm]
    assert not np.diag(A).any()
    want = np.arange(1.0, n + 1)
    try:
        x, _ = spcd.solve(_system(A, A @ want))
    except RuntimeError:
        return
    assert np.array_equal(x, want)


@pytest.mark.parametrize("error", [
    SystemError("gstrf was called with invalid arguments"),
    MemoryError(),
])
def test_out_of_memory_in_splu_raises_runtime_error(monkeypatch, error):
    # SuperLU reports exhausted memory as SystemError; callers that handle
    # RuntimeError must see it, with the size of the system named
    def failing_splu(*args, **kwargs):
        raise error

    monkeypatch.setattr(linsolve, "splu", failing_splu)
    with pytest.raises(RuntimeError, match="sparse LU failed on 7 unknowns"):
        linsolve.solve(_system(2.0 * np.eye(7), np.ones(7)))
