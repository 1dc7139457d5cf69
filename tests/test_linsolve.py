import contextlib
import functools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import spcd
from spcd import grids, linsolve, operators, pipeline, problems
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


@functools.cache
def _problem1_systems():
    """The outer and the strip system of problem 1 at N = 128, eps = 2^-20,
    where the unflushed factors hold over a thousand subnormal entries."""
    case = problems.test_problem(1, 0.5, eps=2.0**-20)
    systems = []
    real_solve = linsolve.solve

    def recording(system, **kwargs):
        systems.append(system)
        return real_solve(system, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linsolve, "solve", recording)
        pipeline.solve_problem(case.boundary, case.data, 128,
                               pipeline.SolveConfig.from_mapping(case.config))
    assert len(systems) == 2
    return tuple(systems)


def _subnormals(lu):
    tiny = np.finfo(float).tiny
    return sum(int(np.count_nonzero((M.data != 0) & (np.abs(M.data) < tiny)))
               for M in (lu.L, lu.U))


def _mode_is_gradual():
    # the smallest subnormal survives a multiplication only while neither
    # flush-to-zero nor denormals-are-zero is set
    return np.nextafter(0.0, 1.0) * 1.0 > 0


@pytest.mark.parametrize("which", ["outer", "strip"])
def test_flushed_factorization_gives_the_same_bits(monkeypatch, which):
    system = _problem1_systems()[("outer", "strip").index(which)]
    x, rep = linsolve.solve(system)
    monkeypatch.setattr(linsolve, "_flush_subnormals", contextlib.nullcontext)
    x_gradual, rep_gradual = linsolve.solve(system)
    assert np.array_equal(x, x_gradual)
    assert rep.fill == rep_gradual.fill


@pytest.mark.skipif(linsolve._LIBM is None, reason="flush works on x86-64 Linux only")
def test_factorization_runs_inside_the_flush(monkeypatch):
    factors = []
    real_splu = linsolve.splu

    def capturing(*args, **kwargs):
        lu = real_splu(*args, **kwargs)
        factors.append(lu)
        return lu

    monkeypatch.setattr(linsolve, "splu", capturing)
    for system in _problem1_systems():
        linsolve.solve(system)
        with monkeypatch.context() as mp:
            mp.setattr(linsolve, "_flush_subnormals", contextlib.nullcontext)
            linsolve.solve(system)
        flushed, gradual = factors[-2:]
        assert _subnormals(flushed) == 0
        assert _subnormals(gradual) > 0


def test_callers_mode_is_restored_after_return_and_raise(monkeypatch):
    linsolve.solve(_system(2.0 * np.eye(3), np.ones(3)))
    assert _mode_is_gradual()

    zero_row = np.eye(4)
    zero_row[2, 2] = 0.0
    with pytest.raises(RuntimeError, match="singular system"):
        linsolve.solve(_system(zero_row, np.ones(4)))
    assert _mode_is_gradual()

    # rank one with nonzero rows: SuperLU itself finds the zero pivot
    with pytest.raises(RuntimeError, match="singular system"):
        linsolve.solve(_system(np.ones((2, 2)), np.ones(2)))
    assert _mode_is_gradual()

    def failing_splu(*args, **kwargs):
        raise SystemError("gstrf was called with invalid arguments")

    monkeypatch.setattr(linsolve, "splu", failing_splu)
    with pytest.raises(RuntimeError, match="sparse LU failed"):
        linsolve.solve(_system(2.0 * np.eye(3), np.ones(3)))
    assert _mode_is_gradual()


def test_without_libm_the_flush_does_nothing(monkeypatch):
    system = _problem1_systems()[0]
    x, _ = linsolve.solve(system)
    monkeypatch.setattr(linsolve, "_LIBM", None)
    with linsolve._flush_subnormals():
        assert _mode_is_gradual()
    x_plain, _ = linsolve.solve(system)
    assert np.array_equal(x, x_plain)
