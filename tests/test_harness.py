import logging
import math
import weakref

import numpy as np
import pytest

from spcd import harness, linsolve, pipeline, problems
from spcd.harness import ConvergenceTable, order_from_differences


BETA = 0.5


def test_zero_case_gives_zero_difference():
    case = problems.manufactured_case(problems.circle(1.0), problems.ZeroSolution(), 0.01)
    D = harness.two_mesh_difference(case, 0.01, 8)
    assert D == 0.0


def test_classical_regime_difference_halves():
    # eps = 1 manufactured case behaves like plain first-order upwinding
    case = problems.manufactured_case(problems.circle(1.0), problems.BubbleExp(), 1.0)
    cache = {}
    D32 = harness.two_mesh_difference(case, 1.0, 32, _cache=cache)
    D64 = harness.two_mesh_difference(case, 1.0, 64, _cache=cache)
    ratio = D32 / D64
    assert 1.5 <= ratio <= 2.5


def test_order_log_ratio():
    assert order_from_differences(0.2, 0.1) == pytest.approx(1.0)
    assert order_from_differences(0.1, 0.2) == pytest.approx(-1.0)
    # swapping the arguments negates the order
    a, b = 0.37, 0.11
    assert order_from_differences(a, b) == pytest.approx(-order_from_differences(b, a))
    assert math.isnan(order_from_differences(None, 0.1))
    assert math.isnan(order_from_differences(0.1, 0.0))


def test_table_exact_halving_gives_unit_orders():
    eps_list = [1.0, 0.5]
    N_list = [8, 16, 32]
    D = np.array([[0.4, 0.2, 0.1], [0.8, 0.4, 0.2]])
    table = ConvergenceTable.from_differences(eps_list, N_list, D)
    assert np.allclose(table.p, 1.0)
    assert np.allclose(table.p_uniform, 1.0)
    assert np.array_equal(table.D_uniform, [0.8, 0.4, 0.2])


def test_table_single_eps_uniform_row_matches():
    table = ConvergenceTable.from_differences([0.5], [8, 16], np.array([[0.3, 0.12]]))
    assert np.array_equal(table.D_uniform, table.D[0])
    assert np.allclose(table.p_uniform, table.p[0])


def test_uniform_row_invariant_under_eps_reordering():
    rng = np.random.default_rng(0)
    D = rng.uniform(0.01, 1.0, (4, 3))
    t1 = ConvergenceTable.from_differences([1, 2, 3, 4], [8, 16, 32], D)
    perm = [2, 0, 3, 1]
    t2 = ConvergenceTable.from_differences([perm[i] for i in range(4)], [8, 16, 32], D[perm])
    assert np.array_equal(t1.D_uniform, t2.D_uniform)
    assert np.array_equal(t1.p_uniform, t2.p_uniform)


def test_missing_cells_are_excluded(caplog):
    D = np.array([[0.4, np.nan, 0.1], [0.8, 0.4, 0.2]])
    table = ConvergenceTable.from_differences([1.0, 0.5], [8, 16, 32], D)
    assert math.isnan(table.p[0, 0]) and math.isnan(table.p[0, 1])
    # the uniform row skips the missing cell instead of zeroing it
    assert table.D_uniform[1] == 0.4


def test_failed_cells_logged_not_raised(caplog):
    case = problems.test_problem(1, BETA)
    bad = pipeline.SolveConfig(R=0.2)  # violates the width bound 1/6
    with caplog.at_level(logging.WARNING, logger="spcd.harness"):
        table = harness.order_table(case, [1.0], [8], bad)
    assert np.isnan(table.D).all()
    assert any("failed" in r.message for r in caplog.records)


def test_csv_layout():
    table = ConvergenceTable.from_differences([1.0, 0.25], [8, 16], np.array([[0.4, 0.2], [0.3, 0.1]]))
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "eps,N,D,p"
    assert len(lines) == 1 + 2 * 2 + 2
    assert lines[1].startswith("1,8,")
    assert lines[-2].startswith("uniform,8,")
    first = lines[1].split(",")
    assert first[3] == "1.0000"
    # the last-N column has no order entry
    assert lines[2].split(",")[3] == ""


def test_text_render_layout():
    table = ConvergenceTable.from_differences(
        [1.0, 0.5], [8, 16, 32], np.array([[0.4, 0.2, 0.1], [0.8, 0.4, 0.2]]))
    text = table.render_text()
    lines = text.strip().split("\n")
    assert "N=8" in lines[0] and "N=16" in lines[0] and "N=32" not in lines[0]
    assert lines[2].strip().startswith("1.000000")
    assert "1.0000" in lines[2]
    assert lines[-1].strip().startswith("p_uniform")


def test_order_table_requires_doublings():
    case = problems.test_problem(1, BETA)
    with pytest.raises(ValueError):
        harness.order_table(case, [1.0], [8, 24])


@pytest.mark.parametrize("jobs", [0, -3])
def test_order_table_rejects_fewer_than_one_job(monkeypatch, jobs):
    calls = _recording_solve(monkeypatch)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        harness.order_table(problems.test_problem(1, BETA), [1.0], [8], jobs=jobs)
    assert calls == []


def test_two_mesh_difference_problem1_small():
    case = problems.test_problem(1, BETA)
    cache = {}
    D8 = harness.two_mesh_difference(case, 1.0, 8, _cache=cache)
    D16 = harness.two_mesh_difference(case, 1.0, 16, _cache=cache)
    assert D8 > 0 and D16 > 0
    assert np.isfinite(D8) and np.isfinite(D16)


def test_order_table_sequential_matches_pool():
    case = problems.test_problem(1, BETA)
    eps_list = [1.0, 2.0**-8]
    N_list = [8, 16]
    seq = harness.order_table(case, eps_list, N_list, jobs=1)
    par = harness.order_table(case, eps_list, N_list, jobs=2)
    assert np.array_equal(seq.D, par.D)
    assert seq.to_csv() == par.to_csv()


# ---------------------------------------------------------------------------
# row sweep

SWEEP_EPS = [1.0, 2.0**-8]
SWEEP_N = [8, 16, 32]


@pytest.fixture(scope="module")
def clean_table():
    return harness.order_table(problems.test_problem(1, BETA), SWEEP_EPS, SWEEP_N, jobs=1)


def _recording_solve(monkeypatch, fail_at=(), alive=None):
    """Replace pipeline.solve_problem by a wrapper that records (eps, N)
    per call and raises at the (eps, N) pairs in ``fail_at``.  ``alive``,
    a list, receives per call the number of earlier solutions still
    referenced."""
    calls = []
    solve = pipeline.solve_problem
    refs = []

    def wrapper(boundary, data, N, config=None):
        calls.append((data.eps, N))
        if alive is not None:
            alive.append(sum(r() is not None for r in refs))
        if (data.eps, N) in fail_at:
            raise RuntimeError("injected failure")
        sol = solve(boundary, data, N, config)
        refs.append(weakref.ref(sol))
        return sol

    monkeypatch.setattr(pipeline, "solve_problem", wrapper)
    return calls


def test_row_sweep_solves_each_N_once(monkeypatch, clean_table):
    alive = []
    calls = _recording_solve(monkeypatch, alive=alive)
    table = harness.order_table(problems.test_problem(1, BETA), SWEEP_EPS, SWEEP_N, jobs=1)
    assert len(calls) == len(SWEEP_EPS) * (len(SWEEP_N) + 1)
    # a row holds only the solution at N while it solves 2N
    assert max(alive) == 1
    assert sorted(calls) == [(eps, N) for eps in sorted(SWEEP_EPS) for N in SWEEP_N + [64]]
    assert np.array_equal(table.D, clean_table.D)


def test_failed_solve_is_not_retried(monkeypatch, caplog, clean_table):
    eps = SWEEP_EPS[1]
    calls = _recording_solve(monkeypatch, fail_at={(eps, 16)})
    with caplog.at_level(logging.WARNING, logger="spcd.harness"):
        table = harness.order_table(problems.test_problem(1, BETA), SWEEP_EPS, SWEEP_N, jobs=1)
    assert calls.count((eps, 16)) == 1
    failed = np.isnan(table.D)
    # the cells (8, 16) and (16, 32) of that row need the failed solve
    assert np.argwhere(failed).tolist() == [[1, 0], [1, 1]]
    assert np.array_equal(table.D[~failed], clean_table.D[~failed])
    messages = [r.message for r in caplog.records if "injected failure" in r.message]
    assert len(messages) == 2


def test_out_of_memory_fails_only_its_cells(monkeypatch, caplog, clean_table):
    # every system at N = 16 has 17^2 unknowns; SuperLU running out of
    # memory there must fail the cells that need N = 16, not the table
    splu = linsolve.splu

    def failing_splu(A, *args, **kwargs):
        if A.shape[0] == 17 * 17:
            raise SystemError("gstrf was called with invalid arguments")
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(linsolve, "splu", failing_splu)
    with caplog.at_level(logging.WARNING, logger="spcd.harness"):
        table = harness.order_table(problems.test_problem(1, BETA), SWEEP_EPS, SWEEP_N, jobs=1)
    failed = np.isnan(table.D)
    assert np.argwhere(failed).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert np.array_equal(table.D[~failed], clean_table.D[~failed])
    assert sum("sparse LU failed on 289 unknowns" in r.message for r in caplog.records) == 4
