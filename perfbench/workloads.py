"""Workloads of the spcd benchmark and the checks on their outputs.

Each workload drives spcd only through its public entry points:
``cli.run`` (the ``spcd`` command, in-process), ``pipeline.solve_problem``
and, inside ``spcd table``, ``harness.order_table``.  A workload has a
set-up step and a *sweep*, a fixed list of operations that a run repeats
until its time is up; a sweep returns (case, seconds) per operation.  Every sweep builds fresh ``test_problem`` objects
where a user's call would, so the per-boundary caches of spcd start cold
exactly where a user's would.

README.md in this directory says why each workload exists.
"""

import io
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SOLVE_EPS = 2.0 ** -12
LARGE_EPS = (1.0, 2.0 ** -12)

# tolerances of the comparison with the committed reference outputs
TABLE_RTOL = 1e-9        # relative, on every D of the table
DUMP_ATOL = 1e-9         # max-abs, on every dumped value u
GRID_ATOL = 1e-9         # max-abs, on the sampled nodal values of large-warm
# slack of the invariant 0 <= u <= max f and of the residual check
BOUND_TOL = 1e-9
BACKWARD_ERROR_MAX = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TOY the smoke test."""

    cli_N: int = 256
    resolution: int = 101
    eps_pows: str = "0:20:4"
    N_pows: str = "3:7"
    large_N: int = 512
    large_stride: int = 16   # nodal values compared with the reference


FULL = Sizes()
TOY = Sizes(cli_N=32, resolution=21, eps_pows="0:8:4", N_pows="3:4", large_N=32, large_stride=4)


def _pows(text):
    parts = [int(v) for v in text.split(":")]
    return list(range(parts[0], parts[1] + 1, parts[2] if len(parts) == 3 else 1))


def table_shape(sizes):
    """(number of eps rows, number of N columns) of the table sweep."""
    return len(_pows(sizes.eps_pows)), len(_pows(sizes.N_pows))


def catalog_fmax(problem, beta):
    """Supremum of the catalog right-hand side over the domain.  With
    a = b = 1 the comparison principle bounds every value by it."""
    return (1.0 + beta) ** 2 if problem == 1 else 1.0


class Tally:
    """Operations (solves, table cells) attempted and failed, with the
    reason of every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, label, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{label}: {'; '.join(errors)}")

    def fail(self, label, error):
        """A failure found after the operation was already counted."""
        self.failed = min(self.failed + 1, self.attempted)
        self.errors.append(f"{label}: {error}")


class Run:
    """What a workload needs from the run: spcd's modules, the inputs made
    from the seed, an output directory and the tally."""

    def __init__(self, modules, beta, sizes, outdir, reference):
        self.m = modules
        self.beta = beta
        self.sizes = sizes
        self.outdir = Path(outdir)
        self.reference = reference   # compare with reference/ outputs
        self.tally = Tally()

    def cli(self, argv):
        """``spcd <argv>`` in-process; the table text on stdout is dropped."""
        with redirect_stdout(io.StringIO()):
            return self.m["cli"].run([str(a) for a in argv])


# ---------------------------------------------------------------------------
# Output checks; each returns a list of error strings, empty when correct.


def _bounds_errors(values, fmax):
    if values.size == 0:
        return ["no values"]
    if not np.all(np.isfinite(values)):
        return ["non-finite value"]
    errors = []
    if values.min() < -BOUND_TOL:
        errors.append(f"value {values.min():.3e} < 0")
    if values.max() > fmax * (1 + BOUND_TOL):
        errors.append(f"value {values.max():.6g} > max f = {fmax:.6g}")
    return errors


def check_dump(path, fmax, reference=None):
    """A solution dump: 'x y u' lines, u finite and in [0, max f], and
    equal to the reference dump within DUMP_ATOL when one is given."""
    try:
        xyu = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"unreadable dump: {exc}"]
    if xyu.shape[1] != 3:
        return [f"dump has {xyu.shape[1]} columns"]
    errors = _bounds_errors(xyu[:, 2], fmax)
    if reference is not None and not errors:
        if xyu.shape != reference.shape:
            return [f"dump has {xyu.shape[0]} lines, reference {reference.shape[0]}"]
        if np.max(np.abs(xyu[:, :2] - reference[:, :2])) > 1e-12:
            errors.append("dump lattice differs from the reference")
        du = float(np.max(np.abs(xyu[:, 2] - reference[:, 2])))
        if du > DUMP_ATOL:
            errors.append(f"dump differs from the reference by {du:.3e}")
    return errors


def parse_table_csv(text):
    """{(eps, N): D} over the eps rows of a table.csv; D is NaN when empty."""
    cells = {}
    for line in text.splitlines()[1:]:
        eps, N, D, _ = line.split(",")
        if eps != "uniform":
            cells[(float(eps), int(N))] = float(D) if D else math.nan
    return cells


def check_table(text, sizes, reference=None):
    """Per cell of a table.csv: a list of errors.  D must be finite and
    positive, and within TABLE_RTOL of the reference when one is given."""
    eps_list = [2.0 ** -i for i in _pows(sizes.eps_pows)]
    N_list = [2 ** j for j in _pows(sizes.N_pows)]
    cells = parse_table_csv(text) if text is not None else {}
    ref = parse_table_csv(reference) if reference is not None else None
    out = {}
    for eps in eps_list:
        for N in N_list:
            D = cells.get((eps, N), math.nan)
            errors = []
            if not (math.isfinite(D) and D > 0):
                errors.append(f"D = {D}")
            elif ref is not None and abs(D - ref[(eps, N)]) > TABLE_RTOL * ref[(eps, N)]:
                errors.append(f"D = {D!r}, reference {ref[(eps, N)]!r}")
            out[(eps, N)] = errors
    return out


def nodal_sample(approx, stride):
    """Outer values on every stride-th node plus every strip's values on
    every stride-th node, as one vector."""
    parts = [approx.U0[::stride, ::stride].ravel()]
    parts += [U1[::stride, ::stride].ravel() for _, U1 in approx.strips]
    return np.concatenate(parts)


def check_approx(approx, fmax, stride, reference=None):
    """A GlobalApproximation: outer and strip values finite and in
    [0, max f], sampled values within GRID_ATOL of the reference."""
    values = np.concatenate([approx.U0.ravel()] + [U1.ravel() for _, U1 in approx.strips])
    errors = _bounds_errors(values, fmax)
    if reference is not None and not errors:
        sample = nodal_sample(approx, stride)
        if sample.shape != reference.shape:
            return ["sampled nodes differ in number from the reference"]
        d = float(np.max(np.abs(sample - reference)))
        if d > GRID_ATOL:
            errors.append(f"nodal values differ from the reference by {d:.3e}")
    return errors


def outer_backward_error(operators, approx, data):
    """Normwise backward error of the outer solution, on a fresh assembly."""
    system = operators.assemble_outer(approx.grid, data)
    A, b, x = system.matrix, system.rhs, approx.U0.ravel()
    r = np.max(np.abs(A @ x - b))
    norm_A = np.max(np.asarray(abs(A).sum(axis=1)).ravel())
    return float(r / (norm_A * np.max(np.abs(x)) + np.max(np.abs(b))))


# ---------------------------------------------------------------------------
# Workloads


class CliSolve:
    """``spcd solve`` for problems 1 and 3 at eps = 2^-12, dump included."""

    name = "cli-solve"
    jobs = 1
    problems = (1, 3)
    setup_repeats = 5
    min_sweeps = 1

    def setup(self, run):
        # `spcd solve` builds its case inside the timed call, so set-up is
        # little more than the import
        self.fmax = {p: catalog_fmax(p, run.beta) for p in self.problems}

    def solves_per_op(self, sizes):
        return 1

    def outputs(self, run):
        return [run.outdir / f"solve-p{p}" / "solution.txt" for p in self.problems]

    def sweep(self, run):
        times = []
        for p in self.problems:
            out = run.outdir / f"solve-p{p}"
            argv = ["solve", "--problem", p, "--beta", repr(run.beta),
                    "--eps", repr(SOLVE_EPS), "--N", run.sizes.cli_N,
                    "--resolution", run.sizes.resolution, "--out", out]
            t0 = perf_counter()
            rc = run.cli(argv)
            times.append((f"problem {p}", perf_counter() - t0))
            ref = None
            if run.reference:
                ref = np.load(REFERENCE_DIR / f"solve-p{p}.npz")["xyu"]
            errors = [f"exit code {rc}"] if rc else check_dump(out / "solution.txt", self.fmax[p], ref)
            run.tally.record(f"solve problem {p}", errors)
        return times

    def finish(self, run):
        pass


class Table:
    """``spcd table --problem 1`` over the criterion-6 sweep."""

    setup_repeats = 5
    min_sweeps = 1

    def __init__(self, name, jobs):
        self.name = name
        self.jobs = jobs

    def setup(self, run):
        # as in CliSolve.setup, the case is built inside the timed call
        self.csvs = []

    def solves_per_op(self, sizes):
        """Distinct (eps, N) solves the table needs: N_list plus 2 N_max."""
        n_eps, n_N = table_shape(sizes)
        return n_eps * (n_N + 1)

    def _argv(self, run, jobs, out):
        return ["table", "--problem", 1, "--beta", repr(run.beta),
                "--eps-pows", run.sizes.eps_pows, "--N-pows", run.sizes.N_pows,
                "--jobs", jobs, "--out", out]

    def outputs(self, run):
        out = run.outdir / self.name
        return [out / "table.csv", out / "table.txt"]

    def sweep(self, run):
        out = run.outdir / self.name
        t0 = perf_counter()
        rc = run.cli(self._argv(run, self.jobs, out))
        dt = perf_counter() - t0
        text = (out / "table.csv").read_text() if rc == 0 else None
        ref = (REFERENCE_DIR / "table-p1.csv").read_text() if run.reference else None
        for (eps, N), errors in check_table(text, run.sizes, ref).items():
            run.tally.record(f"{self.name} cell eps={eps:g} N={N}", errors)
        self.csvs.append(text)
        return [("table", dt)]

    def finish(self, run):
        if self.jobs == 1:
            return
        # the pool must write the bytes of the sequential sweep
        out = run.outdir / f"{self.name}-jobs1"
        if run.cli(self._argv(run, 1, out)) != 0:
            run.tally.fail(self.name, "sequential reference sweep failed")
            return
        seq = (out / "table.csv").read_text().splitlines()
        for text in self.csvs:
            lines = text.splitlines() if text is not None else []
            if lines != seq:
                run.tally.fail(self.name, "CSV differs from the --jobs 1 CSV")


class LargeWarm:
    """Library ``solve_problem`` on one problem-1 object at N = 512."""

    name = "large-warm"
    jobs = 1
    setup_repeats = 3
    # LU time here swings with memory traffic from other processes on the
    # host; six solves per run, whatever its time, steady the median
    min_sweeps = 3

    def setup(self, run):
        self.case = self.cfg = None   # free the previous repetition first
        self.last = {}
        pipeline = run.m["pipeline"]
        case = run.m["problems"].test_problem(1, run.beta)
        cfg = pipeline.SolveConfig.from_mapping(case.config)
        # the first solve fills the grid caches of this boundary object
        pipeline.solve_problem(case.boundary, replace(case.data, eps=1.0), run.sizes.large_N, cfg)
        self.case, self.cfg = case, cfg
        self.fmax = catalog_fmax(1, run.beta)

    def solves_per_op(self, sizes):
        return 1

    def outputs(self, run):
        return []

    def sweep(self, run):
        times = []
        ref = np.load(REFERENCE_DIR / "large-p1.npz") if run.reference else None
        for eps in LARGE_EPS:
            data = replace(self.case.data, eps=eps)
            label = f"large solve eps={eps:g}"
            t0 = perf_counter()
            try:
                approx = run.m["pipeline"].solve_problem(
                    self.case.boundary, data, run.sizes.large_N, self.cfg)
            except (ValueError, RuntimeError) as exc:
                approx, errors = None, [f"{type(exc).__name__}: {exc}"]
            times.append((label, perf_counter() - t0))
            if approx is not None:
                expected = ref[f"eps={eps!r}"] if ref is not None else None
                errors = check_approx(approx, self.fmax, run.sizes.large_stride, expected)
                self.last[eps] = (data, approx)
            run.tally.record(label, errors)
        return times

    def finish(self, run):
        for eps, (data, approx) in self.last.items():
            err = outer_backward_error(run.m["operators"], approx, data)
            if not err <= BACKWARD_ERROR_MAX:
                run.tally.fail(f"large solve eps={eps:g}", f"outer backward error {err:.3e}")


def make(name):
    """The workload called ``name``."""
    if name == "cli-solve":
        return CliSolve()
    if name == "table-seq":
        return Table("table-seq", jobs=1)
    if name == "table-pool":
        return Table("table-pool", jobs=2)
    if name == "large-warm":
        return LargeWarm()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cli-solve", "table-seq", "table-pool", "large-warm")
