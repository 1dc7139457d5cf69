"""Deterministic direct solution of the assembled sparse systems."""

import contextlib
import ctypes
import platform
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = ["SolveReport", "solve"]

_FTZ_DAZ = 0x8040  # MXCSR flush-to-zero and denormals-are-zero bits


class _FeMode(ctypes.Structure):
    """glibc's ``femode_t`` on x86-64: the x87 control word and MXCSR."""
    _fields_ = [("control_word", ctypes.c_uint16), ("reserved", ctypes.c_uint16),
                ("mxcsr", ctypes.c_uint32)]


def _load_libm():
    # CDLL(None) is the running process, which links libm; find_library
    # would fork ldconfig or a compiler
    if sys.platform != "linux" or platform.machine() not in ("x86_64", "AMD64"):
        return None
    libm = ctypes.CDLL(None)
    if not (hasattr(libm, "fegetmode") and hasattr(libm, "fesetmode")):
        return None
    return libm


_LIBM = _load_libm()


@contextlib.contextmanager
def _flush_subnormals():
    """Flush subnormal operands and results to zero in the calling thread.

    The caller's floating-point modes are restored on exit; the exception
    status flags are left alone.  Does nothing without ``_LIBM``.
    """
    libm = _LIBM
    saved = _FeMode()
    if libm is None or libm.fegetmode(ctypes.byref(saved)) != 0:
        yield
        return
    flushed = _FeMode.from_buffer_copy(saved)
    flushed.mxcsr |= _FTZ_DAZ
    libm.fesetmode(ctypes.byref(flushed))
    try:
        yield
    finally:
        libm.fesetmode(ctypes.byref(saved))


@dataclass
class SolveReport:
    residual_norm: float
    iterations: int
    method: str
    fill: int  # entries SuperLU stores for L and U together


def solve(system, rtol: float = 1e-10, atol: float = 1e-12):
    """Solve A x = b by sparse LU with a verified residual.

    Rows are equilibrated by power-of-two factors before factorization,
    which leaves the exact solution untouched (and the computed one
    bitwise-invariant under row rescaling of the input) while keeping the
    residual test meaningful for badly row-scaled systems.

    The factorization orders by minimum degree on A + A^T and takes the
    diagonal pivot whenever it is nonzero, with no threshold pivoting.
    Every operator the pipeline assembles passes
    ``operators._check_mmatrix``, a positive row scaling keeps it an
    M-matrix, and Gaussian elimination without pivoting is stable for
    M-matrices (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., ch. 9); pivoting would only add fill.  The residual of the
    equilibrated system is always verified, so other inputs either solve
    to the target or raise: up to five steps of iterative refinement are
    applied before giving up.  A factorization that runs out of memory
    raises ``RuntimeError`` naming the number of unknowns.

    The factorization, and only it, runs with subnormals flushed to zero.
    For the upwind systems the fill entries decay geometrically along the
    flow, by about eps/(a h) per node, and at small eps many fall below
    2.2e-308, where x86 arithmetic takes a slow microcode assist.  Only
    values that small change; the triangular solves and the residual check
    run in the caller's mode.  The flush sets the MXCSR of the calling
    thread, where SuperLU runs, so solves on other threads are neither
    affected nor in need of anything extra.  Off x86-64 Linux it does
    nothing: results are the same, only slower at small eps.
    """
    A = system.matrix.tocsr()
    b = system.rhs
    row_max = np.zeros(A.shape[0])
    if A.nnz:
        absA = abs(A)
        row_max = np.asarray(absA.max(axis=1).todense()).ravel()
    if np.any(row_max <= 0) or not np.all(np.isfinite(row_max)):
        raise RuntimeError("singular system")
    scale = np.exp2(-np.ceil(np.log2(row_max)))
    As = (sp.diags(scale) @ A).tocsc()
    bs = scale * b
    try:
        with _flush_subnormals():
            lu = splu(As, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise RuntimeError("singular system") from exc
    except (SystemError, MemoryError) as exc:
        # SuperLU reports running out of memory as a SystemError
        raise RuntimeError(f"sparse LU failed on {A.shape[0]} unknowns, "
                           f"most likely out of memory: {exc}") from exc
    x = lu.solve(bs)
    target = rtol * float(np.max(np.abs(bs)) if bs.size else 0.0) + atol
    history = []
    res = float(np.max(np.abs(bs - As @ x)))
    history.append(res)
    iters = 0
    # written as `not res <= target` so that a NaN residual fails too
    while not res <= target and iters < 5:
        x = x + lu.solve(bs - As @ x)
        res = float(np.max(np.abs(bs - As @ x)))
        history.append(res)
        iters += 1
    if not res <= target:
        raise RuntimeError(
            f"solve did not reach residual target {target:.3e}; history {history}"
        )
    return x, SolveReport(residual_norm=res, iterations=iters, method="splu",
                          fill=int(lu.nnz))
