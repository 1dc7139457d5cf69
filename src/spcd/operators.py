"""Sparse assembly of the upwind difference operators.

Two systems are built: the outer scheme on the uniform enclosing grid,

    -eps*(d2x + d2y) u + a*Dx^- u + b*u = f        (inside nodes)
    u = 0                                          (outside nodes)

and the strip scheme in boundary-fitted (r, t) coordinates, where the
transformed Laplacian carries the metric factors eta = 1 - kappa*r and
zeta = 1/(tau*eta) and both convection directions are upwinded by sign:

    -eps/eta * Dr(eta Dr u) - eps*zeta * Dt(zeta Dt u)
        + (a n1) Dr^{+-} u + (a n2 zeta) Dt^{+-} u + b u = f.

Every assembled row has a positive diagonal and nonpositive off-diagonal
entries, so both operators satisfy a discrete comparison principle.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import frame_arrays, offset_points

__all__ = [
    "ProblemData",
    "SparseSystem",
    "assemble_outer",
    "assemble_strip",
    "apply",
]


@dataclass
class ProblemData:
    """Coefficient fields of -eps*Lap(u) + a*u_x + b*u = f.

    ``a``, ``b`` and ``f`` are vectorized callables of (x, y); ``alpha``
    is a positive lower bound of ``a`` used by the mesh transition-point
    formula.  Bounds a >= alpha and b >= 0 are enforced at every node
    during assembly.
    """

    a: object
    b: object
    f: object
    eps: float
    alpha: float


@dataclass
class SparseSystem:
    """Row-compressed linear system plus node bookkeeping.

    ``shape`` is the (rows, cols) layout of the underlying tensor grid and
    ``dirichlet`` flags rows that only pin a value.  Unknown k corresponds
    to node (i, j) = (k // shape[1], k % shape[1]).
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    shape: tuple

    @property
    def n(self) -> int:
        return self.rhs.size

    def node_index(self, i, j):
        return np.asarray(i) * self.shape[1] + np.asarray(j)

    def dump_triplets(self, stream):
        """Write 'row col value' triplets plus rhs for debugging."""
        coo = self.matrix.tocoo()
        stream.write(f"{self.n} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            stream.write(f"{r} {c} {v:.17g}\n")
        for r, v in enumerate(self.rhs):
            stream.write(f"rhs {r} {v:.17g}\n")


def _check_mmatrix(rows, cols, vals, n):
    diag_mask = rows == cols
    diag_vals = np.zeros(n)
    np.add.at(diag_vals, rows[diag_mask], vals[diag_mask])
    if np.any(diag_vals <= 0) or np.any(vals[~diag_mask] > 0):
        raise RuntimeError("non-monotone row")


def _coefficients(data, X, Y):
    """a, b and f at the nodes (X, Y).  Raises ``ValueError`` naming the
    field when a value is not finite, and when a < alpha or b < 0."""
    fields = []
    for name in ("a", "b", "f"):
        v = np.asarray(getattr(data, name)(X, Y), dtype=float)
        bad = np.count_nonzero(~np.isfinite(v))
        if bad:
            raise ValueError(f"{name} is not finite at {bad} of {v.size} nodes")
        fields.append(v)
    a, b, f = fields
    if np.any(a < data.alpha) or np.any(b < 0):
        raise ValueError("coefficient bound violated")
    return a, b, f


def assemble_outer(grid, data: ProblemData) -> SparseSystem:
    """Outer upwind system on the enclosing rectangle.

    Inside nodes carry the five-point stencil with backward differencing
    of the convection term (a > 0 throughout); outside nodes carry unit
    diagonal rows with zero right-hand side, which realizes the zero
    extension of the solution beyond the domain.
    """
    N = grid.N
    n1 = N + 1
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    inside = grid.inside
    hx, hy = grid.hx, grid.hy
    eps = data.eps

    ii, jj = np.where(inside)
    a, b, f = _coefficients(data, X[ii, jj], Y[ii, jj])

    k = ii * n1 + jj
    west = -eps / hx**2 - a / hx
    east = np.full_like(a, -eps / hx**2)
    south = np.full_like(a, -eps / hy**2)
    north = np.full_like(a, -eps / hy**2)
    diag = 2 * eps / hx**2 + 2 * eps / hy**2 + a / hx + b

    all_k = np.arange(n1 * n1)
    outside_k = all_k[~inside.ravel()]

    rows = np.concatenate([outside_k, k, k, k, k, k])
    cols = np.concatenate([outside_k, k, k - n1, k + n1, k - 1, k + 1])
    vals = np.concatenate([np.ones(outside_k.size), diag, west, east, south, north])

    rhs = np.zeros(n1 * n1)
    rhs[k] = f
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n1 * n1, n1 * n1))
    _check_mmatrix(rows, cols, vals, n1 * n1)
    return SparseSystem(matrix=matrix, rhs=rhs, shape=(n1, n1))


def assemble_strip(mesh, boundary, data: ProblemData, inner_bc, outer_bc: float = 0.0) -> SparseSystem:
    """Strip system in boundary-fitted coordinates on a Shishkin mesh.

    ``inner_bc`` supplies Dirichlet values on the inner edge r = R and on
    the two arc-end columns; it is either a full (nr+1, nt+1) array whose
    boundary entries are read, or a vectorized callable of the Cartesian
    node coordinates.  The r = 0 edge is pinned to ``outer_bc`` (zero for
    the homogeneous problem).

    Geometric factors are evaluated at the column parameters t_j, with eta
    at the r half-nodes and zeta at the t half-nodes; a, b and f are
    evaluated at the Cartesian image of each node.
    """
    r = mesh.r
    t = mesh.t
    nr = r.size - 1
    nt = t.size - 1
    eps = data.eps

    _, _, tau, kappa, n1, n2 = frame_arrays(boundary, t)
    tmid = 0.5 * (t[:-1] + t[1:])
    _, _, tau_h, kappa_h, _, _ = frame_arrays(boundary, tmid)

    R2 = np.broadcast_to(r[:, None], (r.size, t.size))
    eta = 1.0 - kappa[None, :] * r[:, None]
    r_half = 0.5 * (r[:-1] + r[1:])
    eta_rhalf = 1.0 - kappa[None, :] * r_half[:, None]          # (nr, nt+1)
    eta_thalf = 1.0 - kappa_h[None, :] * r[:, None]             # (nr+1, nt)
    if np.min(eta) <= 0 or np.min(eta_rhalf) <= 0 or np.min(eta_thalf) <= 0:
        raise ValueError("strip exceeds curvature radius")
    zeta = 1.0 / (tau[None, :] * eta)
    zeta_thalf = 1.0 / (tau_h[None, :] * eta_thalf)

    X, Y = offset_points(boundary, R2, np.broadcast_to(t[None, :], R2.shape))
    a, b, f = _coefficients(data, X, Y)

    h = np.diff(r)                      # h[i] = r_{i+1} - r_i
    k_t = np.diff(t)
    hbar = 0.5 * (h[:-1] + h[1:])       # at interior r nodes 1..nr-1
    kbar = 0.5 * (k_t[:-1] + k_t[1:])

    I, J = np.meshgrid(np.arange(1, nr), np.arange(1, nt), indexing="ij")
    I, J = I.ravel(), J.ravel()
    nt1 = nt + 1
    k = I * nt1 + J

    eta_c = eta[I, J]
    eta_up = eta_rhalf[I, J]            # eta at (r_i + r_{i+1})/2
    eta_dn = eta_rhalf[I - 1, J]
    h_up = h[I]
    h_dn = h[I - 1]
    hb = hbar[I - 1]

    zeta_c = zeta[I, J]
    zeta_up = zeta_thalf[I, J]          # zeta at t_{j+1/2}
    zeta_dn = zeta_thalf[I, J - 1]
    k_up = k_t[J]
    k_dn = k_t[J - 1]
    kb = kbar[J - 1]

    # radial diffusion: -eps/(eta*hbar) * (eta_up D+ - eta_dn D-)
    cN = -eps * eta_up / (eta_c * hb * h_up)
    cS = -eps * eta_dn / (eta_c * hb * h_dn)
    # tangential diffusion: -eps*zeta/kbar * (zeta_up D+ - zeta_dn D-)
    cE = -eps * zeta_c * zeta_up / (kb * k_up)
    cW = -eps * zeta_c * zeta_dn / (kb * k_dn)
    diag = -(cN + cS + cE + cW) + b[I, J]

    # upwinded convection, radial speed a*n1 and tangential speed a*n2*zeta
    cr = a[I, J] * n1[J]
    crp = np.maximum(cr, 0.0)
    crm = np.minimum(cr, 0.0)
    diag += crp / h_dn - crm / h_up
    cS = cS - crp / h_dn
    cN = cN + crm / h_up

    ct = a[I, J] * n2[J] * zeta_c
    ctp = np.maximum(ct, 0.0)
    ctm = np.minimum(ct, 0.0)
    diag += ctp / k_dn - ctm / k_up
    cW = cW - ctp / k_dn
    cE = cE + ctm / k_up

    # Dirichlet values: r = 0 edge is outer_bc, the rest of the boundary
    # takes inner_bc.
    n_total = (nr + 1) * nt1
    bc_mask = np.zeros((nr + 1, nt1), dtype=bool)
    bc_mask[0, :] = bc_mask[nr, :] = True
    bc_mask[:, 0] = bc_mask[:, nt] = True
    bc_vals = np.zeros((nr + 1, nt1))
    if callable(inner_bc):
        vals = np.asarray(inner_bc(X, Y), dtype=float)
        bc_vals[bc_mask] = vals[bc_mask]
    else:
        arr = np.asarray(inner_bc, dtype=float)
        if arr.shape != (nr + 1, nt1):
            raise ValueError("inner_bc array must cover the full strip mesh")
        bc_vals[bc_mask] = arr[bc_mask]
    bc_vals[0, :] = outer_bc

    bc_k = np.where(bc_mask.ravel())[0]
    rows = np.concatenate([bc_k, k, k, k, k, k])
    cols = np.concatenate([bc_k, k, k - nt1, k + nt1, k - 1, k + 1])
    vals = np.concatenate([np.ones(bc_k.size), diag, cS, cN, cW, cE])
    rhs = np.zeros(n_total)
    rhs[k] = f[I, J]
    rhs[bc_k] = bc_vals.ravel()[bc_k]

    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n_total, n_total))
    _check_mmatrix(rows, cols, vals, n_total)
    return SparseSystem(matrix=matrix, rhs=rhs, shape=(nr + 1, nt1))


def apply(system: SparseSystem, z) -> np.ndarray:
    """Matrix-vector product of an assembled system."""
    z = np.asarray(z, dtype=float)
    if z.shape != (system.n,):
        raise ValueError(f"vector has length {z.size}, expected {system.n}")
    return system.matrix @ z
