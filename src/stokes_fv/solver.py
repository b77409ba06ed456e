"""Direct solution of the assembled saddle systems and spectral probes.

`solve` factors the saddle block with the first pressure dof pinned instead
of the bordered matrix: the dense zero-mean multiplier row and column ruin
the fill-reducing ordering.  The zero mean and the multiplier are recovered
afterwards, and the residual is measured on the full bordered system.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .fields import ScalarField, VectorField, zero_mean_project
from .assembly import NATURAL, SaddleSystem
from .operators import array_to_vector_field

# Sparse direct factorizations `solve` accepts.
BACKENDS = ("splu",)


@dataclass
class SolveReport:
    """Solution fields plus diagnostics of one direct solve."""

    u: VectorField | None
    p: ScalarField | None
    multiplier: float
    residual_norm: float
    singular: bool
    singular_reason: str | None
    rcond_est: float | None
    stats: dict = field(default_factory=dict)


def _zero_mean_solve(lu, v: np.ndarray, pin: int, w: np.ndarray, trans: str = "N") -> np.ndarray:
    """Apply the zero-mean solution operator of the unbordered saddle block.

    The part of the pressure data along `w` is removed first (the
    multiplier carries it), so the pressure data sums to zero.  `lu`, the
    factor of the block with pressure dof `pin` pinned to zero and its
    implied equation dropped, solves the rest, and the pressure is then
    shifted to zero `w`-weighted mean.  With `trans="T"` this applies the
    adjoint operator.
    """
    b = np.ravel(v).copy()
    b[pin:] -= w * (b[pin:].sum() / w.sum())
    x = np.insert(lu.solve(np.delete(b, pin), trans=trans), pin, 0.0)
    x[pin:] -= (w @ x[pin:]) / w.sum()
    return x


def _rcond_estimate(block: sp.csc_matrix, lu, pin: int, w: np.ndarray) -> float:
    norm1 = float(abs(block).sum(axis=0).max())
    inv_op = spla.LinearOperator(
        block.shape,
        matvec=lambda b: _zero_mean_solve(lu, b, pin, w),
        rmatvec=lambda b: _zero_mean_solve(lu, b, pin, w, trans="T"),
        dtype=block.dtype,
    )
    inv_norm1 = float(spla.onenormest(inv_op))
    if norm1 == 0.0 or inv_norm1 == 0.0:
        return 0.0
    return 1.0 / (norm1 * inv_norm1)


def solve(
    system: SaddleSystem,
    tol: float = 1e-10,
    backend: str = "splu",
    rcond_floor: float = 1e-12,
) -> SolveReport:
    """Solve the saddle system by sparse direct factorization.

    The bordered `system.matrix` is not factored.  The unbordered block
    [[A, -B^T], [B, C]] determines the pressure up to a constant (1^T B = 0 and
    C 1 = 0, so its pressure rows sum to zero), so the first pressure dof is
    pinned to zero, its implied equation is dropped, and the remaining block
    is factored by `splu` (COLAMD ordering, partial pivoting) and refined
    once.  The pressure is then shifted to zero area-weighted mean and the
    multiplier recovered from the full pressure rows; the relative residual
    is measured against the full bordered `system.matrix`.  `backend` must
    be "splu".

    The returned pressure has exactly zero area-weighted mean.  The report
    is flagged singular when the factorization fails, when the reciprocal
    condition estimate of the zero-mean solution operator falls below
    `rcond_floor`, or when the system was assembled from the unstabilized
    cell-pressure scheme, whose checkerboard pressure mode loses control
    under refinement and must be surfaced rather than silently solved.  A
    flagged system may still carry the factored solution when one exists.
    """
    if tol <= 0:
        raise SolverError("tolerance must be positive")
    if backend not in BACKENDS:
        raise SolverError(f"unknown backend {backend!r}")
    matrix = system.matrix.tocsc()
    rhs = system.rhs
    pin = system.n_velocity  # first pressure dof
    m = pin + system.n_p  # size of the unbordered block
    w = system.mean_weights
    block = matrix[:m, :m]
    keep = np.delete(np.arange(m), pin)
    pinned = block[keep][:, keep].tocsc()

    singular = False
    reason = None
    rcond = None
    stats: dict = {"backend": backend}
    x = None
    try:
        t0 = time.perf_counter()
        lu = spla.splu(pinned)
        stats["factor_s"] = time.perf_counter() - t0
        stats["factor_nnz"] = int(lu.L.nnz + lu.U.nnz)
        stats["fill_factor"] = float(stats["factor_nnz"] / max(matrix.nnz, 1))
        b = rhs[:m]
        x = _zero_mean_solve(lu, b, pin, w)
        # one step of iterative refinement
        x = x + _zero_mean_solve(lu, b - block @ x, pin, w)
        t0 = time.perf_counter()
        rcond = _rcond_estimate(block, lu, pin, w)
        stats["rcond_s"] = time.perf_counter() - t0
    except RuntimeError as err:
        singular = True
        reason = f"factorization failed: {err}"

    if x is not None and not np.all(np.isfinite(x)):
        singular = True
        reason = reason or "factorization produced non-finite values"
        x = None

    if rcond is not None and rcond < rcond_floor:
        singular = True
        reason = reason or f"reciprocal condition estimate {rcond:.2e} below {rcond_floor:.0e}"

    if system.spec.kind == NATURAL:
        # Structurally unstable pressure space: no jump control, inf-sup
        # constant of the checkerboard mode decays under refinement.
        singular = True
        reason = (
            "unstabilized cell-pressure scheme: checkerboard pressure mode "
            "is not controlled (rcond_est="
            + (f"{rcond:.2e}" if rcond is not None else "n/a")
            + ")"
        )

    if x is None:
        return SolveReport(None, None, float("nan"), float("inf"), True, reason, rcond, stats)

    # the mean constraint row, then the multiplier from the pressure rows
    x[pin:] += rhs[-1] / w.sum()
    r_p = (b - block @ x)[pin:]
    multiplier = float(w @ r_p / (w @ w))
    x = np.append(x, multiplier)

    res = rhs - matrix @ x
    rhs_norm = float(np.linalg.norm(rhs))
    residual = float(np.linalg.norm(res)) / (rhs_norm if rhs_norm > 0 else 1.0)
    if residual > tol and not singular:
        singular = True
        reason = f"relative residual {residual:.2e} above tolerance {tol:.0e}"

    u = array_to_vector_field(system.grid, x[:pin])
    p = zero_mean_project(system.cell_pressure(x[pin:m]))
    return SolveReport(u, p, multiplier, residual, singular, reason, rcond, stats)


def schur_smallest_eigen(system: SaddleSystem, dense_cap: int = 4096) -> float | None:
    """Smallest pressure Schur-complement eigenvalue on zero-mean pressures.

    Returns the squared inf-sup constant of the system's pressure space:
    the smallest eigenvalue of M^-1 (B A^-1 B^T) restricted to the subspace
    of zero area-weighted mean, with M the diagonal pressure mass matrix.
    Dense computation; `None` when the zero-mean space is trivial.
    """
    n_p = system.n_p
    if n_p > dense_cap:
        raise SolverError(f"pressure dimension {n_p} exceeds dense cap {dense_cap}")
    if n_p <= 1:
        return None
    lu = spla.splu(system.A.tocsc())
    bt = np.asarray(system.B.todense()).T  # (2n, n_p)
    x = lu.solve(bt)
    s_mat = np.asarray(system.B @ x)
    s_mat = 0.5 * (s_mat + s_mat.T)
    masses = system.mean_weights
    d_inv_sqrt = 1.0 / np.sqrt(masses)
    s_hat = s_mat * np.outer(d_inv_sqrt, d_inv_sqrt)
    # orthonormal basis of the zero-mean constraint in scaled variables
    w = np.sqrt(masses)
    basis = scipy.linalg.null_space(w[None, :])
    reduced = basis.T @ s_hat @ basis
    eigvals = scipy.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    return float(eigvals[0])
