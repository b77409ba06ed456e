"""Solution of the assembled saddle systems, and spectral probes.

`solve` has two backends.  Neither factors the bordered matrix: the dense
zero-mean multiplier row and column would ruin any fill-reducing ordering.
Both solve the unbordered block on zero-mean pressures, refine once, and
share the tail that recovers the zero mean and the multiplier and measures
the residual on the full bordered system.

The direct backend, "splu" (the default, used by `stokes-fv solve`),
factors the block with the first pressure dof pinned.  The pinned block is
assembled, scaled and permuted in one pass straight from the system's A, B
and C blocks, so the only sparse matrix alive next to the factor is the one
SuperLU factors: no slice or copy of the bordered matrix.  Every block of
the saddle matrix couples a node (a cell, or a 2x2 cluster for
cluster-constant pressure) only to its four neighbours, so the pinned block
is factored in a nested-dissection order of the node rectangle, the
fill-optimal order on a regular mesh (George, SIAM J. Numer. Anal. 10,
1973), after a symmetric diagonal scaling that makes SuperLU's diagonal
pivot test independent of the mesh size and the stabilization strength.
Its rcond estimate is taken on that scaled block, so it does not track the
mesh's units.

The iterative backend, "schur-cg" (used by the convergence studies), runs
preconditioned CG on the pressure Schur complement B A^-1 B^T + C (Verfuerth,
IMA J. Numer. Anal. 4, 1984), with the grid's factor-free velocity solve for
A^-1 and the diagonal pressure mass as preconditioner: no factor, and a
step count that does not grow with the grid.

`schur_smallest_eigen`, the inf-sup probe, factors the pinned block without
its stabilization the same way as "splu" and runs shift-invert Lanczos at
shift 0 on its zero-mean pressure solve: a few dozen solves with one sparse
factor, and no dense array.  It returns 0 when that block is singular to
working precision.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .fields import ScalarField, VectorField, zero_mean_project
from .assembly import CLUSTER_CONSTANT, NATURAL, SaddleSystem, _grid_operators
from .operators import array_to_vector_field

# `solve`'s backends: the sparse direct factor, and CG on the pressure Schur
# complement.
BACKENDS = ("splu", "schur-cg")

# Nested dissection stops at blocks of at most this many nodes per side.
# Smaller leaves leave a cell's own pressure without a usable pivot: on
# uniform grids B couples it to its own velocity with weight 0.
_LEAF_SIDE = 4
# SuperLU takes the diagonal pivot unless it is below this share of the
# column's largest entry.
_DIAG_PIVOT_THRESH = 0.01
# Reciprocal condition estimate below which a system counts as singular:
# that of the scaled pinned factor, or the ratio of CG's extreme Ritz values.
# `solve` flags the system, `schur_smallest_eigen` returns 0.
_RCOND_FLOOR = 1e-12
# Schur-complement CG stops at this relative residual in each of its two
# passes, the solve and its refinement, so the refined solution sits at
# rounding level; or, short of it, after this many steps per pass.  Over
# both passes on ms1 at n = 32..256 the stable schemes take 32-74 steps at
# the paper's lambdas and up to 363 at lambda = 1e-3; `natural` takes 1074
# at n = 256.
_CG_RTOL = 1e-10
_CG_MAXITER = 1000
# `ru_maxrss` is in kilobytes on Linux and in bytes on macOS.
_MAXRSS_PER_MB = 1024.0**2 if sys.platform == "darwin" else 1024.0


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


def _dissection_blocks(ny: int, nx: int) -> np.ndarray:
    """Elimination rank of the block holding each node of an ny-by-nx
    node rectangle, flattened row by row.

    The rectangle is cut across its longer side at the middle line; the two
    parts are ranked first and the one-node-wide separator after them, down
    to leaves of at most `_LEAF_SIDE` nodes per side.
    """
    rank = np.empty((ny, nx), dtype=np.intp)
    count = 0

    def split(j0, j1, i0, i1):
        nonlocal count
        if j1 - j0 <= _LEAF_SIDE and i1 - i0 <= _LEAF_SIDE:
            rank[j0:j1, i0:i1] = count
        elif i1 - i0 >= j1 - j0:
            mid = (i0 + i1) // 2
            split(j0, j1, i0, mid)
            split(j0, j1, mid + 1, i1)
            rank[j0:j1, mid] = count
        else:
            mid = (j0 + j1) // 2
            split(j0, mid, i0, i1)
            split(mid + 1, j1, i0, i1)
            rank[mid, i0:i1] = count
        count += 1

    split(0, ny, 0, nx)
    return rank.ravel()


def _dissection_order(system: SaddleSystem) -> np.ndarray:
    """Nested-dissection order of the unbordered block's dofs.

    The nodes are the cells, or the clusters when the pressure lives on
    clusters.  Within each block come its u1, then its u2, then its
    pressure dofs, each in index order.
    """
    grid = system.grid
    if system.spec.kind == CLUSTER_CONSTANT:
        part = system.spec.partition
        ranks = _dissection_blocks(part.ncy, part.ncx)
        cell_ranks = ranks[part.cluster_of]
    else:
        ranks = cell_ranks = _dissection_blocks(grid.ny, grid.nx)
    # dofs are numbered u1, u2, p, so a stable sort keeps that order per block
    return np.argsort(np.concatenate([cell_ranks, cell_ranks, ranks]), kind="stable")


def _symmetric_scaling(system: SaddleSystem, C: sp.spmatrix) -> np.ndarray:
    """Diagonal D with unit-sized diagonal in D [[A, -B^T], [B, C]] D.

    Velocities get diag(A)^-1/2; pressures get the inverse square root of
    the diagonal of B diag(A)^-1 B^T + C, or 1 where that is zero.
    """
    a_diag = system.A.diagonal()
    p_diag = system.B.multiply(system.B) @ (1.0 / a_diag) + C.diagonal()
    p_scale = np.ones_like(p_diag)
    np.power(p_diag, -0.5, out=p_scale, where=p_diag > 0)
    return np.concatenate([a_diag**-0.5, p_scale])


class _ScaledFactor:
    """LU of K = (D M D)[perm][:, perm] that solves with M itself:
    x = D P^T K^-1 P D b."""

    def __init__(self, lu, perm: np.ndarray, scale: np.ndarray):
        self.lu = lu
        self.perm = perm
        self.scale = scale

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self.perm] = self.lu.solve((self.scale * b)[self.perm])
        return self.scale * x


def _pinned_block(
    system: SaddleSystem, C: sp.spmatrix
) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """The matrix `_factor_pinned` factors, built from the system's blocks.

    K = (D M D)[perm][:, perm], where M is the saddle block [[A, -B^T],
    [B, C]] of the system's A and B without the row and column of its first
    pressure dof, D the `_symmetric_scaling` and perm the nested-dissection
    order of the kept dofs.  The COO triplets of A, -B^T, B and C are mapped
    straight to their positions in K, so no copy of the saddle block or of
    the bordered `system.matrix` is made.  Returns K, perm and the kept
    entries of D.
    """
    pin = system.n_velocity
    m = pin + system.n_p
    order = _dissection_order(system)
    order = order[order != pin]
    scale = _symmetric_scaling(system, C)
    # position in K of every dof of M; -1 drops the pinned one
    position = np.full(m, -1, dtype=np.int32)
    position[order] = np.arange(m - 1, dtype=np.int32)
    A, B, C = system.A.tocoo(), system.B.tocoo(), C.tocoo()
    B_row = B.row + pin
    triplets = [
        (A.row, A.col, A.data),
        (B.col, B_row, -B.data),
        (B_row, B.col, B.data),
        (C.row + pin, C.col + pin, C.data),
    ]
    size = sum(data.size for _, _, data in triplets)
    rows = np.empty(size, dtype=np.int32)
    cols = np.empty(size, dtype=np.int32)
    vals = np.empty(size)
    end = 0
    for row, col, data in triplets:
        row_pos, col_pos = position[row], position[col]
        kept = (row_pos >= 0) & (col_pos >= 0)
        start, end = end, end + np.count_nonzero(kept)
        rows[start:end] = row_pos[kept]
        cols[start:end] = col_pos[kept]
        vals[start:end] = (data * scale[row] * scale[col])[kept]
    K = sp.csc_matrix((vals[:end], (rows[:end], cols[:end])), shape=(m - 1, m - 1))
    return K, order - (order > pin), np.delete(scale, pin)


def _factor_pinned(system: SaddleSystem, C: sp.spmatrix, stats: dict) -> _ScaledFactor:
    """Factor the saddle block [[A, -B^T], [B, C]] of the system's A and B
    without the row and column of its first pressure dof, as the scaled,
    permuted `_pinned_block` K.  Only K is alive while SuperLU factors it."""
    t0 = time.perf_counter()
    K, perm, scale = _pinned_block(system, C)
    stats["order_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lu = spla.splu(
        K,
        permc_spec="NATURAL",
        diag_pivot_thresh=_DIAG_PIVOT_THRESH,
        options=dict(SymmetricMode=True),
    )
    stats["factor_s"] = time.perf_counter() - t0
    stats["peak_rss_mb"] = _peak_rss_mb()
    # the values SuperLU stores for L and U; building `lu.L` and `lu.U` to
    # count them would copy the whole factor
    stats["factor_nnz"] = int(lu.nnz)
    stats["offdiag_pivots"] = int(np.count_nonzero(lu.perm_r != np.arange(K.shape[0])))
    return _ScaledFactor(lu, perm, scale)


def _zero_mean_solve(lu, v: np.ndarray, pin: int, w: np.ndarray) -> np.ndarray:
    """Apply the zero-mean solution operator of the unbordered saddle block.

    The part of the pressure data along `w` is removed first (the
    multiplier carries it), so the pressure data sums to zero.  `lu`, the
    factor of the block with pressure dof `pin` pinned to zero and its
    implied equation dropped, solves the rest, and the pressure is then
    shifted to zero `w`-weighted mean.
    """
    b = np.ravel(v).copy()
    b[pin:] -= w * (b[pin:].sum() / w.sum())
    x = np.insert(lu.solve(np.delete(b, pin)), pin, 0.0)
    x[pin:] -= (w @ x[pin:]) / w.sum()
    return x


def _scaled_rcond(lu: _ScaledFactor) -> float:
    """Estimate of the reciprocal 2-norm condition number of the scaled,
    pinned block K that `lu` factored.

    The scaling makes the velocity diagonal of K 1 and bounds every entry by
    1, so ||K||_2 lies between 1 and a small constant (its 1-norm, 3 to 4.5
    on the meshes tried), and 1 / ||K^-1||_2 serves as the estimate.
    ||K^-1||_2 comes from one power step on K^-T K^-1 from a fixed Gaussian
    vector, which has a part along any null vector of K.  Taken on the
    scaled block, it does not track the mesh's units: it stays away from
    zero on fine or stretched meshes and falls to rounding level only when
    the block is singular.
    """
    x = np.random.default_rng(0).standard_normal(lu.scale.size)
    x = lu.lu.solve(lu.lu.solve(x), trans="T")
    return float(np.linalg.norm(x) / np.linalg.norm(lu.lu.solve(x)))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _MAXRSS_PER_MB


def _direct_solution(system: SaddleSystem, b: np.ndarray, residual, stats: dict):
    """Zero-mean solution of the unbordered block from the sparse factor of
    its pinned form, refined once, with `_scaled_rcond` of that factor.
    Returns (x, rcond, reason), x and rcond None when the factor fails."""
    pin, w = system.n_velocity, system.mean_weights
    try:
        lu = _factor_pinned(system, system.C, stats)
        stats["fill_factor"] = float(stats["factor_nnz"] / max(system.matrix.nnz, 1))
        x = _zero_mean_solve(lu, b, pin, w)
        # one step of iterative refinement
        x = x + _zero_mean_solve(lu, residual(x), pin, w)
        t0 = time.perf_counter()
        rcond = _scaled_rcond(lu)
        stats["rcond_s"] = time.perf_counter() - t0
    except RuntimeError as err:
        return None, None, f"factorization failed: {err}"
    return x, rcond, None


def _pcg(apply, h: np.ndarray, precondition):
    """Preconditioned conjugate gradients for apply(p) = h from p = 0,
    stopping once ||h - apply(p)||_2 <= _CG_RTOL ||h||_2, after
    `_CG_MAXITER` steps, or once r.z or the curvature d.Sd of a search
    direction is no longer positive.

    Returns p, the step count, whether it converged, and the extreme Ritz
    values of the preconditioned operator (None before the first step):
    the eigenvalues of the Lanczos tridiagonal that CG's alpha and beta
    coefficients define (Saad, Iterative Methods for Sparse Linear Systems,
    2nd ed., sec. 6.7.3), so they cost no extra product.
    """
    p = np.zeros_like(h)
    r = h.copy()
    z = precondition(r)
    d = z
    rz = r @ z
    stop = _CG_RTOL * np.linalg.norm(h)
    alphas, betas = [], []
    while np.linalg.norm(r) > stop and rz > 0 and len(alphas) < _CG_MAXITER:
        s_d = apply(d)
        curvature = d @ s_d
        if not curvature > 0:
            break
        alpha = rz / curvature
        p += alpha * d
        r -= alpha * s_d
        z = precondition(r)
        rz_new = r @ z
        beta, rz = rz_new / rz, rz_new
        d = z + beta * d
        alphas.append(alpha)
        betas.append(beta)
    converged = bool(np.linalg.norm(r) <= stop)
    if not alphas:
        return p, 0, converged, None
    alphas, betas = np.array(alphas), np.array(betas[:-1])
    diagonal = 1.0 / alphas
    diagonal[1:] += betas / alphas[:-1]
    ritz = scipy.linalg.eigvalsh_tridiagonal(diagonal, np.sqrt(betas) / alphas[:-1])
    return p, alphas.size, converged, (ritz[0], ritz[-1])


def _schur_cg_solution(system: SaddleSystem, b: np.ndarray, residual, stats: dict):
    """Zero-mean solution of the unbordered block by CG on its pressure
    Schur complement, refined once.

    Velocity data f and pressure data g give S p = g - B A^-1 f with
    S = B A^-1 B^T + C on zero-mean pressures, then u = A^-1 (f + B^T p).
    A^-1 is the grid's factor-free `A1_solve` on both components at once,
    so `system.A` must be the grid's velocity block, as `assemble` makes it;
    the preconditioner is the diagonal pressure mass (`mean_weights`) with
    the mean projected out.  The rcond estimate is the ratio of the
    extreme Ritz values of that preconditioned S.  Returns (x, rcond,
    reason), reason set when a CG pass stops short of its tolerance.
    """
    n, pin = system.grid.n_cells, system.n_velocity
    w, B, C = system.mean_weights, system.B, system.C
    a1_solve = _grid_operators(system.grid).A1_solve

    def velocity_solve(f):
        return a1_solve(f.reshape(2, n)).ravel()

    def multiplier_free(v):
        # pressure data less its part along w, which the multiplier takes
        return v - w * (v.sum() / w.sum())

    def schur(q):
        return B @ velocity_solve(B.T @ q) + C @ q

    def precondition(r):
        z = r / w
        return z - (w @ z) / w.sum()

    passes = []

    def zero_mean_solve(v):
        f, g = v[:pin], v[pin:]
        a_inv_f = velocity_solve(f)
        p = np.zeros(system.n_p)
        if system.n_p > 1:  # else the only zero-mean pressure is 0
            # projected twice: in the refinement pass the part along w is
            # most of g, and rounding leaves of it more than CG's tolerance
            h = multiplier_free(multiplier_free(g) - B @ a_inv_f)
            p, *telemetry = _pcg(schur, h, precondition)
            passes.append(telemetry)
            p -= (w @ p) / w.sum()
        return np.concatenate([velocity_solve(f + B.T @ p), p])

    t0 = time.perf_counter()
    x = zero_mean_solve(b)
    # one step of iterative refinement on the block residual
    x = x + zero_mean_solve(residual(x))
    stats["cg_s"] = time.perf_counter() - t0
    stats["peak_rss_mb"] = _peak_rss_mb()
    stats["cg_iters"] = sum(steps for steps, _, _ in passes)
    ritz = [extremes for _, _, extremes in passes if extremes is not None]
    rcond = None
    if ritz:
        stats["ritz_min"] = float(min(low for low, _ in ritz))
        stats["ritz_max"] = float(max(high for _, high in ritz))
        rcond = stats["ritz_min"] / stats["ritz_max"]
    reason = None
    if not all(converged for _, converged, _ in passes):
        reason = f"CG stopped short of relative residual {_CG_RTOL:.0e} ({stats['cg_iters']} steps)"
    return x, rcond, reason


def solve(
    system: SaddleSystem,
    tol: float = 1e-10,
    backend: str = "splu",
    rcond_floor: float = _RCOND_FLOOR,
) -> SolveReport:
    """Solve the saddle system by sparse direct factorization ("splu", the
    default) or by CG on the pressure Schur complement ("schur-cg").

    Neither backend factors the bordered `system.matrix`.  The unbordered
    block [[A, -B^T], [B, C]] determines the pressure up to a constant
    (1^T B = 0 and C 1 = 0, so its pressure rows sum to zero), so each
    backend solves it on zero-mean pressures, with the part of the pressure
    data along the mean weights removed, and refines that solution once
    against the unbordered residual, read through `system.matrix` with a
    zero multiplier and without its last row.

    "splu" pins the first pressure dof to zero, drops its implied equation,
    scales the remaining block symmetrically, permutes it into a
    nested-dissection order of the grid and factors it by `splu` in that
    order (SuperLU's symmetric mode, diagonal pivots unless one falls below
    1% of its column).  That block is built from the system's A, B and C
    blocks, never sliced out of `system.matrix`.  `rcond_est` is the
    `_scaled_rcond` of that scaled, pinned factor, repeatable bit for bit,
    and does not depend on the mesh's units.  `stats` holds the factor's
    size (`factor_nnz`, `fill_factor`), its off-diagonal pivot count, and
    the seconds spent ordering (`order_s`), factoring (`factor_s`) and
    estimating rcond (`rcond_s`).

    "schur-cg" runs preconditioned CG on the zero-mean pressure system
    S p = g - B A^-1 f, S = B A^-1 B^T + C, with the grid's factor-free
    velocity solve `A1_solve` for A^-1 and the diagonal pressure mass as
    preconditioner, then recovers u = A^-1 (f + B^T p) (see
    `_schur_cg_solution`).  It needs no factor, and its step count does not
    grow with the grid.  `stats` holds the CG steps of both passes
    (`cg_iters`), their seconds (`cg_s`) and the extreme Ritz values of the
    preconditioned S (`ritz_min`, `ritz_max`); `rcond_est` is their ratio.

    `verify.run_convergence` uses "schur-cg": its many levels need no
    factor.  `stokes-fv solve` stays on the default "splu": the benchmark's
    solve workload pins "splu" and checks the CLI's `u.csv` and `p.csv`
    against it byte for byte, so moving the default starts with the
    benchmark.  Both backends record the process's peak resident set size in MB (`peak_rss_mb`)
    right after the factor or the CG passes.

    Then, shared by both: the pressure is shifted to the mean the last row
    asks for, the multiplier recovered from the full pressure rows, and the
    relative residual measured against the full bordered `system.matrix`.
    The returned pressure has exactly zero area-weighted mean.  The report
    is flagged singular when the factorization fails, when a CG pass stops
    short of its tolerance, when `rcond_est` falls below `rcond_floor`, when
    the residual exceeds `tol`, or when the system was assembled from the
    unstabilized cell-pressure scheme, whose checkerboard pressure mode
    loses control under refinement and must be surfaced rather than
    silently solved.  A flagged system may still carry the solution when
    one was computed.
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
    b = rhs[:m]

    def unbordered_residual(x):
        # b - [[A, -B^T], [B, C]] x, as the bordered matrix times [x; 0]
        return b - (matrix @ np.append(x, 0.0))[:m]

    stats: dict = {"backend": backend}
    solution = _direct_solution if backend == "splu" else _schur_cg_solution
    x, rcond, reason = solution(system, b, unbordered_residual, stats)
    singular = reason is not None

    if x is not None and not np.all(np.isfinite(x)):
        singular = True
        reason = reason or "the solve produced non-finite values"
        x = None

    if rcond is not None and not rcond >= rcond_floor:
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
    r_p = unbordered_residual(x)[pin:]
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


def schur_smallest_eigen(system: SaddleSystem) -> float | None:
    """Smallest pressure Schur-complement eigenvalue on zero-mean pressures.

    Returns the squared inf-sup constant of the system's pressure space:
    the smallest eigenvalue of M^-1 (B A^-1 B^T) restricted to the subspace
    of zero area-weighted mean, with M the diagonal pressure mass matrix;
    `None` when that subspace is trivial (one pressure dof).

    Shift-invert Lanczos at shift 0 (Ericsson and Ruhe, Math. Comp. 35,
    1980): the saddle block [[A, -B^T], [B, 0]] is factored as in `solve`,
    and its zero-mean solve maps pressure data g to the zero-mean p with
    B A^-1 B^T p = g.  In the variables y = M^1/2 p this is the inverse of
    M^-1/2 B A^-1 B^T M^-1/2 on the complement of M^1/2 1, so `eigsh` finds
    its largest eigenvalue theta, and beta^2 = 1/theta.  The system's
    stabilization block C plays no part.

    A pressure in the kernel of B^T makes the block singular and beta^2 = 0.
    Rounding may still let that block factor and the iteration return a
    finite, unrelated value, so 0.0 is returned whenever the factorization
    fails or the reciprocal condition estimate of the scaled pinned block
    falls below `solve`'s default `rcond_floor`, 1e-12.
    """
    n_p = system.n_p
    if n_p <= 1:
        return None
    pin = system.n_velocity
    w = system.mean_weights
    try:
        lu = _factor_pinned(system, sp.csr_matrix((n_p, n_p)), {})
    except RuntimeError:  # SuperLU found an exactly zero pivot
        return 0.0
    if not _scaled_rcond(lu) >= _RCOND_FLOOR:  # also when the estimate is nan
        return 0.0

    sqrt_m = np.sqrt(w)
    data = np.zeros(pin + n_p)

    def inverse(y):
        data[pin:] = sqrt_m * np.ravel(y)
        return sqrt_m * _zero_mean_solve(lu, data, pin, w)[pin:]

    # a fixed start vector off the kernel direction M^1/2 1 of the operator
    start = np.random.default_rng(0).standard_normal(n_p)
    start -= sqrt_m * (sqrt_m @ start) / w.sum()
    op = spla.LinearOperator((n_p, n_p), matvec=inverse, dtype=float)
    # stops once the Ritz residual is below 1e-12 of the Ritz value, which
    # bounds the relative error of theta, and so of beta^2, by about 1e-12
    theta = spla.eigsh(op, k=1, which="LA", v0=start, tol=1e-12, return_eigenvectors=False)[0]
    return float(1.0 / theta)
