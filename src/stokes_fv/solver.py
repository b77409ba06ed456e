"""Solution of the assembled saddle systems, and spectral probes.

`solve` has two backends.  Neither factors the bordered matrix: the dense
zero-mean multiplier row and column would ruin any fill-reducing ordering.
Each only builds a solve of the unbordered block [[A, -B^T], [B, C]];
`solve` wraps it in the one zero-mean operator `_zero_mean`, refines once,
recovers the zero mean and the multiplier, and measures every residual
from the A, B and C blocks and the mean weights.  The bordered
`system.matrix` is never read.  Nor is any stored velocity block: A is
diag(A1, A1), applied and inverted through the grid's scalar stiffness A1
on both components, and the Schur complement B A^-1 B^T of both the CG
backend and the cluster-space probe is the one `_schur_complement`.

The direct backend, "splu" (the default, used by `stokes-fv solve`),
factors the block with the first pressure dof pinned.  The pinned block is
assembled, scaled and permuted in one pass straight from A1 and the
system's B and C blocks, so the only sparse matrix alive next to the
factor is the one SuperLU factors: no slice or copy of the bordered
matrix.  Every block of the saddle matrix couples a node (a cell, or a 2x2
cluster for cluster-constant pressure) only to its four neighbours, so the
pinned block is factored in a nested-dissection order of the node
rectangle, the fill-optimal order on a regular mesh (George, SIAM J.
Numer. Anal. 10, 1973), after a symmetric diagonal scaling that makes
SuperLU's diagonal pivot test independent of the mesh size and the
stabilization strength.  Its rcond estimate is taken on that scaled block,
so it does not track the mesh's units.

The iterative backend, "schur-cg" (used by the convergence studies), runs
preconditioned CG on the pressure Schur complement B A^-1 B^T + C (Verfuerth,
IMA J. Numer. Anal. 4, 1984), with the grid's factor-free velocity solve for
A^-1 and the diagonal pressure mass as preconditioner: no factor, and a
step count that does not grow with the grid.

`schur_smallest_eigen`, the inf-sup probe, computes beta^2, the smallest
eigenvalue of B A^-1 B^T on zero-mean pressures against the pressure mass,
by one of two methods, chosen by the pressure space:

- Cluster pressures ("cluster-constant"): block LOBPCG (Knyazev, SIAM J.
  Sci. Comput. 23, 2001) on the mass-scaled Schur complement, applied
  through the grid's factor-free velocity solve, with the constant mode
  moved out of the way by a shift.  No sparse factor: n=512 takes about
  11 s and 420 MB, where shift-invert took 57 s and 2.9 GB.  The paper
  bounds this space's beta^2 below, so the step count does not grow with
  the grid.
- Cell pressures: shift-invert Lanczos at shift 0 on the system with C
  replaced by zero, factored by `_direct_block`, the function that
  factors for "splu", and wrapped by the same `_zero_mean`.  Here beta^2
  decays like h^2, LOBPCG's step count grows with it, and one factor with
  a few dozen solves is the faster method.

Both return 0 when B^T has a kernel: LOBPCG when its smallest Ritz value
is at or below `_RCOND_FLOOR` of the spectrum's scale, shift-invert when
the factor fails or its rcond estimate falls below that floor.
"""

from __future__ import annotations

import math
import resource
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

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
# The cluster-space inf-sup probe's LOBPCG: its block size, and the residual
# of the smallest Ritz pair, relative to the scale of the spectrum, at which
# it stops.  SciPy's LOBPCG runs until every block column converges, and a
# fourth eigenvalue close to the fifth can hold the block for a hundred steps
# and more after the smallest pair has converged; so it runs at most
# `_LOBPCG_RUN` steps at a time, restarted from its Ritz vectors until the
# smallest pair converges, and gives up after `_LOBPCG_MAXITER` steps.  On
# uniform grids the smallest pair converges in 22-38 steps and the block in
# 29-43 for n = 16..512, and the first run suffices at n=1024; on 150 random
# cluster grids of 4-64 cells per side, widths 0.1-10, the smallest pair
# converges within 37 steps.
_LOBPCG_BLOCK = 4
_LOBPCG_RTOL = 1e-9
_LOBPCG_RUN = 50
_LOBPCG_MAXITER = 200
# `ru_maxrss` is in kilobytes on Linux and in bytes on macOS.
_MAXRSS_PER_MB = 1024.0**2 if sys.platform == "darwin" else 1024.0


@dataclass
class SolveReport:
    """Solution fields plus diagnostics of one `solve`, by either backend."""

    u: VectorField | None
    p: ScalarField | None
    multiplier: float
    residual_norm: float
    singular_reason: str | None
    rcond_est: float | None
    stats: dict = field(default_factory=dict)

    @property
    def singular(self) -> bool:
        return self.singular_reason is not None


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


def _symmetric_scaling(system: SaddleSystem) -> np.ndarray:
    """Diagonal D with unit-sized diagonal in D [[A, -B^T], [B, C]] D.

    Velocities get diag(A)^-1/2; pressures get the inverse square root of
    the diagonal of B diag(A)^-1 B^T + C, or 1 where that is zero.
    """
    a_diag = np.tile(_grid_operators(system.grid).A1.diagonal(), 2)
    p_diag = system.B.multiply(system.B) @ (1.0 / a_diag) + system.C.diagonal()
    p_scale = np.ones_like(p_diag)
    np.power(p_diag, -0.5, out=p_scale, where=p_diag > 0)
    return np.concatenate([a_diag**-0.5, p_scale])


def _pinned_block(system: SaddleSystem) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """The matrix `_direct_block` factors, built from the system's blocks.

    K = (D M D)[perm][:, perm], where M is the saddle block [[A, -B^T],
    [B, C]] of the system's blocks without the row and column of its first
    pressure dof, D the `_symmetric_scaling` and perm the nested-dissection
    order of the kept dofs.  The COO triplets of A (those of A1, once per
    velocity component), -B^T, B and C are mapped straight to their
    positions in K, so no copy of the saddle block or of the bordered
    `system.matrix` is made.  Returns K, perm and the kept entries of D.
    """
    pin = system.n_velocity
    m = pin + system.n_p
    order = _dissection_order(system)
    order = order[order != pin]
    scale = _symmetric_scaling(system)
    # position in K of every dof of M; -1 drops the pinned one
    position = np.full(m, -1, dtype=np.int32)
    position[order] = np.arange(m - 1, dtype=np.int32)
    A1 = _grid_operators(system.grid).A1.tocoo()
    B, C = system.B.tocoo(), system.C.tocoo()
    n, B_row = system.grid.n_cells, B.row + pin
    triplets = [
        (A1.row, A1.col, A1.data),
        (A1.row + n, A1.col + n, A1.data),
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


def _zero_mean(system: SaddleSystem, solve_block):
    """The zero-mean solution operator of the unbordered saddle block.

    The block [[A, -B^T], [B, C]] determines the pressure up to a constant
    (1^T B = 0 and C 1 = 0, so its pressure rows sum to zero).  The part of
    the pressure data along the mean weights w is removed first (the
    multiplier carries it), so the pressure data sums to zero;
    `solve_block` returns one solution of the rest, and its pressure is
    then shifted to zero w-weighted mean.
    """
    pin, w = system.n_velocity, system.mean_weights
    w_sum = w.sum()

    def apply(v: np.ndarray) -> np.ndarray:
        b = v.copy()
        b[pin:] -= w * (b[pin:].sum() / w_sum)
        x = solve_block(b)
        x[pin:] -= (w @ x[pin:]) / w_sum
        return x

    return apply


def _scaled_rcond(lu) -> float:
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
    x = np.random.default_rng(0).standard_normal(lu.shape[0])
    x = lu.solve(lu.solve(x), trans="T")
    return float(np.linalg.norm(x) / np.linalg.norm(lu.solve(x)))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _MAXRSS_PER_MB


def _direct_block(system: SaddleSystem, stats: dict):
    """Factor the saddle block [[A, -B^T], [B, C]] of the system's blocks
    without the row and column of its first pressure dof, as the scaled,
    permuted `_pinned_block` K.  Only K is alive while SuperLU factors it.

    Returns the factor's solve with the unpinned block, x = D P^T K^-1 P D b
    on the kept dofs with b's pinned entry (its implied equation) dropped
    and x = 0 there, and its report: the factor's `_scaled_rcond` and no
    failure.  Raises RuntimeError when SuperLU finds an exactly zero pivot.
    """
    t0 = time.perf_counter()
    K, perm, scale = _pinned_block(system)
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
    t0 = time.perf_counter()
    rcond = _scaled_rcond(lu)
    stats["rcond_s"] = time.perf_counter() - t0
    # the bordered matrix's stored entries, counted from its blocks:
    # A1 twice, -B^T and B, C, and the mean weights as a column and a row
    a1_nnz = _grid_operators(system.grid).A1.nnz
    matrix_nnz = 2 * a1_nnz + 2 * system.B.nnz + system.C.nnz + 2 * system.n_p
    stats["fill_factor"] = float(stats["factor_nnz"] / max(matrix_nnz, 1))
    pin = system.n_velocity

    def solve_block(b: np.ndarray) -> np.ndarray:
        x = np.empty(scale.size)
        x[perm] = lu.solve((scale * np.delete(b, pin))[perm])
        return np.insert(scale * x, pin, 0.0)

    return solve_block, lambda: (rcond, None)


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


def _schur_complement(system: SaddleSystem):
    """q -> B A^-1 B^T q, for one pressure vector or a block of columns,
    with A^-1 the grid's factor-free `velocity_solve`."""
    B, velocity_solve = system.B, _grid_operators(system.grid).velocity_solve
    return lambda q: B @ velocity_solve(B.T @ q)


def _schur_cg_block(system: SaddleSystem, stats: dict):
    """The unbordered block's solve by CG on its pressure Schur complement,
    and a report of the CG passes' rcond estimate and failure.

    Velocity data f and pressure data g, which `_zero_mean` has made sum to
    zero, give S p = g - B A^-1 f with S = `_schur_complement` + C on
    zero-mean pressures, then u = A^-1 (f + B^T p), A^-1 the grid's
    factor-free `velocity_solve`.  The preconditioner is the diagonal
    pressure mass (`mean_weights`) with the mean projected out.  The rcond
    estimate is the ratio of the extreme Ritz values of that preconditioned
    S; the reason is set when a CG pass stops short of its tolerance.
    """
    pin = system.n_velocity
    w, B, C = system.mean_weights, system.B, system.C
    velocity_solve = _grid_operators(system.grid).velocity_solve
    schur_complement = _schur_complement(system)

    def schur(q):
        return schur_complement(q) + C @ q

    def precondition(r):
        z = r / w
        return z - (w @ z) / w.sum()

    passes = []
    stats["cg_s"] = 0.0

    def solve_block(v):
        t0 = time.perf_counter()
        f, g = v[:pin], v[pin:]
        a_inv_f = velocity_solve(f)
        p = np.zeros(system.n_p)
        if system.n_p > 1:  # else the only zero-mean pressure is 0
            # projected again: in the refinement pass the part along w is
            # most of g, and rounding leaves of it more than CG's tolerance
            h = g - B @ a_inv_f
            h -= w * (h.sum() / w.sum())
            p, *telemetry = _pcg(schur, h, precondition)
            passes.append(telemetry)
        x = np.concatenate([velocity_solve(f + B.T @ p), p])
        stats["cg_s"] += time.perf_counter() - t0
        return x

    def outcome():
        stats["peak_rss_mb"] = _peak_rss_mb()
        stats["cg_iters"] = total = sum(steps for steps, _, _ in passes)
        ritz = [extremes for _, _, extremes in passes if extremes is not None]
        rcond = None
        if ritz:
            stats["ritz_min"] = float(min(low for low, _ in ritz))
            stats["ritz_max"] = float(max(high for _, high in ritz))
            rcond = stats["ritz_min"] / stats["ritz_max"]
        if all(converged for _, converged, _ in passes):
            return rcond, None
        return rcond, f"CG stopped short of relative residual {_CG_RTOL:.0e} ({total} steps)"

    return solve_block, outcome


def solve(system: SaddleSystem, tol: float = 1e-10, backend: str = "splu") -> SolveReport:
    """Solve the saddle system by sparse direct factorization ("splu", the
    default) or by CG on the pressure Schur complement ("schur-cg").

    Neither backend factors or reads the bordered `system.matrix`.  Each
    builds a solve of the unbordered block [[A, -B^T], [B, C]], which
    `_zero_mean` turns into the solution on zero-mean pressures of data
    whose part along the mean weights w is removed.  That solution is
    refined once against the block residual (f - A u + B^T p,
    g - B u - C p), computed from the blocks.

    "splu" pins the first pressure dof to zero, drops its implied equation,
    scales the remaining block symmetrically, permutes it into a
    nested-dissection order of the grid and factors it by `splu` in that
    order (SuperLU's symmetric mode, diagonal pivots unless one falls below
    1% of its column).  That block is built from A1 and the system's B and
    C blocks.  `rcond_est` is the `_scaled_rcond` of that scaled, pinned
    factor, repeatable bit for bit, and does not depend on the mesh's
    units.  `stats` holds the factor's size (`factor_nnz`, `fill_factor`),
    its off-diagonal pivot count, and the seconds spent ordering
    (`order_s`), factoring (`factor_s`) and estimating rcond (`rcond_s`).

    "schur-cg" runs preconditioned CG on the zero-mean pressure system
    S p = g - B A^-1 f, S = B A^-1 B^T + C, with the grid's factor-free
    `velocity_solve` for A^-1 and the diagonal pressure mass as
    preconditioner, then recovers u = A^-1 (f + B^T p) (see
    `_schur_cg_block`).  It needs no factor, and its step count does not
    grow with the grid.  `stats` holds the CG steps of both passes
    (`cg_iters`), their seconds (`cg_s`) and the extreme Ritz values of the
    preconditioned S (`ritz_min`, `ritz_max`); `rcond_est` is their ratio.

    `verify.run_convergence` uses "schur-cg": its many levels need no
    factor.  `stokes-fv solve` stays on the default "splu": the benchmark's
    solve workload pins "splu" and checks the CLI's `u.csv` and `p.csv`
    against it byte for byte, so moving the default starts with the
    benchmark.  Both backends record the process's peak resident set size
    in MB on entry (`peak_rss_before_mb`) and right after the factor or the
    CG passes (`peak_rss_mb`).  It is a high-water mark: a solve that did
    not raise it reports the two equal.

    Then the pressure is shifted to the mean the last row asks for, and the
    multiplier mu recovered from the pressure rows.  The relative residual
    is that of the bordered system, from the blocks: f - A u + B^T p, with
    A u taken as A1 on each component, g - B u - C p - w mu and the mean
    datum less w^T p.  The returned pressure has exactly zero area-weighted
    mean.  `singular_reason` is set, and so `singular` true, when the
    factorization fails, when a CG pass stops short of its tolerance, when
    `rcond_est` falls below 1e-12, when the residual exceeds `tol`, or when
    the system was assembled from the unstabilized cell-pressure scheme,
    whose checkerboard pressure mode loses control under refinement and
    must be surfaced rather than silently solved.  A flagged report still
    carries any computed solution.  A `tol` that is not finite and positive
    raises SolverError.
    """
    if not 0 < tol < math.inf:
        raise SolverError(f"tolerance must be finite and positive, not {tol!r}")
    if backend not in BACKENDS:
        raise SolverError(f"unknown backend {backend!r}")
    B, C, rhs = system.B, system.C, system.rhs
    velocity_apply = _grid_operators(system.grid).velocity_apply
    pin = system.n_velocity  # first pressure dof
    m = pin + system.n_p  # size of the unbordered block
    w = system.mean_weights

    def residual(x, multiplier=0.0):
        # rhs - matrix @ [x; multiplier], from the blocks
        u, p = x[:pin], x[pin:]
        return rhs - np.concatenate(
            [velocity_apply(u) - B.T @ p, B @ u + C @ p + w * multiplier, [w @ p]]
        )

    stats: dict = {"backend": backend, "peak_rss_before_mb": _peak_rss_mb()}
    build = _direct_block if backend == "splu" else _schur_cg_block
    try:
        solve_block, outcome = build(system, stats)
    except RuntimeError as err:
        x, rcond, reason = None, None, f"factorization failed: {err}"
    else:
        zero_mean = _zero_mean(system, solve_block)
        x = zero_mean(rhs[:m])
        # one step of iterative refinement
        x = x + zero_mean(residual(x)[:m])
        rcond, reason = outcome()

    if x is not None and not np.all(np.isfinite(x)):
        reason = reason or "the solve produced non-finite values"
        x = None

    if rcond is not None and not rcond >= _RCOND_FLOOR:
        reason = reason or f"reciprocal condition estimate {rcond:.2e} below {_RCOND_FLOOR:.0e}"

    if system.spec.kind == NATURAL:
        # Structurally unstable pressure space: no jump control, inf-sup
        # constant of the checkerboard mode decays under refinement.
        reason = (
            "unstabilized cell-pressure scheme: checkerboard pressure mode "
            "is not controlled (rcond_est="
            + (f"{rcond:.2e}" if rcond is not None else "n/a")
            + ")"
        )

    if x is None:
        return SolveReport(None, None, float("nan"), float("inf"), reason, rcond, stats)

    # the mean constraint row, then the multiplier from the pressure rows
    x[pin:] += rhs[-1] / w.sum()
    multiplier = float(w @ residual(x)[pin:m] / (w @ w))

    rhs_norm = float(np.linalg.norm(rhs))
    relative = float(np.linalg.norm(residual(x, multiplier))) / (rhs_norm if rhs_norm > 0 else 1.0)
    if relative > tol and reason is None:
        reason = f"relative residual {relative:.2e} above tolerance {tol:.0e}"

    u = array_to_vector_field(system.grid, x[:pin])
    p = zero_mean_project(system.cell_pressure(x[pin:]))
    return SolveReport(u, p, multiplier, relative, reason, rcond, stats)


def schur_smallest_eigen(system: SaddleSystem) -> float | None:
    """Smallest pressure Schur-complement eigenvalue on zero-mean pressures.

    Returns the squared inf-sup constant of the system's pressure space:
    the smallest eigenvalue of M^-1 (B A^-1 B^T) restricted to the subspace
    of zero area-weighted mean, with M the diagonal pressure mass matrix;
    `None` when that subspace is trivial (one pressure dof).  The
    stabilization block C plays no part.  In the variables y = M^1/2 p this
    is the smallest eigenvalue of T = M^-1/2 B A^-1 B^T M^-1/2 on the
    complement of M^1/2 1, the kernel that 1^T B = 0 gives T.

    The method follows the pressure space.  Where the pressure lives on
    clusters ("cluster-constant"), the paper bounds beta^2 below, and
    `_lobpcg_beta_sq` runs block LOBPCG on T with no sparse factor, through
    `_schur_complement`.  Its step count does not grow with the grid (22-38
    steps for n = 16..512, at most 50 at n=1024).  On the cell space,
    beta^2 decays like h^2; there LOBPCG needs 161-203 steps already at
    n = 8..32, and `_shift_invert_beta_sq`, Lanczos on one sparse factor,
    is the faster method.

    A pressure in the kernel of B^T gives beta^2 = 0, which rounding may
    hide behind a small finite value.  So 0.0 is returned whenever the
    smallest Ritz value of LOBPCG is at or below `solve`'s floor, 1e-12,
    times the scale of T's spectrum, and, on the cell space, whenever the
    factor fails or its reciprocal condition estimate falls below that
    floor.  Raises SolverError when LOBPCG stops short of its tolerance.
    """
    if system.n_p <= 1:
        return None
    if system.spec.kind == CLUSTER_CONSTANT:
        return _lobpcg_beta_sq(system)
    return _shift_invert_beta_sq(system)


def _lobpcg_beta_sq(system: SaddleSystem) -> float:
    """beta^2 by block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) on
    T = M^-1/2 B A^-1 B^T M^-1/2, with no sparse factor.

    T is applied to a whole block at once by `_schur_complement`, which
    inverts A on both velocity components of every column in one call.  The
    kernel direction q = M^1/2 1 / |M^1/2 1| of T is moved up the spectrum
    by the shift T + s q q^T rather than held off by LOBPCG's constraint
    argument: SciPy solves small problems (fewer than five times the block
    size of unknowns) densely, and its dense path takes no constraint.  The
    shift s is the largest Rayleigh quotient of T over the fixed random
    start block, projected off q: never below beta^2, so the smallest
    eigenvalue of the shifted operator is beta^2, and it serves as the
    scale of T's spectrum for the stopping residual and the kernel test.
    """
    n_p, schur_complement = system.n_p, _schur_complement(system)
    sqrt_m = np.sqrt(system.mean_weights)[:, None]
    q = sqrt_m / np.linalg.norm(sqrt_m)

    def schur(Y):
        return schur_complement(Y / sqrt_m) / sqrt_m

    X = np.random.default_rng(0).standard_normal((n_p, min(_LOBPCG_BLOCK, n_p)))
    X -= q @ (q.T @ X)
    X /= np.linalg.norm(X, axis=0)
    scale = float(np.max(np.sum(X * schur(X), axis=0)))
    if not scale > 0:  # B^T vanishes on the start block
        return 0.0

    def shifted(Y):
        return schur(Y) + q @ (scale * (q.T @ Y))

    tol = _LOBPCG_RTOL * scale
    steps = 0
    with warnings.catch_warnings():
        # SciPy warns on its dense path and whenever a run ends with a
        # block column short of tol; the smallest pair is checked here
        warnings.simplefilter("ignore", UserWarning)
        while True:
            run = min(_LOBPCG_RUN, _LOBPCG_MAXITER - steps)
            ritz, X, *history = spla.lobpcg(
                shifted, X, tol=tol, maxiter=run, largest=False, retResidualNormsHistory=True
            )
            steps += run
            # the dense path returns no history: its eigenpairs are exact
            if not history or history[0][-1][np.argmin(ritz)] <= tol:
                break
            if steps >= _LOBPCG_MAXITER:
                raise SolverError(f"LOBPCG stopped short of residual {tol:.1e} in {steps} steps")
    beta_sq = float(np.min(ritz))
    return 0.0 if beta_sq <= _RCOND_FLOOR * scale else beta_sq


def _shift_invert_beta_sq(system: SaddleSystem) -> float:
    """beta^2 by shift-invert Lanczos at shift 0 (Ericsson and Ruhe, Math.
    Comp. 35, 1980), on any pressure space.

    The system with its stabilization block C replaced by zero,
    [[A, -B^T], [B, 0]], is factored by `_direct_block`, the function that
    factors for `solve`'s "splu" backend, and its `_zero_mean` solve maps
    pressure data g to the zero-mean p with B A^-1 B^T p = g.  In the
    variables y = M^1/2 p this is the inverse of T on the complement of
    M^1/2 1, so `eigsh` finds its largest eigenvalue theta, and
    beta^2 = 1/theta.  Returns 0.0 when the factorization fails or the
    reciprocal condition estimate of the scaled pinned block falls below
    `_RCOND_FLOOR`: a kernel of B^T may still let that block factor, and
    the iteration return a finite, unrelated value.
    """
    n_p = system.n_p
    pin = system.n_velocity
    w = system.mean_weights
    unstabilized = replace(system, C=sp.csr_matrix((n_p, n_p)), matrix=None)
    try:
        solve_block, outcome = _direct_block(unstabilized, {})
    except RuntimeError:  # SuperLU found an exactly zero pivot
        return 0.0
    rcond, _ = outcome()
    if not rcond >= _RCOND_FLOOR:  # also when the estimate is nan
        return 0.0

    sqrt_m = np.sqrt(w)
    data = np.zeros(pin + n_p)
    zero_mean = _zero_mean(system, solve_block)

    def inverse(y):
        data[pin:] = sqrt_m * np.ravel(y)
        return sqrt_m * zero_mean(data)[pin:]

    # a fixed start vector off the kernel direction M^1/2 1 of the operator
    start = np.random.default_rng(0).standard_normal(n_p)
    start -= sqrt_m * (sqrt_m @ start) / w.sum()
    op = spla.LinearOperator((n_p, n_p), matvec=inverse, dtype=float)
    # stops once the Ritz residual is below 1e-12 of the Ritz value, which
    # bounds the relative error of theta, and so of beta^2, by about 1e-12
    theta = spla.eigsh(op, k=1, which="LA", v0=start, tol=1e-12, return_eigenvectors=False)[0]
    return float(1.0 / theta)
