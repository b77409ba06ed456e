"""Assembly of the saddle-point systems for the collocated schemes.

Scheme kinds
    natural            no stabilization, one pressure unknown per cell
    bp                 pressure-Laplacian (Brezzi-Pitkaranta type) stabilization
                       over all interior edges, strength lambda
    cluster            jump stabilization restricted to intra-cluster edges
    cluster-constant   no stabilization, one pressure unknown per 2x2 cluster

Unknown layout: [u1 (n cells); u2 (n cells); p (n_p); multiplier], where the
single multiplier row/column carries the area weights enforcing the zero
pressure mean.  Every equation is assembled multiplied by the cell area, so
the velocity block is the symmetric positive definite H1 stiffness matrix,
the stabilization block is symmetric positive semidefinite, and the gradient
block is minus the transpose of the divergence block.

Only the mass balance (stabilization, lambda, pressure space) depends on the
scheme.  The velocity block is diag(A1, A1), the scalar H1 stiffness A1 on
each component, and is never stored: A1 and the cell divergence depend on
the grid alone, so they are built once per Grid object and shared,
read-only, by every system assembled on it, and the velocity block is
applied and inverted through A1 on both stacked components.  Each system's
bordered matrix is scattered from its blocks straight into CSC arrays,
with no COO copy of any block.
"""

from __future__ import annotations

import csv
import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .errors import ClusterError, ConfigError, GridError
from .fields import ScalarField, VectorField, write_table
from .grid import ClusterPartition, Grid, make_clusters
from .operators import (
    divergence_matrix,
    gradient_matrix,
    h1_stiffness_matrix,
    jump_stabilization_matrix,
    vector_field_to_array,
)

NATURAL = "natural"
BP = "bp"
CLUSTER_JUMP = "cluster"
CLUSTER_CONSTANT = "cluster-constant"
SCHEME_KINDS = (NATURAL, BP, CLUSTER_JUMP, CLUSTER_CONSTANT)

_STABILIZED = (BP, CLUSTER_JUMP)
_NEEDS_PARTITION = (CLUSTER_JUMP, CLUSTER_CONSTANT)


@dataclass
class SchemeSpec:
    """Scheme selection: kind, stabilization strength, cluster partition."""

    kind: str
    lam: float | None = None
    partition: ClusterPartition | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigError(f"unknown scheme kind {self.kind!r}")
        if self.kind in _STABILIZED and (self.lam is None or not 0 < self.lam < math.inf):
            raise ConfigError(f"scheme {self.kind!r} needs a finite lambda > 0, not {self.lam!r}")

    def validate_for(self, grid: Grid) -> None:
        if self.kind in _NEEDS_PARTITION:
            if self.partition is None:
                raise ClusterError(f"scheme {self.kind!r} needs a cluster partition")
            if not self.partition.grid.same_mesh(grid):
                raise ClusterError("partition belongs to a different grid")


@dataclass
class SaddleSystem:
    """Assembled sparse system and its blocks.

    `matrix` is the full (2n + n_p + 1) square operator; B and C are the
    divergence and stabilization blocks on the system's own pressure space
    (cells, or clusters for cluster-constant pressure), and n_p its size.
    The velocity block is diag(A1, A1) with A1 the grid's scalar stiffness,
    and the gradient block is -B^T.  B for cell pressures is the grid's
    shared read-only divergence: an in-place edit raises ValueError.
    """

    grid: Grid
    spec: SchemeSpec
    matrix: sp.csc_matrix
    rhs: np.ndarray
    B: sp.csr_matrix
    C: sp.csr_matrix
    mean_weights: np.ndarray

    @property
    def n_velocity(self) -> int:
        return 2 * self.grid.n_cells

    @property
    def n_p(self) -> int:
        return self.B.shape[0]

    def cell_pressure(self, p_raw: np.ndarray) -> ScalarField:
        """Expand a pressure-space vector to one value per cell."""
        if self.spec.kind == CLUSTER_CONSTANT:
            return ScalarField(self.grid, p_raw[self.spec.partition.cluster_of])
        return ScalarField(self.grid, p_raw.copy())


def cell_means(f, grid: Grid, quad_order: int = 3) -> VectorField:
    """Cell averages of an analytic vector function by tensor Gauss quadrature.

    quad_order is the number of Gauss points per direction (1 = midpoint);
    exact for polynomials of degree 2*quad_order - 1 per variable.
    """
    if quad_order not in (1, 2, 3):
        raise ConfigError(f"quad_order must be 1, 2 or 3, got {quad_order}")
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    cx = grid.cell_centers[:, 0]
    cy = grid.cell_centers[:, 1]
    hx = grid.dx[grid.cell_ij[:, 0]]
    hy = grid.dy[grid.cell_ij[:, 1]]
    X = cx[:, None, None] + 0.5 * hx[:, None, None] * nodes[None, :, None]
    Y = cy[:, None, None] + 0.5 * hy[:, None, None] * nodes[None, None, :]
    W = 0.25 * np.outer(weights, weights)
    fx, fy = f(X, Y)
    shape = (grid.n_cells, quad_order, quad_order)
    fx = np.broadcast_to(np.asarray(fx, dtype=float), shape)
    fy = np.broadcast_to(np.asarray(fy, dtype=float), shape)
    mean_x = np.tensordot(fx, W, axes=([1, 2], [0, 1]))
    mean_y = np.tensordot(fy, W, axes=([1, 2], [0, 1]))
    return VectorField(grid, np.column_stack([mean_x, mean_y]))


class _GridOperators:
    """Scalar stiffness A1 and cell divergence B_cells of one grid, each
    built once and then shared, plus the gradient G and the jump matrices J
    (all interior edges) and J_intra (intra-cluster edges) that the
    operators' apply forms multiply by, and `A1_solve`, the factor-free
    inverse of A1.  `velocity_apply` and `velocity_solve` apply the velocity
    block diag(A1, A1) and its inverse to stacked velocities [u1; u2].

    Their arrays are read-only, so a caller editing one in place gets a
    ValueError instead of silently changing every system on the grid.  G,
    J, J_intra and A1_solve are built on first use: the gradient probe needs
    only A1_solve and B_cells, and assembly never needs G, the jump matrices
    or A1_solve.  The grid is held by a weak reference, so the memo does not
    keep it alive.
    """

    def __init__(self, grid: Grid):
        self._grid = weakref.ref(grid)
        self.A1 = _read_only(h1_stiffness_matrix(grid))
        self.B_cells = _read_only(divergence_matrix(grid))

    def velocity_apply(self, u: np.ndarray) -> np.ndarray:
        """diag(A1, A1) u for stacked velocities u = [u1; u2]."""
        n = self.A1.shape[0]
        return np.concatenate([self.A1 @ u[:n], self.A1 @ u[n:]])

    def velocity_solve(self, f: np.ndarray) -> np.ndarray:
        """diag(A1, A1)^-1 f for stacked velocities f = [f1; f2], one vector
        of length 2n or a block of columns of shape (2n, k): every
        component of every column goes to `A1_solve` in one call."""
        rows = f.T.reshape(-1, self.A1.shape[0])
        return self.A1_solve(rows).reshape(f.T.shape).T

    @functools.cached_property
    def G(self) -> sp.csr_matrix:
        # assembled on its own, not as -B_cells^T: `duality_defect` checks
        # the two against each other
        return _read_only(gradient_matrix(self._grid()))

    @functools.cached_property
    def J(self) -> sp.csr_matrix:
        return _read_only(jump_stabilization_matrix(self._grid()))

    @functools.cached_property
    def J_intra(self) -> sp.csr_matrix:
        grid = self._grid()
        return _read_only(jump_stabilization_matrix(grid, make_clusters(grid).intra_edge_mask))

    @functools.cached_property
    def A1_solve(self):
        """A1^-1 by fast diagonalisation (Lynch, Rice and Thomas, Numer.
        Math. 6, 1964), with no sparse factor.

        With cells numbered i fastest, A1 = Dy (x) Tx + Ty (x) Dx, where Tx
        is the 1D two-point stiffness along x (weight 1/d between
        neighbouring centres, 2/h to each wall) and Dx = diag(dx), and
        likewise along y.  Once per grid the generalised eigenproblems
        Tx V = Dx V Lambda and Ty W = Dy W M are solved; then, for the
        ny-by-nx array b of one right-hand side,
        A1^-1 b = W ((W^T b V) / (mu_j + lambda_i)) V^T: four dense products.

        The returned function maps an array of shape (..., n_cells), one
        right-hand side per row, to the solutions in the same shape.
        """
        grid = self._grid()
        lam, V = _line_eigenpairs(grid.xs)
        mu, W = _line_eigenpairs(grid.ys)
        denominator = mu[:, None] + lam[None, :]
        for arr in (V, W, denominator):
            arr.flags.writeable = False

        def solve(b):
            z = W.T @ np.reshape(b, (-1,) + denominator.shape) @ V
            return (W @ (z / denominator) @ V.T).reshape(np.shape(b))

        return solve


def _line_eigenpairs(lines):
    """Eigenpairs (lambda, V) of T V = D V diag(lambda), V^T D V = I, for the
    1D two-point stiffness T and the widths D = diag(h) of the cells
    between the coordinate `lines`."""
    h = np.diff(lines)
    w = 1.0 / np.diff(0.5 * (lines[:-1] + lines[1:]))
    diagonal = np.concatenate([w, [0.0]]) + np.concatenate([[0.0], w])
    diagonal[[0, -1]] += 2.0 / h[[0, -1]]
    T = np.diag(diagonal) - np.diag(w, 1) - np.diag(w, -1)
    return scipy.linalg.eigh(T, np.diag(h))


def _read_only(mat):
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return mat


# Keyed by the Grid object, not by id() (reused after a grid dies) nor by the
# mesh, so an entry lives exactly as long as its grid.
_GRID_OPERATORS = weakref.WeakKeyDictionary()


def _grid_operators(grid: Grid) -> _GridOperators:
    """The shared operators of `grid`, built on the first call for it."""
    ops = _GRID_OPERATORS.get(grid)
    if ops is None:
        ops = _GRID_OPERATORS[grid] = _GridOperators(grid)
    return ops


def _bordered(A1, B, C, mean_weights) -> sp.csc_matrix:
    """The bordered saddle matrix [[A, -B^T, 0], [B, C, w], [0, w^T, 0]],
    A = diag(A1, A1) and w = `mean_weights`, scattered straight into CSC
    arrays.

    The column counts come first and `indptr` is their cumulative sum; then
    each block's entries go to the next free slots of their columns, one
    block at a time.  Every block is canonical (sorted indices, no
    duplicates) and the blocks of a column arrive in order of increasing
    row offset, so the result is canonical without a sort.  Its `indptr`,
    `indices` and `data` are those of SciPy's block stacking of the same
    blocks, which copies every block into COO form and sorts the stack
    back.  The CSR arrays of B are the CSC arrays of B^T, and those of A1
    its own CSC arrays: A1 is bitwise symmetric, as the tests check.
    """
    n, n_p = A1.shape[0], B.shape[0]
    m = 2 * n
    size = m + n_p + 1
    B_csc, C_csc = B.tocsc(), C.tocsc()
    ramp = np.arange(n_p + 1, dtype=np.int32)
    # (first column, row offset, CSC indptr, indices, data, negated) per
    # block; w^T has one entry in each of its columns, w all n_p in its one
    blocks = [
        (0, 0, A1.indptr, A1.indices, A1.data, False),
        (n, n, A1.indptr, A1.indices, A1.data, False),
        (0, m, B_csc.indptr, B_csc.indices, B_csc.data, False),
        (m, 0, B.indptr, B.indices, B.data, True),
        (m, m, C_csc.indptr, C_csc.indices, C_csc.data, False),
        (m, size - 1, ramp, np.zeros(n_p, dtype=np.int32), mean_weights, False),
        (size - 1, m, ramp[[0, -1]], ramp[:-1], mean_weights, False),
    ]
    column_nnz = np.zeros(size, dtype=np.int32)
    for first, _, ptr, *_ in blocks:
        column_nnz[first : first + ptr.size - 1] += np.diff(ptr)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(column_nnz, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    free = indptr[:-1].copy()  # next free slot of each column
    for first, offset, ptr, block_indices, block_data, negated in blocks:
        columns = slice(first, first + ptr.size - 1)
        block_nnz = np.diff(ptr)
        slots = np.repeat(free[columns] - ptr[:-1], block_nnz)
        slots += np.arange(slots.size, dtype=np.int32)
        indices[slots] = block_indices + offset
        data[slots] = -block_data if negated else block_data
        free[columns] += block_nnz
    return sp.csc_matrix((data, indices, indptr), shape=(size, size))


def assemble(spec: SchemeSpec, grid: Grid, f, quad_order: int = 3) -> SaddleSystem:
    """Assemble the full saddle system for scheme `spec` with forcing `f`.

    `f` is either a VectorField of cell means or a callable (x, y) -> (fx, fy)
    averaged by `cell_means`.
    """
    spec.validate_for(grid)
    if isinstance(f, VectorField):
        if not f.grid.same_mesh(grid):
            raise GridError("forcing field lives on a different grid")
        f_cells = f
    else:
        f_cells = cell_means(f, grid, quad_order)

    n = grid.n_cells
    ops = _grid_operators(grid)
    areas = grid.cell_areas

    if spec.kind == CLUSTER_CONSTANT:
        part = spec.partition
        # the prolongation P from clusters to cells: B = P^T B_cells
        P = sp.csr_matrix((np.ones(n), (np.arange(n), part.cluster_of)), (n, part.n_clusters))
        B = (P.T @ ops.B_cells).tocsr()
        mean_weights = part.cluster_areas.copy()
        C = sp.csr_matrix((part.n_clusters, part.n_clusters))
    else:
        B = ops.B_cells
        mean_weights = areas.copy()
        if spec.kind == NATURAL:
            C = sp.csr_matrix((n, n))
        elif spec.kind == BP:
            C = (spec.lam * jump_stabilization_matrix(grid)).tocsr()
        else:  # cluster jump stabilization
            C = (
                spec.lam
                * jump_stabilization_matrix(grid, spec.partition.intra_edge_mask)
            ).tocsr()

    matrix = _bordered(ops.A1, B, C, mean_weights)
    rhs = np.zeros(2 * n + B.shape[0] + 1)
    rhs[:n] = areas * f_cells.values[:, 0]
    rhs[n : 2 * n] = areas * f_cells.values[:, 1]
    return SaddleSystem(grid, spec, matrix, rhs, B, C, mean_weights)


def energy_functional(system: SaddleSystem, u: VectorField, p: ScalarField):
    """The two quadratic terms of the scheme's energy identity.

    Returns (|u|_h1^2, stabilization seminorm^2 including lambda); the
    identity states their sum equals the forcing quadrature sum(|K| f_K.u_K)
    at the solution.
    """
    uvec = vector_field_to_array(u)
    velocity_sq = float(uvec @ _grid_operators(system.grid).velocity_apply(uvec))
    stab_sq = 0.0
    if system.C.nnz and system.C.shape[0] == system.grid.n_cells:
        stab_sq = float(p.values @ (system.C @ p.values))
    return velocity_sq, stab_sq


# -- export / import ----------------------------------------------------------

def export_matrix(mat, path) -> None:
    """Write a sparse matrix in MatrixMarket coordinate format."""
    mmwrite(str(path), sp.coo_matrix(mat))


def export_system(system: SaddleSystem, matrix_path, rhs_path) -> None:
    export_matrix(system.matrix, matrix_path)
    write_table(rhs_path, ["index", "value"], enumerate(system.rhs))


def load_system(matrix_path, rhs_path):
    """Read back an exported system as (sparse matrix, rhs array).

    Raises ConfigError unless `rhs_path` holds the header `index,value` and
    then one `index,value` row per matrix row, indexed 0..N-1 in order.
    """
    matrix = sp.csc_matrix(mmread(str(matrix_path)))
    with open(rhs_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["index", "value"]:
        raise ConfigError(f"{rhs_path}: header {rows[:1]} is not ['index', 'value']")
    rhs = np.empty(len(rows) - 1)
    for r, row in enumerate(rows[1:]):
        if len(row) != 2:
            raise ConfigError(f"{rhs_path}: row {r + 1} has {len(row)} fields, not 2")
        try:
            index, rhs[r] = int(row[0]), float(row[1])
        except ValueError as err:
            raise ConfigError(f"{rhs_path}: row {r + 1}: {err}") from err
        if index != r:
            raise ConfigError(f"{rhs_path}: row {r + 1} has index {index}, not {r}")
    if rhs.size != matrix.shape[0]:
        raise ConfigError(f"{rhs_path}: {rhs.size} values for a matrix of size {matrix.shape[0]}")
    return matrix, rhs
