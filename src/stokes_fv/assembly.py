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
scheme.  The velocity block and the cell divergence depend on the grid alone,
so they are built once per Grid object and shared, read-only, by every system
assembled on it.
"""

from __future__ import annotations

import csv
import functools
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .errors import ClusterError, ConfigError, GridError
from .fields import ScalarField, VectorField, _fmt
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
        if self.kind in _STABILIZED:
            if self.lam is None or self.lam <= 0:
                raise ConfigError(f"scheme {self.kind!r} needs lambda > 0")

    def validate_for(self, grid: Grid) -> None:
        if self.kind in _NEEDS_PARTITION:
            if self.partition is None:
                raise ClusterError(f"scheme {self.kind!r} needs a cluster partition")
            if not self.partition.grid.same_mesh(grid):
                raise ClusterError("partition belongs to a different grid")


@dataclass
class SaddleSystem:
    """Assembled sparse system and its blocks.

    `matrix` is the full (2n + n_p + 1) square operator; A, B, C are the
    velocity, divergence and stabilization blocks on the system's own
    pressure space (cells, or clusters for cluster-constant pressure).  The
    gradient block of `matrix` is -B^T.  A, and B for cell pressures, are the
    grid's shared read-only operators: an in-place edit raises ValueError.
    """

    grid: Grid
    spec: SchemeSpec
    matrix: sp.csc_matrix
    rhs: np.ndarray
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    mean_weights: np.ndarray
    n_p: int
    prolongation: sp.csr_matrix | None = None
    f_cells: VectorField | None = field(default=None, repr=False)

    @property
    def n_velocity(self) -> int:
        return 2 * self.grid.n_cells

    def cell_pressure(self, p_raw: np.ndarray) -> ScalarField:
        """Expand a pressure-space vector to one value per cell."""
        if self.prolongation is not None:
            return ScalarField(self.grid, self.prolongation @ p_raw)
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


def _cluster_prolongation(partition: ClusterPartition) -> sp.csr_matrix:
    n = partition.grid.n_cells
    rows = np.arange(n)
    cols = partition.cluster_of
    vals = np.ones(n)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, partition.n_clusters)).tocsr()


class _GridOperators:
    """Scalar stiffness A1, cell divergence B_cells and velocity block
    A = diag(A1, A1) of one grid, each built once and then shared, plus the
    gradient G and the jump matrices J (all interior edges) and J_intra
    (intra-cluster edges) that the operators' apply forms multiply by, and
    `A1_solve`, the factor-free inverse of A1 that the gradient probe and
    the Schur-complement solver apply.

    Their arrays are read-only, so a caller editing one in place gets a
    ValueError instead of silently changing every system on the grid.  A,
    G, J, J_intra and A1_solve are built on first use: the gradient probe
    needs only A1_solve and B_cells, and assembly never needs G, the jump
    matrices or A1_solve.  The grid is held by a weak reference, so the
    memo does not keep it alive.
    """

    def __init__(self, grid: Grid):
        self._grid = weakref.ref(grid)
        self.A1 = _read_only(h1_stiffness_matrix(grid))
        self.B_cells = _read_only(divergence_matrix(grid))

    @functools.cached_property
    def A(self) -> sp.csr_matrix:
        return _read_only(sp.block_diag([self.A1, self.A1], format="csr"))

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
        right-hand side per row (both velocity components at once), to the
        solutions in the same shape.
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
    A, B_cells = ops.A, ops.B_cells
    areas = grid.cell_areas

    prolongation = None
    if spec.kind == CLUSTER_CONSTANT:
        prolongation = _cluster_prolongation(spec.partition)
        B = (prolongation.T @ B_cells).tocsr()
        mean_weights = np.asarray(prolongation.T @ areas).ravel()
        n_p = spec.partition.n_clusters
        C = sp.csr_matrix((n_p, n_p))
    else:
        B = B_cells
        mean_weights = areas.copy()
        n_p = n
        if spec.kind == NATURAL:
            C = sp.csr_matrix((n, n))
        elif spec.kind == BP:
            C = (spec.lam * jump_stabilization_matrix(grid)).tocsr()
        else:  # cluster jump stabilization
            C = (
                spec.lam
                * jump_stabilization_matrix(grid, spec.partition.intra_edge_mask)
            ).tocsr()

    w_col = sp.csr_matrix(mean_weights.reshape(-1, 1))
    matrix = sp.bmat(
        [
            [A, -B.T, None],
            [B, C, w_col],
            [None, w_col.T, None],
        ],
        format="csc",
    )
    rhs = np.zeros(2 * n + n_p + 1)
    rhs[:n] = areas * f_cells.values[:, 0]
    rhs[n : 2 * n] = areas * f_cells.values[:, 1]

    return SaddleSystem(
        grid=grid,
        spec=spec,
        matrix=matrix,
        rhs=rhs,
        A=A,
        B=B,
        C=C,
        mean_weights=mean_weights,
        n_p=n_p,
        prolongation=prolongation,
        f_cells=f_cells,
    )


def energy_functional(system: SaddleSystem, u: VectorField, p: ScalarField):
    """The two quadratic terms of the scheme's energy identity.

    Returns (|u|_h1^2, stabilization seminorm^2 including lambda); the
    identity states their sum equals the forcing quadrature sum(|K| f_K.u_K)
    at the solution.
    """
    uvec = vector_field_to_array(u)
    velocity_sq = float(uvec @ (system.A @ uvec))
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
    with open(rhs_path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["index", "value"])
        for idx, v in enumerate(system.rhs):
            out.writerow([idx, _fmt(v)])


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
