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
the grid alone, and every system assembled on a grid takes them, shared and
read-only, from `operators.grid_operators`, which also applies and inverts
the velocity block.  A system is its own B, C and mean weights on top of
the grid's A1; `assemble` builds no bordered matrix.  That matrix is built
from the blocks on every read of `SaddleSystem.matrix`, for export, straight
into CSC arrays by SciPy's compiled CSR kernels, with no COO copy of any
block and no whole-size copy of B (its CSC form is written into the
matrix's own pressure slots, which are filled last).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite
# SciPy's compiled CSR kernels behind `csr_matrix.tocsc()` and behind the
# CSR fast path of `sp.hstack` (`scipy.sparse._construct.
# _stack_along_minor_axis`).  They are private and check no bounds: a
# block's indptr must start at 0 and every output must have room.
from scipy.sparse._sparsetools import csr_hstack, csr_tocsc

from .errors import ConfigError, GridError
from .fields import ScalarField, VectorField, write_table
from .grid import ClusterPartition, Grid, make_clusters
from .operators import grid_operators, jump_stabilization_matrix, vector_field_to_array
# unused here: perfbench's tracer test reads stokes_fv.assembly.h1_stiffness_matrix
from .operators import h1_stiffness_matrix  # noqa: F401

NATURAL = "natural"
BP = "bp"
CLUSTER_JUMP = "cluster"
CLUSTER_CONSTANT = "cluster-constant"
SCHEME_KINDS = (NATURAL, BP, CLUSTER_JUMP, CLUSTER_CONSTANT)

_STABILIZED = (BP, CLUSTER_JUMP)


@dataclass
class SchemeSpec:
    """Scheme selection: kind and stabilization strength lambda.

    `bp` and `cluster` need a finite lambda > 0; `natural` and
    `cluster-constant` read none, and a lambda given to them is a
    ConfigError.  The cluster schemes need no partition: `assemble` derives
    the 2x2 partition from the grid.  `partition` is accepted as a third
    argument for perfbench's `SchemeSpec(kind, lam, partition)` call and is
    never read; it goes once perfbench stops passing it.
    """

    kind: str
    lam: float | None = None
    partition: ClusterPartition | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigError(f"unknown scheme kind {self.kind!r}")
        if self.kind in _STABILIZED and (self.lam is None or not 0 < self.lam < math.inf):
            raise ConfigError(f"scheme {self.kind!r} needs a finite lambda > 0, not {self.lam!r}")
        if self.kind not in _STABILIZED and self.lam is not None:
            raise ConfigError(f"scheme {self.kind!r} takes no lambda, got {self.lam!r}")


@dataclass
class SaddleSystem:
    """Assembled saddle system, held as its blocks.

    B and C are the divergence and stabilization blocks on the system's own
    pressure space (cells, or clusters for cluster-constant pressure), and
    n_p its size.  The velocity block is diag(A1, A1) with A1 the grid's
    scalar stiffness, and the gradient block is -B^T.  B for cell pressures
    is the grid's shared read-only divergence: an in-place edit raises
    ValueError.  The full (2n + n_p + 1) square operator is `matrix`, built
    from these blocks on every read.
    """

    grid: Grid
    spec: SchemeSpec
    rhs: np.ndarray
    B: sp.csr_matrix
    C: sp.csr_matrix
    mean_weights: np.ndarray

    @property
    def matrix(self) -> sp.csc_matrix:
        """The bordered saddle matrix of the blocks, a fresh `_bordered`
        build on every read: only export and checks read it."""
        return _bordered(grid_operators(self.grid).A1, self.B, self.C, self.mean_weights)

    @property
    def n_velocity(self) -> int:
        return 2 * self.grid.n_cells

    @property
    def n_p(self) -> int:
        return self.B.shape[0]

    def cell_pressure(self, p_raw: np.ndarray) -> ScalarField:
        """Expand a pressure-space vector to one value per cell."""
        if self.spec.kind == CLUSTER_CONSTANT:
            return ScalarField(self.grid, p_raw[make_clusters(self.grid).cluster_of])
        return ScalarField(self.grid, p_raw.copy())


# entries or points handled per step of `cell_means` and `_bordered`: their
# temporaries hold a few times this many, whatever the size of the grid
_CHUNK = 1 << 13


def cell_means(f, grid: Grid, quad_order: int = 3) -> VectorField:
    """Cell averages of an analytic vector function by tensor Gauss quadrature.

    quad_order is the number of Gauss points per direction (1 = midpoint);
    exact for polynomials of degree 2*quad_order - 1 per variable.  `f` is
    called once per band of cell rows, holding about `8 * _CHUNK` points,
    on the quadrature lines: X has shape (1, nx, q, 1) and Y shape
    (rows, 1, 1, q), so `f` must broadcast its arguments against each
    other, and each of its results must broadcast to (rows, nx, q, q).  A
    forcing built of 1D factors thus evaluates them on O(n) points, and no
    temporary holds all n_cells q^2 points.
    """
    if quad_order not in (1, 2, 3):
        raise ConfigError(f"quad_order must be 1, 2 or 3, got {quad_order}")
    q = quad_order
    nodes, weights = np.polynomial.legendre.leggauss(q)
    cx, cy = grid.center_lines()
    X = cx[None, :, None, None] + 0.5 * grid.dx[None, :, None, None] * nodes[None, None, :, None]
    W = 0.25 * np.outer(weights, weights)
    means = np.empty((grid.n_cells, 2))
    # bands of a multiple of 8 rows, so that each band but the last holds a
    # multiple of 8 cells: BLAS's matrix-vector product reduces the cells of
    # a call in groups and its last few cells on their own, with other
    # roundings, so a band ending between two groups of a whole-grid call
    # would change some means
    rows = 8 * max(1, _CHUNK // (grid.nx * q * q))
    for j0 in range(0, grid.ny, rows):
        band = slice(j0, min(j0 + rows, grid.ny))
        Y = cy[band, None, None, None] + 0.5 * grid.dy[band, None, None, None] * nodes
        shape = (Y.shape[0], grid.nx, q, q)
        cells = slice(band.start * grid.nx, band.stop * grid.nx)
        for c, fc in enumerate(f(X, Y)):
            fc = np.broadcast_to(np.asarray(fc, dtype=float), shape).reshape(-1, q, q)
            means[cells, c] = np.tensordot(fc, W, axes=([1, 2], [0, 1]))
    return VectorField(grid, means)


def _bordered(A1, B, C, mean_weights) -> sp.csc_matrix:
    """The bordered saddle matrix [[A, -B^T, 0], [B, C, w], [0, w^T, 0]],
    A = diag(A1, A1) and w = `mean_weights`, built straight into exact-size
    CSC arrays by SciPy's compiled kernels.

    The CSC arrays of the matrix are the CSR arrays of its transpose, whose
    rows are [A1 | 0 | B^T] and [0 | A1 | B^T] in the velocity columns,
    [-B | C | w] in the pressure columns and [0 | w^T | 0] in the last:
    A1 and C are read through their CSR arrays as their CSC arrays, since
    both are bitwise symmetric, as the tests check.  `csr_tocsc` first
    writes B's CSC arrays, the CSR arrays of B^T, into the slots of the
    pressure columns, which hold more entries than B and are filled last;
    its column counts and the blocks' give `indptr`.  Then each of the
    three row fills is stacked by `csr_hstack`, one band of whole rows at a
    time, from the band's pieces of its blocks, copied into reused buffers,
    straight into the band's slots of the output.  A band holds about
    nnz / 8 entries, but at least 2 * _CHUNK and at most 8 * _CHUNK (or one
    row, if that row holds more), so that no temporary is the size of a
    block.  The kernels only copy values and add column offsets, and every
    block's rows are sorted, so the result is canonical, and its `indptr`,
    `indices` and `data` are those of SciPy's block stacking of the same
    blocks, which copies every block into COO form and sorts the stack
    back.  No copy of the whole of B is made.
    """
    n, n_p = A1.shape[0], B.shape[0]
    m = 2 * n
    size = m + n_p + 1
    nnz = 2 * A1.nnz + 2 * B.nnz + C.nnz + 2 * n_p
    if nnz > np.iinfo(np.int32).max:
        raise MemoryError(f"a bordered matrix of {nnz} entries overflows its int32 CSC indices")
    indptr = np.empty(size + 1, dtype=np.int32)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    first_p = 2 * A1.nnz + B.nnz  # the first slot of the pressure columns
    bt_ptr = np.empty(m + 1, dtype=np.int32)
    bt_indices, bt_data = indices[first_p : first_p + B.nnz], data[first_p : first_p + B.nnz]
    csr_tocsc(n_p, m, B.indptr, B.indices, B.data, bt_ptr, bt_indices, bt_data)
    np.add(A1.indptr, bt_ptr[: n + 1], out=indptr[: n + 1])
    np.add(A1.indptr[1:], bt_ptr[n + 1 :], out=indptr[n + 1 : m + 1])
    indptr[n + 1 : m + 1] += A1.nnz
    ramp = np.arange(n_p + 1, dtype=np.int32)
    np.add(B.indptr, C.indptr, out=indptr[m:size])
    indptr[m:size] += ramp
    indptr[m:size] += first_p
    indptr[size] = nnz
    np.add(ramp[:-1], m, out=indices[-n_p:])  # the last column, w^T
    data[-n_p:] = mean_weights

    # per fill: its columns, its blocks as (CSR indptr, indices, data, copy)
    # or None for an empty one, and their widths
    a1 = (A1.indptr, A1.indices, A1.data, np.positive)
    fills = [
        (0, n, [a1, None, (bt_ptr[: n + 1], bt_indices, bt_data, np.positive)], (n, n, n_p)),
        (n, m, [None, a1, (bt_ptr[n:], bt_indices, bt_data, np.positive)], (n, n, n_p)),
        (m, size - 1, [
            (B.indptr, B.indices, B.data, np.negative),
            (C.indptr, C.indices, C.data, np.positive),
            (ramp, np.broadcast_to(np.int32(0), n_p), mean_weights, np.positive),
        ], (m, n_p, 1)),
    ]
    cap = min(max(nnz // 8, 2 * _CHUNK), 8 * _CHUNK)
    edges = []  # each fill's band edges, in rows from its first column
    for first, last, *_ in fills:
        ptr = indptr[first : last + 1]
        starts = ptr.searchsorted(np.arange(ptr[0], ptr[-1], cap), side="right") - 1
        edges.append(np.unique(np.r_[0, starts, last - first]))
    most_rows = max(np.diff(e).max() for e in edges)
    most = max(np.diff(indptr[first + e]).max() for (first, *_), e in zip(fills, edges))
    band_ptr = np.empty(3 * (most_rows + 1), dtype=np.int32)
    band_indices, band_data = np.empty(most, dtype=np.int32), np.empty(most)
    out_ptr = np.empty(most_rows + 1, dtype=np.int32)
    for (first, _, blocks, widths), fill_edges in zip(fills, edges):
        widths = np.array(widths, dtype=np.int32)
        for r0, r1 in itertools.pairwise(fill_edges.tolist()):
            rows, end = r1 - r0, 0
            for b, block in enumerate(blocks):
                piece_ptr = band_ptr[b * (rows + 1) : (b + 1) * (rows + 1)]
                if block is None:
                    piece_ptr[:] = 0
                    continue
                ptr, block_indices, block_data, copy = block
                lo, hi = int(ptr[r0]), int(ptr[r1])
                # each piece's indptr starts at 0: the kernel takes a
                # block's entries to end at its last indptr value
                np.subtract(ptr[r0 : r1 + 1], lo, out=piece_ptr)
                band_indices[end : end + hi - lo] = block_indices[lo:hi]
                copy(block_data[lo:hi], out=band_data[end : end + hi - lo])
                end += hi - lo
            s0, s1 = indptr[first + r0], indptr[first + r1]
            csr_hstack(
                len(blocks), rows, widths, band_ptr[: 3 * (rows + 1)],
                band_indices[:end], band_data[:end], out_ptr[: rows + 1],
                indices[s0:s1], data[s0:s1],
            )
    return sp.csc_matrix((data, indices, indptr), shape=(size, size))


def _cluster_divergence(grid, B_cells):
    """The divergence P^T B_cells onto the 2x2 clusters of `grid`, with P the
    prolongation from clusters to cells, and the cluster areas."""
    part = make_clusters(grid)
    n = grid.n_cells
    P = sp.csr_matrix((np.ones(n), (np.arange(n), part.cluster_of)), (n, part.n_clusters))
    return (P.T @ B_cells).tocsr(), part.cluster_areas


def assemble(spec: SchemeSpec, grid: Grid, f, quad_order: int = 3) -> SaddleSystem:
    """Assemble the full saddle system for scheme `spec` with forcing `f`.

    `f` is either a VectorField of cell means or a callable (x, y) -> (fx, fy)
    averaged by `cell_means`.  The cluster schemes take the 2x2 partition
    `make_clusters(grid)`, which raises ClusterError on odd cell counts.
    """
    if isinstance(f, VectorField):
        if not f.grid.same_mesh(grid):
            raise GridError("forcing field lives on a different grid")
        f_cells = f
    else:
        f_cells = cell_means(f, grid, quad_order)

    n = grid.n_cells
    ops = grid_operators(grid)
    areas = grid.cell_areas

    if spec.kind == CLUSTER_CONSTANT:
        B, mean_weights = _cluster_divergence(grid, ops.B_cells)
        C = sp.csr_matrix((B.shape[0], B.shape[0]))
    else:
        B = ops.B_cells
        mean_weights = areas.copy()
        if spec.kind == NATURAL:
            C = sp.csr_matrix((n, n))
        else:  # bp over all interior edges, cluster over the intra-cluster ones
            intra = None if spec.kind == BP else make_clusters(grid).intra_edge_mask
            C = jump_stabilization_matrix(grid, intra)
            C.data *= spec.lam  # in place: the fresh matrix is this system's own

    rhs = np.zeros(2 * n + B.shape[0] + 1)
    rhs[:n] = areas * f_cells.values[:, 0]
    rhs[n : 2 * n] = areas * f_cells.values[:, 1]
    return SaddleSystem(grid, spec, rhs, B, C, mean_weights)


def energy_functional(system: SaddleSystem, u: VectorField, p: ScalarField):
    """The two quadratic terms of the scheme's energy identity.

    Returns (|u|_h1^2, stabilization seminorm^2 including lambda); the
    identity states their sum equals the forcing quadrature sum(|K| f_K.u_K)
    at the solution.
    """
    uvec = vector_field_to_array(u)
    velocity_sq = float(uvec @ grid_operators(system.grid).velocity_apply(uvec))
    stab_sq = 0.0
    if system.C.nnz:
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
