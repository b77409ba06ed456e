"""Piecewise-constant fields on a grid and their discrete norms.

The discrete H1 inner product weights every edge by its transmissivity
|sigma|/d (interior: center-to-center distance, boundary: center-to-edge
distance), which on a uniform grid reduces to weight 1 on interior edges
and 2 on boundary edges.  The jump inner product is unweighted on every
grid.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from .errors import GridError
from .grid import ClusterPartition, Grid


class _CellField:
    """Values on the cells of a grid, one row of shape `_ROW` per cell;
    fields of the same class add, subtract and scale."""

    __slots__ = ("grid", "values")
    _ROW: tuple = ()

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        shape = (grid.n_cells, *self._ROW)
        if values.shape != shape:
            raise GridError(f"expected shape {shape}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise GridError("field values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, np.zeros((grid.n_cells, *cls._ROW)))

    def copy(self):
        return type(self)(self.grid, self.values.copy())

    def __sub__(self, other):
        _check_same_grid(self, other)
        return type(self)(self.grid, self.values - other.values)

    def __add__(self, other):
        _check_same_grid(self, other)
        return type(self)(self.grid, self.values + other.values)

    def __mul__(self, a: float):
        return type(self)(self.grid, self.values * float(a))

    __rmul__ = __mul__


class ScalarField(_CellField):
    """One real value per cell."""

    __slots__ = ()

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        """Sample fn(x, y) at cell mass centers (pointwise interpolation)."""
        c = grid.cell_centers
        return cls(grid, np.asarray(fn(c[:, 0], c[:, 1]), dtype=float))

    def mean(self) -> float:
        g = self.grid
        return float(np.dot(g.cell_areas, self.values) / g.cell_areas.sum())


class VectorField(_CellField):
    """Two-component field stored as an (n_cells, 2) array."""

    __slots__ = ()
    _ROW = (2,)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "VectorField":
        """Sample fn(x, y) -> (vx, vy) at cell mass centers."""
        c = grid.cell_centers
        vx, vy = fn(c[:, 0], c[:, 1])
        vx = np.broadcast_to(np.asarray(vx, dtype=float), (grid.n_cells,))
        vy = np.broadcast_to(np.asarray(vy, dtype=float), (grid.n_cells,))
        return cls(grid, np.column_stack([vx, vy]))

    def component(self, c: int) -> ScalarField:
        return ScalarField(self.grid, self.values[:, c].copy())


def _check_same_grid(a, b):
    if a.grid is not b.grid and not a.grid.same_mesh(b.grid):
        raise GridError("fields live on different grids")


def _edge_weights_h1(grid: Grid):
    return grid.edge_length / grid.edge_dist


def h1_inner(v, w) -> float:
    """Discrete H1 inner product (edge differences, transmissivity weights)."""
    if isinstance(v, VectorField):
        _check_same_grid(v, w)
        return h1_inner(v.component(0), w.component(0)) + h1_inner(
            v.component(1), w.component(1)
        )
    _check_same_grid(v, w)
    g = v.grid
    wgt = _edge_weights_h1(g)
    ie = g.interior_edges
    be = g.boundary_edges
    k, l = g.edge_cell_k, g.edge_cell_l
    dv = v.values[k[ie]] - v.values[l[ie]]
    dw = w.values[k[ie]] - w.values[l[ie]]
    interior = float(np.dot(wgt[ie] * dv, dw))
    boundary = float(np.dot(wgt[be] * v.values[k[be]], w.values[k[be]]))
    return interior + boundary


def h1_norm(v) -> float:
    return math.sqrt(max(h1_inner(v, v), 0.0))


def l2_norm(v) -> float:
    g = v.grid
    if isinstance(v, VectorField):
        return math.sqrt(float(np.dot(g.cell_areas, (v.values**2).sum(axis=1))))
    return math.sqrt(float(np.dot(g.cell_areas, v.values**2)))


def jump_inner(p: ScalarField, q: ScalarField) -> float:
    """Unweighted inner product of interior-edge jumps."""
    _check_same_grid(p, q)
    g = p.grid
    ie = g.interior_edges
    k, l = g.edge_cell_k[ie], g.edge_cell_l[ie]
    return float(np.dot(p.values[k] - p.values[l], q.values[k] - q.values[l]))


def jump_seminorm(q: ScalarField) -> float:
    return math.sqrt(max(jump_inner(q, q), 0.0))


def split_seminorms(q: ScalarField, partition: ClusterPartition):
    """Split the jump seminorm into (cross-cluster, intra-cluster) parts."""
    if not partition.grid.same_mesh(q.grid):
        raise GridError("partition belongs to a different grid")
    g = q.grid
    k, l = g.edge_cell_k, g.edge_cell_l

    def part(mask):
        e = np.flatnonzero(mask)
        d = q.values[k[e]] - q.values[l[e]]
        return float(np.dot(d, d))

    cross_sq = part(partition.cross_edge_mask)
    intra_sq = part(partition.intra_edge_mask)
    return math.sqrt(cross_sq), math.sqrt(intra_sq)


def zero_mean_project(q: ScalarField) -> ScalarField:
    """Subtract the area-weighted mean."""
    return ScalarField(q.grid, q.values - q.mean())


# -- CSV serialization -------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_table(path, header, rows) -> None:
    """Write a CSV table: floats as `_fmt` gives them, None as an empty
    cell, anything else as `csv.writer` writes it."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        for row in rows:
            out.writerow(["" if v is None else _fmt(v) if isinstance(v, float) else v for v in row])


# Rows formatted per block: one block's Python lists stay small, which kept
# the peak RSS of a 384x384 setup-and-write run below that of whole-column
# lists (403 MB against 411 MB).
_CSV_BLOCK_ROWS = 16384


def _write_rows(path, header, grid, columns) -> None:
    # Same bytes as csv.writer with _fmt cells (%.17g is format(v, ".17g")).
    row = ",".join(["%d", "%d"] + ["%.17g"] * len(columns)) + "\r\n"
    arrays = [grid.cell_ij[:, 0], grid.cell_ij[:, 1], *columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, grid.n_cells, _CSV_BLOCK_ROWS):
            block = [a[start : start + _CSV_BLOCK_ROWS].tolist() for a in arrays]
            fh.writelines(map(row.__mod__, zip(*block)))


def write_scalar_csv(field: ScalarField, path) -> None:
    _write_rows(path, ["i", "j", "value"], field.grid, [field.values])


def write_vector_csv(field: VectorField, path) -> None:
    _write_rows(path, ["i", "j", "vx", "vy"], field.grid, [field.values[:, 0], field.values[:, 1]])


def _read_rows(grid: Grid, path, header) -> np.ndarray:
    """Value columns of a CSV written by `_write_rows`, one row per cell.

    Raises GridError on a wrong header or field count, a non-integer or
    out-of-range (i, j), a duplicated cell or a missing cell.
    """
    dtype = [("i", np.int64), ("j", np.int64)] + [(name, float) for name in header[2:]]
    with open(path) as fh:
        found = fh.readline().rstrip("\n").split(",")
        if found != header:
            raise GridError(f"{path}: header {found} is not {header}")
        try:
            with warnings.catch_warnings():
                # a file with no rows is reported below as missing cells
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1)
        except ValueError as err:
            raise GridError(f"{path}: malformed row after the header: {err}") from err
    i, j = rows["i"], rows["j"]
    bad = np.flatnonzero((i < 0) | (i >= grid.nx) | (j < 0) | (j >= grid.ny))
    if bad.size:
        r = bad[0]
        raise GridError(f"{path}: cell ({i[r]}, {j[r]}) is outside the {grid.nx}x{grid.ny} grid")
    k = j * grid.nx + i
    counts = np.bincount(k, minlength=grid.n_cells)
    if counts.max() > 1:
        dup = np.flatnonzero(counts > 1)[0]
        raise GridError(f"{path}: cell {tuple(grid.cell_ij[dup])} appears {counts[dup]} times")
    if k.size < grid.n_cells:
        gap = np.flatnonzero(counts == 0)[0]
        raise GridError(f"{path}: cell {tuple(grid.cell_ij[gap])} is missing")
    values = np.empty((grid.n_cells, len(header) - 2))
    for c, name in enumerate(header[2:]):
        values[k, c] = rows[name]
    return values


def read_scalar_csv(grid: Grid, path) -> ScalarField:
    return ScalarField(grid, _read_rows(grid, path, ["i", "j", "value"])[:, 0])


def read_vector_csv(grid: Grid, path) -> VectorField:
    return VectorField(grid, _read_rows(grid, path, ["i", "j", "vx", "vy"]))
