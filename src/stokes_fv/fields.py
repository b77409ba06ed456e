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
from .grid import Grid, make_clusters


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


def _interior_pairs(grid: Grid):
    """The k and l cells of the interior edges, in edge order."""
    interior = grid.families()[:2]
    k = np.concatenate([f.k.ravel() for f in interior])
    l = np.concatenate([(f.k + f.step).ravel() for f in interior])
    return k, l


def h1_inner(v, w) -> float:
    """Discrete H1 inner product (edge differences, transmissivity weights)."""
    _check_same_grid(v, w)
    g = v.grid
    k, l = _interior_pairs(g)
    families = g.families()
    interior, boundary = families[:2], families[2:]
    wgt = np.concatenate([(f.length / f.dist).ravel() for f in interior])
    kb = np.concatenate([f.k.ravel() for f in boundary])
    wgt_b = np.concatenate([(f.length / f.dist).ravel() for f in boundary])

    def inner(a, b):
        interior = float(np.dot(wgt * (a[k] - a[l]), b[k] - b[l]))
        return interior + float(np.dot(wgt_b * a[kb], b[kb]))

    if isinstance(v, VectorField):
        return inner(v.values[:, 0], w.values[:, 0]) + inner(v.values[:, 1], w.values[:, 1])
    return inner(v.values, w.values)


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
    k, l = _interior_pairs(p.grid)
    return float(np.dot(p.values[k] - p.values[l], q.values[k] - q.values[l]))


def jump_seminorm(q: ScalarField) -> float:
    return math.sqrt(max(jump_inner(q, q), 0.0))


def split_seminorms(q: ScalarField):
    """Split the jump seminorm into (cross-cluster, intra-cluster) parts over
    the 2x2 clusters of the field's own grid (ClusterError on an odd grid)."""
    g = q.grid
    partition = make_clusters(g)
    interior = g.families()[:2]
    jumps = [q.values[f.k] - q.values[f.k + f.step] for f in interior]

    def part(mask):
        picked = [jump[mask[f.edges].reshape(f.shape)] for f, jump in zip(interior, jumps)]
        d = np.concatenate(picked)
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
    ij = grid.cell_ij
    arrays = [ij[:, 0], ij[:, 1], *columns]
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
