"""Structured 2D control-volume meshes and their 2x2 cluster partitions.

Cells are indexed (i, j) with i the column (x direction) and j the row
(y direction), flattened lexicographically as k = j*nx + i.  Unknowns are
collocated at cell mass centers.  Edges are derived from the coordinate
lines, one family at a time, with a unit normal oriented from the first
incident cell to the second (outward for boundary edges).
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .errors import ClusterError, GridError


def _coordinate_line(values) -> np.ndarray:
    """`values` as a float array, if they are a flat list of finite numbers."""
    try:
        line = np.asarray(values)
    except ValueError as err:  # a ragged nested list
        raise GridError("grid coordinates must be flat lists of finite numbers") from err
    if line.ndim != 1 or line.dtype.kind not in "iuf" or not np.isfinite(line).all():
        raise GridError("grid coordinates must be flat lists of finite numbers")
    return line.astype(float, copy=False)


class EdgeFamily(NamedTuple):
    """One of the four edge families of a tensor grid: a 2D block of edges,
    raveled in C order along the edge order.  Its values are built from the
    coordinate lines as arrays that broadcast to the block, so a reader
    allocates only what it computes from them; `k` is built on every read.
    """

    edges: slice  # the family's place in the edge order
    shape: tuple  # the block
    rows: np.ndarray  # k = rows + cols, broadcast to the block
    cols: np.ndarray
    step: int  # l = k + step on an interior family; 0 on a boundary one (l = -1)
    axis: int  # the normal lies along this axis...
    sign: object  # ...with this sign
    length: np.ndarray  # |sigma|
    dist: np.ndarray  # center to center (interior) or center to edge (boundary)
    weight_k: object  # h_perp_k / (h_perp_k + h_perp_l); zero on the boundary

    @property
    def k(self) -> np.ndarray:
        """The first incident cell of each edge, a fresh (shape) array."""
        return self.rows + self.cols


class Grid:
    """Tensor-product mesh of the rectangle spanned by its coordinate lines.

    A grid stores only its lines, counts and cell measures:
        xs, ys: strictly increasing coordinate lines (nx+1, ny+1).
        nx, ny: cell counts per direction; n_cells = nx*ny.
        dx, dy: cell widths per direction (nx, ny).
        cell_areas: (n_cells,) cell measures.
        n_edges / n_interior_edges: edge counts; the interior edges are the
            first n_interior_edges in the edge order.
        is_uniform, h: whether every cell is a square of one side h (else
            h is None).

    Every edge quantity is a function of one coordinate line, so the edges
    are derived, never stored: `families()` gives them per family with no
    whole-size array.  The cell arrays are read-only properties, each a
    fresh array on every read:
        cell_centers: (n_cells, 2) mass centers.
        cell_ij: (n_cells, 2) integer (i, j) per cell.
    """

    def __init__(self, xs, ys):
        xs, ys = _coordinate_line(xs), _coordinate_line(ys)
        if xs.size < 3 or ys.size < 3:
            raise GridError("need at least 2 cells per direction")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise GridError("coordinates must be strictly increasing")
        self.xs = xs
        self.ys = ys
        self.nx = xs.size - 1
        self.ny = ys.size - 1
        self.n_cells = self.nx * self.ny

        dx = np.diff(xs)
        dy = np.diff(ys)
        self.dx = dx
        self.dy = dy
        self.cell_areas = (dy[:, None] * dx[None, :]).ravel()
        nx, ny = self.nx, self.ny
        self.n_interior_edges = (nx - 1) * ny + (ny - 1) * nx
        self.n_edges = self.n_interior_edges + 2 * (nx + ny)

        h = dx[0]
        self.is_uniform = bool(
            np.allclose(dx, h, rtol=1e-12, atol=0.0)
            and np.allclose(dy, h, rtol=1e-12, atol=0.0)
        )
        self.h = float(h) if self.is_uniform else None

    def center_lines(self):
        """The cell-center coordinate lines (nx,) and (ny,)."""
        xs, ys = self.xs, self.ys
        return 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])

    def families(self):
        """The four edge families, in edge order:
          vertical interior (normal +x) between columns i and i+1, i outer;
          horizontal interior (normal +y) between rows j and j+1, j outer;
          left/right boundary interleaved per row j;
          bottom/top boundary interleaved per column i.
        The order is part of the contract: the interior edges form a prefix,
        vertical before horizontal, and the operator builders sum each
        diagonal in edge order, so the order fixes the assembled matrices
        bitwise."""
        nx, ny = self.nx, self.ny
        dx, dy = self.dx, self.dy
        cx, cy = self.center_lines()
        i, j = np.arange(nx), np.arange(ny) * nx  # k = j*nx + i
        n_vertical, n_interior = (nx - 1) * ny, self.n_interior_edges
        n_left_right = n_interior + 2 * ny
        walls = np.array([-1.0, 1.0])
        return (
            EdgeFamily(
                slice(0, n_vertical), (nx - 1, ny), i[:-1, None], j[None, :], 1, 0, 1.0,
                dy[None, :], (cx[1:] - cx[:-1])[:, None], (dx[:-1] / (dx[:-1] + dx[1:]))[:, None],
            ),
            EdgeFamily(
                slice(n_vertical, n_interior), (ny - 1, nx), j[:-1, None], i[None, :], nx, 1, 1.0,
                dx[None, :], (cy[1:] - cy[:-1])[:, None], (dy[:-1] / (dy[:-1] + dy[1:]))[:, None],
            ),
            EdgeFamily(
                slice(n_interior, n_left_right), (ny, 2), j[:, None], np.array([0, nx - 1]), 0, 0,
                walls, dy[:, None], np.array([dx[0] / 2.0, dx[-1] / 2.0]), 0.0,
            ),
            EdgeFamily(
                slice(n_left_right, self.n_edges), (nx, 2), i[:, None], np.array([0, j[-1]]), 0, 1,
                walls, dx[:, None], np.array([dy[0] / 2.0, dy[-1] / 2.0]), 0.0,
            ),
        )

    @property
    def cell_ij(self) -> np.ndarray:
        i, j = np.arange(self.nx), np.arange(self.ny)
        return np.column_stack([np.tile(i, self.ny), np.repeat(j, self.nx)])

    @property
    def cell_centers(self) -> np.ndarray:
        cx, cy = self.center_lines()
        return np.column_stack([np.tile(cx, self.ny), np.repeat(cy, self.nx)])

    def same_mesh(self, other: "Grid") -> bool:
        return (
            self is other
            or (np.array_equal(self.xs, other.xs) and np.array_equal(self.ys, other.ys))
        )

    def __repr__(self):
        kind = "uniform" if self.is_uniform else "tensor"
        return f"Grid({kind}, nx={self.nx}, ny={self.ny})"


class ClusterPartition:
    """Partition of the cells into 2x2 patches ("clusters").

    Interior edges split into two disjoint sets: edges between two cells of
    the same cluster (intra) and edges between two clusters (cross).  Plain
    data derived from a grid, holding no reference back to it: only the
    cluster areas depend on the coordinates, the rest on (nx, ny) alone.
    """

    def __init__(self, grid: Grid):
        if grid.nx % 2 or grid.ny % 2:
            raise ClusterError("cluster partition needs even cell counts per direction")
        ncx, ncy = grid.nx // 2, grid.ny // 2
        self.ncx, self.ncy = ncx, ncy
        self.n_clusters = ncx * ncy
        # (j // 2) * ncx + i // 2 per cell k = j*nx + i, from the index lines
        i, j = np.arange(grid.nx), np.arange(grid.ny)
        self.cluster_of = ((j // 2)[:, None] * ncx + (i // 2)[None, :]).ravel()

        # an interior edge between columns (rows) m and m + 1 joins two cells
        # of one cluster iff m is even
        self.intra_edge_mask = np.zeros(grid.n_edges, dtype=bool)
        self.cross_edge_mask = np.zeros(grid.n_edges, dtype=bool)
        for family in grid.families()[:2]:
            even = (np.arange(family.shape[0]) % 2 == 0)[:, None]
            self.intra_edge_mask[family.edges].reshape(family.shape)[...] = even
            self.cross_edge_mask[family.edges].reshape(family.shape)[...] = ~even

        self.cluster_areas = np.bincount(
            self.cluster_of, weights=grid.cell_areas, minlength=self.n_clusters
        )

    def __repr__(self):
        return f"ClusterPartition({self.ncx}x{self.ncy} clusters)"


def build_uniform(n: int) -> Grid:
    """Uniform n-by-n grid of the unit square, step 1/n."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise GridError(f"need n >= 2 cells per side, got {n!r}")
    coords = np.linspace(0.0, 1.0, n + 1)
    return Grid(coords, coords.copy())


def build_tensor(xs, ys) -> Grid:
    """Tensor-product grid from explicit coordinate lines."""
    return Grid(xs, ys)


def make_clusters(grid: Grid) -> ClusterPartition:
    """Group the cells of `grid` into 2x2 clusters (consecutive index pairs)."""
    return ClusterPartition(grid)


def cluster_regularity(grid: Grid, partition: ClusterPartition) -> float:
    """The paper's cluster-regularity criterion, in its tensor-grid closed form.

    The criterion is the least squared singular value of a cell's matrix N
    of unit normals toward its out-of-cluster neighbours, over the cells that
    have such neighbours.  On a tensor grid every normal is +-x or +-y and a
    cell of a 2x2 cluster has at most one cross-cluster edge per direction,
    so N N^T = diag(a, c) with a, c in {0, 1}, and the a + c singular values
    of N are all 1: the criterion is 1 when the grid has more
    than one cluster, +inf for a single cluster.  It stays only because the
    setup-n384 benchmark workload calls it and gates its value, and goes
    with that call.
    """
    if (2 * partition.ncx, 2 * partition.ncy) != (grid.nx, grid.ny):
        raise ClusterError(f"partition of {partition!r} does not fit {grid!r}")
    return math.inf if partition.n_clusters == 1 else 1.0


def parse_grid_config(description) -> Grid:
    """Build a grid from the object ``{"x": [...], "y": [...]}`` of its
    coordinate lines, given as JSON text or, from a config file, already
    decoded; `build_uniform` builds the uniform grids.
    """
    try:
        obj = json.loads(description) if isinstance(description, str) else description
    except json.JSONDecodeError as err:
        raise GridError(f"unrecognized grid description: {description!r}") from err
    if not isinstance(obj, dict) or "x" not in obj or "y" not in obj:
        raise GridError('grid must be an object {"x": [...], "y": [...]} of coordinate lists')
    unknown = ", ".join(repr(key) for key in sorted(set(obj) - {"x", "y"}))
    if unknown:
        raise GridError(f'unknown grid key {unknown}: a grid holds only "x" and "y"')
    return build_tensor(obj["x"], obj["y"])
