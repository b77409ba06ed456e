"""Structured 2D control-volume meshes and their 2x2 cluster partitions.

Cells are indexed (i, j) with i the column (x direction) and j the row
(y direction), flattened lexicographically as k = j*nx + i.  Unknowns are
collocated at cell mass centers.  Edges are stored as flat arrays with a
unit normal oriented from the first incident cell to the second (outward
for boundary edges).
"""

from __future__ import annotations

import json
import math

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


class Grid:
    """Tensor-product mesh of the rectangle spanned by its coordinate lines.

    Attributes:
        xs, ys: strictly increasing coordinate lines (nx+1, ny+1).
        nx, ny: cell counts per direction; n_cells = nx*ny.
        cell_centers: (n_cells, 2) mass centers.
        cell_areas: (n_cells,) cell measures.
        cell_ij: (n_cells, 2) integer (i, j) per cell.
        edge_cell_k / edge_cell_l: incident cells per edge (l = -1 on boundary).
        edge_normal: (n_edges, 2) unit normal, k-to-l or outward.
        edge_length: edge measures.
        edge_dist: center-to-center distance (interior) or center-to-edge
            distance (boundary).
        edge_weight_k: interior-edge interpolation share of the k-side cell,
            h_perp_k / (h_perp_k + h_perp_l); zero on boundary edges.
        edge_center: (n_edges, 2) edge midpoints.
        interior_edges / boundary_edges: index arrays into the edge tables.
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
        cx = 0.5 * (xs[:-1] + xs[1:])
        cy = 0.5 * (ys[:-1] + ys[1:])

        jj, ii = np.meshgrid(np.arange(self.ny), np.arange(self.nx), indexing="ij")
        self.cell_ij = np.column_stack([ii.ravel(), jj.ravel()])
        self.cell_centers = np.column_stack([cx[ii.ravel()], cy[jj.ravel()]])
        self.cell_areas = (dy[:, None] * dx[None, :]).ravel()

        self._build_edges(cx, cy)

        h = dx[0]
        self.is_uniform = bool(
            np.allclose(dx, h, rtol=1e-12, atol=0.0)
            and np.allclose(dy, h, rtol=1e-12, atol=0.0)
        )
        self.h = float(h) if self.is_uniform else None

    def _build_edges(self, cx, cy):
        nx, ny = self.nx, self.ny
        dx, dy, xs, ys = self.dx, self.dy, self.xs, self.ys
        cells = np.arange(self.n_cells).reshape(ny, nx)  # cells[j, i] = j*nx + i

        # Four edge families, each a 2D block raveled in C order:
        #   vertical interior (normal +x) between columns i and i+1, i outer;
        #   horizontal interior (normal +y) between rows j and j+1, j outer;
        #   left/right boundary interleaved per row j;
        #   bottom/top boundary interleaved per column i.
        # The order is part of the contract: assembly sums duplicate COO
        # entries in edge order, so it fixes the assembled matrices bitwise.
        shapes = ((nx - 1, ny), (ny - 1, nx), (ny, 2), (nx, 2))

        def cat(vertical, horizontal, left_right, bottom_top):
            parts = (vertical, horizontal, left_right, bottom_top)
            return np.concatenate(
                [np.broadcast_to(p, s).ravel() for p, s in zip(parts, shapes)]
            )

        self.edge_cell_k = cat(
            cells[:, :-1].T, cells[:-1, :], cells[:, [0, -1]], cells[[0, -1], :].T
        )
        self.edge_cell_l = cat(cells[:, 1:].T, cells[1:, :], -1, -1)
        self.edge_normal = np.column_stack(
            [cat(1.0, 0.0, [-1.0, 1.0], 0.0), cat(0.0, 1.0, 0.0, [-1.0, 1.0])]
        )
        self.edge_length = cat(dy[None, :], dx[None, :], dy[:, None], dx[:, None])
        self.edge_dist = cat(
            (cx[1:] - cx[:-1])[:, None],
            (cy[1:] - cy[:-1])[:, None],
            [dx[0] / 2.0, dx[-1] / 2.0],
            [dy[0] / 2.0, dy[-1] / 2.0],
        )
        self.edge_weight_k = cat(
            (dx[:-1] / (dx[:-1] + dx[1:]))[:, None],
            (dy[:-1] / (dy[:-1] + dy[1:]))[:, None],
            0.0,
            0.0,
        )
        self.edge_center = np.column_stack(
            [
                cat(xs[1:-1, None], cx[None, :], [xs[0], xs[-1]], cx[:, None]),
                cat(cy[None, :], ys[1:-1, None], cy[:, None], [ys[0], ys[-1]]),
            ]
        )
        self.n_edges = self.edge_cell_k.size
        interior = self.edge_cell_l >= 0
        self.interior_mask = interior
        self.interior_edges = np.flatnonzero(interior)
        self.boundary_edges = np.flatnonzero(~interior)

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
        i = grid.cell_ij[:, 0]
        j = grid.cell_ij[:, 1]
        self.cluster_of = (j // 2) * ncx + (i // 2)

        k = grid.edge_cell_k
        l = grid.edge_cell_l
        interior = grid.interior_mask
        same = np.zeros(grid.n_edges, dtype=bool)
        same[interior] = self.cluster_of[k[interior]] == self.cluster_of[l[interior]]
        self.intra_edge_mask = interior & same
        self.cross_edge_mask = interior & ~same

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
    """Minimum directional coverage of out-of-cluster neighbours over cells.

    For each cell with neighbours outside its own cluster, form the 2-by-m
    matrix of unit normals toward those neighbours; the cell value is the
    squared smallest singular value.  Returns the minimum over cells, or
    +inf when every cell's neighbours lie inside its cluster.  Only the
    partition's cross-cluster edges are read, and they depend on the cell
    counts alone, so a partition of any grid of the same shape will do.
    """
    if (2 * partition.ncx, 2 * partition.ncy) != (grid.nx, grid.ny):
        raise ClusterError(f"partition of {partition!r} does not fit {grid!r}")
    cross = partition.cross_edge_mask
    cells = np.concatenate([grid.edge_cell_k[cross], grid.edge_cell_l[cross]])
    if cells.size == 0:
        return math.inf
    m = np.bincount(cells, minlength=grid.n_cells)
    normals = np.tile(grid.edge_normal[cross], (2, 1))
    # Gram matrix N N^T of each cell's 2-by-m normal matrix; the sign of a
    # normal (k-to-l or l-to-k) drops out of n n^T
    gram = np.zeros((grid.n_cells, 2, 2))
    np.add.at(gram, cells, normals[:, :, None] * normals[:, None, :])
    a, b, c = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    # squared singular values of N are the eigenvalues of N N^T; with one
    # column, N has the single singular value |n|
    smallest = np.where(
        m == 1, a + c, 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    )
    return float(smallest[m > 0].min())


def parse_grid_config(text: str) -> Grid:
    """Build a grid from the JSON object ``{"x": [...], "y": [...]}`` of its
    coordinate lines; `build_uniform` builds the uniform grids.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise GridError(f"unrecognized grid description: {text!r}") from err
    if not isinstance(obj, dict) or "x" not in obj or "y" not in obj:
        raise GridError("grid JSON must contain 'x' and 'y' coordinate lists")
    return build_tensor(obj["x"], obj["y"])
