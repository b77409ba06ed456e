"""Independent loop references for the production code.

`dense_assemble_uniform` loops over cells with explicit (i, j) neighbour
indexing and writes the textbook cell-update formulas of the collocated
schemes straight into dense arrays.  It shares nothing with the sparse
edge-based assembly beyond the grid coordinates; used to cross-check the
production assembly entrywise.

`loop_edges`, `loop_cells` and `loop_cluster_regularity` are per-entity
loop versions of the flat edge tables, the grid's derived cell arrays and
the cluster regularity criterion.  `array_edges` is the whole-array build
of the eight edge tables that a grid once stored, against which the grid's
edge families, flattened, must agree bit for bit; the per-edge loops below
read their edges from it.  `per_cell_means` lays the quadrature points out
per cell, against the production `cell_means`, which evaluates the forcing
on the 1D quadrature lines.

`loop_laplacian`, `loop_gradient`, `loop_divergence` and `loop_jump` are
per-edge flux loops computing the cell-update forms of the operators,
independent of the sparse matrices the production apply forms multiply by.

`velocity_block` stacks the velocity block diag(A1, A1) with
`sp.block_diag`, and `cluster_prolongation` builds the cluster-to-cell
prolongation P as a sparse matrix: the stored objects that the production
code replaced by applying A1 to each component and by indexing with
`cluster_of`.

`dense_schur_smallest_eigen` forms the whole pressure Schur complement
B A^-1 B^T densely and takes every eigenvalue of its projection onto the
zero-mean pressures, against the production shift-invert Lanczos probe.

`sliced_pinned_block` builds the scaled, permuted, pinned saddle block the
solver factors from a copy of the unbordered saddle block, through its COO
form, against the production build from the A, B and C blocks.

`splu_gradient_dual_norm` takes the gradient dual norm through a sparse LU
of the scalar stiffness, against the production probe's factor-free fast
diagonalisation.

`bmat_bordered` stacks the bordered saddle matrix with `sp.bmat`, and
`list_edge_stencil` collects the operators' COO triplets over whole edge
tables in lists of pieces and lets SciPy sum their duplicates: the earlier
builds, against which the production CSC and CSR scatters must agree bit
for bit (`triplet_operator` builds an operator that way from the
`array_edges` tables).
"""

import dataclasses
import math
import types

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stokes_fv.operators import (
    divergence_matrix,
    gradient_matrix,
    h1_stiffness_matrix,
    jump_stabilization_matrix,
)
from stokes_fv.solver import _dissection_order, _symmetric_scaling


def dense_assemble_uniform(n, kind, lam=None):
    """Dense saddle matrix and layout for a uniform n-by-n unit-square grid.

    kind: 'natural', 'bp' or 'cluster'.  Rows are scaled by the cell area
    h^2, unknowns ordered [u1; u2; p; multiplier], and the zero-mean
    constraint carries the cell areas.  Returns the (N, N) dense matrix.
    """
    h = 1.0 / n
    nc = n * n
    size = 3 * nc + 1

    def idx(i, j):
        return j * n + i

    def neighbours(i, j):
        out = []
        if i > 0:
            out.append((idx(i - 1, j), (-1.0, 0.0)))
        if i < n - 1:
            out.append((idx(i + 1, j), (1.0, 0.0)))
        if j > 0:
            out.append((idx(i, j - 1), (0.0, -1.0)))
        if j < n - 1:
            out.append((idx(i, j + 1), (0.0, 1.0)))
        return out

    def boundary_normals(i, j):
        out = []
        if i == 0:
            out.append((-1.0, 0.0))
        if i == n - 1:
            out.append((1.0, 0.0))
        if j == 0:
            out.append((0.0, -1.0))
        if j == n - 1:
            out.append((0.0, 1.0))
        return out

    mat = np.zeros((size, size))
    for j in range(n):
        for i in range(n):
            k = idx(i, j)
            nbrs = neighbours(i, j)
            bnds = boundary_normals(i, j)
            # momentum rows, h^2 * [ (-lap u)_K + (grad p)_K ] per component
            for c in range(2):
                row = c * nc + k
                # h^2 (-lap u)_K = sum (u_K - u_L) + 2 sum_ext u_K
                for l, _ in nbrs:
                    mat[row, c * nc + k] += 1.0
                    mat[row, c * nc + l] -= 1.0
                mat[row, c * nc + k] += 2.0 * len(bnds)
                # h^2 (grad p)_K = sum h (p_K + p_L)/2 n + sum_ext h p_K n
                for l, normal in nbrs:
                    mat[row, 2 * nc + k] += h * 0.5 * normal[c]
                    mat[row, 2 * nc + l] += h * 0.5 * normal[c]
                for normal in bnds:
                    mat[row, 2 * nc + k] += h * normal[c]
            # mass row, h^2 * [ (div u)_K + T_S ]
            row = 2 * nc + k
            for l, normal in nbrs:
                for c in range(2):
                    mat[row, c * nc + k] += h * 0.5 * normal[c]
                    mat[row, c * nc + l] += h * 0.5 * normal[c]
            if kind == "bp":
                # h^2 * lambda h^2 (-lap_S p)_K = lambda h^2 sum (p_K - p_L)
                for l, _ in nbrs:
                    mat[row, 2 * nc + k] += lam * h * h
                    mat[row, 2 * nc + l] -= lam * h * h
            elif kind == "cluster":
                # same jump sum restricted to edges inside the 2x2 cluster
                for l, _ in nbrs:
                    li, lj = l % n, l // n
                    if (li // 2, lj // 2) == (i // 2, j // 2):
                        mat[row, 2 * nc + k] += lam * h * h
                        mat[row, 2 * nc + l] -= lam * h * h
            elif kind != "natural":
                raise ValueError(f"unsupported kind {kind!r}")
            # multiplier column and zero-mean constraint row (area weights)
            mat[row, 3 * nc] = h * h
            mat[3 * nc, row] = h * h
    return mat


def dense_rhs_uniform(n, f_cells):
    """Dense right-hand side: h^2 f_K stacked per component, zeros after."""
    h = 1.0 / n
    nc = n * n
    rhs = np.zeros(3 * nc + 1)
    rhs[:nc] = h * h * f_cells[:, 0]
    rhs[nc : 2 * nc] = h * h * f_cells[:, 1]
    return rhs


def loop_edges(xs, ys):
    """Edge table of the tensor grid on coordinate lines xs, ys, one edge at a
    time: vertical interior (i outer), horizontal interior (j outer),
    left/right boundary per row, bottom/top boundary per column.

    Returns a dict of the tables keyed by their names.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx, ny = xs.size - 1, ys.size - 1
    dx, dy = np.diff(xs), np.diff(ys)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])

    def idx(i, j):
        return j * nx + i

    rows = []
    for i in range(nx - 1):
        for j in range(ny):
            rows.append((idx(i, j), idx(i + 1, j), (1.0, 0.0), dy[j], cx[i + 1] - cx[i],
                         dx[i] / (dx[i] + dx[i + 1])))
    for j in range(ny - 1):
        for i in range(nx):
            rows.append((idx(i, j), idx(i, j + 1), (0.0, 1.0), dx[i], cy[j + 1] - cy[j],
                         dy[j] / (dy[j] + dy[j + 1])))
    for j in range(ny):
        rows.append((idx(0, j), -1, (-1.0, 0.0), dy[j], dx[0] / 2.0, 0.0))
        rows.append((idx(nx - 1, j), -1, (1.0, 0.0), dy[j], dx[-1] / 2.0, 0.0))
    for i in range(nx):
        rows.append((idx(i, 0), -1, (0.0, -1.0), dx[i], dy[0] / 2.0, 0.0))
        rows.append((idx(i, ny - 1), -1, (0.0, 1.0), dx[i], dy[-1] / 2.0, 0.0))

    k, l, normal, length, dist, wk = zip(*rows)
    return {
        "edge_cell_k": np.array(k, dtype=int),
        "edge_cell_l": np.array(l, dtype=int),
        "edge_normal": np.array(normal, dtype=float),
        "edge_length": np.array(length, dtype=float),
        "edge_dist": np.array(dist, dtype=float),
        "edge_weight_k": np.array(wk, dtype=float),
        "interior_edges": np.array([e for e, row in enumerate(rows) if row[1] >= 0], dtype=np.intp),
    }


def array_edges(xs, ys):
    """The eight edge tables of the tensor grid on coordinate lines xs, ys,
    as a grid once built and stored them: each family's values as a 2D
    block raveled in C order, the four families concatenated.

    Returns a dict of the tables keyed by their names.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx, ny = xs.size - 1, ys.size - 1
    dx, dy = np.diff(xs), np.diff(ys)
    cx, cy = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    cells = np.arange(nx * ny).reshape(ny, nx)  # cells[j, i] = j*nx + i
    shapes = ((nx - 1, ny), (ny - 1, nx), (ny, 2), (nx, 2))

    def cat(*parts):
        return np.concatenate([np.broadcast_to(p, s).ravel() for p, s in zip(parts, shapes)])

    edge_cell_l = cat(cells[:, 1:].T, cells[1:, :], -1, -1)
    interior = edge_cell_l >= 0
    return {
        "edge_cell_k": cat(cells[:, :-1].T, cells[:-1, :], cells[:, [0, -1]], cells[[0, -1], :].T),
        "edge_cell_l": edge_cell_l,
        "edge_normal": np.column_stack(
            [cat(1.0, 0.0, [-1.0, 1.0], 0.0), cat(0.0, 1.0, 0.0, [-1.0, 1.0])]
        ),
        "edge_length": cat(dy[None, :], dx[None, :], dy[:, None], dx[:, None]),
        "edge_dist": cat(
            (cx[1:] - cx[:-1])[:, None],
            (cy[1:] - cy[:-1])[:, None],
            [dx[0] / 2.0, dx[-1] / 2.0],
            [dy[0] / 2.0, dy[-1] / 2.0],
        ),
        "edge_weight_k": cat(
            (dx[:-1] / (dx[:-1] + dx[1:]))[:, None],
            (dy[:-1] / (dy[:-1] + dy[1:]))[:, None],
            0.0,
            0.0,
        ),
        "interior_mask": interior,
        "boundary_edges": np.flatnonzero(~interior),
    }


def loop_cells(xs, ys):
    """Cell table of the tensor grid on coordinate lines xs, ys, one cell at a
    time in the order k = j*nx + i.

    Returns a dict with the grid's cell attribute names as keys.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ij, centers = [], []
    for j in range(ys.size - 1):
        for i in range(xs.size - 1):
            ij.append((i, j))
            centers.append((0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])))
    return {"cell_ij": np.array(ij, dtype=int), "cell_centers": np.array(centers, dtype=float)}


def per_cell_means(f, grid, quad_order=3):
    """(n_cells, 2) cell means of `f` by tensor Gauss quadrature, with X and
    Y both laid out per cell, of shape (n_cells, q, q): the earlier build of
    `cell_means`, which evaluated every factor of `f` at all n_cells q^2
    points."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    centers, ij = grid.cell_centers, grid.cell_ij
    hx = grid.dx[ij[:, 0]]
    hy = grid.dy[ij[:, 1]]
    X = centers[:, 0][:, None, None] + 0.5 * hx[:, None, None] * nodes[None, :, None]
    Y = centers[:, 1][:, None, None] + 0.5 * hy[:, None, None] * nodes[None, None, :]
    W = 0.25 * np.outer(weights, weights)
    fx, fy = f(X, Y)
    shape = (grid.n_cells, quad_order, quad_order)
    fx = np.broadcast_to(np.asarray(fx, dtype=float), shape)
    fy = np.broadcast_to(np.asarray(fy, dtype=float), shape)
    mean_x = np.tensordot(fx, W, axes=([1, 2], [0, 1]))
    mean_y = np.tensordot(fy, W, axes=([1, 2], [0, 1]))
    return np.column_stack([mean_x, mean_y])


def min_direction_strength(normals) -> float:
    """Squared smallest singular value of the 2-by-m matrix of column normals."""
    mat = np.array(normals, dtype=float).T  # 2 x m
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s.min() ** 2)


def loop_cluster_regularity(grid, partition) -> float:
    """Cluster regularity from a per-cell list of out-of-cluster normals."""
    normals_per_cell = {}
    t = array_edges(grid.xs, grid.ys)
    cell_k, cell_l, normal = t["edge_cell_k"], t["edge_cell_l"], t["edge_normal"]
    for e in range(grid.n_interior_edges):
        k = cell_k[e]
        l = cell_l[e]
        if partition.cluster_of[k] == partition.cluster_of[l]:
            continue
        n = normal[e]
        normals_per_cell.setdefault(k, []).append(n)
        normals_per_cell.setdefault(l, []).append(-n)
    worst = math.inf
    for normals in normals_per_cell.values():
        worst = min(worst, min_direction_strength(normals))
    return worst


def _tables(grid):
    """The `array_edges` tables of the grid, as attributes."""
    return types.SimpleNamespace(**array_edges(grid.xs, grid.ys))


def loop_laplacian(grid, v):
    """Negative Laplacian of scalar cell values v, one edge at a time: flux
    (|sigma|/d)(v_k - v_l), wall value zero on boundary edges."""
    out = np.zeros(grid.n_cells)
    t = _tables(grid)
    for e in range(grid.n_edges):
        k, l = t.edge_cell_k[e], t.edge_cell_l[e]
        w = t.edge_length[e] / t.edge_dist[e]
        if l < 0:
            out[k] += w * v[k]
        else:
            term = w * (v[k] - v[l])
            out[k] += term
            out[l] -= term
    return out / grid.cell_areas


def loop_gradient(grid, p):
    """(n_cells, 2) pressure gradient, one edge at a time: interior flux
    |sigma| (a p_k + (1-a) p_l) n, boundary flux |sigma| p_k n."""
    out = np.zeros((grid.n_cells, 2))
    t = _tables(grid)
    for e in range(grid.n_edges):
        k, l = t.edge_cell_k[e], t.edge_cell_l[e]
        n = t.edge_normal[e]
        if l < 0:
            out[k] += t.edge_length[e] * p[k] * n
        else:
            a = t.edge_weight_k[e]
            h = t.edge_length[e] * (a * p[k] + (1.0 - a) * p[l]) * n
            out[k] += h
            out[l] -= h
    return out / grid.cell_areas[:, None]


def loop_divergence(grid, u):
    """Divergence of (n_cells, 2) velocity u, one interior edge at a time:
    flux |sigma| ((1-a) u_k + a u_l) . n; no flux through the wall."""
    out = np.zeros(grid.n_cells)
    t = _tables(grid)
    for e in range(grid.n_edges):
        k, l = t.edge_cell_k[e], t.edge_cell_l[e]
        if l < 0:
            continue
        a = t.edge_weight_k[e]
        f = t.edge_length[e] * float(np.dot((1.0 - a) * u[k] + a * u[l], t.edge_normal[e]))
        out[k] += f
        out[l] -= f
    return out / grid.cell_areas


def loop_jump(grid, p, cluster_of=None):
    """Pressure-jump stabilization, one interior edge at a time: weight
    |sigma| d on every interior edge, or, given `cluster_of`, only on edges
    whose two cells share a cluster."""
    out = np.zeros(grid.n_cells)
    t = _tables(grid)
    for e in range(grid.n_edges):
        k, l = t.edge_cell_k[e], t.edge_cell_l[e]
        if l < 0 or (cluster_of is not None and cluster_of[k] != cluster_of[l]):
            continue
        term = t.edge_length[e] * t.edge_dist[e] * (p[k] - p[l])
        out[k] += term
        out[l] -= term
    return out / grid.cell_areas


def velocity_block(grid):
    """The velocity block A = diag(A1, A1) of `grid`, by `sp.block_diag`."""
    a1 = h1_stiffness_matrix(grid)
    return sp.block_diag([a1, a1], format="csr")


def cluster_prolongation(partition):
    """The (n_cells, n_clusters) 0/1 matrix P that copies each cluster's
    value to its cells, from its COO triplets."""
    n = partition.cluster_of.size
    triplets = (np.ones(n), (np.arange(n), partition.cluster_of))
    return sp.coo_matrix(triplets, shape=(n, partition.n_clusters)).tocsr()


def dense_schur_smallest_eigen(system):
    """Smallest eigenvalue of M^-1 (B A^-1 B^T) on zero area-weighted mean
    pressures, from the dense Schur complement; `None` for one pressure dof."""
    n_p = system.n_p
    if n_p <= 1:
        return None
    lu = spla.splu(velocity_block(system.grid).tocsc())
    s_mat = system.B @ lu.solve(system.B.T.toarray())
    s_mat = 0.5 * (s_mat + s_mat.T)
    d_inv_sqrt = 1.0 / np.sqrt(system.mean_weights)
    s_hat = s_mat * np.outer(d_inv_sqrt, d_inv_sqrt)
    # orthonormal basis of the zero-mean constraint in scaled variables
    basis = scipy.linalg.null_space(np.sqrt(system.mean_weights)[None, :])
    reduced = basis.T @ s_hat @ basis
    return float(scipy.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])


def sliced_pinned_block(system, zero_c=False):
    """K = (D M D)[perm][:, perm] of the solver, with M the saddle block
    [[A, -B^T], [B, C]] without its first pressure row and column.

    M is sliced out of `system.matrix`, built from the system's blocks or,
    with `zero_c`, from them with C = 0 as the inf-sup probe factors it.
    Its COO entries are then scaled, mapped to their new positions and the
    pinned ones dropped.
    """
    pin = system.n_velocity
    m = pin + system.n_p
    if zero_c:
        system = dataclasses.replace(system, C=sp.csr_matrix((system.n_p, system.n_p)))
    block = system.matrix[:m, :m]
    order = _dissection_order(system)
    order = order[order != pin]
    scale = _symmetric_scaling(system)
    position = np.full(m, -1)
    position[order] = np.arange(m - 1)
    coo = block.tocoo()
    row, col = position[coo.row], position[coo.col]
    kept = (row >= 0) & (col >= 0)
    data = (coo.data * scale[coo.row] * scale[coo.col])[kept]
    return sp.csc_matrix((data, (row[kept], col[kept])), shape=(m - 1, m - 1))


def splu_gradient_dual_norm(q):
    """sqrt(sum over both components of g_c^T A1^-1 g_c), g = -B^T q the
    gradient load of the zero-mean pressure field q, with A1^-1 applied
    through `splu` of the scalar stiffness matrix."""
    grid = q.grid
    lu = spla.splu(h1_stiffness_matrix(grid).tocsc())
    load = -(divergence_matrix(grid).T @ q.values)
    n = grid.n_cells
    return math.sqrt(sum(float(g @ lu.solve(g)) for g in (load[:n], load[n:])))


def bmat_bordered(A, B, C, mean_weights):
    """[[A, -B^T, 0], [B, C, w], [0, w^T, 0]] by `sp.bmat`, which copies
    every block into COO form and sorts the stack back into CSC."""
    w = sp.csr_matrix(mean_weights.reshape(-1, 1))
    return sp.bmat([[A, -B.T, None], [B, C, w], [None, w.T, None]], format="csc")


def list_edge_stencil(tables, shape, edges, w, c_k, c_l, w_b=None, row_step=0, col_step=0):
    """The sum that `operators._edge_stencil` scatters, built from COO
    triplets over the whole edge `tables` (as `array_edges` gives them),
    held as lists of index and value pieces and concatenated before the
    COO-to-CSR conversion, which sums duplicates in triplet order.  With a
    row or a column step, component c takes only the interior and boundary
    edges whose normal has a nonzero component c."""
    k = tables["edge_cell_k"][edges]
    l = tables["edge_cell_l"][edges]
    boundary = tables["boundary_edges"]
    kb = tables["edge_cell_k"][boundary]
    normal = tables["edge_normal"]
    c_k, c_l = np.broadcast_to(c_k, k.shape), np.broadcast_to(c_l, k.shape)
    components = 2 if row_step or col_step else 1
    rows, cols, vals = [], [], []
    for c in range(components):
        r, s = c * row_step, c * col_step
        on = normal[edges, c] != 0 if components == 2 else slice(None)
        kc, lc = k[on], l[on]
        wk, wl = w[on] * c_k[on], w[on] * c_l[on]
        rows += [kc + r, kc + r, lc + r, lc + r]
        cols += [kc + s, lc + s, kc + s, lc + s]
        vals += [wk, wl, -wk, -wl]
        if w_b is not None:
            on_b = normal[boundary, c] != 0 if components == 2 else slice(None)
            rows.append(kb[on_b] + r)
            cols.append(kb[on_b] + s)
            vals.append(w_b[on_b])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    ).tocsr()


def triplet_operator(builder, grid, edge_mask=None):
    """What `builder(grid)` (or, for the jump matrix, `builder(grid,
    edge_mask)`), one of the `operators` matrix builders, built when a grid
    stored its edge tables: its weights sliced from the `array_edges`
    tables and summed by `list_edge_stencil`."""
    t = array_edges(grid.xs, grid.ys)
    n = grid.n_cells
    ie = slice(0, grid.n_interior_edges)
    be = t["boundary_edges"]
    length, dist, a = t["edge_length"], t["edge_dist"], t["edge_weight_k"]
    if builder is h1_stiffness_matrix:
        w, w_b = length[ie] / dist[ie], length[be] / dist[be]
        return list_edge_stencil(t, (n, n), ie, w, 1.0, -1.0, w_b=w_b)
    if builder is divergence_matrix:
        return list_edge_stencil(t, (n, 2 * n), ie, length[ie], 1.0 - a[ie], a[ie], col_step=n)
    if builder is gradient_matrix:
        w_b = length[be] * t["edge_normal"][be].sum(axis=1)
        return list_edge_stencil(
            t, (2 * n, n), ie, length[ie], a[ie], 1.0 - a[ie], w_b=w_b, row_step=n
        )
    assert builder is jump_stabilization_matrix
    if edge_mask is not None:
        ie = np.flatnonzero(np.asarray(edge_mask, dtype=bool) & t["interior_mask"])
    return list_edge_stencil(t, (n, n), ie, length[ie] * dist[ie], 1.0, -1.0)
