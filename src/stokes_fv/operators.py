"""Discrete diffusion, gradient, divergence and stabilization operators.

Every operator is a sum over edges sigma = (k, l) of a flux weight times the
jump (e_k - e_l), scaled row-wise by the cell area, so that a matrix row is
the integral of the operator over the cell.  The one builder `_edge_stencil`
writes each such sum straight into exact-size CSR arrays.  The cell-update
("apply") forms of the gradient, divergence and stabilization are that
matrix product divided by the cell areas; the Laplacian's instead sums its
per-edge diffusive fluxes, so that it is exactly zero on constants away
from the wall.  The public `*_matrix` builders return a fresh matrix on
every call.

The operators of a grid do not depend on the scheme, so `grid_operators`
keeps one shared, read-only copy of them per Grid object for assembly, the
solver and the checks, with the factor-free inverse of the stiffness.

Fluxes are oriented along the edge normal (k-to-l, outward on the
boundary).  On interior edges of a tensor grid:

* diffusive flux of v through sigma:  (|sigma|/d) (v_l - v_k),
* velocity flux:   |sigma| [ (1-a) u_k + a u_l ] . n,
* pressure flux:   |sigma| [ a p_k + (1-a) p_l ] n,
* pressure jump:   |sigma| d (p_k - p_l)  (stabilization),

with a = h_perp_k / (h_perp_k + h_perp_l); the "swapped" pressure weights
make the assembled gradient exactly minus the transpose of the assembled
divergence.  On a uniform grid both interpolations reduce to the plain
average.  Boundary edges carry a two-point diffusive flux to a zero wall
value, a pressure flux |sigma| p_k n, and no velocity flux.

On a tensor grid every normal lies along an axis, so the velocity flux
through a vertical edge carries only u1 and through a horizontal one only
u2, and the pressure flux likewise feeds one gradient component.  Component
c of the divergence and of the gradient is therefore built over the edges
whose normal lies along axis c only, and stores no coupling of a component
across an edge orthogonal to it: 2 n_cells + 2 n_interior entries each.
The stiffness and the jump matrices have one component over every edge.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import GridError
from .fields import ScalarField, VectorField, _check_same_grid
from .grid import Grid, make_clusters


# -- flux form ---------------------------------------------------------------

def diffusion_fluxes(field) -> np.ndarray:
    """Per-edge diffusive flux, consistent with the edge integral of the
    normal derivative for affine data.  Shape (n_edges,) for scalar input,
    (n_edges, 2) for vector input."""
    g = field.grid
    vals = field.values
    row = vals.shape[1:]
    out = np.empty((g.n_edges, *row))
    for f in g.families():
        k = f.k
        w = f.length / f.dist
        if row:
            w = w[..., None]
        neighbour = vals[k + f.step] if f.step else 0.0  # wall value is zero
        out[f.edges] = (w * (neighbour - vals[k])).reshape(-1, *row)
    return out


def velocity_fluxes(u: VectorField) -> np.ndarray:
    """Per-edge normal velocity flux G_sigma; zero on boundary edges."""
    g = u.grid
    out = np.zeros(g.n_edges)
    for f in g.families()[:2]:  # an interior normal is its axis's unit vector
        k, a = f.k, f.weight_k
        uk, ul = u.values[k, f.axis], u.values[k + f.step, f.axis]
        out[f.edges] = (f.length * ((1.0 - a) * uk + a * ul)).ravel()
    return out


# -- cell-update form ---------------------------------------------------------

def laplacian_apply(u):
    """Cell values of the negative discrete Laplacian (homogeneous wall values).

    The net `diffusion_fluxes` into each cell over its area, summed edge by
    edge in edge order rather than through `h1_stiffness_matrix`: that
    matrix's assembled diagonal is a rounded sum of edge weights, so its
    product with a constant field is not exactly zero away from the wall.
    No cell is the k (or the l) cell of two edges of one family, so each
    family adds at most one term per cell.
    """
    g = u.grid
    f = diffusion_fluxes(u)
    inflow, outflow = np.zeros_like(u.values), np.zeros_like(u.values)
    for family in g.families():
        k = family.k.ravel()
        outflow[k] += f[family.edges]
        if family.step:
            inflow[k + family.step] += f[family.edges]
    out = inflow - outflow
    if isinstance(u, VectorField):
        return VectorField(g, out / g.cell_areas[:, None])
    return ScalarField(g, out / g.cell_areas)


def gradient_apply(p: ScalarField) -> VectorField:
    """Cell values of the discrete pressure gradient."""
    g = p.grid
    out = (grid_operators(g).G @ p.values).reshape(2, -1).T
    return VectorField(g, out / g.cell_areas[:, None])


def divergence_apply(u: VectorField) -> ScalarField:
    """Cell values of the discrete velocity divergence (no wall flux)."""
    g = u.grid
    return ScalarField(g, grid_operators(g).B_cells @ vector_field_to_array(u) / g.cell_areas)


def stab_laplacian_apply(p: ScalarField, variant: str = "full") -> ScalarField:
    """Pressure-jump stabilization operator, per cell.

    Edge weight |sigma| * d  (h^2 on a uniform grid), normalized by the cell
    area; `variant` selects all interior edges ("full") or only the edges
    inside a 2x2 cluster of the grid ("intra_cluster", ClusterError on an
    odd grid).
    """
    g = p.grid
    if variant == "full":
        jump = grid_operators(g).J
    elif variant == "intra_cluster":
        jump = grid_operators(g).J_intra
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ScalarField(g, jump @ p.values / g.cell_areas)


def duality_defect(p: ScalarField, v: VectorField) -> float:
    """Quadrature of (grad p . v) + (p div v); zero up to rounding by duality."""
    _check_same_grid(p, v)
    g = p.grid
    gp = gradient_apply(p)
    dv = divergence_apply(v)
    t1 = float(np.dot(g.cell_areas, np.einsum("ij,ij->i", gp.values, v.values)))
    t2 = float(np.dot(g.cell_areas, p.values * dv.values))
    return t1 + t2


# -- assembled sparse form (rows scaled by cell area) -------------------------

def _edge_stencil(grid, shape, components, weights, boundary_weights=None, row_step=0, col_step=0):
    """Sum over interior edges of w (e_k - e_l)(c_k e_k + c_l e_l)^T, plus
    w_b e_k e_k^T over boundary edges, written straight into exact-size CSR
    arrays, with no triplets.

    `components` holds per component a pair (interior, boundary) of lists
    of edge families of `grid` (`Grid.families`).  `weights(family)` gives
    (w, c_k, c_l) over an interior family, cut to a band of cell rows by
    `_rows`, and `boundary_weights(family)` w_b over a boundary one, each
    broadcast to the family's block.  With a row or a column step the
    stencil is a velocity-pressure one of two components: component c
    occupies rows shifted by c * row_step and columns shifted by
    c * col_step, after the entries of component c - 1 where the two share
    a row.  With neither step it has one component.

    Slots.  On a tensor grid the row of cell m in a component holds at most
    its south (m - nx), west (m - 1), own, east (m + 1) and north (m + nx)
    slots, in that order: the west and east ones if the component has the
    vertical family, the south and north ones if it has the horizontal
    one.  An edge (k, l) puts w c_l at the east or north slot of row k and
    -w c_k at the west or south slot of row l.  A slot exists exactly where
    its cell is on the grid, also where its value is zero, as on the
    diagonal of a uniform grid's divergence, so the row counts are closed
    form: per component the own slot and, per interior family, 2 slots, or
    1 for a cell at a wall across the family's normal.

    Bands.  The rows are built in bands of whole cell rows (`_band_rows`).
    A band's values fill a (rows, nx, slots) array from 2D slices of each
    family's weights, and its slot-existence mask compresses them into the
    band's contiguous range of the CSR arrays.  A horizontal edge between
    two bands adds to a row of each, so the arrays carry one halo row
    above the band and one below it.

    The diagonal sums several edges' terms, so its bits depend on their
    order.  It is summed in the order in which a COO build, emitting per
    component the triplets kk, kl, lk and ll over the component's edges and
    then its boundary ones, sums duplicates: starting from -0.0 (-0.0 + x
    is x, bitwise, for every x), kk over the vertical then the horizontal
    edges, ll the same way, then the boundary families in order.  kk is
    added from the west or south slot before that slot is negated, and ll
    is subtracted from the east or north slot (x - y is x + (-y), bitwise).
    That keeps every matrix bitwise equal to the COO build, which the tests
    keep as the reference.
    """
    nx, ny = grid.nx, grid.ny
    band = min(_band_rows(nx, ny), ny)

    def layout(parts):
        """A row block's components, each as its slots' positions by name,
        its interior families and its boundary families with their weights,
        the column offset of every slot from the row's own cell, and how
        many components have an interior family along each axis."""
        block, offsets = [], []
        for s, (interior, boundary) in parts:
            axes = {family.axis for family in interior}
            slot = {}
            for name, axis, di, dj in _SLOTS:
                if axis is None or axis in axes:
                    slot[name] = len(offsets)
                    offsets.append(s + di + dj * nx)
            walls = [(f, np.broadcast_to(boundary_weights(f), f.shape)) for f in boundary]
            block.append((slot, interior, walls))
        along = [sum(name in slot for slot, _, _ in block) for name in "EN"]
        return block, np.array(offsets, dtype=np.int32), along

    if row_step:  # a row block per component
        blocks = [(c * row_step, [(0, parts)]) for c, parts in enumerate(components)]
    else:
        blocks = [(0, [(c * col_step, parts) for c, parts in enumerate(components)])]
    plans = [(r, *layout(parts)) for r, parts in blocks]

    def edges(family, j0, j1):
        """The family's edges that meet the cell rows j0..j1-1: their range
        along the block's row axis, the indices of their k and l cells in a
        band's halo arrays and the map from a (rows, nx) view of those
        arrays to the block's orientation."""
        if family.axis == 0:  # between the cells (j, i) and (j, i + 1)
            k, l = (slice(1, -1), slice(0, -1)), (slice(1, -1), slice(1, None))
            return j0, j1, k, l, np.transpose
        first, last = max(j0 - 1, 0), min(j1, ny - 1)  # between (j, i) and (j + 1, i)
        a, b = first - j0 + 1, last - j0 + 1
        k, l = (slice(a, b), slice(None)), (slice(a + 1, b + 1), slice(None))
        return first, last, k, l, lambda x: x

    def existence(block, j0, j1, has):
        """Which slots the cell rows j0..j1-1 hold, in has[1:-1]."""
        has.fill(False)
        for slot, interior, _ in block:
            for family in interior:
                _, _, k, l, _ = edges(family, j0, j1)
                high, low = _SIDES[family.axis]
                has[k + (slot[high],)] = has[l + (slot[low],)] = True
            has[:, :, slot["D"]] = True
        return has[1:-1]

    def fill(block, j0, j1, vals):
        """The values of the cell rows j0..j1-1, in vals[1:-1]."""
        for slot, interior, walls in block:
            diagonal = vals[:, :, slot["D"]]
            diagonal.fill(-0.0)
            terms = []
            for family in interior:  # kk, from the west or south slot
                lo, hi, k, l, orient = edges(family, j0, j1)
                w, c_k, c_l = weights(_rows(family, lo, hi))
                low = vals[l + (slot[_SIDES[family.axis][1]],)]
                np.multiply(w, c_k, out=orient(low))
                into = diagonal[k]
                np.add(into, low, out=into)
                np.negative(low, out=low)
                terms.append((family.axis, k, l, orient, w, c_l))
            for axis, k, l, orient, w, c_l in terms:  # ll, from the east or north slot
                high = vals[k + (slot[_SIDES[axis][0]],)]
                np.multiply(w, c_l, out=orient(high))
                into = diagonal[l]
                np.subtract(into, high, out=into)
            for family, w_b in walls:
                if family.axis == 0:  # the walls of row j: cells (j, 0) and (j, nx - 1)
                    for wall, i in ((0, 0), (1, nx - 1)):
                        into = diagonal[1:-1, i]
                        np.add(into, w_b[j0:j1, wall], out=into)
                else:  # the walls of column i: cells (0, i) and (ny - 1, i)
                    for wall, j in ((0, 0), (1, ny - 1)):
                        if j0 <= j < j1:
                            into = diagonal[j - j0 + 1]
                            np.add(into, w_b[:, wall], out=into)
        return vals[1:-1]

    # the row counts: per component its own slot and, per interior family,
    # 2 slots per cell, or 1 at a wall across the family's normal
    per_cell = [np.full(m, 2, dtype=np.int32) for m in (nx, ny)]
    for count in per_cell:
        count[[0, -1]] = 1
    nnz = sum(
        len(b) * nx * ny + 2 * (x * (nx - 1) * ny + y * nx * (ny - 1)) for _, b, _, (x, y) in plans
    )
    if nnz > np.iinfo(np.int32).max:
        raise MemoryError(f"a stencil of {nnz} entries overflows its int32 CSR indices")
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    for r, block, _, (x, y) in plans:
        counts = indptr[1 + r : 1 + r + nx * ny].reshape(ny, nx)
        np.add(x * per_cell[0], (y * per_cell[1] + len(block))[:, None], out=counts)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    for r, block, offsets, _ in plans:
        vals = np.empty((band + 2, nx, offsets.size))
        has = np.empty(vals.shape, dtype=bool)
        # the columns of the first band's slots; a band j0 rows on adds j0 nx
        columns = np.arange(band * nx, dtype=np.int32).reshape(band, nx, 1) + offsets
        for j0 in range(0, ny, band):
            j1 = min(j0 + band, ny)
            kept = existence(block, j0, j1, has[: j1 - j0 + 2])
            start, stop = indptr[r + j0 * nx], indptr[r + j1 * nx]
            data[start:stop] = fill(block, j0, j1, vals[: j1 - j0 + 2])[kept]
            indices[start:stop] = columns[: j1 - j0][kept]
            indices[start:stop] += j0 * nx
    return sp.csr_matrix((data, indices, indptr), shape=shape)


# a row's slots in column order, each with the axis of the interior family
# that fills it (None: the diagonal) and the step (di, dj) to its cell
_SLOTS = (("S", 1, 0, -1), ("W", 0, -1, 0), ("D", None, 0, 0), ("E", 0, 1, 0), ("N", 1, 0, 1))
# per normal axis, the slots of an edge's kl entry (in row k) and lk entry (in row l)
_SIDES = {0: ("E", "W"), 1: ("N", "S")}


def _band_rows(nx, ny):
    """Cell rows per band of `_edge_stencil`: about an eighth of the grid,
    which bounds the band's arrays by a fraction of the output, held
    between 2^10 cells, below which the calls per band outweigh the work,
    and 2^15 cells, above which larger bands built more slowly (n=1024)."""
    return max(1, min(max(nx * ny // 8, 1 << 10), 1 << 15) // nx)


def _rows(family, start, stop):
    """An interior edge family cut to the edges whose first cell lies in the
    cell rows start..stop-1: its block sliced along the axis that runs over
    cell rows (axis 1 of the vertical family's, axis 0 of the horizontal
    one's), with the arrays that broadcast along that axis left whole."""
    axis = 1 - family.axis
    cut = (slice(None),) * axis + (slice(start, stop),)

    def part(x):
        return x[cut] if np.ndim(x) == 2 and np.shape(x)[axis] == family.shape[axis] else x

    fields = ("rows", "cols", "length", "dist", "weight_k")
    shape = tuple(stop - start if a == axis else size for a, size in enumerate(family.shape))
    return family._replace(shape=shape, **{name: part(getattr(family, name)) for name in fields})


def _transmissivity(family):
    return family.length / family.dist


def h1_stiffness_matrix(grid: Grid) -> sp.csr_matrix:
    """Scalar H1 stiffness matrix; row k stores |K| times the Laplacian update."""
    n = grid.n_cells
    families = grid.families()
    return _edge_stencil(
        grid,
        (n, n),
        [(families[:2], families[2:])],
        lambda f: (_transmissivity(f), 1.0, -1.0),
        _transmissivity,
    )


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """Maps stacked velocity [u1; u2] to |K| times the divergence per cell.

    The normal of an interior edge is the unit vector of its axis, so the
    edge's weight in the component along that axis is |sigma|, and the
    velocity flux through it carries no other component.
    """
    n = grid.n_cells
    vertical, horizontal = grid.families()[:2]
    return _edge_stencil(
        grid,
        (n, 2 * n),
        [([vertical], []), ([horizontal], [])],
        lambda f: (f.length, 1.0 - f.weight_k, f.weight_k),
        col_step=n,
    )


def gradient_matrix(grid: Grid) -> sp.csr_matrix:
    """Maps pressure to |K| times the gradient, stacked per component.

    Assembled edge-wise on its own; equals minus the transpose of
    `divergence_matrix` through the closed-cell identity.  Component c runs
    over the edges whose normal lies along axis c; a boundary edge's weight
    is |sigma| times the sign (+-1) of its outward normal.
    """
    n = grid.n_cells
    vertical, horizontal, left_right, bottom_top = grid.families()
    return _edge_stencil(
        grid,
        (2 * n, n),
        [([vertical], [left_right]), ([horizontal], [bottom_top])],
        lambda f: (f.length, f.weight_k, 1.0 - f.weight_k),
        lambda f: f.length * f.sign,
        row_step=n,
    )


def jump_stabilization_matrix(grid: Grid, edge_mask=None) -> sp.csr_matrix:
    """Sum over selected interior edges of |sigma| d (e_k - e_l)(e_k - e_l)^T.

    `edge_mask`, one flag per edge, selects the edges (boundary ones are
    never selected); by default every interior edge is.  A mask scales each
    interior edge's |sigma| by its flag; the stencil over every interior
    edge is built, and the entries that only unselected edges fill, each
    +-0.0, are dropped and the rest copied to exact-size arrays.  That is
    bitwise the stencil of the selected edges alone: an unselected edge
    adds +0.0 to a diagonal, which changes no sum but -0.0, and the first
    selected term that follows it is positive.
    """
    n = grid.n_cells
    interior = grid.families()[:2]
    if edge_mask is not None:
        edge_mask = np.asarray(edge_mask, dtype=bool)
        if edge_mask.shape != (grid.n_edges,):
            raise ValueError(f"edge mask of shape {edge_mask.shape}, not ({grid.n_edges},)")
        interior = [f._replace(length=f.length * edge_mask[f.edges].reshape(f.shape))
                    for f in interior]
    jump = _edge_stencil(grid, (n, n), [(interior, [])], lambda f: (f.length * f.dist, 1.0, -1.0))
    if edge_mask is not None:
        del interior  # the masked lengths, freed before the copy
        jump.eliminate_zeros()
        jump.data, jump.indices = jump.data.copy(), jump.indices.copy()
    return jump


# -- the shared operators of a grid ------------------------------------------

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
    between the coordinate `lines`: V = D^-1/2 Q from the eigenvectors Q of
    D^-1/2 T D^-1/2, since a generalised solver loses the small eigenpairs
    of a strongly stretched line (widths q^i, n=128, q=1.2)."""
    h = np.diff(lines)
    w = 1.0 / np.diff(0.5 * (lines[:-1] + lines[1:]))
    diagonal = np.concatenate([w, [0.0]]) + np.concatenate([[0.0], w])
    diagonal[[0, -1]] += 2.0 / h[[0, -1]]
    T = np.diag(diagonal) - np.diag(w, 1) - np.diag(w, -1)
    s = h**-0.5
    lam, Q = scipy.linalg.eigh(s[:, None] * T * s)
    return lam, s[:, None] * Q


def _read_only(mat):
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return mat


# Keyed by the Grid object, not by id() (reused after a grid dies) nor by the
# mesh, so an entry lives exactly as long as its grid.
_GRID_OPERATORS = weakref.WeakKeyDictionary()


def grid_operators(grid: Grid) -> _GridOperators:
    """The shared operators of `grid`, built on the first call for it."""
    ops = _GRID_OPERATORS.get(grid)
    if ops is None:
        ops = _GRID_OPERATORS[grid] = _GridOperators(grid)
    return ops


def vector_field_to_array(u: VectorField) -> np.ndarray:
    return np.concatenate([u.values[:, 0], u.values[:, 1]])


def array_to_vector_field(grid: Grid, x: np.ndarray) -> VectorField:
    n = grid.n_cells
    if x.shape != (2 * n,):
        raise GridError(f"expected stacked length {2 * n}, got {x.shape}")
    return VectorField(grid, np.column_stack([x[:n], x[n:]]))
