"""Discrete diffusion, gradient, divergence and stabilization operators.

Every operator is a sum over edges sigma = (k, l) of a flux weight times the
jump (e_k - e_l), scaled row-wise by the cell area, so that a matrix row is
the integral of the operator over the cell.  The one builder `_edge_stencil`
writes each such sum straight into exact-size CSR arrays: on a tensor grid
a row's columns are known from which neighbours the cell has, so it needs
no triplets and no sort, and it sums each diagonal in the order a triplet
build would, which keeps the matrices bitwise equal to that build.  The
cell-update ("apply") forms of the gradient, divergence and stabilization
are that matrix product divided by the cell areas; the Laplacian's instead
sums its per-edge diffusive fluxes, so that it is exactly zero on
constants away from the wall.  The public `*_matrix` builders return a
fresh matrix on every call.

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

def _edge_stencil(
    n, shape, components, weights, boundary_weights=None, edge_mask=None, row_step=0, col_step=0
):
    """Sum over interior edges of w (e_k - e_l)(c_k e_k + c_l e_l)^T, plus
    w_b e_k e_k^T over boundary edges, written straight into exact-size CSR
    arrays, with no triplets.

    `components` holds per component a pair (interior, boundary) of lists
    of edge families of the grid (`Grid.families`), each in edge order.
    `weights(family)` gives (w, c_k, c_l) over an interior family and
    `boundary_weights(family)` w_b over a boundary one, each broadcast to
    the family's block; `edge_mask`, one flag per edge, keeps only the
    interior edges it flags.  With a row or a column step the stencil is a
    velocity-pressure one of two components: component c occupies rows
    shifted by c * row_step and columns shifted by c * col_step, after the
    entries of component c - 1 where the two share a row.  With neither
    step it has one component.

    On a tensor grid the row of cell m in a component holds at most the
    columns of its south (m - nx), west (m - 1), own, east (m + 1) and north
    (m + nx) cells, in that order, so per-cell flags of which of the five
    it holds give every entry's slot: an edge (k, l) puts w c_l at the east
    or north slot of row k and -w c_k at the west or south slot of row l.
    Every grid has at least 2 cells per side, so every row of the
    stiffness, the divergence and the gradient holds its own cell's slot in
    each component, also where its value is zero, as on the diagonal of a
    uniform grid's divergence.

    The diagonal sums several edges' terms, so its bits depend on their
    order.  It is summed in the order in which a COO build, emitting per
    component the triplets kk, kl, lk and ll over the component's edges and
    then its boundary ones, sums duplicates: kk over the component's
    vertical then horizontal edges, ll the same way, then the boundary
    edges, each in edge order, starting from -0.0 (-0.0 + x is x, bitwise,
    for every x).  That keeps every matrix bitwise equal to the COO build,
    which the tests keep as the reference.

    A family's cells and weights are built anew in each function below that
    reads them, and die with its call, so at most one family's are held at
    a time; an array x at l = k + step is read as x[step:] at k.
    """

    def selection(family):
        return None if edge_mask is None else edge_mask[family.edges].reshape(family.shape)

    def first_cells(family):
        """The first cells of the family's kept edges, in edge order."""
        k, select = family.k, selection(family)
        return k.ravel() if select is None else k[select]

    def values(family, which, out):
        """w times c_k (which = 1) or c_l (which = 2) over the kept edges."""
        terms = weights(family)
        w, c = terms[0], terms[which]
        select = selection(family)
        if select is None:
            return np.multiply(w, c, out=out[: family.size].reshape(family.shape)).ravel()
        w, c = (x if np.ndim(x) == 0 else np.broadcast_to(x, family.shape)[select] for x in (w, c))
        return np.multiply(w, c, out=out[: w.size])

    def mark(has, family):
        south, west, diag, east, north = has
        k, step = first_cells(family), family.step
        (north if family.axis else east)[k] = True
        (south if family.axis else west)[step:][k] = True
        diag[k] = diag[step:][k] = True

    def flags(interior, boundary):
        """Which of its south, west, own, east and north slots each row of a
        component holds; computed twice per component, for the counts and
        for the slots, rather than kept for every component."""
        has = np.zeros((5, n), dtype=bool)
        for family in interior:
            mark(has, family)
        for family in boundary:
            has[2, family.k.ravel()] = True
        return has

    # In row l an edge's lk entry is the west entry (d - 1) or the south
    # one, before the west entry if there is one; in row k its kl entry is
    # the east entry (d + 1) or the north one, after the east entry if there
    # is one.
    def off_diagonal(has, s, family):
        """The kk, lk and kl entries of a family's edges."""
        _, west, _, east, _ = has
        vals = values(family, 1, vals_buffer)
        k, step, past = first_cells(family), family.step, family.axis
        slots = slots_buffer[: k.size]
        np.take(d, k, out=slots, mode="clip")
        indices[slots] = _offset(k, s)
        np.add.at(data, slots, vals)  # kk
        np.take(d[step:], k, out=slots, mode="clip")
        slots -= past
        np.subtract(slots, 1, out=slots, where=west[step:][k])
        indices[slots] = _offset(k, s)
        data[slots] = np.negative(vals, out=vals)  # lk
        np.take(d, k, out=slots, mode="clip")
        slots += past
        np.add(slots, 1, out=slots, where=east[k])
        k += step  # l
        indices[slots] = _offset(k, s)
        del k  # before the weights are built again
        data[slots] = values(family, 2, vals)  # kl

    def ll(s, family):
        vals = values(family, 2, vals_buffer)
        np.negative(vals, out=vals)
        l = first_cells(family)
        l += family.step
        slots = slots_buffer[: l.size]
        np.take(d, l, out=slots, mode="clip")
        indices[slots] = _offset(l, s)
        np.add.at(data, slots, vals)  # ll

    def boundary_diagonal(s, family):
        k = family.k.ravel()
        slots = d[k]
        indices[slots] = _offset(k, s)
        np.add.at(data, slots, np.broadcast_to(boundary_weights(family), family.shape).ravel())

    # the row counts, summed over the components that share a row
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    for c, component in enumerate(components):
        rows = slice(1 + c * row_step, 1 + c * row_step + n)
        indptr[rows] += flags(*component).sum(axis=0, dtype=np.int32)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.full(indptr[-1], -0.0)  # where every diagonal sum starts
    # one value and one slot buffer for every step below ("clip" only keeps
    # `take` from buffering its output: every index is in range)
    size = max(
        family.size if edge_mask is None else np.count_nonzero(selection(family))
        for interior, _ in components
        for family in interior
    )
    vals_buffer, slots_buffer = np.empty(size), np.empty(size, dtype=np.intp)
    d = indptr[:n].astype(np.intp)  # the first free slot of each row
    for c, (interior, boundary) in enumerate(components):
        s = c * col_step
        if row_step:
            d[:] = indptr[c * row_step : c * row_step + n]
        has = flags(interior, boundary)
        south, west, diag, east, north = has
        # the diagonal slots; `where=` adds the flags without a cast buffer
        np.add(d, 1, out=d, where=south)
        np.add(d, 1, out=d, where=west)
        for family in interior:
            off_diagonal(has, s, family)
        for family in interior:
            ll(s, family)
        for family in boundary:
            boundary_diagonal(s, family)
        if not row_step:  # the next component's entries follow these
            for flag in (diag, east, north):
                np.add(d, 1, out=d, where=flag)
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _offset(cells, s):
    """cells + s, with no copy of `cells` when s is 0."""
    return cells + s if s else cells


def _transmissivity(family):
    return family.length / family.dist


def h1_stiffness_matrix(grid: Grid) -> sp.csr_matrix:
    """Scalar H1 stiffness matrix; row k stores |K| times the Laplacian update."""
    n = grid.n_cells
    families = grid.families()
    return _edge_stencil(
        n,
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
        n,
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
        n,
        (2 * n, n),
        [([vertical], [left_right]), ([horizontal], [bottom_top])],
        lambda f: (f.length, f.weight_k, 1.0 - f.weight_k),
        lambda f: f.length * f.sign,
        row_step=n,
    )


def jump_stabilization_matrix(grid: Grid, edge_mask=None) -> sp.csr_matrix:
    """Sum over selected interior edges of |sigma| d (e_k - e_l)(e_k - e_l)^T.

    `edge_mask`, one flag per edge, selects the edges (boundary ones are
    never selected); by default every interior edge is.
    """
    if edge_mask is not None:
        edge_mask = np.asarray(edge_mask, dtype=bool)
        if edge_mask.shape != (grid.n_edges,):
            raise ValueError(f"edge mask of shape {edge_mask.shape}, not ({grid.n_edges},)")
    n = grid.n_cells
    return _edge_stencil(
        n,
        (n, n),
        [(grid.families()[:2], [])],
        lambda f: (f.length * f.dist, 1.0, -1.0),
        edge_mask=edge_mask,
    )


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
