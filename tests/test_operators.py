from types import SimpleNamespace

import numpy as np
import pytest
from conftest import assert_same_arrays, matrix_bytes, traced_peak, traced_peak_of_failure
from dense_oracle import loop_divergence, loop_gradient, loop_jump, loop_laplacian, triplet_operator

from stokes_fv import (
    ClusterError,
    ScalarField,
    VectorField,
    build_tensor,
    build_uniform,
    cluster_inequality_terms,
    cluster_test_velocity,
    divergence_apply,
    divergence_matrix,
    duality_defect,
    gradient_apply,
    gradient_matrix,
    h1_inner,
    h1_stiffness_matrix,
    jump_stabilization_matrix,
    laplacian_apply,
    make_clusters,
    split_seminorms,
    stab_laplacian_apply,
)
from stokes_fv import operators
from stokes_fv.operators import vector_field_to_array
from stokes_fv.verify import checkerboard_field

TENSOR_GRIDS = (
    ([0, 0.2, 0.5, 0.7, 1.0], [0, 0.3, 0.55, 0.8, 1.0]),
    ([0, 0.4, 0.6, 0.8, 0.9, 1.0], [0, 0.15, 0.5, 1.0]),
)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def interior_cells(grid):
    i, j = grid.cell_ij.T
    return (i > 0) & (i < grid.nx - 1) & (j > 0) & (j < grid.ny - 1)


# -- laplacian ----------------------------------------------------------------

def test_laplacian_constant_interior_zero():
    g = build_uniform(3)
    u = ScalarField(g, np.full(g.n_cells, 4.0))
    lap = laplacian_apply(u)
    assert abs(lap.values[interior_cells(g)]).max() == 0.0


def test_laplacian_corner_indicator():
    g = build_uniform(2)
    vals = np.zeros(g.n_cells)
    vals[0] = 1.0
    lap = laplacian_apply(ScalarField(g, vals))
    assert lap.values[0] == pytest.approx(24.0)


def test_laplacian_coercivity_identity(rng):
    grids = [build_uniform(4), build_uniform(5)] + [
        build_tensor(xs, ys) for xs, ys in TENSOR_GRIDS
    ]
    for g in grids:
        u = VectorField(g, rng.standard_normal((g.n_cells, 2)))
        lap = laplacian_apply(u)
        quad = float(np.dot(g.cell_areas, np.einsum("ij,ij->i", lap.values, u.values)))
        assert quad == pytest.approx(h1_inner(u, u), rel=1e-13)


# -- gradient -----------------------------------------------------------------

def test_gradient_constant_is_zero():
    g = build_tensor([0, 0.3, 0.7, 1.0], [0, 0.2, 0.5, 1.0])
    p = ScalarField(g, np.full(g.n_cells, 2.0))
    assert np.abs(gradient_apply(p).values).max() < 1e-14


def test_gradient_checkerboard_vanishes_inside():
    g = build_uniform(4)
    gp = gradient_apply(checkerboard_field(g))
    inner = interior_cells(g)
    assert np.abs(gp.values[inner]).max() < 1e-14
    # while boundary cells carry a nonzero gradient
    assert np.abs(gp.values[~inner]).max() > 1.0


def test_gradient_affine_exact_inside():
    g = build_uniform(5)
    p = ScalarField.from_function(g, lambda x, y: x)
    gp = gradient_apply(p)
    inner = interior_cells(g)
    np.testing.assert_allclose(gp.values[inner, 0], 1.0, atol=1e-13)
    np.testing.assert_allclose(gp.values[inner, 1], 0.0, atol=1e-13)


# -- divergence ---------------------------------------------------------------

def test_divergence_constant_interior_zero():
    g = build_uniform(3)
    u = VectorField(g, np.tile([1.0, -2.0], (g.n_cells, 1)))
    div = divergence_apply(u)
    assert abs(div.values[interior_cells(g)]).max() == 0.0
    assert np.abs(divergence_apply(VectorField.zeros(g)).values).max() == 0.0


def test_divergence_global_mass_conservation(rng):
    for g in (build_uniform(4), build_tensor(*TENSOR_GRIDS[0])):
        u = VectorField(g, rng.standard_normal((g.n_cells, 2)))
        total = float(np.dot(g.cell_areas, divergence_apply(u).values))
        assert abs(total) < 1e-13


# -- duality ------------------------------------------------------------------

def test_duality_defect_zero_velocity():
    g = build_uniform(4)
    p = ScalarField(g, np.arange(g.n_cells, dtype=float))
    assert duality_defect(p, VectorField.zeros(g)) == 0.0


def test_duality_defect_random(rng):
    grids = [build_uniform(8)] + [build_tensor(xs, ys) for xs, ys in TENSOR_GRIDS]
    grids.append(build_tensor([0, 0.2, 0.5, 1.0], [0, 0.2, 0.5, 1.0]))
    for g in grids:
        p = ScalarField(g, rng.standard_normal(g.n_cells))
        v = VectorField(g, rng.standard_normal((g.n_cells, 2)))
        gp = gradient_apply(p)
        t1 = float(np.dot(g.cell_areas, np.einsum("ij,ij->i", gp.values, v.values)))
        t2 = float(np.dot(g.cell_areas, p.values * divergence_apply(v).values))
        scale = max(abs(t1), abs(t2), 1e-30)
        assert abs(duality_defect(p, v)) <= 1e-12 * scale


# -- stabilization ------------------------------------------------------------

def test_stab_constant_zero_both_variants():
    g = build_uniform(4)
    p = ScalarField(g, np.full(g.n_cells, 7.0))
    assert np.abs(stab_laplacian_apply(p).values).max() == 0.0
    assert np.abs(stab_laplacian_apply(p, "intra_cluster").values).max() == 0.0


def test_stab_cluster_constant_pressure_invisible(rng):
    g = build_uniform(4)
    part = make_clusters(g)
    per_cluster = rng.standard_normal(part.n_clusters)
    p = ScalarField(g, per_cluster[part.cluster_of])
    out = stab_laplacian_apply(p, "intra_cluster")
    assert np.abs(out.values).max() == 0.0
    # the full variant still sees the cross-cluster jumps
    assert np.abs(stab_laplacian_apply(p).values).max() > 0.0


def test_stab_checkerboard_corner_value():
    # corner cell of the 2x2 grid: two interior edges with jump 2 and edge
    # weight |sigma| d = 1/4, cell area 1/4
    g = build_uniform(2)
    out = stab_laplacian_apply(checkerboard_field(g))
    assert out.values[0] == pytest.approx(4.0)


def test_cluster_functions_reject_an_odd_grid():
    # each derives the 2x2 partition from the field's own grid, so a grid
    # with an odd cell count in one direction has none
    g = build_tensor(np.linspace(0.0, 0.75, 4), np.linspace(0.0, 1.0, 5))
    assert (g.nx, g.ny) == (3, 4) and g.is_uniform
    p = ScalarField(g, np.arange(g.n_cells, dtype=float))
    for check in (
        lambda: stab_laplacian_apply(p, "intra_cluster"),
        lambda: split_seminorms(p),
        lambda: cluster_test_velocity(p),
        lambda: cluster_inequality_terms(p),
    ):
        with pytest.raises(ClusterError, match="even cell counts"):
            check()


# -- matrix forms agree with per-edge loops ------------------------------------

def test_matrix_and_apply_agree(rng):
    for g in (build_uniform(4), build_tensor(*TENSOR_GRIDS[0])):
        areas = g.cell_areas
        u = VectorField(g, rng.standard_normal((g.n_cells, 2)))
        p = ScalarField(g, rng.standard_normal(g.n_cells))

        a1 = h1_stiffness_matrix(g)
        for c in range(2):
            via_matrix = (a1 @ u.values[:, c]) / areas
            expected = loop_laplacian(g, u.values[:, c])
            np.testing.assert_allclose(via_matrix, expected, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(
                laplacian_apply(u).values[:, c], expected, rtol=1e-13, atol=1e-13
            )

        via_matrix = (divergence_matrix(g) @ vector_field_to_array(u)) / areas
        np.testing.assert_array_equal(divergence_apply(u).values, via_matrix)
        np.testing.assert_allclose(via_matrix, loop_divergence(g, u.values), rtol=1e-13, atol=1e-13)

        stacked = gradient_matrix(g) @ p.values
        n = g.n_cells
        via_matrix = np.column_stack([stacked[:n] / areas, stacked[n:] / areas])
        np.testing.assert_array_equal(gradient_apply(p).values, via_matrix)
        np.testing.assert_allclose(via_matrix, loop_gradient(g, p.values), rtol=1e-13, atol=1e-13)

        via_matrix = (jump_stabilization_matrix(g) @ p.values) / areas
        np.testing.assert_array_equal(stab_laplacian_apply(p).values, via_matrix)
        np.testing.assert_allclose(via_matrix, loop_jump(g, p.values), rtol=1e-13, atol=1e-13)

        if g.nx % 2 == 0 and g.ny % 2 == 0:
            part = make_clusters(g)
            via_matrix = (jump_stabilization_matrix(g, part.intra_edge_mask) @ p.values) / areas
            np.testing.assert_array_equal(
                stab_laplacian_apply(p, "intra_cluster").values, via_matrix
            )
            np.testing.assert_allclose(
                via_matrix, loop_jump(g, p.values, part.cluster_of), rtol=1e-13, atol=1e-13
            )


def test_velocity_pressure_stencils_store_only_the_couplings_of_their_edges():
    # component c of B and G runs over the edges whose normal lies along
    # axis c, so each cell holds its own slot and one per interior edge of
    # that axis, per component: 2 n_cells + 2 n_interior entries, which is
    # 6 n^2 - 4 n on a uniform n x n grid; the scalar stiffness keeps every
    # edge in its one component
    for g in (build_uniform(8), build_tensor(*TENSOR_GRIDS[0]), build_tensor(*TENSOR_GRIDS[1])):
        n_interior = g.n_interior_edges
        assert divergence_matrix(g).nnz == 2 * g.n_cells + 2 * n_interior
        assert gradient_matrix(g).nnz == 2 * g.n_cells + 2 * n_interior
        assert h1_stiffness_matrix(g).nnz == g.n_cells + 2 * n_interior
    assert divergence_matrix(build_uniform(8)).nnz == 6 * 8 * 8 - 4 * 8


def test_no_velocity_component_is_coupled_across_an_edge_orthogonal_to_it():
    # the flux through a horizontal edge carries no u1, through a vertical
    # one no u2: every u1 coupling stays in a row of cells, every u2
    # coupling in a column
    for g in (build_uniform(8), build_tensor(*TENSOR_GRIDS[0]), build_tensor(*TENSOR_GRIDS[1])):
        n = g.n_cells
        i, j = g.cell_ij.T
        b = divergence_matrix(g).tocoo()
        g_t = gradient_matrix(g).T.tocoo()
        for cell, stacked in ((b.row, b.col), (g_t.row, g_t.col)):
            other, component = stacked % n, stacked // n
            u1, u2 = component == 0, component == 1
            assert (j[other[u1]] == j[cell[u1]]).all()
            assert (abs(i[other[u1]] - i[cell[u1]]) <= 1).all()
            assert (i[other[u2]] == i[cell[u2]]).all()
            assert (abs(j[other[u2]] - j[cell[u2]]) <= 1).all()


def test_gradient_matrix_is_minus_divergence_transpose():
    for g in (build_uniform(4), build_tensor(*TENSOR_GRIDS[1])):
        gmat = gradient_matrix(g)
        b = divergence_matrix(g)
        assert abs(gmat + b.T).max() < 1e-14


def test_operator_linearity(rng):
    g = build_uniform(4)
    u = VectorField(g, rng.standard_normal((g.n_cells, 2)))
    w = VectorField(g, rng.standard_normal((g.n_cells, 2)))
    combo = VectorField(g, 2.0 * u.values - 3.0 * w.values)
    np.testing.assert_allclose(
        laplacian_apply(combo).values,
        2.0 * laplacian_apply(u).values - 3.0 * laplacian_apply(w).values,
        atol=1e-11,
    )
    np.testing.assert_allclose(
        divergence_apply(combo).values,
        2.0 * divergence_apply(u).values - 3.0 * divergence_apply(w).values,
        atol=1e-12,
    )


BUILDERS = pytest.mark.parametrize(
    "builder",
    [h1_stiffness_matrix, divergence_matrix, gradient_matrix, jump_stabilization_matrix],
    ids=lambda builder: builder.__name__,
)


@BUILDERS
def test_builder_traced_memory_stays_near_its_output(builder):
    # the COO build, with four triplets per interior edge and SciPy's
    # duplicate-holding CSR copy, peaked at 4.7-5.1x; a CSR scatter with a
    # value and a slot buffer per edge family at 1.7-1.9x; the slot arrays
    # of four bands of 16 cell rows peak at 1.31-1.52x
    g = build_uniform(64)
    assert traced_peak(builder, g) <= 1.6 * matrix_bytes(builder(g))


def test_intra_cluster_jump_traced_memory_is_bounded():
    # the masked build holds the whole jump stencil, at 1.65x its output's
    # entries, and drops its zeros into an exact-size copy: 2.75x at n=64
    # (1.81x when the stencil skipped the unselected edges)
    g = build_uniform(64)
    mask = make_clusters(g).intra_edge_mask
    assert traced_peak(jump_stabilization_matrix, g, mask) <= 2.8 * matrix_bytes(
        jump_stabilization_matrix(g, mask)
    )


def test_stencil_past_the_int32_range_raises_before_it_allocates():
    # a 19000 x 19000 grid's divergence holds 6 n^2 - 4 n entries, more than
    # its int32 indptr can count; the closed-form row counts give that
    # number before any array of the grid's size exists
    n = 19000
    grid = SimpleNamespace(nx=n, ny=n, n_cells=n * n, families=build_uniform(2).families)
    entries = f"{6 * n * n - 4 * n} entries"
    assert traced_peak_of_failure(MemoryError, entries, divergence_matrix, grid) < 1 << 20


@BUILDERS
def test_stencils_built_in_several_bands_match_the_triplet_build(builder):
    # the default bands split both grids (the 64 x 45 one's last band is
    # short), so the traced-memory bound above holds for banded builds
    rng = np.random.default_rng(4)
    x, y = (np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n))]) for n in (64, 45))
    for g in (build_uniform(64), build_tensor(x / x[-1], y / y[-1])):
        assert operators._band_rows(g.nx, g.ny) * 2 < g.ny
        assert_same_arrays(builder(g), triplet_operator(builder, g))
        if builder is jump_stabilization_matrix and g.nx % 2 == 0 and g.ny % 2 == 0:
            mask = make_clusters(g).intra_edge_mask
            assert_same_arrays(builder(g, mask), triplet_operator(builder, g, mask))


@BUILDERS
def test_builder_arrays_hold_exactly_their_entries(builder):
    # SciPy's COO-to-CSR conversion kept its triplet-sized buffer behind a
    # view: 1.6x the entries for the stiffness; the jump matrix under the
    # intra-cluster mask drops its unselected edges' zeros in place, which
    # leaves 3/4 of the stencil's entries behind a view, and stores no zero
    mats = [builder(build_tensor(*TENSOR_GRIDS[1]))]
    if builder is jump_stabilization_matrix:
        g = build_tensor(*TENSOR_GRIDS[0])
        mats.append(builder(g, make_clusters(g).intra_edge_mask))
        assert (mats[-1].data != 0).all()
    for mat in mats:
        for arr in (mat.data, mat.indices):
            assert arr.size == mat.nnz
            assert arr.base is None or arr.base.size == arr.size
