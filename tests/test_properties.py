"""Exact algebraic identities of the operators and schemes on random tensor
grids (strictly increasing lines, nx != ny, 2-10 cells per side, up to 14
for flux consistency and 24 for the stencil builds), and of the velocity
solve on geometrically stretched grids of up to 64 cells per side.  The
assembled matrices are checked against the per-edge loops of
`dense_oracle`, which share no code with them, and bit for bit against its
earlier sparse builds (`sp.bmat`, lists of triplets)."""

import functools

import numpy as np
import pytest
from conftest import assert_same_arrays, geometric_line, geometric_lines, tensor_lines
from dense_oracle import (
    bmat_bordered,
    cluster_prolongation,
    loop_divergence,
    loop_gradient,
    loop_jump,
    loop_laplacian,
    triplet_operator,
    velocity_block,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokes_fv import (
    ScalarField,
    SchemeSpec,
    VectorField,
    assemble,
    build_tensor,
    cell_means,
    divergence_apply,
    divergence_matrix,
    energy_functional,
    gradient_apply,
    gradient_matrix,
    h1_stiffness_matrix,
    jump_seminorm,
    jump_stabilization_matrix,
    laplacian_apply,
    make_clusters,
    solve,
    split_seminorms,
    stab_laplacian_apply,
)
from stokes_fv import operators
from stokes_fv.operators import grid_operators as _grid_operators
from stokes_fv.operators import vector_field_to_array
from stokes_fv.verify import CASES, consistency_check

PROPERTY = settings(max_examples=30, deadline=None)
ANY_COUNTS = tensor_lines(st.integers(2, 10))
EVEN_COUNTS = tensor_lines(st.integers(1, 5).map(lambda h: 2 * h))
SEEDS = st.integers(0, 2**32 - 1)


def assert_close(got, expected, rtol=1e-12):
    """Agreement relative to the size of the expected values."""
    scale = float(np.abs(expected).max())
    assert float(np.abs(got - expected).max()) <= rtol * scale


@PROPERTY
@given(EVEN_COUNTS, SEEDS)
def test_cluster_split_of_the_jump_seminorm_is_exact(lines, seed):
    # cross- and intra-cluster edges partition the interior edges
    g = build_tensor(*lines)
    q = ScalarField(g, np.random.default_rng(seed).standard_normal(g.n_cells))
    cross, intra = split_seminorms(q)
    assert cross**2 + intra**2 == pytest.approx(jump_seminorm(q) ** 2, rel=1e-13, abs=0)


@PROPERTY
@given(ANY_COUNTS)
def test_gradient_is_minus_divergence_transpose(lines):
    g = build_tensor(*lines)
    assert abs(gradient_matrix(g) + divergence_matrix(g).T).max() < 1e-14


@PROPERTY
@given(ANY_COUNTS, SEEDS)
def test_apply_form_is_matrix_form_over_areas(lines, seed):
    g = build_tensor(*lines)
    rng = np.random.default_rng(seed)
    areas = g.cell_areas
    u = VectorField(g, rng.standard_normal((g.n_cells, 2)))
    p = ScalarField(g, rng.standard_normal(g.n_cells))
    a1 = h1_stiffness_matrix(g)
    lap = np.column_stack([loop_laplacian(g, u.values[:, c]) for c in range(2)])
    assert_close(np.column_stack([a1 @ u.values[:, c] for c in range(2)]) / areas[:, None], lap)
    assert_close(laplacian_apply(u).values, lap)
    div = divergence_matrix(g) @ vector_field_to_array(u) / areas
    assert np.array_equal(divergence_apply(u).values, div)
    assert_close(div, loop_divergence(g, u.values))
    grad = (gradient_matrix(g) @ p.values).reshape(2, -1).T / areas[:, None]
    assert np.array_equal(gradient_apply(p).values, grad)
    assert_close(grad, loop_gradient(g, p.values))
    stab = jump_stabilization_matrix(g) @ p.values / areas
    assert np.array_equal(stab_laplacian_apply(p).values, stab)
    assert_close(stab, loop_jump(g, p.values))


@PROPERTY
@given(EVEN_COUNTS, SEEDS)
def test_intra_cluster_apply_form_is_matrix_form_over_areas(lines, seed):
    g = build_tensor(*lines)
    part = make_clusters(g)
    p = ScalarField(g, np.random.default_rng(seed).standard_normal(g.n_cells))
    stab = jump_stabilization_matrix(g, part.intra_edge_mask) @ p.values / g.cell_areas
    assert np.array_equal(stab_laplacian_apply(p, "intra_cluster").values, stab)
    assert_close(stab, loop_jump(g, p.values, part.cluster_of))


@PROPERTY
@given(ANY_COUNTS)
def test_stiffness_is_symmetric_positive_definite(lines):
    a1 = h1_stiffness_matrix(build_tensor(*lines))
    assert abs(a1 - a1.T).max() == 0.0
    # bitwise: its CSR arrays are its CSC arrays, which the bordered
    # matrix's scatter reads them as
    assert_same_arrays(a1.tocsc().T, a1)
    assert np.linalg.eigvalsh(a1.toarray()).min() > 0.0


@PROPERTY
@given(EVEN_COUNTS)
def test_stabilization_block_is_bitwise_symmetric(lines):
    # the bordered matrix's scatter reads C's CSR arrays as its CSC arrays
    g = build_tensor(*lines)
    f = cell_means(CASES["ms1"].forcing, g)
    for spec in (SchemeSpec("bp", 0.05), SchemeSpec("cluster", 1.0)):
        C = assemble(spec, g, f).C
        assert_same_arrays(C.tocsc().T, C)


@PROPERTY
@given(tensor_lines(st.integers(2, 24)), SEEDS)
def test_operators_match_the_list_of_triplets_build_bitwise(lines, seed):
    # at the default band size and in bands of 1 and 3 cell rows, which end
    # inside every edge family; the jump matrix also under a random edge
    # mask, one flagging no edge, one flagging every edge, one flagging only
    # boundary edges and, on an even grid, the intra-cluster one
    g = build_tensor(*lines)
    none, every = np.zeros(g.n_edges, dtype=bool), np.ones(g.n_edges, dtype=bool)
    boundary = np.arange(g.n_edges) >= g.n_interior_edges
    masks = [np.random.default_rng(seed).random(g.n_edges) < 0.5, none, every, boundary]
    if g.nx % 2 == 0 and g.ny % 2 == 0:
        masks.append(make_clusters(g).intra_edge_mask)
    builders = [h1_stiffness_matrix, divergence_matrix, gradient_matrix, jump_stabilization_matrix]
    builders += [functools.partial(jump_stabilization_matrix, edge_mask=mask) for mask in masks]
    want = [triplet_operator(builder, g) for builder in builders[:4]]
    want += [triplet_operator(jump_stabilization_matrix, g, mask) for mask in masks]
    for rows in (None, 1, 3):
        with pytest.MonkeyPatch.context() as patch:
            if rows:
                patch.setattr(operators, "_band_rows", lambda nx, ny, rows=rows: rows)
            for builder, matrix in zip(builders, want):
                assert_same_arrays(builder(g), matrix)
            assert_same_arrays(jump_stabilization_matrix(g, every), want[3])
            for mask in (none, boundary):
                assert jump_stabilization_matrix(g, mask).nnz == 0


def _assert_bordered_matches_bmat(specs, g):
    f = cell_means(CASES["ms1"].forcing, g)
    for spec in specs:
        system = assemble(spec, g, f)
        oracle = bmat_bordered(velocity_block(g), system.B, system.C, system.mean_weights)
        assert_same_arrays(system.matrix, oracle)


@PROPERTY
@given(ANY_COUNTS)
def test_cell_pressure_bordered_matrix_matches_bmat_bitwise(lines):
    specs = (SchemeSpec("natural"), SchemeSpec("bp", 0.05))
    _assert_bordered_matches_bmat(specs, build_tensor(*lines))


@PROPERTY
@given(EVEN_COUNTS)
def test_clustered_bordered_matrix_matches_bmat_bitwise(lines):
    g = build_tensor(*lines)
    specs = (SchemeSpec("cluster", 1.0), SchemeSpec("cluster-constant"))
    _assert_bordered_matches_bmat(specs, g)


@PROPERTY
@given(EVEN_COUNTS, EVEN_COUNTS)
def test_cluster_schemes_derive_their_partition_from_the_grid(lines, other_lines):
    # a spec without a partition, with the grid's own and with another
    # grid's assemble and solve to the same bits
    g = build_tensor(*lines)
    f = cell_means(CASES["ms1"].forcing, g)
    carried = (None, make_clusters(g), make_clusters(build_tensor(*other_lines)))
    for kind, lam in (("cluster", 1.0), ("cluster-constant", None)):
        systems = [assemble(SchemeSpec(kind, lam, part), g, f) for part in carried]
        reports = [solve(system) for system in systems]
        for system, report in zip(systems[1:], reports[1:]):
            for name in ("matrix", "B", "C"):
                assert_same_arrays(getattr(system, name), getattr(systems[0], name))
            for name in ("rhs", "mean_weights"):
                assert getattr(system, name).tobytes() == getattr(systems[0], name).tobytes()
            assert report.u.values.tobytes() == reports[0].u.values.tobytes()
            assert report.p.values.tobytes() == reports[0].p.values.tobytes()
            scalars = ("multiplier", "residual_norm", "singular_reason", "rcond_est")
            assert [getattr(report, k) for k in scalars] == [getattr(reports[0], k) for k in scalars]


@PROPERTY
@given(EVEN_COUNTS, SEEDS)
def test_velocity_block_and_cluster_expansion_match_the_stored_constructions(lines, seed):
    # no system stores A = diag(A1, A1) or the cluster prolongation P: the
    # bordered matrix, the stacked apply and solve, and the cluster pressure
    # space agree with `sp.block_diag` and with P built as a matrix
    g = build_tensor(*lines)
    part = make_clusters(g)
    f = cell_means(CASES["ms1"].forcing, g)
    A, P, m = velocity_block(g), cluster_prolongation(part), 2 * g.n_cells
    specs = (
        SchemeSpec("natural"),
        SchemeSpec("bp", 0.05),
        SchemeSpec("cluster", 1.0),
        SchemeSpec("cluster-constant"),
    )
    for spec in specs:
        assert_same_arrays(assemble(spec, g, f).matrix[:m, :m], A.tocsc())
    ops = _grid_operators(g)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m)
    assert_close(ops.velocity_apply(x), A @ x, rtol=1e-11)
    # one vector, or a block of columns
    for x in (x, rng.standard_normal((m, 3))):
        back = ops.velocity_solve(A @ x)
        assert back.shape == x.shape
        assert np.linalg.norm(back - x) <= 1e-11 * np.linalg.norm(x)
    system = assemble(specs[-1], g, f)
    assert_same_arrays(system.B, (P.T @ ops.B_cells).tocsr())
    assert np.array_equal(system.mean_weights, P.T @ g.cell_areas)
    p = rng.standard_normal(part.n_clusters)
    assert np.array_equal(system.cell_pressure(p).values, P @ p)


@PROPERTY
@given(EVEN_COUNTS)
def test_energy_identity_after_solve(lines):
    g = build_tensor(*lines)
    f = cell_means(CASES["ms1"].forcing, g)
    for spec in (SchemeSpec("bp", 0.05), SchemeSpec("cluster", 1.0)):
        system = assemble(spec, g, f)
        report = solve(system)
        assert not report.singular, report.singular_reason
        e_u, e_stab = energy_functional(system, report.u, report.p)
        work = float(np.sum(g.cell_areas[:, None] * f.values * report.u.values))
        assert e_u + e_stab == pytest.approx(work, rel=1e-10)


@PROPERTY
@given(tensor_lines(st.integers(2, 14)))
def test_fluxes_are_exact_for_affine_data(lines):
    # second-order flux consistency: the interior and wall defects against
    # the exact edge integrals of the affine basis stay at rounding level
    report = consistency_check(build_tensor(*lines))
    assert report.max_interior_defect <= 1e-13
    assert report.max_boundary_defect <= 1e-13


@PROPERTY
@given(geometric_lines(st.integers(2, 64)))
@example((geometric_line(64, 1.3), geometric_line(48, 1.2)))
def test_velocity_solve_inverts_the_stiffness_on_stretched_grids(lines):
    # a generalised 1D eigensolve lost the small eigenpairs of such lines:
    # at n = 128, q = 1.2 its solve left a relative residual of 7.7
    g = build_tensor(*lines)
    ops = _grid_operators(g)
    b = np.random.default_rng(0).standard_normal(g.n_cells)
    assert np.linalg.norm(ops.A1 @ ops.A1_solve(b) - b) <= 1e-12 * np.linalg.norm(b)
