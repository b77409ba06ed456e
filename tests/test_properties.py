"""Exact algebraic identities of the operators and schemes on random tensor
grids (strictly increasing lines, nx != ny, 2-10 cells per side).  The
assembled matrices are checked against the per-edge loops of
`dense_oracle`, which share no code with them, and bit for bit against its
earlier sparse builds (`sp.bmat`, lists of triplets)."""

import numpy as np
import pytest
from conftest import assert_same_arrays, tensor_lines
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
from hypothesis import given, settings
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
    jump_stabilization_matrix,
    laplacian_apply,
    make_clusters,
    solve,
    stab_laplacian_apply,
)
from stokes_fv.assembly import _grid_operators
from stokes_fv.operators import vector_field_to_array
from stokes_fv.verify import CASES

PROPERTY = settings(max_examples=30, deadline=None)
ANY_COUNTS = tensor_lines(st.integers(2, 10))
EVEN_COUNTS = tensor_lines(st.integers(1, 5).map(lambda h: 2 * h))
SEEDS = st.integers(0, 2**32 - 1)


def assert_close(got, expected, rtol=1e-12):
    """Agreement relative to the size of the expected values."""
    scale = float(np.abs(expected).max())
    assert float(np.abs(got - expected).max()) <= rtol * scale


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
    assert np.array_equal(stab_laplacian_apply(p, "intra_cluster", part).values, stab)
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
@given(ANY_COUNTS)
def test_operators_match_the_list_of_triplets_build_bitwise(lines):
    g = build_tensor(*lines)
    builders = (h1_stiffness_matrix, divergence_matrix, gradient_matrix, jump_stabilization_matrix)
    for builder in builders:
        assert_same_arrays(builder(g), triplet_operator(builder, g))
    if g.nx % 2 == 0 and g.ny % 2 == 0:
        mask = make_clusters(g).intra_edge_mask
        assert_same_arrays(
            jump_stabilization_matrix(g, mask),
            triplet_operator(jump_stabilization_matrix, g, mask),
        )


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
    part = make_clusters(g)
    specs = (SchemeSpec("cluster", 1.0, part), SchemeSpec("cluster-constant", None, part))
    _assert_bordered_matches_bmat(specs, g)


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
        SchemeSpec("cluster", 1.0, part),
        SchemeSpec("cluster-constant", None, part),
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
    for spec in (SchemeSpec("bp", 0.05), SchemeSpec("cluster", 1.0, make_clusters(g))):
        system = assemble(spec, g, f)
        report = solve(system)
        assert not report.singular, report.singular_reason
        e_u, e_stab = energy_functional(system, report.u, report.p)
        work = float(np.sum(g.cell_areas[:, None] * f.values * report.u.values))
        assert e_u + e_stab == pytest.approx(work, rel=1e-10)
