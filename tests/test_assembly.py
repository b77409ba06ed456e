import csv
import gc
import weakref

import numpy as np
import pytest
from conftest import matrix_bytes, tensor_lines, traced_peak
from dense_oracle import velocity_block
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_fv import (
    ClusterError,
    ConfigError,
    SchemeSpec,
    ScalarField,
    VectorField,
    assemble,
    build_tensor,
    build_uniform,
    cell_means,
    energy_functional,
    gradient_apply,
    gradient_matrix,
    make_clusters,
    solve,
    stab_laplacian_apply,
)
from stokes_fv.assembly import _GRID_OPERATORS, _grid_operators, export_system, load_system
from stokes_fv.operators import vector_field_to_array
from stokes_fv.verify import CASES, checkerboard_field


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SchemeSpec("unknown")
    with pytest.raises(ConfigError):
        SchemeSpec("bp")  # missing lambda
    with pytest.raises(ConfigError):
        SchemeSpec("cluster", -1.0)
    g = build_uniform(4)
    with pytest.raises(ClusterError):
        assemble(SchemeSpec("cluster", 1.0), g, lambda x, y: (0 * x, 0 * y))


@pytest.mark.parametrize("kind", ["bp", "cluster"])
@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0, 0.0])
def test_spec_rejects_a_lambda_that_is_not_finite_and_positive(kind, lam):
    with pytest.raises(ConfigError, match="finite lambda > 0"):
        SchemeSpec(kind, lam)


def test_cell_means_constant_and_affine():
    g = build_uniform(2)
    for order in (1, 2, 3):
        f = cell_means(lambda x, y: (3.0 + 0 * x, -1.0 + 0 * y), g, order)
        np.testing.assert_allclose(f.values[:, 0], 3.0)
        np.testing.assert_allclose(f.values[:, 1], -1.0)
    f = cell_means(lambda x, y: (x, 0 * y), g, 1)
    np.testing.assert_allclose(f.values[:, 0], g.cell_centers[:, 0])


def test_cell_means_quadratic_matches_closed_form():
    g = build_uniform(2)
    f = cell_means(lambda x, y: (x**2, 0 * y), g, 3)
    xl = g.xs[g.cell_ij[:, 0]]
    xr = g.xs[g.cell_ij[:, 0] + 1]
    exact = (xr**3 - xl**3) / (3.0 * (xr - xl))
    np.testing.assert_allclose(f.values[:, 0], exact, atol=1e-14)


def test_zero_forcing_gives_zero_solution():
    g = build_uniform(4)
    part = make_clusters(g)
    for spec in (
        SchemeSpec("bp", 0.1),
        SchemeSpec("cluster", 1.0, part),
        SchemeSpec("cluster-constant", None, part),
    ):
        system = assemble(spec, g, lambda x, y: (0.0 * x, 0.0 * y))
        report = solve(system)
        assert not report.singular
        assert np.abs(report.u.values).max() < 1e-12
        assert np.abs(report.p.values).max() < 1e-12


def test_gradient_block_is_minus_divergence_transpose():
    g = build_uniform(4)
    system = assemble(SchemeSpec("bp", 0.1), g, CASES["ms1"].forcing)
    assert abs(gradient_matrix(g) + system.B.T).max() < 1e-14


def test_system_block_structure(rng):
    g = build_uniform(4)
    part = make_clusters(g)
    system = assemble(SchemeSpec("cluster", 0.5, part), g, CASES["ms1"].forcing)
    n = g.n_cells
    # A = diag(A1, A1) symmetric positive definite
    a = velocity_block(g).toarray()
    np.testing.assert_allclose(a, a.T, atol=1e-15)
    assert np.linalg.eigvalsh(a).min() > 0
    # C symmetric positive semidefinite
    c = system.C.toarray()
    np.testing.assert_allclose(c, c.T, atol=1e-15)
    assert np.linalg.eigvalsh(c).min() > -1e-13
    # full matrix layout: [u1; u2; p; multiplier]
    assert system.matrix.shape == (3 * n + 1, 3 * n + 1)
    np.testing.assert_allclose(
        system.matrix.toarray()[-1, 2 * n : 3 * n], g.cell_areas
    )


def test_natural_checkerboard_gradient_boundary_support():
    g = build_uniform(4)
    system = assemble(SchemeSpec("natural"), g, CASES["ms1"].forcing)
    cb = checkerboard_field(g)
    load = -system.B.T @ cb.values
    n = g.n_cells
    i, j = g.cell_ij.T
    boundary = (i == 0) | (i == g.nx - 1) | (j == 0) | (j == g.ny - 1)
    for c in range(2):
        comp = load[c * n : (c + 1) * n]
        assert np.abs(comp[~boundary]).max() < 1e-14
    assert np.abs(load).max() > 0.0


def test_energy_identity_bp_and_cluster():
    g = build_uniform(8)
    part = make_clusters(g)
    f = cell_means(CASES["ms1"].forcing, g)
    for spec in (SchemeSpec("bp", 0.05), SchemeSpec("cluster", 1.0, part)):
        system = assemble(spec, g, f)
        report = solve(system)
        assert not report.singular
        e_u, e_stab = energy_functional(system, report.u, report.p)
        work = float(system.rhs[: 2 * g.n_cells] @ vector_field_to_array(report.u))
        assert e_u + e_stab == pytest.approx(work, rel=1e-10)
        assert e_stab > 0.0


def test_energy_functional_zero_fields():
    g = build_uniform(4)
    system = assemble(SchemeSpec("bp", 0.1), g, CASES["ms1"].forcing)
    assert energy_functional(system, VectorField.zeros(g), ScalarField.zeros(g)) == (0.0, 0.0)


def test_nonsingular_across_kinds_and_grids():
    for n in (4, 6):
        g = build_uniform(n)
        part = make_clusters(g)
        f = cell_means(CASES["ms1"].forcing, g)
        for spec in (
            SchemeSpec("bp", 0.01),
            SchemeSpec("bp", 10.0),
            SchemeSpec("cluster", 0.1, part),
            SchemeSpec("cluster-constant", None, part),
        ):
            system = assemble(spec, g, f)
            report = solve(system)
            assert not report.singular, (spec.kind, spec.lam, report.singular_reason)
            assert report.residual_norm < 1e-10


def test_cluster_constant_pressure_space():
    g = build_uniform(4)
    part = make_clusters(g)
    system = assemble(SchemeSpec("cluster-constant", None, part), g, CASES["ms1"].forcing)
    assert system.n_p == part.n_clusters
    report = solve(system)
    # expanded pressure is constant over each cluster
    for gidx in range(part.n_clusters):
        vals = report.p.values[part.cluster_of == gidx]
        assert vals.size == 4 and np.ptp(vals) < 1e-12


def test_export_and_import_round_trip(tmp_path):
    g = build_uniform(4)
    system = assemble(SchemeSpec("bp", 0.1), g, CASES["ms1"].forcing)
    export_system(system, tmp_path / "system.mtx", tmp_path / "rhs.csv")
    matrix, rhs = load_system(tmp_path / "system.mtx", tmp_path / "rhs.csv")
    assert abs(matrix - system.matrix).max() < 1e-15
    np.testing.assert_allclose(rhs, system.rhs, atol=1e-15)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda rows: [["idx", "value"]] + rows[1:], id="header"),
        pytest.param(lambda rows: rows[:3] + [rows[3] + ["0"]] + rows[4:], id="field-count"),
        pytest.param(lambda rows: rows[:1] + [rows[2], rows[1]] + rows[3:], id="index-order"),
        pytest.param(lambda rows: rows[:1] + [["1", rows[1][1]]] + rows[2:], id="index-value"),
        pytest.param(lambda rows: rows[:-1], id="length"),
    ],
)
def test_load_system_rejects_malformed_rhs(tmp_path, edit):
    system = assemble(SchemeSpec("bp", 0.1), build_uniform(4), CASES["ms1"].forcing)
    export_system(system, tmp_path / "system.mtx", tmp_path / "rhs.csv")
    with open(tmp_path / "rhs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(tmp_path / "rhs.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))
    with pytest.raises(ConfigError):
        load_system(tmp_path / "system.mtx", tmp_path / "rhs.csv")


def test_operator_matrix_matrixmarket_export(tmp_path):
    from scipy.io import mmread

    from stokes_fv import h1_stiffness_matrix
    from stokes_fv.assembly import export_matrix

    g = build_uniform(4)
    a = h1_stiffness_matrix(g)
    export_matrix(a, tmp_path / "stiffness.mtx")
    back = mmread(str(tmp_path / "stiffness.mtx"))
    assert abs(back - a).max() < 1e-15


# -- grid operators shared between the systems of one grid ----------------------

def _stable_specs(part):
    return (
        SchemeSpec("bp", 0.05),
        SchemeSpec("cluster", 1.0, part),
        SchemeSpec("cluster-constant", None, part),
    )


def test_schemes_on_one_grid_share_the_velocity_block():
    g = build_uniform(4)
    f = cell_means(CASES["ms1"].forcing, g)
    specs = _stable_specs(make_clusters(g))
    bp, cluster, constant = (assemble(spec, g, f) for spec in specs)
    # each velocity block is scattered from the one A1 of the grid's memo,
    # built once and not again for a later system
    a1 = _grid_operators(g).A1
    assemble(specs[0], g, f)
    assert _grid_operators(g).A1 is a1
    n = g.n_cells
    for system in (bp, cluster, constant):
        assert abs(system.matrix[: 2 * n, : 2 * n] - velocity_block(g)).max() == 0.0
    assert bp.B is cluster.B


def test_assembly_after_a_solve_matches_a_fresh_grid():
    lines = ([0.0, 0.1, 0.35, 0.5, 0.8, 1.0, 1.2], [0.0, 0.3, 0.4, 0.9, 1.0])
    g = build_tensor(*lines)
    f = cell_means(CASES["ms1"].forcing, g)
    specs = _stable_specs(make_clusters(g))
    for spec in specs:
        assert not solve(assemble(spec, g, f)).singular
    fresh = build_tensor(*lines)
    for spec in specs:
        again = assemble(spec, g, f)
        new = assemble(spec, fresh, f)
        assert _grid_operators(again.grid).A1 is not _grid_operators(new.grid).A1
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(again.matrix, name), getattr(new.matrix, name))
        np.testing.assert_array_equal(again.rhs, new.rhs)


def test_saddle_gradient_block_is_exactly_minus_b_transpose():
    g = build_uniform(4)
    part = make_clusters(g)
    n = g.n_cells
    for spec in (SchemeSpec("natural"),) + _stable_specs(part):
        system = assemble(spec, g, CASES["ms1"].forcing)
        block = system.matrix[: 2 * n, 2 * n : 2 * n + system.n_p]
        assert abs(block + system.B.T).max() == 0.0, spec.kind


def test_grid_operators_die_with_their_grid():
    g = build_uniform(4)
    assemble(SchemeSpec("bp", 0.1), g, CASES["ms1"].forcing)
    grid_ref = weakref.ref(g)
    a1_ref = weakref.ref(_grid_operators(g).A1)
    a1_solve_ref = weakref.ref(_grid_operators(g).A1_solve)
    assert g in _GRID_OPERATORS
    del g
    gc.collect()
    assert grid_ref() is None
    assert a1_ref() is None
    assert a1_solve_ref() is None


def test_assembly_leaves_the_velocity_solve_unbuilt():
    # its eigendecompositions are paid only by the callers that apply it
    g = build_uniform(4)
    for spec in (SchemeSpec("natural"),) + _stable_specs(make_clusters(g)):
        assemble(spec, g, CASES["ms1"].forcing)
    assert "A1_solve" not in vars(_grid_operators(g))


@settings(max_examples=25, deadline=None)
@given(tensor_lines(st.integers(2, 24)))
def test_velocity_solve_inverts_the_stiffness_on_tensor_grids(lines):
    g = build_tensor(*lines)
    ops = _grid_operators(g)
    x = np.random.default_rng(0).standard_normal((2, g.n_cells))
    back = ops.A1_solve(np.stack([ops.A1 @ x[0], ops.A1 @ x[1]]))
    assert np.linalg.norm(back - x) <= 1e-11 * np.linalg.norm(x)
    assert ops.A1_solve(ops.A1 @ x[0]).shape == (g.n_cells,)
    assert ops.A1_solve is ops.A1_solve


@pytest.mark.parametrize("kind", ["natural", "bp", "cluster", "cluster-constant"])
def test_assembly_traced_memory_stays_near_the_bordered_matrix(kind):
    # stacking by sp.bmat, through COO copies of every block, peaked at
    # 3.0-3.2x; the grid's shared operators are built before the trace
    g = build_uniform(64)
    part = make_clusters(g) if kind.startswith("cluster") else None
    spec = SchemeSpec(kind, {"bp": 0.05, "cluster": 1.0}.get(kind), part)
    f = cell_means(CASES["ms1"].forcing, g)
    matrix = assemble(spec, g, f).matrix
    assert traced_peak(assemble, spec, g, f) <= 2.25 * matrix_bytes(matrix)


def test_shared_operators_are_read_only():
    g = build_uniform(4)
    system = assemble(SchemeSpec("bp", 0.1), g, CASES["ms1"].forcing)
    a1 = _grid_operators(g).A1
    with pytest.raises(ValueError):
        a1.data[0] = 1.0
    with pytest.raises(ValueError):
        system.B.indices[0] = 0
    with pytest.raises(ValueError):
        a1.indptr[0] = 1


def test_apply_forms_reuse_the_grid_operators():
    g = build_uniform(4)
    p = ScalarField(g, np.arange(g.n_cells, dtype=float))
    gradient_apply(p)
    stab_laplacian_apply(p)
    stab_laplacian_apply(p, "intra_cluster", make_clusters(g))
    ops = _grid_operators(g)
    for name in ("G", "J", "J_intra"):
        assert name in vars(ops)  # built by the first apply call
        with pytest.raises(ValueError):
            getattr(ops, name).data[0] = 1.0
    # the public builder still returns a fresh, writable matrix
    fresh = gradient_matrix(g)
    assert fresh is not ops.G
    fresh.data[0] = 1.0
