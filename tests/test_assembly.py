import csv
import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    assert_same_arrays,
    matrix_bytes,
    tensor_lines,
    traced_peak,
    traced_peak_of_failure,
)
from dense_oracle import bmat_bordered, per_cell_means, velocity_block
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
from stokes_fv import assembly
from stokes_fv.assembly import export_system, load_system
from stokes_fv.operators import _GRID_OPERATORS, vector_field_to_array
from stokes_fv.operators import grid_operators as _grid_operators
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
    # the cluster schemes derive their partition from the grid in `assemble`
    odd = build_tensor([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 1.0])
    for spec in (SchemeSpec("cluster", 1.0), SchemeSpec("cluster-constant")):
        with pytest.raises(ClusterError, match="even cell counts"):
            assemble(spec, odd, lambda x, y: (0 * x, 0 * y))


@pytest.mark.parametrize("kind", ["bp", "cluster"])
@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0, 0.0])
def test_spec_rejects_a_lambda_that_is_not_finite_and_positive(kind, lam):
    with pytest.raises(ConfigError, match="finite lambda > 0"):
        SchemeSpec(kind, lam)


@pytest.mark.parametrize("kind", ["natural", "cluster-constant"])
@pytest.mark.parametrize("lam", [float("nan"), 1.0])
def test_spec_rejects_a_lambda_for_a_scheme_that_reads_none(kind, lam):
    with pytest.raises(ConfigError, match="takes no lambda"):
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


def _seeded_lines(n, seed):
    widths = np.random.default_rng(seed).uniform(0.5, 1.5, size=n)
    lines = np.concatenate([[0.0], np.cumsum(widths)])
    return lines / lines[-1]


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize(
    "forcing",
    [CASES["ms0"].forcing, CASES["ms1"].forcing, lambda x, y: (3.0, -1.0)],
    ids=["ms0", "ms1", "python-scalars"],
)
def test_cell_means_on_quadrature_lines_match_per_cell_points(forcing, order):
    # bit for bit: evaluating f on the 1D lines changes no rounding
    for g in (build_uniform(8), build_tensor(_seeded_lines(40, 1), _seeded_lines(30, 2))):
        got = cell_means(forcing, g, order).values
        want = per_cell_means(forcing, g, order)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_cell_means_calls_f_once_on_the_quadrature_lines():
    g = build_tensor(_seeded_lines(6, 1), _seeded_lines(4, 2))
    shapes = []

    def forcing(x, y):
        shapes.append((x.shape, y.shape))
        return x + 0 * y, y

    cell_means(forcing, g, 2)
    assert shapes == [((1, 6, 2, 1), (4, 1, 1, 2))]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cell_means_is_bitwise_independent_of_the_band_size(monkeypatch, order):
    # bands of the smallest size (8 rows, 5 of them on the 45x33 grid) and
    # one band of all rows give the same bits as the default bands; 8 rows
    # and not 1, since BLAS rounds the last cells of a matrix-vector call
    # apart from its groups of cells
    grids = (build_uniform(96), build_tensor(_seeded_lines(45, 1), _seeded_lines(33, 2)))
    for forcing in (CASES["ms0"].forcing, CASES["ms1"].forcing):
        for g in grids:
            want = cell_means(forcing, g, order).values
            calls = []

            def counted(x, y, forcing=forcing):
                calls.append(y.shape[0])
                return forcing(x, y)

            for chunk, bands in ((1, -(-g.ny // 8)), (1 << 40, 1)):
                monkeypatch.setattr(assembly, "_CHUNK", chunk)
                calls.clear()
                got = cell_means(counted, g, order).values
                assert len(calls) == bands and sum(calls) == g.ny
                assert got.tobytes() == want.tobytes()
            monkeypatch.undo()


def test_cell_means_traced_memory_stays_near_its_output():
    # one evaluation of the forcing on all n_cells q^2 points held 26x the
    # output at n=384; the bands of about 8 * _CHUNK points hold 2.3x
    g = build_uniform(384)
    forcing = CASES["ms1"].forcing
    assert traced_peak(cell_means, forcing, g, 3) <= 3.0 * cell_means(forcing, g, 3).values.nbytes


def test_zero_forcing_gives_zero_solution():
    g = build_uniform(4)
    for spec in (
        SchemeSpec("bp", 0.1),
        SchemeSpec("cluster", 1.0),
        SchemeSpec("cluster-constant"),
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
    system = assemble(SchemeSpec("cluster", 0.5), g, CASES["ms1"].forcing)
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
    f = cell_means(CASES["ms1"].forcing, g)
    for spec in (SchemeSpec("bp", 0.05), SchemeSpec("cluster", 1.0)):
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
        f = cell_means(CASES["ms1"].forcing, g)
        for spec in (
            SchemeSpec("bp", 0.01),
            SchemeSpec("bp", 10.0),
            SchemeSpec("cluster", 0.1),
            SchemeSpec("cluster-constant"),
        ):
            system = assemble(spec, g, f)
            report = solve(system)
            assert not report.singular, (spec.kind, spec.lam, report.singular_reason)
            assert report.residual_norm < 1e-10


def test_cluster_constant_pressure_space():
    g = build_uniform(4)
    part = make_clusters(g)
    system = assemble(SchemeSpec("cluster-constant"), g, CASES["ms1"].forcing)
    assert system.n_p == part.n_clusters
    report = solve(system)
    # expanded pressure is constant over each cluster
    for gidx in range(part.n_clusters):
        vals = report.p.values[part.cluster_of == gidx]
        assert vals.size == 4 and np.ptp(vals) < 1e-12


def test_export_and_import_round_trip(tmp_path):
    # the exported matrix, built from the blocks on read, reads back bit for
    # bit as `sp.bmat` stacks those blocks, and so does the right-hand side
    g = build_tensor(_seeded_lines(12, 5), _seeded_lines(10, 6))
    for kind in _KINDS:
        spec = SchemeSpec(kind, {"bp": 0.05, "cluster": 1.0}.get(kind))
        system = assemble(spec, g, CASES["ms1"].forcing)
        export_system(system, tmp_path / "system.mtx", tmp_path / "rhs.csv")
        matrix, rhs = load_system(tmp_path / "system.mtx", tmp_path / "rhs.csv")
        oracle = bmat_bordered(velocity_block(g), system.B, system.C, system.mean_weights)
        assert_same_arrays(matrix, oracle)
        assert rhs.tobytes() == system.rhs.tobytes(), kind


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

def _stable_specs():
    return (
        SchemeSpec("bp", 0.05),
        SchemeSpec("cluster", 1.0),
        SchemeSpec("cluster-constant"),
    )


def test_schemes_on_one_grid_share_the_velocity_block():
    g = build_uniform(4)
    f = cell_means(CASES["ms1"].forcing, g)
    specs = _stable_specs()
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
    specs = _stable_specs()
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
    n = g.n_cells
    for spec in (SchemeSpec("natural"),) + _stable_specs():
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
    for spec in (SchemeSpec("natural"),) + _stable_specs():
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
def test_assembly_traced_peak_stays_below_the_bordered_matrix(kind):
    # `assemble` builds the blocks alone, which peak at 0.15-0.73x the
    # bordered matrix's bytes, highest for cluster-constant.  The grid's
    # shared operators are built before the trace
    g = build_uniform(64)
    spec = SchemeSpec(kind, {"bp": 0.05, "cluster": 1.0}.get(kind))
    f = cell_means(CASES["ms1"].forcing, g)
    matrix = assemble(spec, g, f).matrix
    assert traced_peak(assemble, spec, g, f) <= 0.8 * matrix_bytes(matrix)


_KINDS = ("natural", "bp", "cluster", "cluster-constant")


def _assert_bordered_matches_bmat(monkeypatch, g, kinds=_KINDS):
    """Assemble each scheme of `kinds` on `g`, check each bordered matrix
    against `sp.bmat`'s bit for bit, and return the number of bands that
    `csr_hstack` stacked for each: three fills of one band each at least."""
    kernel, calls = assembly.csr_hstack, []
    monkeypatch.setattr(assembly, "csr_hstack", lambda *args: calls.append(args) or kernel(*args))
    f = cell_means(CASES["ms1"].forcing, g)
    bands = []
    for kind in kinds:
        calls.clear()
        system = assemble(SchemeSpec(kind, {"bp": 0.05, "cluster": 1.0}.get(kind)), g, f)
        oracle = bmat_bordered(velocity_block(g), system.B, system.C, system.mean_weights)
        assert_same_arrays(system.matrix, oracle)
        bands.append(len(calls))
    return bands


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_bordered_matrix_scattered_in_chunks_matches_bmat(monkeypatch, chunk):
    # bands of one row or of a few, on grids too small for the default
    # chunk to split a fill; on the 24x16 grid the fills split into many
    monkeypatch.setattr(assembly, "_CHUNK", chunk)
    small = build_tensor([0, 0.2, 0.5, 0.7, 1.0], [0, 0.3, 0.55, 0.8, 1.0])
    _assert_bordered_matches_bmat(monkeypatch, small)
    seeded = build_tensor(_seeded_lines(24, 3), _seeded_lines(16, 4))
    assert all(bands > 3 for bands in _assert_bordered_matches_bmat(monkeypatch, seeded))


def test_bordered_matrix_on_a_seeded_tensor_grid_matches_bmat(monkeypatch):
    # one band per fill at the default chunk
    seeded = build_tensor(_seeded_lines(40, 3), _seeded_lines(30, 4))
    assert _assert_bordered_matches_bmat(monkeypatch, seeded) == [3, 3, 3, 3]


@pytest.mark.parametrize("chunk", [1, None])
@pytest.mark.parametrize(
    "grid, kinds",
    [
        # one 2x2 cluster: cluster-constant has a single pressure unknown
        (lambda: build_uniform(2), _KINDS),
        # an odd cell count admits no 2x2 clusters
        (lambda: build_tensor([0, 0.4, 1.0], np.linspace(0, 1, 8) ** 2), ("natural", "bp")),
        (lambda: build_tensor(np.linspace(0, 1, 8) ** 2, [0, 0.4, 1.0]), ("natural", "bp")),
    ],
    ids=["uniform-2x2", "tensor-2x7", "tensor-7x2"],
)
def test_bordered_matrix_on_degenerate_grids_matches_bmat(monkeypatch, chunk, grid, kinds):
    # the kernels check no bounds, so a wrong band of a thin grid or of
    # natural's empty C would crash rather than raise
    if chunk is not None:
        monkeypatch.setattr(assembly, "_CHUNK", chunk)
    _assert_bordered_matches_bmat(monkeypatch, grid(), kinds)


@pytest.mark.parametrize("kind", ["bp", "cluster-constant"])
def test_bordered_scatter_copies_no_whole_b(monkeypatch, kind):
    # B's CSC arrays sit in the output's own pressure slots, and the bands
    # hold at most 8 * 512 entries: above its output, the build holds less
    # than half of B's bytes; a separate CSC copy of the whole of B would
    # alone hold all of them
    monkeypatch.setattr(assembly, "_CHUNK", 512)
    g = build_uniform(128)
    system = assemble(SchemeSpec(kind, {"bp": 0.05}.get(kind)), g, CASES["ms1"].forcing)
    args = (_grid_operators(g).A1, system.B, system.C, system.mean_weights)
    above_output = traced_peak(assembly._bordered, *args) - matrix_bytes(system.matrix)
    assert above_output < 0.5 * matrix_bytes(system.B)


def test_bordered_matrix_past_the_int32_range_raises_before_it_allocates():
    # stub blocks of a bp system on an 8700 x 8700 grid, whose bordered
    # matrix holds more entries than its int32 indptr can count
    n = 8700
    cells = n * n
    A1 = C = SimpleNamespace(shape=(cells, cells), nnz=5 * cells - 4 * n)
    B = SimpleNamespace(shape=(cells, 2 * cells), nnz=6 * cells - 4 * n)
    entries = f"{2 * A1.nnz + 2 * B.nnz + C.nnz + 2 * cells} entries"
    assert traced_peak_of_failure(MemoryError, entries, assembly._bordered, A1, B, C, None) < 1 << 20


@pytest.mark.parametrize("kind", ["natural", "bp", "cluster", "cluster-constant"])
def test_assembled_arrays_hold_exactly_their_entries(kind):
    g = build_tensor([0, 0.2, 0.5, 0.7, 1.0], [0, 0.3, 0.55, 0.8, 1.0])
    spec = SchemeSpec(kind, {"bp": 0.05, "cluster": 1.0}.get(kind))
    system = assemble(spec, g, CASES["ms1"].forcing)
    for mat in (system.matrix, system.B, system.C):
        for arr in (mat.data, mat.indices):
            assert arr.size == mat.nnz
            assert arr.base is None or arr.base.size == arr.size


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
    stab_laplacian_apply(p, "intra_cluster")
    ops = _grid_operators(g)
    for name in ("G", "J", "J_intra"):
        assert name in vars(ops)  # built by the first apply call
        with pytest.raises(ValueError):
            getattr(ops, name).data[0] = 1.0
    # the public builder still returns a fresh, writable matrix
    fresh = gradient_matrix(g)
    assert fresh is not ops.G
    fresh.data[0] = 1.0
