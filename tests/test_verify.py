import math

import numpy as np
import pytest
from dense_oracle import array_edges, splu_gradient_dual_norm

from stokes_fv import (
    GridError,
    ScalarField,
    SchemeSpec,
    build_tensor,
    build_uniform,
    checkerboard_field,
    cluster_inequality_terms,
    cluster_test_velocity,
    consistency_check,
    gradient_dual_norm,
    gradient_stability_probe,
    make_clusters,
    run_convergence,
    zero_mean_project,
)
from stokes_fv.fields import l2_norm
from stokes_fv.verify import (
    CASES,
    checkerboard_sweep,
    cluster_inequality_residual,
)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


# -- checkerboard ----------------------------------------------------------------

def test_checkerboard_values_n2():
    g = build_uniform(2)
    cb = checkerboard_field(g)
    as_matrix = cb.values.reshape(g.ny, g.nx)
    np.testing.assert_array_equal(as_matrix, [[1, -1], [-1, 1]])


def test_checkerboard_zero_mean_and_interior_gradient():
    g = build_uniform(4)
    cb = checkerboard_field(g)
    assert cb.mean() == 0.0
    from stokes_fv import gradient_apply

    gp = gradient_apply(cb)
    i, j = g.cell_ij.T
    interior = (i > 0) & (i < 3) & (j > 0) & (j < 3)
    assert interior.sum() == 4
    assert np.abs(gp.values[interior]).max() < 1e-14


def test_checkerboard_preconditions():
    with pytest.raises(GridError):
        checkerboard_field(build_uniform(3))
    with pytest.raises(GridError):
        checkerboard_field(build_tensor([0, 0.2, 0.5, 0.7, 1], [0, 0.25, 0.5, 0.75, 1]))


# -- gradient dual norm -----------------------------------------------------------

def test_dual_norm_zero_field():
    g = build_uniform(4)
    assert gradient_dual_norm(ScalarField.zeros(g)) == 0.0


def test_dual_norm_rejects_nonzero_mean():
    g = build_uniform(4)
    with pytest.raises(GridError):
        gradient_dual_norm(ScalarField(g, np.ones(g.n_cells)))


def test_dual_norm_is_supremum(rng):
    # no discrete velocity can beat the computed supremum
    g = build_uniform(4)
    q = zero_mean_project(ScalarField(g, rng.standard_normal(g.n_cells)))
    dual = gradient_dual_norm(q)
    from stokes_fv import VectorField, h1_norm
    from stokes_fv.verify import gradient_velocity_pairing

    for _ in range(25):
        v = VectorField(g, rng.standard_normal((g.n_cells, 2)))
        pairing = gradient_velocity_pairing(q, v)
        assert pairing <= dual * h1_norm(v) + 1e-10


def test_checkerboard_dual_ratio_decays():
    rows, exponent = checkerboard_sweep([4, 8, 16])
    ratios = [r["ratio"] for r in rows]
    assert ratios[0] > ratios[1] > ratios[2]
    assert exponent >= 0.5


@pytest.mark.parametrize(
    "n_list, message",
    [([], "empty refinement list"), ([8, 8], "strictly increasing"), ([16, 8], "strictly increasing")],
)
def test_checkerboard_sweep_rejects_bad_lists(n_list, message):
    with pytest.raises(GridError, match=message):
        checkerboard_sweep(n_list)


def test_checkerboard_ratios_match_the_splu_oracle():
    rows, _ = checkerboard_sweep([8, 16, 32, 64, 128])
    for row in rows:
        q = checkerboard_field(build_uniform(row["n"]))
        expected = splu_gradient_dual_norm(q) / l2_norm(q)
        assert row["ratio"] == pytest.approx(expected, rel=1e-12, abs=0), row["n"]


def test_smooth_field_ratio_stays_bounded():
    ratios = []
    for n in (4, 8, 16):
        g = build_uniform(n)
        q = zero_mean_project(
            ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        )
        ratios.append(gradient_dual_norm(q) / l2_norm(q))
    assert max(ratios) / min(ratios) < 2.0


# -- cluster inequality ------------------------------------------------------------

def test_cluster_velocity_constant_field_zero():
    g = build_uniform(4)
    q = ScalarField(g, np.full(g.n_cells, 3.0))
    v = cluster_test_velocity(q)
    assert np.abs(v.values).max() == 0.0


def _seeded_tensor(nx, ny):
    rng = np.random.default_rng(3)
    return build_tensor(*(np.cumsum(rng.uniform(0.2, 1.0, n + 1)) for n in (nx, ny)))


@pytest.mark.parametrize(
    "grid", [build_uniform(4), _seeded_tensor(6, 4)], ids=["uniform-4x4", "tensor-6x4"]
)
def test_cluster_velocity_values(grid):
    # q = i + 10 j jumps by 1 across every x edge and by 10 across every y
    # edge; a cell has a cross-cluster neighbour in a direction unless it
    # sits in the first or last column (row) of the grid
    i, j = grid.cell_ij.T
    v = cluster_test_velocity(ScalarField(grid, i + 10.0 * j))
    assert np.array_equal(v.values[:, 0], np.where((i > 0) & (i < grid.nx - 1), 1.0, 0.0))
    assert np.array_equal(v.values[:, 1], np.where((j > 0) & (j < grid.ny - 1), 10.0, 0.0))


def test_cluster_velocity_boundary_components_zeroed(rng):
    g = build_uniform(4)
    q = ScalarField(g, rng.standard_normal(g.n_cells))
    v = cluster_test_velocity(q)
    i, j = g.cell_ij.T
    # column 0 cells have their cross-x neighbour outside the domain
    assert np.abs(v.values[i == 0, 0]).max() == 0.0
    assert np.abs(v.values[j == 0, 1]).max() == 0.0


def test_cluster_inequality_cluster_constant(rng):
    g = build_uniform(4)
    part = make_clusters(g)
    per_cluster = rng.standard_normal(part.n_clusters)
    q = zero_mean_project(ScalarField(g, per_cluster[part.cluster_of]))
    pairing, bound = cluster_inequality_terms(q)
    assert pairing >= bound - 1e-12
    assert bound > 0.0


def test_cluster_inequality_random_sample(rng):
    g = build_uniform(8)
    for _ in range(100):
        q = zero_mean_project(ScalarField(g, rng.standard_normal(g.n_cells)))
        assert cluster_inequality_residual(q) >= -1e-12


# -- gradient stability probe --------------------------------------------------------

def test_stability_probe_skips_degenerate_sample():
    g = build_uniform(4)
    fit = gradient_stability_probe(g, [ScalarField.zeros(g)])
    assert fit.skipped and fit.n_samples == 0


def test_stability_probe_rejects_a_sample_on_another_mesh(rng):
    g = build_uniform(4)
    other = ScalarField(build_uniform(8), rng.standard_normal(64))
    with pytest.raises(GridError, match="different grid"):
        gradient_stability_probe(g, [other])


def test_stability_probe_constants_positive_and_feasible(rng):
    g = build_uniform(8)
    samples = [ScalarField(g, rng.standard_normal(g.n_cells)) for _ in range(20)]
    samples.append(checkerboard_field(g))
    fit = gradient_stability_probe(g, samples)
    assert fit.c1 > 0 and fit.c2 >= 0
    # fitted pair satisfies the inequality on the whole sample
    from stokes_fv.fields import jump_seminorm

    for q in samples:
        q = zero_mean_project(q)
        dual = gradient_dual_norm(q)
        assert dual >= fit.c1 * l2_norm(q) - fit.c2 * g.h * jump_seminorm(q) - 1e-10


def test_stability_probe_c1_stable_under_refinement(rng):
    fits = []
    for n in (8, 16):
        g = build_uniform(n)
        smooth = [
            ScalarField.from_function(
                g, lambda x, y, a=a, b=b: np.cos(a * np.pi * x) * np.cos(b * np.pi * y)
            )
            for a, b in ((1, 1), (1, 2), (2, 1))
        ]
        fits.append(gradient_stability_probe(g, smooth))
    assert fits[1].c1 >= fits[0].c1 / 2.0


# -- consistency ---------------------------------------------------------------------

def test_consistency_constant_field_exact():
    g = build_uniform(4)
    from stokes_fv import VectorField
    from stokes_fv.operators import diffusion_fluxes, velocity_fluxes

    phi = VectorField(g, np.tile([2.0, -1.0], (g.n_cells, 1)))
    t, ie = array_edges(g.xs, g.ys), slice(0, g.n_interior_edges)
    flux = diffusion_fluxes(phi)
    assert np.abs(flux[ie]).max() == 0.0
    gflux = velocity_fluxes(phi)
    expected = t["edge_length"] * (phi.values[t["edge_cell_k"]] * t["edge_normal"]).sum(axis=1)
    np.testing.assert_allclose(gflux[ie], expected[ie])


def test_consistency_defects_at_rounding():
    grids = (
        build_uniform(8),
        build_tensor([0, 0.25, 1], [0, 0.5, 1]),
        build_tensor([0, 0.2, 0.5, 0.7, 1.0], [0, 0.3, 0.55, 0.8, 1.0]),
    )
    for g in grids:
        report = consistency_check(g)
        assert report.max_interior_defect <= 1e-13
        assert report.max_boundary_defect <= 1e-13


def test_consistency_measures_the_production_boundary_flux(monkeypatch):
    import stokes_fv.verify
    from stokes_fv.operators import diffusion_fluxes

    def doubled_at_the_wall(field):
        flux = diffusion_fluxes(field)
        flux[field.grid.n_interior_edges :] *= 2.0
        return flux

    g = build_tensor([0, 0.1, 0.35, 0.7, 1.0], [0, 0.3, 0.5, 0.9, 1.0])
    monkeypatch.setattr(stokes_fv.verify, "diffusion_fluxes", doubled_at_the_wall)
    assert consistency_check(g).max_boundary_defect > 1e-3


# -- stability under refinement --------------------------------------------------------

def test_stability_constant_under_refinement():
    # for fixed forcing, the measured stability constant at the coarsest
    # level is not exceeded by more than 10 percent on finer grids
    from stokes_fv import assemble, cell_means, solve
    from stokes_fv.fields import h1_norm

    case = CASES["ms1"]
    for kind, lam in (("bp", 0.1), ("cluster", 1.0)):
        constants = []
        for n in (4, 8, 16):
            g = build_uniform(n)
            f = cell_means(case.forcing, g)
            report = solve(assemble(SchemeSpec(kind, lam), g, f))
            constants.append((h1_norm(report.u) + l2_norm(report.p)) / l2_norm(f))
        assert max(constants) <= 1.1 * constants[0]


# -- convergence ----------------------------------------------------------------------

def test_run_convergence_ms0_pressure_decreases():
    spec = SchemeSpec("bp", 0.05)
    table = run_convergence(spec, CASES["ms0"], [4, 8, 16])
    errs = [r.err_p_l2 for r in table.rows]
    assert errs[0] > errs[1] > errs[2]


def test_run_convergence_ms1_smoke():
    spec = SchemeSpec("bp", 0.05)
    table = run_convergence(spec, CASES["ms1"], [4, 8])
    assert table.rows[1].order_u is not None
    assert table.rows[1].err_u_h1 < table.rows[0].err_u_h1


def test_run_convergence_rejects_bad_lists():
    spec = SchemeSpec("bp", 0.05)
    with pytest.raises(GridError):
        run_convergence(spec, CASES["ms1"], [])
    with pytest.raises(GridError):
        run_convergence(spec, CASES["ms1"], [8, 8])


def test_run_convergence_rejects_unstabilized_scheme():
    from stokes_fv import ConfigError

    with pytest.raises(ConfigError):
        run_convergence(SchemeSpec("natural"), CASES["ms1"], [4, 8])


@pytest.mark.parametrize("kind, lam", [("bp", 0.05), ("cluster", 1.0), ("cluster-constant", None)])
def test_convergence_rows_match_the_direct_solve(monkeypatch, kind, lam):
    import stokes_fv.verify as verify

    solve = verify.solve
    backends = []

    def recording_solve(system, tol, backend):
        backends.append(backend)
        return solve(system, tol=tol, backend=backend)

    n_list = [8, 16, 32, 64]
    monkeypatch.setattr(verify, "solve", recording_solve)
    cg = run_convergence(SchemeSpec(kind, lam), CASES["ms1"], n_list)
    assert backends == ["schur-cg"] * len(n_list)
    monkeypatch.setattr(verify, "solve", lambda system, tol, backend: solve(system, tol=tol, backend="splu"))
    direct = run_convergence(SchemeSpec(kind, lam), CASES["ms1"], n_list)
    for cg_row, splu_row in zip(cg.rows, direct.rows):
        assert cg_row.err_u_h1 == pytest.approx(splu_row.err_u_h1, rel=1e-9, abs=0)
        assert cg_row.err_p_l2 == pytest.approx(splu_row.err_p_l2, rel=1e-9, abs=0)
