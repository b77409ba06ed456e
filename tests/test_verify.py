import math

import numpy as np
import pytest
from dense_oracle import splu_gradient_dual_norm

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
    PressureGradientProbe,
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
    probe = PressureGradientProbe(g)
    q = zero_mean_project(ScalarField(g, rng.standard_normal(g.n_cells)))
    dual = probe.dual_norm(q)
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
        probe = PressureGradientProbe(g)
        q = zero_mean_project(
            ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        )
        ratios.append(probe.dual_norm(q) / l2_norm(q))
    assert max(ratios) / min(ratios) < 2.0


# -- cluster inequality ------------------------------------------------------------

def test_cluster_velocity_constant_field_zero():
    g = build_uniform(4)
    part = make_clusters(g)
    q = ScalarField(g, np.full(g.n_cells, 3.0))
    v = cluster_test_velocity(q, part)
    assert np.abs(v.values).max() == 0.0


def test_cluster_velocity_boundary_components_zeroed(rng):
    g = build_uniform(4)
    part = make_clusters(g)
    q = ScalarField(g, rng.standard_normal(g.n_cells))
    v = cluster_test_velocity(q, part)
    i, j = g.cell_ij.T
    # column 0 cells have their cross-x neighbour outside the domain
    assert np.abs(v.values[i == 0, 0]).max() == 0.0
    assert np.abs(v.values[j == 0, 1]).max() == 0.0


def test_cluster_inequality_cluster_constant(rng):
    g = build_uniform(4)
    part = make_clusters(g)
    per_cluster = rng.standard_normal(part.n_clusters)
    q = zero_mean_project(ScalarField(g, per_cluster[part.cluster_of]))
    pairing, bound = cluster_inequality_terms(q, part)
    assert pairing >= bound - 1e-12
    assert bound > 0.0


def test_cluster_inequality_random_sample(rng):
    g = build_uniform(8)
    part = make_clusters(g)
    for _ in range(100):
        q = zero_mean_project(ScalarField(g, rng.standard_normal(g.n_cells)))
        assert cluster_inequality_residual(q, part) >= -1e-12


# -- gradient stability probe --------------------------------------------------------

def test_stability_probe_skips_degenerate_sample():
    g = build_uniform(4)
    fit = gradient_stability_probe(g, [ScalarField.zeros(g)])
    assert fit.skipped and fit.n_samples == 0


def test_stability_probe_constants_positive_and_feasible(rng):
    g = build_uniform(8)
    probe = PressureGradientProbe(g)
    samples = [ScalarField(g, rng.standard_normal(g.n_cells)) for _ in range(20)]
    samples.append(checkerboard_field(g))
    fit = gradient_stability_probe(g, samples, probe)
    assert fit.c1 > 0 and fit.c2 >= 0
    # fitted pair satisfies the inequality on the whole sample
    from stokes_fv.fields import jump_seminorm

    for q in samples:
        q = zero_mean_project(q)
        dual = probe.dual_norm(q)
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
    flux = diffusion_fluxes(phi)
    assert np.abs(flux[g.interior_edges]).max() == 0.0
    gflux = velocity_fluxes(phi)
    expected = g.edge_length * (phi.values[g.edge_cell_k] * g.edge_normal).sum(axis=1)
    np.testing.assert_allclose(gflux[g.interior_edges], expected[g.interior_edges])


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
            part = make_clusters(g) if kind == "cluster" else None
            f = cell_means(case.forcing, g)
            report = solve(assemble(SchemeSpec(kind, lam, part), g, f))
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
