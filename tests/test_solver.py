import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from stokes_fv import (
    SchemeSpec,
    assemble,
    build_uniform,
    cell_means,
    make_clusters,
    schur_smallest_eigen,
    solve,
)
from stokes_fv.errors import SolverError
from stokes_fv.fields import h1_norm, l2_norm
from stokes_fv.verify import CASES


def test_zero_forcing():
    g = build_uniform(4)
    report = solve(assemble(SchemeSpec("bp", 0.05), g, lambda x, y: (0 * x, 0 * y)))
    assert not report.singular
    assert np.abs(report.u.values).max() < 1e-13
    assert np.abs(report.p.values).max() < 1e-13


def test_solve_ms1_bp_residual_and_mean():
    g = build_uniform(8)
    system = assemble(SchemeSpec("bp", 0.05), g, CASES["ms1"].forcing)
    report = solve(system)
    assert not report.singular
    assert report.residual_norm <= 1e-10
    assert abs(report.p.mean()) <= 1e-10
    assert abs(report.multiplier) < 1e-10
    assert report.stats["factor_nnz"] > 0


def test_natural_scheme_reports_singularity():
    g = build_uniform(4)
    system = assemble(SchemeSpec("natural"), g, CASES["ms1"].forcing)
    report = solve(system)
    assert report.singular
    assert "checkerboard" in report.singular_reason
    # the factorization itself succeeded, so the fields are still returned
    assert report.u is not None


def test_solve_superposition_linear_in_f():
    g = build_uniform(8)
    rng = np.random.default_rng(5)
    spec = SchemeSpec("bp", 0.1)

    def rand_forcing():
        coeff = rng.standard_normal(4)
        return lambda x, y: (
            coeff[0] * np.sin(np.pi * x) + coeff[1] * y,
            coeff[2] * np.cos(np.pi * y) + coeff[3] * x,
        )

    fa, fb = rand_forcing(), rand_forcing()
    ua = solve(assemble(spec, g, fa)).u
    ub = solve(assemble(spec, g, fb)).u
    fab = lambda x, y: tuple(a + b for a, b in zip(fa(x, y), fb(x, y)))
    uab = solve(assemble(spec, g, fab)).u
    np.testing.assert_allclose(
        uab.values, ua.values + ub.values, rtol=1e-10, atol=1e-12
    )


def test_bad_tolerance_rejected():
    g = build_uniform(4)
    system = assemble(SchemeSpec("bp", 0.1), g, CASES["ms1"].forcing)
    with pytest.raises(SolverError):
        solve(system, tol=0.0)
    with pytest.raises(SolverError):
        solve(system, backend="mystery")
    with pytest.raises(SolverError):
        solve(system, backend="spsolve")


# -- pinned-pressure factorization ---------------------------------------------

def _system(kind, n, lam=None, forcing=lambda x, y: (0 * x, 0 * y)):
    g = build_uniform(n)
    part = make_clusters(g) if kind in ("cluster", "cluster-constant") else None
    spec = SchemeSpec(kind, lam, part)
    return assemble(spec, g, forcing, quad_order=1)


_KINDS = ("bp", "cluster", "cluster-constant", "natural")


def _ms1_system(kind, n):
    return _system(kind, n, {"bp": 0.05, "cluster": 1.0}.get(kind), CASES["ms1"].forcing)


@pytest.mark.parametrize("rhs", ["assembled", "random"])
@pytest.mark.parametrize("kind", _KINDS)
def test_matches_dense_bordered_solve(kind, rhs):
    system = _ms1_system(kind, 8)
    if rhs == "random":
        # nonzero mass-balance and mean-constraint data give a nonzero multiplier
        system = dataclasses.replace(
            system, rhs=np.random.default_rng(7).standard_normal(system.rhs.size)
        )
    x = np.linalg.solve(system.matrix.toarray(), system.rhs)
    report = solve(system)
    # 1e-12 relative to the solution's size (random data makes it large)
    atol = 1e-12 * max(1.0, np.abs(x).max())
    n2, m = system.n_velocity, system.n_velocity + system.n_p
    np.testing.assert_allclose(report.u.values.T.ravel(), x[:n2], rtol=0, atol=atol)
    p_dense = system.cell_pressure(x[n2:m]).values
    # the returned field has zero mean; the data's mean is added back
    shift = system.rhs[-1] / system.mean_weights.sum()
    np.testing.assert_allclose(report.p.values + shift, p_dense, rtol=0, atol=atol)
    assert report.multiplier == pytest.approx(x[-1], abs=atol)
    if rhs == "random":
        assert abs(x[-1]) > 1e-3
    assert report.residual_norm <= 1e-12


@pytest.mark.parametrize("kind", _KINDS)
def test_rcond_estimate_tracks_dense_bordered_condition(kind):
    system = _ms1_system(kind, 16)
    dense = 1.0 / np.linalg.cond(system.matrix.toarray(), 1)
    report = solve(system)
    assert dense / 3 <= report.rcond_est <= 3 * dense


def test_pinned_factor_fill():
    system = _ms1_system("cluster", 64)
    report = solve(system)
    assert not report.singular
    assert report.stats["fill_factor"] < 30
    # the fill stays relative to the full bordered matrix
    assert report.stats["factor_nnz"] == pytest.approx(
        report.stats["fill_factor"] * system.matrix.nnz
    )
    assert report.stats["factor_s"] > 0 and report.stats["rcond_s"] > 0


def test_single_cluster_empty_pinned_pressure_block():
    system = _ms1_system("cluster-constant", 2)
    assert system.n_p == 1
    report = solve(system)
    assert not report.singular
    assert np.all(report.p.values == 0.0)
    assert report.residual_norm <= 1e-10


# -- Schur spectrum ------------------------------------------------------------

def test_schur_cluster_constant_bounded():
    betas = []
    for n in (4, 8):
        beta_sq = schur_smallest_eigen(_system("cluster-constant", n))
        assert beta_sq is not None and beta_sq > 0
        betas.append(math.sqrt(beta_sq))
    assert max(betas) / min(betas) < 1.2


def test_schur_full_space_decays():
    beta4 = math.sqrt(schur_smallest_eigen(_system("natural", 4)))
    beta16 = math.sqrt(schur_smallest_eigen(_system("natural", 16)))
    assert beta16 < beta4


def test_schur_single_cluster_empty_space():
    assert schur_smallest_eigen(_system("cluster-constant", 2)) is None


def test_schur_dimension_cap():
    with pytest.raises(SolverError):
        schur_smallest_eigen(_system("natural", 8), dense_cap=10)


def test_schur_invariant_under_pressure_permutation():
    system = _system("natural", 4)
    base = schur_smallest_eigen(system)
    rng = np.random.default_rng(2)
    perm = rng.permutation(system.n_p)
    p_mat = sp.csr_matrix(
        (np.ones(system.n_p), (np.arange(system.n_p), perm)),
        shape=(system.n_p, system.n_p),
    )
    permuted = type(system)(
        grid=system.grid,
        spec=system.spec,
        matrix=system.matrix,
        rhs=system.rhs,
        A=system.A,
        B=(p_mat @ system.B).tocsr(),
        C=system.C,
        mean_weights=system.mean_weights[perm],
        n_p=system.n_p,
    )
    assert schur_smallest_eigen(permuted) == pytest.approx(base, rel=1e-10)
    assert base >= 0.0
