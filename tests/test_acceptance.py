"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import math
import time

import numpy as np
import pytest

from dense_oracle import dense_assemble_uniform, dense_rhs_uniform

import stokes_fv as sfv
from stokes_fv import (
    ScalarField,
    SchemeSpec,
    VectorField,
    assemble,
    build_tensor,
    build_uniform,
    cell_means,
    gradient_dual_norm,
    h1_inner,
    schur_smallest_eigen,
    solve,
    zero_mean_project,
)
from stokes_fv.fields import h1_norm, l2_norm
from stokes_fv.operators import laplacian_apply, duality_defect, gradient_apply, divergence_apply
from stokes_fv.verify import (
    CASES,
    checkerboard_sweep,
    cluster_inequality_residual,
    consistency_check,
    run_convergence,
)

TENSOR_GRIDS = (
    ([0, 0.2, 0.5, 0.7, 1.0], [0, 0.3, 0.55, 0.8, 1.0]),
    ([0, 0.4, 0.6, 0.8, 0.9, 1.0], [0, 0.15, 0.5, 1.0]),
)


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_duality_and_coercivity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    grids = [build_uniform(n) for n in (4, 8, 16)]
    grids += [build_tensor(xs, ys) for xs, ys in TENSOR_GRIDS]
    worst_dual = 0.0
    worst_coer = 0.0
    for g in grids:
        for _ in range(100):
            q = ScalarField(g, rng.standard_normal(g.n_cells))
            v = VectorField(g, rng.standard_normal((g.n_cells, 2)))
            gp = gradient_apply(q)
            t1 = float(np.dot(g.cell_areas, np.einsum("ij,ij->i", gp.values, v.values)))
            t2 = float(np.dot(g.cell_areas, q.values * divergence_apply(v).values))
            scale = max(abs(t1), abs(t2), 1e-30)
            worst_dual = max(worst_dual, abs(duality_defect(q, v)) / scale)

            u = VectorField(g, rng.standard_normal((g.n_cells, 2)))
            lap = laplacian_apply(u)
            quad = float(np.dot(g.cell_areas, np.einsum("ij,ij->i", lap.values, u.values)))
            norm_sq = h1_inner(u, u)
            worst_coer = max(worst_coer, abs(quad - norm_sq) / norm_sq)
    elapsed = time.time() - t0
    ok = worst_dual <= 1e-12 and worst_coer <= 1e-12 and elapsed < 5.0
    _criterion(
        1,
        "exact duality and coercivity identities",
        ok,
        f"max rel duality defect {worst_dual:.2e}, max rel coercivity defect "
        f"{worst_coer:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_flux_consistency():
    t0 = time.time()
    grids = [build_uniform(4), build_uniform(8)]
    grids += [build_tensor(xs, ys) for xs, ys in TENSOR_GRIDS]
    worst = max(consistency_check(g).max_interior_defect for g in grids)
    elapsed = time.time() - t0
    ok = worst <= 1e-13 and elapsed < 1.0
    _criterion(2, "second-order flux consistency", ok, f"max interior defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_checkerboard_instability():
    t0 = time.time()
    rows, exponent = checkerboard_sweep([4, 8, 16, 32])
    ratios = [r["ratio"] for r in rows]
    monotone = all(a > b for a, b in zip(ratios, ratios[1:]))

    smooth_ratios = []
    for n in (4, 8, 16, 32):
        g = build_uniform(n)
        q = zero_mean_project(
            ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        )
        smooth_ratios.append(gradient_dual_norm(q) / l2_norm(q))
    contrast = max(smooth_ratios) / min(smooth_ratios)
    elapsed = time.time() - t0
    ok = monotone and exponent >= 0.5 and contrast < 2.0 and elapsed < 30.0
    _criterion(
        3,
        "checkerboard dual-norm decay",
        ok,
        f"ratios {['%.4f' % r for r in ratios]}, exponent {exponent:.4f}, "
        f"smooth contrast {contrast:.3f}, {elapsed:.1f}s",
    )


def test_criterion_4_cluster_inequality():
    t0 = time.time()
    g = build_uniform(8)
    rng = np.random.default_rng(404)
    worst = math.inf
    for _ in range(1000):
        q = zero_mean_project(ScalarField(g, rng.standard_normal(g.n_cells)))
        worst = min(worst, cluster_inequality_residual(q))
    elapsed = time.time() - t0
    ok = worst >= -1e-12 and elapsed < 10.0
    _criterion(
        4,
        "constructive cluster lower bound",
        ok,
        f"worst residual {worst:.3e} over 1000 samples, {elapsed:.1f}s",
    )


def test_criterion_5_solvability_and_stability():
    t0 = time.time()
    case = CASES["ms1"]
    lam_sweep = (0.01, 0.1, 1.0, 10.0)
    n_sweep = (4, 8, 16, 32)
    all_s = {}
    no_warnings = True
    for kind in ("bp", "cluster"):
        for lam in lam_sweep:
            for n in n_sweep:
                g = build_uniform(n)
                f = cell_means(case.forcing, g)
                report = solve(assemble(SchemeSpec(kind, lam), g, f))
                if report.singular:
                    no_warnings = False
                all_s[(kind, lam, n)] = (h1_norm(report.u) + l2_norm(report.p)) / l2_norm(f)
    coarsest_constant = max(v for (k, l, n), v in all_s.items() if n == min(n_sweep))
    worst_ratio = max(all_s.values()) / coarsest_constant
    stable = worst_ratio <= 1.1

    natural_flagged = True
    for n in n_sweep:
        g = build_uniform(n)
        f = cell_means(case.forcing, g)
        report = solve(assemble(SchemeSpec("natural"), g, f))
        natural_flagged &= report.singular
    elapsed = time.time() - t0
    ok = no_warnings and stable and natural_flagged
    _criterion(
        5,
        "unique solvability and uniform stability",
        ok,
        f"coarsest-level constant {coarsest_constant:.4f}, worst ratio {worst_ratio:.4f}, "
        f"natural flagged {natural_flagged}, {elapsed:.1f}s",
    )


def test_criterion_6_infsup():
    t0 = time.time()
    cluster_betas = []
    full_betas = []
    for n in (4, 8, 16, 32):
        g = build_uniform(n)
        zero_f = lambda x, y: (0.0 * x, 0.0 * y)
        sys_cc = assemble(
            SchemeSpec("cluster-constant"), g, zero_f, quad_order=1
        )
        cluster_betas.append(math.sqrt(schur_smallest_eigen(sys_cc)))
        sys_full = assemble(SchemeSpec("natural"), g, zero_f, quad_order=1)
        full_betas.append(math.sqrt(schur_smallest_eigen(sys_full)))
    variation = (max(cluster_betas) - min(cluster_betas)) / max(cluster_betas)
    full_decay = full_betas[-1] / full_betas[0]
    elapsed = time.time() - t0
    ok = variation < 0.2 and full_decay < 0.5 and elapsed < 120.0
    _criterion(
        6,
        "cluster-constant inf-sup stability vs full-space decay",
        ok,
        f"cluster betas {['%.4f' % b for b in cluster_betas]} (variation {variation:.3f}), "
        f"full beta(32)/beta(4) {full_decay:.3f}, {elapsed:.1f}s",
    )


def test_criterion_7_first_order_convergence():
    t0 = time.time()
    case = CASES["ms1"]
    details = []
    ok = True
    for kind, lam in (("bp", 0.05), ("cluster", 1.0)):
        table = run_convergence(SchemeSpec(kind, lam), case, [8, 16, 32, 64])
        last = table.rows[-1]
        ok = ok and last.order_u >= 0.8 and last.order_p >= 0.8
        details.append(f"{kind}: order_u {last.order_u:.3f}, order_p {last.order_p:.3f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _criterion(7, "first-order convergence on MS1", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_8_lambda_robustness():
    t0 = time.time()
    case = CASES["ms1"]
    g = build_uniform(32)
    f = cell_means(case.forcing, g)
    u_ref = VectorField.from_function(g, case.velocity)
    p_ref = zero_mean_project(ScalarField.from_function(g, case.pressure))
    errs_u, errs_p = [], []
    for lam in (0.05, 1.0, 20.0):
        report = solve(assemble(SchemeSpec("cluster", lam), g, f))
        errs_u.append(h1_norm(report.u - u_ref))
        errs_p.append(l2_norm(zero_mean_project(report.p) - p_ref))
    spread_u = max(errs_u) / min(errs_u)
    spread_p = max(errs_p) / min(errs_p)
    elapsed = time.time() - t0
    ok = spread_u < 3.0 and spread_p < 3.0
    _criterion(
        8,
        "lambda robustness of the cluster scheme",
        ok,
        f"error spreads u {spread_u:.3f}, p {spread_p:.3f} over lambda in {{0.05, 1, 20}}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_dense_oracle_equivalence():
    t0 = time.time()
    n = 4
    g = build_uniform(n)
    case = CASES["ms1"]
    f = cell_means(case.forcing, g)
    worst = 0.0
    for kind, lam in (("natural", None), ("bp", 0.1), ("cluster", 0.5)):
        spec = SchemeSpec(kind, lam)
        system = assemble(spec, g, f)
        dense = dense_assemble_uniform(n, kind, lam)
        worst = max(worst, float(np.abs(system.matrix.toarray() - dense).max()))
        rhs = dense_rhs_uniform(n, f.values)
        worst = max(worst, float(np.abs(system.rhs - rhs).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-14
    _criterion(
        9,
        "sparse assembly equals dense brute-force assembly",
        ok,
        f"max entrywise difference {worst:.2e}, {elapsed:.1f}s",
    )
