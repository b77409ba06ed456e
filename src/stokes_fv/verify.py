"""Executable checks of the schemes' stability and convergence claims.

This module turns the theory into measurements: the checkerboard pressure
mode and its decaying dual norm, the constructive cluster inequality, the
partial gradient-stability constants, second-order flux consistency, and
manufactured-solution convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import NATURAL, SchemeSpec, assemble, cell_means
from .errors import ConfigError, GridError, SolverError
from .fields import (
    ScalarField,
    VectorField,
    h1_norm,
    l2_norm,
    jump_seminorm,
    split_seminorms,
    write_table,
    zero_mean_project,
)
from .grid import Grid, build_uniform, make_clusters
from .operators import diffusion_fluxes, gradient_apply, grid_operators, velocity_fluxes
from .solver import solve


# -- manufactured solutions ---------------------------------------------------

class ManufacturedCase:
    """Analytic (velocity, pressure, forcing) triple on the unit square.

    The velocity is divergence-free and vanishes on the boundary, the
    pressure has zero mean, and forcing = -laplacian(u) + grad(p).
    """

    def __init__(self, case_id, velocity, pressure, forcing):
        self.id = case_id
        self.velocity = velocity
        self.pressure = pressure
        self.forcing = forcing


def _bump(t):
    return t * t * (1.0 - t) ** 2


def _bump_d1(t):
    return 2.0 * t - 6.0 * t**2 + 4.0 * t**3


def _bump_d2(t):
    return 2.0 - 12.0 * t + 12.0 * t**2


def _bump_d3(t):
    return -12.0 + 24.0 * t


def _ms0_velocity(x, y):
    z = np.zeros_like(np.asarray(x, dtype=float))
    return z, z.copy()


def _ms_pressure(x, y):
    return np.cos(np.pi * x) * np.cos(np.pi * y)


def _ms_pressure_grad(x, y):
    return (
        -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
    )


def _ms0_forcing(x, y):
    return _ms_pressure_grad(x, y)


def _ms1_velocity(x, y):
    # stream function psi = g(x) g(y) with g the quartic bump
    return _bump(x) * _bump_d1(y), -_bump_d1(x) * _bump(y)


def _ms1_forcing(x, y):
    px, py = _ms_pressure_grad(x, y)
    lap_u1 = _bump_d2(x) * _bump_d1(y) + _bump(x) * _bump_d3(y)
    lap_u2 = -(_bump_d3(x) * _bump(y) + _bump_d1(x) * _bump_d2(y))
    return -lap_u1 + px, -lap_u2 + py


CASES = {
    "ms0": ManufacturedCase("ms0", _ms0_velocity, _ms_pressure, _ms0_forcing),
    "ms1": ManufacturedCase("ms1", _ms1_velocity, _ms_pressure, _ms1_forcing),
}


# -- checkerboard mode and gradient dual norm ---------------------------------

def checkerboard_field(grid: Grid) -> ScalarField:
    """The alternating +-1 pressure field; needs a uniform grid with even
    cell counts so the mean vanishes."""
    if not grid.is_uniform:
        raise GridError("checkerboard field is defined on uniform grids")
    if grid.nx % 2 or grid.ny % 2:
        raise GridError("checkerboard field needs even cell counts (zero mean)")
    ij_sum = grid.cell_ij.sum(axis=1)
    return ScalarField(grid, np.where(ij_sum % 2 == 0, 1.0, -1.0))


def gradient_dual_norm(q: ScalarField) -> float:
    """Exact dual norm of the discrete pressure gradient of a zero-mean q.

    sup over velocities of the gradient pairing per unit H1 norm, computed
    as the inverse-stiffness norm of the gradient load vector -B^T q: one
    factor-free `velocity_solve` of the grid.  The load's sign drops out.
    """
    scale = float(np.max(np.abs(q.values))) or 1.0
    if abs(q.mean()) > 1e-9 * scale:
        raise GridError("gradient dual norm expects a zero-mean field")
    ops = grid_operators(q.grid)
    load = ops.B_cells.T @ q.values
    return math.sqrt(max(float(np.sum(load * ops.velocity_solve(load))), 0.0))


# -- constructive cluster inequality ------------------------------------------

def cluster_test_velocity(q: ScalarField) -> VectorField:
    """Velocity probing the cross-cluster jumps of q, over the 2x2 clusters
    of its own grid (ClusterError on an odd grid).

    Per cell, each component is the jump q[l] - q[k] across the cell's
    cross-cluster edge k -> l in that direction (x, y), taken along the
    edge's normal, so the gradient pairing accumulates the squared cross
    jumps; zero when the cell has no cross-cluster edge in that direction
    (it sits on the domain boundary).
    """
    grid = q.grid
    cross = make_clusters(grid).cross_edge_mask
    vals = np.zeros((grid.n_cells, 2))
    # interior normals are +x or +y; a cell has one cross edge per direction
    for f in grid.families()[:2]:
        k = f.k[cross[f.edges].reshape(f.shape)]
        l = k + f.step
        vals[k, f.axis] = vals[l, f.axis] = q.values[l] - q.values[k]
    return VectorField(grid, vals)


def gradient_velocity_pairing(q: ScalarField, v: VectorField) -> float:
    """Quadrature of grad(q) . v over the domain."""
    grid = q.grid
    gq = gradient_apply(q)
    return float(np.dot(grid.cell_areas, np.einsum("ij,ij->i", gq.values, v.values)))


def cluster_inequality_terms(q: ScalarField):
    """Returns (pairing, bound) of the cluster lower-bound inequality
    pairing >= (h/2) (cross^2 - intra^2) on a uniform grid, over the 2x2
    clusters of the field's own grid."""
    grid = q.grid
    if not grid.is_uniform:
        raise GridError("cluster inequality is stated on uniform grids")
    v = cluster_test_velocity(q)
    pairing = gradient_velocity_pairing(q, v)
    cross, intra = split_seminorms(q)
    bound = 0.5 * grid.h * (cross**2 - intra**2)
    return pairing, bound


def cluster_inequality_residual(q: ScalarField) -> float:
    pairing, bound = cluster_inequality_terms(q)
    return pairing - bound


# -- partial gradient stability probe -----------------------------------------

@dataclass
class StabilityFit:
    """Constants (c1, c2) with dual >= c1 * l2 - c2 * h * jump over a sample."""

    c1: float
    c2: float
    n_samples: int
    skipped: bool = False


def gradient_stability_probe(grid: Grid, samples) -> StabilityFit:
    """Fit stability constants over sampled zero-mean pressures.

    For each sample q the probe records dual/l2 and h*jump/l2; c1 anchors at
    the sample median of dual/l2 and c2 is the smallest slope rescuing every
    sample, so that dual >= c1*l2 - c2*h*jump holds across the whole sample.
    """
    h = grid.h if grid.is_uniform else float(max(grid.dx.max(), grid.dy.max()))
    ratios = []
    slopes = []
    for q in samples:
        if not q.grid.same_mesh(grid):
            raise GridError("field lives on a different grid")
        q = zero_mean_project(q)
        l2 = l2_norm(q)
        if l2 <= 1e-14:
            continue
        ratios.append(gradient_dual_norm(q) / l2)
        slopes.append(h * jump_seminorm(q) / l2)
    if not ratios:
        return StabilityFit(float("nan"), float("nan"), 0, skipped=True)
    ratios = np.array(ratios)
    slopes = np.array(slopes)
    c1 = float(np.median(ratios))
    deficits = np.maximum(0.0, c1 - ratios)
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.where(deficits > 0, deficits / slopes, 0.0)
    c2 = float(np.max(need))
    return StabilityFit(c1, c2, len(ratios))


# -- flux consistency ----------------------------------------------------------

@dataclass
class ConsistencyReport:
    max_interior_defect: float
    max_boundary_defect: float


def consistency_check(grid: Grid) -> ConsistencyReport:
    """Flux defects against exact edge integrals for the affine basis.

    Interior edges check both the diffusive flux against the edge integral
    of the normal derivative and the velocity flux against the edge integral
    of the normal trace.  Boundary edges check the diffusive flux of the
    affine function vanishing on their side; the measured defect is
    reported, not asserted.
    """
    families = grid.families()
    lines, center_lines = (grid.xs, grid.ys), grid.center_lines()
    cell_centers = grid.cell_centers

    max_int = 0.0
    # affine basis per component: constants and the two coordinates
    for comp in range(2):
        for grad, fn in (
            ((0.0, 0.0), lambda x, y: np.ones_like(x)),
            ((1.0, 0.0), lambda x, y: x),
            ((0.0, 1.0), lambda x, y: y),
        ):
            def basis(x, y, comp=comp, fn=fn):
                v = fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
                z = np.zeros_like(v)
                return (v, z) if comp == 0 else (z, v)

            phi = VectorField.from_function(grid, basis)
            all_d, all_g = diffusion_fluxes(phi)[:, comp], velocity_fluxes(phi)
            for f in families[:2]:  # the normal is the unit vector of f.axis
                flux_d = all_d[f.edges].reshape(f.shape)
                exact_d = f.length * grad[f.axis]
                max_int = max(max_int, float(np.max(np.abs(flux_d - exact_d))))

                # the edge midpoints: the inner coordinate line against the
                # other axis's center line
                inner, across = lines[f.axis][1:-1, None], center_lines[1 - f.axis][None, :]
                x, y = (inner, across) if f.axis == 0 else (across, inner)
                flux_g = all_g[f.edges].reshape(f.shape)
                exact_g = f.length * fn(x, y) * float(comp == f.axis)
                max_int = max(max_int, float(np.max(np.abs(flux_g - exact_g))))

    # boundary: per wall, the signed distance to the wall's line vanishes on
    # it and has the outward normal as gradient, so its exact flux is |sigma|
    max_bnd = 0.0
    for f in families[2:]:
        centers = cell_centers[:, f.axis]
        for wall, (position, sign) in enumerate(zip(lines[f.axis][[0, -1]], f.sign)):
            distance = ScalarField(grid, (centers - position) * sign)
            flux_b = diffusion_fluxes(distance)[f.edges].reshape(f.shape)
            max_bnd = max(max_bnd, float(np.max(np.abs(flux_b - f.length)[:, wall])))
    return ConsistencyReport(max_int, max_bnd)


# -- convergence studies --------------------------------------------------------

@dataclass
class ConvergenceRow:
    n: int
    h: float
    err_u_h1: float
    err_p_l2: float
    order_u: float | None = None
    order_p: float | None = None


@dataclass
class ConvergenceTable:
    scheme: str
    lam: float | None
    case_id: str
    rows: list


def _refinement_list(n_list) -> list:
    """`n_list` as a list, if it is a non-empty, strictly increasing one."""
    n_list = list(n_list)
    if not n_list:
        raise GridError("empty refinement list")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise GridError("refinement list must be strictly increasing")
    return n_list


def run_convergence(
    spec: SchemeSpec,
    case: ManufacturedCase,
    n_list,
    quad_order: int = 3,
    tol: float = 1e-10,
) -> ConvergenceTable:
    """Solve `case` on a uniform grid per n and compare against the
    interpolated analytic solution (H1 for velocity, aligned L2 for pressure).

    Every level is assembled from `spec` itself; the cluster schemes derive
    their partition from each level's grid.  Each level is solved by
    Schur-complement CG (`solve(backend="schur-cg")`), which needs no sparse
    factor and a step count that does not grow with n.
    """
    if spec.kind == NATURAL:
        raise ConfigError("convergence studies need a stabilized or cluster-constant scheme")
    rows = []
    for n in _refinement_list(n_list):
        grid = build_uniform(n)
        f_cells = cell_means(case.forcing, grid, quad_order)
        system = assemble(spec, grid, f_cells)
        report = solve(system, tol=tol, backend="schur-cg")
        if report.u is None or report.singular:
            raise SolverError(f"solve failed at n={n}: {report.singular_reason}")
        u_ref = VectorField.from_function(grid, case.velocity)
        p_ref = zero_mean_project(ScalarField.from_function(grid, case.pressure))
        err_u = h1_norm(report.u - u_ref)
        err_p = l2_norm(zero_mean_project(report.p) - p_ref)
        rows.append(ConvergenceRow(n, 1.0 / n, err_u, err_p))
    for prev, cur in zip(rows, rows[1:]):
        ratio = math.log(cur.n / prev.n)
        if prev.err_u_h1 > 0 and cur.err_u_h1 > 0:
            cur.order_u = math.log(prev.err_u_h1 / cur.err_u_h1) / ratio
        if prev.err_p_l2 > 0 and cur.err_p_l2 > 0:
            cur.order_p = math.log(prev.err_p_l2 / cur.err_p_l2) / ratio
    return ConvergenceTable(spec.kind, spec.lam, case.id, rows)


# -- CSV emission ----------------------------------------------------------------

def write_convergence_csv(table: ConvergenceTable, path) -> None:
    header = ["scheme", "lambda", "n", "h", "err_u_h1", "err_p_l2", "order_u", "order_p"]
    rows = [
        [table.scheme, table.lam, r.n, r.h, r.err_u_h1, r.err_p_l2, r.order_u, r.order_p]
        for r in table.rows
    ]
    write_table(path, header, rows)


def checkerboard_sweep(n_list):
    """Dual-norm decay of the checkerboard mode over uniform refinements.

    Returns (rows, exponent): per n the dual norm, the L2 norm and their
    ratio, plus the least-squares decay exponent of the ratio against h.
    """
    rows = []
    for n in _refinement_list(n_list):
        grid = build_uniform(n)
        cb = checkerboard_field(grid)
        dual = gradient_dual_norm(cb)
        l2 = l2_norm(cb)
        rows.append({"n": n, "h": 1.0 / n, "dual_norm": dual, "l2_norm": l2, "ratio": dual / l2})
    if len(rows) >= 2:
        logs_h = np.log2([r["h"] for r in rows])
        logs_r = np.log2([r["ratio"] for r in rows])
        exponent = float(np.polyfit(logs_h, logs_r, 1)[0])
    else:
        exponent = float("nan")
    return rows, exponent


def write_checkerboard_csv(rows, exponent, path) -> None:
    keys = ["n", "h", "dual_norm", "l2_norm", "ratio"]
    write_table(path, keys + ["fitted_exponent"], [[r[k] for k in keys] + [exponent] for r in rows])


def write_infsup_csv(rows, path) -> None:
    keys = ["space", "n", "h", "beta_h"]
    write_table(path, keys, [[r[k] for k in keys] for r in rows])


def write_consistency_csv(label, report: ConsistencyReport, path) -> None:
    row = [label, report.max_interior_defect, report.max_boundary_defect]
    write_table(path, ["grid", "max_interior_defect", "max_boundary_defect"], [row])
