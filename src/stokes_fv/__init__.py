"""Collocated finite-volume schemes for the steady 2D Stokes problem.

Cell-centered velocity and pressure on structured grids, with pressure-jump
stabilizations of the mass balance (full or restricted to 2x2 cell clusters)
and an inf-sup stable cluster-constant pressure variant, plus a verification
harness for the stability and convergence properties of the schemes.
"""

from .assembly import (
    BP,
    CLUSTER_CONSTANT,
    CLUSTER_JUMP,
    NATURAL,
    SCHEME_KINDS,
    SaddleSystem,
    SchemeSpec,
    assemble,
    cell_means,
    energy_functional,
)
from .errors import ClusterError, ConfigError, GridError, SolverError, StokesFVError
from .fields import (
    ScalarField,
    VectorField,
    h1_inner,
    h1_norm,
    jump_inner,
    jump_seminorm,
    l2_norm,
    split_seminorms,
    zero_mean_project,
)
from .grid import (
    ClusterPartition,
    Grid,
    build_tensor,
    build_uniform,
    make_clusters,
    parse_grid_config,
)
from .operators import (
    divergence_apply,
    divergence_matrix,
    duality_defect,
    gradient_apply,
    gradient_matrix,
    h1_stiffness_matrix,
    jump_stabilization_matrix,
    laplacian_apply,
    stab_laplacian_apply,
)
from .solver import SolveReport, schur_smallest_eigen, solve
from .verify import (
    CASES,
    ManufacturedCase,
    checkerboard_field,
    cluster_inequality_terms,
    cluster_test_velocity,
    consistency_check,
    gradient_dual_norm,
    gradient_stability_probe,
    run_convergence,
)

__version__ = "0.1.0"
