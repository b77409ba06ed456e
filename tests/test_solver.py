import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import matrix_bytes, tensor_lines, traced_peak
from dense_oracle import dense_schur_smallest_eigen, sliced_pinned_block, velocity_block
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokes_fv import (
    SaddleSystem,
    SchemeSpec,
    assemble,
    build_tensor,
    build_uniform,
    cell_means,
    schur_smallest_eigen,
    solve,
)
from stokes_fv import assembly
from stokes_fv.errors import SolverError
from stokes_fv.solver import BACKENDS, _pinned_block, _schur_complement, _shift_invert_beta_sq
from stokes_fv.fields import h1_norm, l2_norm
from stokes_fv.verify import CASES

# A scaling that divides by zero, or any other numerical warning, fails here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    for backend in BACKENDS:
        report = solve(system, backend=backend)
        assert report.singular, backend
        assert "checkerboard" in report.singular_reason
        # the factorization or CG itself succeeded, so the fields are still returned
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
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(SolverError, match="finite and positive"):
            solve(system, tol=tol)
    with pytest.raises(SolverError):
        solve(system, backend="mystery")
    with pytest.raises(SolverError):
        solve(system, backend="spsolve")


# -- pinned-pressure factorization ---------------------------------------------

def _system(kind, n, lam=None, forcing=lambda x, y: (0 * x, 0 * y)):
    g = build_uniform(n)
    spec = SchemeSpec(kind, lam)
    return assemble(spec, g, forcing, quad_order=1)


_KINDS = ("bp", "cluster", "cluster-constant", "natural")


def _ms1_system(kind, n):
    return _system(kind, n, {"bp": 0.05, "cluster": 1.0}.get(kind), CASES["ms1"].forcing)


def _assert_matches_dense_bordered_solve(system, backend="splu"):
    x = np.linalg.solve(system.matrix.toarray(), system.rhs)
    report = solve(system, backend=backend)
    # 1e-12 relative to the solution's size (random data makes it large)
    atol = 1e-12 * max(1.0, np.abs(x).max())
    n2, m = system.n_velocity, system.n_velocity + system.n_p
    np.testing.assert_allclose(report.u.values.T.ravel(), x[:n2], rtol=0, atol=atol)
    p_dense = system.cell_pressure(x[n2:m]).values
    # the returned field has zero mean; the data's mean is added back
    shift = system.rhs[-1] / system.mean_weights.sum()
    np.testing.assert_allclose(report.p.values + shift, p_dense, rtol=0, atol=atol)
    assert report.multiplier == pytest.approx(x[-1], abs=atol)
    return x, report


def _random_rhs(system, seed):
    # nonzero mass-balance and mean-constraint data give a nonzero multiplier
    rhs = np.random.default_rng(seed).standard_normal(system.rhs.size)
    return dataclasses.replace(system, rhs=rhs)


@pytest.mark.parametrize("rhs", ["assembled", "random"])
@pytest.mark.parametrize("kind", _KINDS)
def test_matches_dense_bordered_solve(kind, rhs):
    system = _ms1_system(kind, 8)
    if rhs == "random":
        system = _random_rhs(system, 7)
    x, report = _assert_matches_dense_bordered_solve(system)
    if rhs == "random":
        assert abs(x[-1]) > 1e-3
    assert report.residual_norm <= 1e-12


# Odd cell counts for the cell-pressure schemes, even ones for the clusters;
# nx != ny, so a dof order that mixes up the two directions shows.
_ODD_LINES = tensor_lines(st.integers(1, 5).map(lambda h: 2 * h + 1))
_EVEN_LINES = tensor_lines(st.integers(1, 6).map(lambda h: 2 * h))


def _random_tensor_system(kind, lam, data, seed):
    xs, ys = data.draw(_EVEN_LINES if kind.startswith("cluster") else _ODD_LINES)
    g = build_tensor(xs, ys)
    system = assemble(SchemeSpec(kind, lam), g, CASES["ms1"].forcing, quad_order=1)
    return _random_rhs(system, seed)


@pytest.mark.parametrize(
    "kind, lam",
    [("bp", 0.05), ("bp", 1e-3), ("natural", None), ("cluster", 1.0), ("cluster", 1e-3),
     ("cluster-constant", None)],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_matches_dense_bordered_solve_on_tensor_grids(kind, lam, data, seed):
    _, report = _assert_matches_dense_bordered_solve(_random_tensor_system(kind, lam, data, seed))
    # not 1e-12: on cells of very unequal widths numpy's own dense LU
    # leaves relative residuals up to 3e-12
    assert report.residual_norm <= 1e-10


@pytest.mark.parametrize(
    "kind, lam",
    [("bp", 0.05), ("bp", 1e-3), ("cluster", 1.0), ("cluster", 1e-3), ("cluster-constant", None)],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_schur_cg_matches_dense_bordered_solve_on_tensor_grids(kind, lam, data, seed):
    system = _random_tensor_system(kind, lam, data, seed)
    _, report = _assert_matches_dense_bordered_solve(system, "schur-cg")
    assert not report.singular, report.singular_reason
    assert report.residual_norm <= 1e-10
    assert 0 < report.stats["ritz_min"] <= report.stats["ritz_max"]


@pytest.mark.parametrize("kind", _KINDS)
def test_rcond_estimate_tracks_dense_scaled_condition(kind):
    # the estimate is of the scaled, pinned block that is factored, so it
    # does not depend on the mesh's units
    system = _ms1_system(kind, 16)
    dense = 1.0 / np.linalg.cond(_pinned_block(system)[0].toarray(), 2)
    report = solve(system)
    assert dense / 3 <= report.rcond_est <= 3 * dense


@pytest.mark.parametrize("kind", ["cluster-constant", "natural"])
def test_schur_cg_ritz_values_approach_beta_squared(kind):
    # with C = 0 the preconditioned Schur complement's smallest eigenvalue
    # on zero-mean pressures is beta^2; Ritz values lie inside its spectrum
    # and CG's converge to its ends
    system = _ms1_system(kind, 8)
    beta_sq = dense_schur_smallest_eigen(system)
    report = solve(system, backend="schur-cg")
    stats = report.stats
    assert beta_sq * (1 - 1e-9) <= stats["ritz_min"] <= beta_sq * 1.01
    assert report.rcond_est == stats["ritz_min"] / stats["ritz_max"]
    assert stats["cg_iters"] > 0 and stats["cg_s"] > 0 and stats["peak_rss_mb"] > 0


def _merge_pressure_rows(system, i, j):
    # pressure rows i and j of B both replaced by their mean: 1^T B stays 0
    # and e_i - e_j spans a kernel of B^T, so beta^2 = 0
    merged = system.B.tolil()
    merged[i] = merged[j] = 0.5 * (system.B[i] + system.B[j])
    return dataclasses.replace(system, B=merged.tocsr())


def test_schur_cg_flags_a_singular_schur_complement():
    # random data reach the kernel e3 - e4 of S; CG's Ritz values see only
    # the Krylov space of the data, so data orthogonal to it would not be
    # flagged (and would still be solved)
    system = _random_rhs(_merge_pressure_rows(_ms1_system("cluster-constant", 8), 3, 4), 3)
    report = solve(system, backend="schur-cg")
    assert report.singular
    assert report.stats["ritz_min"] < 1e-12 * report.stats["ritz_max"]
    assert solve(system).singular  # the direct path agrees


@pytest.mark.parametrize("kind", _KINDS)
def test_solver_never_reads_the_bordered_matrix(kind, monkeypatch):
    # the bordered matrix is no field of a system: its builder, which only a
    # read of `matrix` calls, refuses here, and assembly, both backends and
    # the inf-sup probe still run
    assert "matrix" not in {f.name for f in dataclasses.fields(SaddleSystem)}

    def refuse(*args):
        raise AssertionError("the bordered matrix was built")

    monkeypatch.setattr(assembly, "_bordered", refuse)
    # random data give a nonzero multiplier and mean datum
    system = _random_rhs(_ms1_system(kind, 8), 5)
    with pytest.raises(AssertionError, match="bordered matrix was built"):
        system.matrix
    for backend in BACKENDS:
        assert solve(system, backend=backend).u is not None, backend
    assert schur_smallest_eigen(system) >= 0.0


def test_schur_cg_flags_the_step_cap(monkeypatch):
    monkeypatch.setattr("stokes_fv.solver._CG_MAXITER", 3)
    report = solve(_ms1_system("bp", 16), backend="schur-cg")
    assert report.singular
    assert "CG stopped short" in report.singular_reason
    assert report.stats["cg_iters"] == 6  # both passes hit the cap


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


def test_fill_factor_counts_the_bordered_matrix_from_its_blocks():
    g = _seeded_tensor(14, 10)
    for kind in _KINDS:
        lam = {"bp": 0.05, "cluster": 1.0}.get(kind)
        spec = SchemeSpec(kind, lam)
        system = assemble(spec, g, CASES["ms1"].forcing)
        stats = solve(system).stats
        a_nnz = velocity_block(g).nnz
        assert a_nnz + 2 * system.B.nnz + system.C.nnz + 2 * system.n_p == system.matrix.nnz
        assert stats["fill_factor"] == stats["factor_nnz"] / system.matrix.nnz, kind


def test_peak_rss_is_read_before_and_after_each_solve():
    # ru_maxrss is the process's high-water mark: a small solve after a
    # large one in the same process does not raise it
    large = solve(_ms1_system("bp", 96)).stats
    assert 0 < large["peak_rss_before_mb"] <= large["peak_rss_mb"]
    for backend in BACKENDS:
        small = solve(_ms1_system("bp", 16), backend=backend).stats
        assert 0 < small["peak_rss_before_mb"] == small["peak_rss_mb"], backend


def _seeded_tensor(nx, ny, seed=0):
    rng = np.random.default_rng(seed)

    def lines(n):
        coords = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 10.0, n))])
        return coords / coords[-1]

    return build_tensor(lines(nx), lines(ny))


def _grid(name):
    return _seeded_tensor(90, 62) if name == "tensor-90x62" else build_uniform(int(name))


@pytest.mark.parametrize("grid", ["32", "48", "64", "tensor-90x62"])
def test_stable_schemes_factor_on_diagonal_pivots(grid):
    # the scaled nested-dissection order keeps every pivot on the diagonal,
    # whatever h, lambda or the cell aspect ratios
    g = _grid(grid)
    for kind, lam in [("bp", 0.05), ("bp", 1e-3), ("cluster", 1.0), ("cluster", 1e-3),
                      ("cluster-constant", None)]:
        spec = SchemeSpec(kind, lam)
        report = solve(assemble(spec, g, CASES["ms1"].forcing, quad_order=1))
        assert not report.singular, (kind, lam)
        assert report.stats["offdiag_pivots"] == 0, (kind, lam)


@pytest.mark.parametrize(
    "grid, max_factor_nnz",
    [("64", (1_797_120, 1_701_888, 1_559_040)),
     ("tensor-90x62", (2_656_316, 2_515_188, 2_129_526))],
    ids=["64", "tensor-90x62"],
)
def test_dissection_order_fill(grid, max_factor_nnz):
    # bp / cluster / cluster-constant.  The limits are fill factors of
    # 12 / 12 / 21 at n=64 and 13 / 13 / 21 on the 90x62 grid times the
    # saddle nnz of the divergence that stored its structural zeros, so that
    # dropping those zeros cannot loosen them: COLAMD gave fill factors of
    # 16.9 / 17.6 / 24.0 at n=64, and on the 90x62 grid an order that swaps
    # the two directions gives about 100 for bp and cluster
    g = _grid(grid)
    schemes = [("bp", 0.05), ("cluster", 1.0), ("cluster-constant", None)]
    for (kind, lam), bound in zip(schemes, max_factor_nnz):
        spec = SchemeSpec(kind, lam)
        report = solve(assemble(spec, g, CASES["ms1"].forcing, quad_order=1))
        assert report.stats["factor_nnz"] <= bound, kind
        assert report.stats["order_s"] > 0


@pytest.mark.parametrize("zero_c", [False, True], ids=["solve", "schur"])
@pytest.mark.parametrize("grid", ["24", "tensor-30x22"])
@pytest.mark.parametrize("kind", _KINDS)
def test_pinned_block_matches_sliced_oracle(kind, grid, zero_c):
    # the same K, bit for bit, as slicing the bordered matrix made it: the
    # factor, the fields and beta^2 then stay bitwise the same too
    g = _seeded_tensor(30, 22) if grid == "tensor-30x22" else build_uniform(int(grid))
    lam = {"bp": 0.05, "cluster": 1.0}.get(kind)
    system = assemble(SchemeSpec(kind, lam), g, CASES["ms1"].forcing, quad_order=1)
    expected = sliced_pinned_block(system, zero_c=zero_c)
    if zero_c:  # as the inf-sup probe factors it
        system = dataclasses.replace(system, C=sp.csr_matrix((system.n_p, system.n_p)))
    K = _pinned_block(system)[0]
    assert K.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(K, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_rcond_estimate_repeats_and_keeps_global_random_state():
    # neither backend draws from NumPy's global generator
    system = _ms1_system("bp", 16)
    for backend in BACKENDS:
        estimates = []
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            estimates.append(solve(system, backend=backend).rcond_est)
            after = np.random.get_state()
            assert before[0] == after[0] and np.array_equal(before[1], after[1])
            assert before[2:] == after[2:]
        assert estimates[0] == estimates[1], backend


@pytest.mark.parametrize("kind", _KINDS)
def test_traced_memory_stays_near_the_matrix_size(kind):
    # slicing the bordered matrix and its COO copies peaked at 7.1-7.4x
    system = _ms1_system(kind, 48)
    assert traced_peak(solve, system) <= 4.5 * matrix_bytes(system.matrix)
    if kind in ("cluster-constant", "natural"):
        assert traced_peak(schur_smallest_eigen, system) <= 4.5 * matrix_bytes(system.matrix)


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


@pytest.mark.parametrize("grid", ["8", "tensor-10x8"])
def test_schur_ignores_the_stabilization(grid):
    # the probe factors the system with C replaced by zero, so the
    # stabilized cell-pressure schemes share the natural scheme's beta^2
    g = _seeded_tensor(10, 8) if grid == "tensor-10x8" else build_uniform(int(grid))
    specs = [SchemeSpec("natural"), SchemeSpec("bp", 0.05), SchemeSpec("cluster", 1.0)]
    betas = [schur_smallest_eigen(assemble(s, g, CASES["ms1"].forcing, quad_order=1)) for s in specs]
    assert betas[0] > 0
    assert betas[1] == betas[0] and betas[2] == betas[0]


def _zero_forcing_system(kind, g):
    return assemble(SchemeSpec(kind), g, lambda x, y: (0 * x, 0 * y), quad_order=1)


def _uniform_lines(nx, ny):
    return np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1)


def _assert_matches_dense_oracle(kind, lines):
    system = _zero_forcing_system(kind, build_tensor(*lines))
    expected = dense_schur_smallest_eigen(system)
    assert schur_smallest_eigen(system) == pytest.approx(expected, rel=1e-9, abs=0)


@settings(max_examples=25, deadline=None)
@given(tensor_lines(st.integers(1, 6).map(lambda h: 2 * h)))
@example(_uniform_lines(4, 2))  # two clusters: a one-dimensional zero-mean space
@example(_uniform_lines(6, 2))  # three clusters
def test_schur_matches_dense_oracle_cluster_constant(lines):
    _assert_matches_dense_oracle("cluster-constant", lines)


@settings(max_examples=25, deadline=None)
@given(tensor_lines(st.integers(2, 12)))
@example(_uniform_lines(2, 2))
def test_schur_matches_dense_oracle_full_space(lines):
    _assert_matches_dense_oracle("natural", lines)


@pytest.mark.parametrize("kind, n", [("cluster-constant", 8), ("natural", 6)])
def test_schur_exact_kernel_gives_zero(kind, n):
    # pressure rows 3 and 4 of B both replaced by their mean: 1^T B stays 0
    # and e3 - e4 spans the kernel of B^T, so beta^2 = 0.  The factor of the
    # block survives rounding (cluster-constant) or breaks (natural); without
    # the condition check the first case returns the unmerged 0.28758
    system = _system(kind, n)
    merged = system.B.tolil()
    merged[3] = merged[4] = 0.5 * (system.B[3] + system.B[4])
    system = dataclasses.replace(system, B=merged.tocsr())
    assert abs(dense_schur_smallest_eigen(system)) <= 1e-12
    assert 0.0 <= schur_smallest_eigen(system) <= 1e-12


@pytest.mark.parametrize("strength", [2, 1000], ids=["ritz-value", "start-block"])
def test_schur_cluster_space_refuses_a_zero_off_the_kernel(monkeypatch, strength):
    # a Schur complement S made indefinite along a pressure v, as a wrong
    # velocity solve made it on stretched grids, has no kernel of B^T below
    # its zero: an error, not beta^2 = 0, whether LOBPCG finds a negative
    # Ritz value or the start block already has no positive curvature
    system = _system("cluster-constant", 8)
    exact = _schur_complement(system)
    v = np.random.default_rng(4).standard_normal(system.n_p)
    v *= math.sqrt(strength * (v @ exact(v))) / (v @ v)  # v^T (S - v v^T) v < 0
    indefinite = lambda q: exact(q) - np.multiply.outer(v, v @ q)  # noqa: E731
    monkeypatch.setattr("stokes_fv.solver._schur_complement", lambda _: indefinite)
    with pytest.raises(SolverError, match="off the kernel of B"):
        schur_smallest_eigen(system)


def test_schur_full_space_beyond_dense_size():
    # 5120 pressures, whose dense Schur complement would hold 26M values, on
    # cells with aspect ratios up to 100, where the condition estimate of
    # the unscaled block is 1e-13 although beta^2 is 4.2e-5
    system = _zero_forcing_system("natural", _seeded_tensor(80, 64))
    beta_sq = schur_smallest_eigen(system)
    assert math.isfinite(beta_sq) and beta_sq > 0


def test_schur_cluster_constant_n128():
    # 0.213965 is the value shift-invert gives at n=128 (0.213965078840154),
    # and an LOBPCG run outside the library agreed; the library now runs
    # LOBPCG itself, so this pins the value and is no independent check
    beta_sq = schur_smallest_eigen(_system("cluster-constant", 128))
    assert beta_sq == pytest.approx(0.213965, rel=1e-6)


def _grid_lines(counts):
    """Uniform or random tensor coordinate lines with cell counts from
    `counts` per side; the tensor widths range over 0.1-10."""
    uniform = st.tuples(counts, counts).map(lambda c: _uniform_lines(*c))
    return st.one_of(uniform, tensor_lines(counts))


def _assert_finds_an_injected_kernel(kind, lines, data):
    system = _zero_forcing_system(kind, build_tensor(*lines))
    rows = st.lists(st.integers(0, system.n_p - 1), min_size=2, max_size=2, unique=True)
    i, j = data.draw(rows, label="merged rows")
    assert 0.0 <= schur_smallest_eigen(_merge_pressure_rows(system, i, j)) <= 1e-12


# A single Lanczos vector (eigsh on the same operator) misses about one such
# kernel in eight on the cluster space and returns the next eigenvalue; 60
# examples catch that with probability above 0.999.
@settings(max_examples=60, deadline=None)
@given(_grid_lines(st.integers(2, 16).map(lambda h: 2 * h)), st.data())
def test_schur_cluster_space_finds_an_injected_kernel(lines, data):
    _assert_finds_an_injected_kernel("cluster-constant", lines, data)


@settings(max_examples=30, deadline=None)
@given(_grid_lines(st.integers(4, 32)), st.data())
def test_schur_full_space_finds_an_injected_kernel(lines, data):
    _assert_finds_an_injected_kernel("natural", lines, data)


@pytest.mark.parametrize("grid", ["16", "32", "64", "tensor-40x24", "tensor-24x36"])
def test_schur_cluster_space_matches_shift_invert(grid):
    if grid.startswith("tensor"):
        nx, ny = map(int, grid[len("tensor-"):].split("x"))
        g = _seeded_tensor(nx, ny, seed=nx)
    else:
        g = build_uniform(int(grid))
    system = _zero_forcing_system("cluster-constant", g)
    assert schur_smallest_eigen(system) == pytest.approx(_shift_invert_beta_sq(system), rel=1e-10)


def test_schur_cluster_space_builds_no_factor(monkeypatch):
    system = _system("cluster-constant", 32)
    expected = schur_smallest_eigen(system)

    def no_factor(*args, **kwargs):
        raise AssertionError("splu called")

    monkeypatch.setattr("scipy.sparse.linalg.splu", no_factor)
    assert schur_smallest_eigen(system) == expected
    with pytest.raises(AssertionError, match="splu called"):  # the cell space still factors
        schur_smallest_eigen(_system("natural", 8))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_schur_cluster_space_leaks_no_warning(n):
    # n = 4 and 8 take SciPy's dense path, which warns, n = 16 its iteration
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert schur_smallest_eigen(_system("cluster-constant", n)) > 0


def test_schur_cluster_space_raises_at_the_step_cap(monkeypatch):
    monkeypatch.setattr("stokes_fv.solver._LOBPCG_MAXITER", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="LOBPCG stopped short"):
            schur_smallest_eigen(_system("cluster-constant", 16))


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
        rhs=system.rhs,
        B=(p_mat @ system.B).tocsr(),
        C=system.C,
        mean_weights=system.mean_weights[perm],
    )
    assert permuted.n_p == system.n_p
    assert schur_smallest_eigen(permuted) == pytest.approx(base, rel=1e-10)
    assert base >= 0.0
