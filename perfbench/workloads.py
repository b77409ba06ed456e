"""The benchmark's workloads and the closed loop that runs one pass of them.

A pass is a list of operations run one after another, each starting when the
previous one finishes.  An operation returns a gate: a callable run outside
the timed region that checks the operation's outputs and returns
`(problems, observed)`.  `observed` holds the values that must match this
commit's numbers in `reference.json` (see `record_reference.py`).
"""

from __future__ import annotations

import csv
import functools
import gc
import math
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import stokes_fv.assembly as A
import stokes_fv.cli as C
import stokes_fv.fields as F
import stokes_fv.grid as G
import stokes_fv.operators as O
import stokes_fv.solver as S
import stokes_fv.verify as V

CASE = "ms1"
STABLE = (("bp", 0.05), ("cluster", 1.0), ("cluster-constant", None))
CLUSTERED = ("cluster", "cluster-constant")

# Tolerances of the tier-1 tests: solve()'s default residual tolerance
# (asserted in test_cli), |G + B^T| < 1e-14 (test_operators), pytest.approx's
# default 1e-6 for the cluster regularity (test_grid), criterion 6's inf-sup
# variation and decay, criterion 7's orders.  Criterion 3's decay exponent
# >= 0.5 is not reused: on n = 8..128 the exponent is 0.5 to six digits, so
# that threshold sits inside rounding; the exponent is matched to this
# commit's value instead.
RESIDUAL_TOL = 1e-10
IDENTITY_TOL = 1e-14
REGULARITY_RTOL = 1e-6
MAX_CLUSTER_BETA_VARIATION = 0.2
MAX_FULL_BETA_DECAY = 0.5
MIN_ORDER = 0.8
# Agreement with this commit's values.  A solve that meets RESIDUAL_TOL moves
# the manufactured-solution errors and inf-sup values far less than this; a
# changed discretisation moves them by orders of magnitude more.
MATCH_RTOL = 1e-6


def unknowns(n: int, kind: str) -> int:
    """Unknowns of one assembled system: 2 velocity components per cell,
    the pressure dofs and the zero-mean multiplier."""
    n_p = n * n // 4 if kind == "cluster-constant" else n * n
    return 2 * n * n + n_p + 1


def scheme(kind: str, lam, grid, partition=None):
    if kind in CLUSTERED and partition is None:
        partition = G.make_clusters(grid)
    return A.SchemeSpec(kind, lam, partition if kind in CLUSTERED else None)


def _zero_forcing(x, y):
    return 0.0 * x, 0.0 * y


class Tally:
    """Per-pass accounting kept by the harness itself, so it costs the same
    with tracing off."""

    def __init__(self):
        self.setup_s = 0.0
        self.unknowns = 0

    @contextmanager
    def setup(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - t0


# -- solve-n96 -------------------------------------------------------------------

def write_summary(path, items) -> None:
    """summary.csv as `stokes-fv solve` writes it."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["key", "value"])
        for key, value in items:
            out.writerow([key, format(value, ".17g") if isinstance(value, float) else value])


def manufactured_errors(report, grid, case):
    """H1 velocity and aligned L2 pressure errors, as `run_convergence` takes them."""
    u_ref = F.VectorField.from_function(grid, case.velocity)
    p_ref = F.zero_mean_project(F.ScalarField.from_function(grid, case.pressure))
    err_u = F.h1_norm(report.u - u_ref)
    err_p = F.l2_norm(F.zero_mean_project(report.p) - p_ref)
    return err_u, err_p


class SolveWorkload:
    """`stokes-fv solve` on case ms1, uniform n x n, for the three stable schemes."""

    name = "solve-n96"
    parity_n = 16

    def __init__(self, out: Path, n: int = 96, seed: int = 0):
        self.out = out
        self.n = n

    def operations(self):
        return [(f"solve-{kind}", functools.partial(self.solve, kind, lam)) for kind, lam in STABLE]

    def warmup_operations(self):
        return [(f"parity-{kind}", functools.partial(self.parity, kind, lam)) for kind, lam in STABLE]

    def solve(self, kind, lam, tally, n=None, out=None):
        """The calls of `cli.cmd_solve`, in its order."""
        n = n or self.n
        out = out or self.out / kind
        out.mkdir(parents=True, exist_ok=True)
        with tally.setup():
            grid = G.build_uniform(n)
            spec = scheme(kind, lam, grid)
            case = V.CASES[CASE]
            f_cells = A.cell_means(case.forcing, grid, 3)
            system = A.assemble(spec, grid, f_cells)
        report = S.solve(system, tol=RESIDUAL_TOL, backend="splu")
        summary = [
            ("scheme", spec.kind),
            ("lambda", "" if spec.lam is None else spec.lam),
            ("case", case.id),
            ("nx", grid.nx),
            ("ny", grid.ny),
            ("h", grid.h if grid.is_uniform else ""),
            ("residual_norm", report.residual_norm),
            ("multiplier", report.multiplier),
            ("singular", report.singular),
            ("singular_reason", report.singular_reason or ""),
            ("rcond_est", "" if report.rcond_est is None else report.rcond_est),
        ]
        if report.u is not None:
            energy_u, energy_stab = A.energy_functional(system, report.u, report.p)
            summary += [("energy_velocity_sq", energy_u), ("energy_stab_sq", energy_stab)]
            F.write_vector_csv(report.u, out / "u.csv")
            F.write_scalar_csv(report.p, out / "p.csv")
        write_summary(out / "summary.csv", summary)
        tally.unknowns += unknowns(n, kind)
        return functools.partial(self.check_solve, report, grid, V.CASES[CASE])

    @staticmethod
    def check_solve(report, grid, case):
        if report.singular or report.u is None:
            return [f"solve flagged singular: {report.singular_reason}"], {}
        problems = []
        if not report.residual_norm <= RESIDUAL_TOL:
            problems.append(f"relative residual {report.residual_norm:.3e} > {RESIDUAL_TOL}")
        err_u, err_p = manufactured_errors(report, grid, case)
        return problems, {"err_u_h1": [err_u], "err_p_l2": [err_p]}

    def parity(self, kind, lam, tally):
        """The library sequence above and `stokes-fv solve` at a small n must
        write the same u.csv/p.csv bytes and the same summary residual."""
        lib_out = self.out / "parity" / kind / "library"
        cli_out = self.out / "parity" / kind / "cli"
        gate = self.solve(kind, lam, tally, n=self.parity_n, out=lib_out)
        argv = ["solve", "--scheme", kind, "--n", str(self.parity_n), "--case", CASE]
        argv += [] if lam is None else ["--lambda", repr(lam)]
        code = C.main(argv + ["--out", str(cli_out)])

        def check():
            problems, observed = gate()
            if code != 0:
                return problems + [f"stokes-fv solve exited {code}"], observed
            for name in ("u.csv", "p.csv"):
                if (lib_out / name).read_bytes() != (cli_out / name).read_bytes():
                    problems.append(f"{name} differs from stokes-fv solve")
            lib_res, cli_res = (_summary_value(d / "summary.csv", "residual_norm") for d in (lib_out, cli_out))
            if lib_res != cli_res:
                problems.append(f"summary residual {lib_res} != stokes-fv solve's {cli_res}")
            return problems, {}

        return check


def _summary_value(path, key):
    with open(path, newline="") as fh:
        return dict(row for row in csv.reader(fh) if len(row) == 2).get(key)


# -- setup-n384 ------------------------------------------------------------------

def random_tensor_lines(n: int, rng) -> np.ndarray:
    """Strictly increasing coordinate lines on [0, 1], cell widths within a
    factor 3 of each other."""
    widths = rng.uniform(0.5, 1.5, size=n)
    lines = np.concatenate([[0.0], np.cumsum(widths)])
    return lines / lines[-1]


class SetupWorkload:
    """Grid, clusters, regularity, forcing and the three stable assemblies on a
    seeded random tensor grid, then a CSV round trip of the forcing."""

    name = "setup-n384"

    def __init__(self, out: Path, n: int = 384, seed: int = 0):
        self.out = out
        self.n = n
        rng = np.random.default_rng(seed)
        self.xs = random_tensor_lines(n, rng)
        self.ys = random_tensor_lines(n, rng)

    def warmup_operations(self):
        return SetupWorkload(self.out / "warmup", n=16, seed=0).operations()

    def operations(self):
        state = {}

        def grid_op(tally):
            with tally.setup():
                grid = G.build_tensor(self.xs, self.ys)
                partition = G.make_clusters(grid)
                regularity = G.cluster_regularity(grid, partition)
            state.update(grid=grid, partition=partition)

            def check():
                problems = []
                n = self.n
                if grid.n_edges != 2 * n * (n + 1):
                    problems.append(f"{grid.n_edges} edges, expected {2 * n * (n + 1)}")
                if not math.isclose(regularity, 1.0, rel_tol=REGULARITY_RTOL):
                    problems.append(f"cluster regularity {regularity} != 1")
                defect = abs(O.gradient_matrix(grid) + O.divergence_matrix(grid).T).max()
                if not defect < IDENTITY_TOL:
                    problems.append(f"|G + B^T| = {defect:.3e} on the tensor grid")
                return problems, {}

            return check

        def forcing_op(tally):
            with tally.setup():
                state["f"] = A.cell_means(V.CASES[CASE].forcing, state["grid"], 3)
            return lambda: ([], {})

        def assemble_op(kind, lam, tally):
            grid = state["grid"]
            with tally.setup():
                system = A.assemble(scheme(kind, lam, grid, state["partition"]), grid, state["f"])
            tally.unknowns += unknowns(self.n, kind)

            def check():
                finite = np.all(np.isfinite(system.matrix.data))
                return ([] if finite else ["non-finite matrix entries"]), {}

            return check

        def csv_op(tally):
            self.out.mkdir(parents=True, exist_ok=True)
            path = self.out / "forcing.csv"
            F.write_vector_csv(state["f"], path)
            back = F.read_vector_csv(state["grid"], path)

            def check():
                same = np.array_equal(back.values, state["f"].values)
                return ([] if same else ["forcing read back from CSV differs"]), {}

            return check

        ops = [("grid", grid_op), ("forcing", forcing_op)]
        ops += [(f"assemble-{kind}", functools.partial(assemble_op, kind, lam)) for kind, lam in STABLE]
        return ops + [("csv", csv_op)]


# -- verify-sweep ----------------------------------------------------------------

class VerifyWorkload:
    """The paper's verification runs: convergence tables, the checkerboard
    sweep and the dense inf-sup probe."""

    name = "verify-sweep"

    def __init__(
        self,
        out: Path,
        seed: int = 0,
        convergence_n=(8, 16, 32, 64),
        checkerboard_n=(8, 16, 32, 64, 128),
        cluster_n=(8, 16, 32, 64),
        full_n=(8, 16, 32),
    ):
        self.out = out
        self.convergence_n = convergence_n
        self.checkerboard_n = checkerboard_n
        self.infsup_n = {"cluster": cluster_n, "full": full_n}

    def warmup_operations(self):
        # the full-space decay gate needs a fourfold refinement
        small = VerifyWorkload(None, convergence_n=(4, 8), checkerboard_n=(4, 8), cluster_n=(4, 8), full_n=(4, 16))
        return small.operations()

    def operations(self):
        ops = [(f"convergence-{kind}", functools.partial(self.convergence, kind, lam)) for kind, lam in STABLE]
        ops.append(("checkerboard", self.checkerboard))
        ops += [(f"infsup-{space}", functools.partial(self.infsup, space)) for space in ("cluster", "full")]
        return ops

    def convergence(self, kind, lam, tally):
        # as `stokes-fv convergence`: the spec's partition is rebuilt per level
        with tally.setup():
            spec = scheme(kind, lam, G.build_uniform(min(self.convergence_n)))
        table = V.run_convergence(spec, V.CASES[CASE], self.convergence_n, quad_order=3, tol=RESIDUAL_TOL)
        tally.unknowns += sum(unknowns(n, kind) for n in self.convergence_n)

        def check():
            rows = table.rows
            problems = []
            if [r.n for r in rows] != list(self.convergence_n):
                problems.append(f"levels {[r.n for r in rows]}")
            elif len(rows) > 1 and not (rows[-1].order_u >= MIN_ORDER and rows[-1].order_p >= MIN_ORDER):
                problems.append(f"orders {rows[-1].order_u}, {rows[-1].order_p} below {MIN_ORDER}")
            observed = {
                "err_u_h1": [r.err_u_h1 for r in rows],
                "err_p_l2": [r.err_p_l2 for r in rows],
                "order_u": [r.order_u for r in rows[1:]],
                "order_p": [r.order_p for r in rows[1:]],
            }
            return problems, observed

        return check

    def checkerboard(self, tally):
        rows, exponent = V.checkerboard_sweep(self.checkerboard_n)

        def check():
            ratios = [r["ratio"] for r in rows]
            decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
            problems = [] if decreasing else [f"checkerboard ratios not decreasing: {ratios}"]
            return problems, {"ratio": ratios, "exponent": [exponent]}

        return check

    def infsup(self, space, tally):
        """Squared inf-sup constants, as `stokes-fv probe --what infsup` computes them."""
        kind = "cluster-constant" if space == "cluster" else "natural"
        beta_sq = []
        for n in self.infsup_n[space]:
            with tally.setup():
                grid = G.build_uniform(n)
                system = A.assemble(scheme(kind, None, grid), grid, _zero_forcing, quad_order=1)
            beta_sq.append(S.schur_smallest_eigen(system))
            tally.unknowns += unknowns(n, kind)

        def check():
            if any(b is None or not b > 0 for b in beta_sq):
                return [f"inf-sup values {beta_sq}"], {}
            betas = [math.sqrt(b) for b in beta_sq]
            problems = []
            if space == "cluster" and (max(betas) - min(betas)) / max(betas) >= MAX_CLUSTER_BETA_VARIATION:
                problems.append(f"cluster-constant beta varies: {betas}")
            if space == "full" and len(betas) > 1 and betas[-1] / betas[0] >= MAX_FULL_BETA_DECAY:
                problems.append(f"full-space beta does not decay: {betas}")
            return problems, {"beta_sq": beta_sq}

        return check


WORKLOADS = {w.name: w for w in (SolveWorkload, SetupWorkload, VerifyWorkload)}


# -- the closed loop ---------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float
    setup_s: float
    unknowns: int
    attempted: int
    failed: int
    observed: dict


def mismatches(observed: dict, expected: dict) -> list[str]:
    """Keys of `expected` whose values `observed` does not match within MATCH_RTOL."""
    problems = []
    for key, want in expected.items():
        got = observed.get(key)
        if got is None or len(got) != len(want) or not np.allclose(got, want, rtol=MATCH_RTOL, atol=0.0):
            problems.append(f"{key} = {got}, this commit gives {want}")
    return problems


def run_pass(operations, reference: dict, tracer=None, log=None) -> PassResult:
    """Run `operations` in order; time them, then gate each one untimed.

    An operation fails when it raises, when its gate reports a problem, or
    when its observed values differ from `reference[label]`."""
    tally = Tally()
    wall = 0.0
    failed = 0
    observed = {}
    for label, op in operations:
        problems = []
        gate = None
        # the previous operation's garbage is freed here, untimed, so neither
        # the time nor the peak memory of this one depends on when the cyclic
        # collector last ran
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                gate = op(tally)
            else:
                tracer.recording = True
                with tracer.span(f"harness.{label}"):
                    gate = op(tally)
        except Exception:  # a failed operation is counted, the pass goes on
            problems.append(traceback.format_exc())
        finally:
            wall += time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
        if gate is not None:
            try:
                problems, observed[label] = gate()
                problems += mismatches(observed[label], reference.get(label, {}))
            except Exception:
                problems.append(traceback.format_exc())
        if problems:
            failed += 1
            if log is not None:
                print(f"FAILED {label}: " + "; ".join(problems), file=log)
    return PassResult(wall, tally.setup_s, tally.unknowns, len(operations), failed, observed)
