"""Checks of the benchmark harness itself, on small versions of its workloads.

    python -m pytest perfbench/test_harness.py -q
"""

import json
import shutil
import subprocess
import sys

import pytest

from run import HERE, SRC

sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import stokes_fv.assembly  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "grid.n_edges",
    "assembly.matrix_nnz",
    "assembly.matrix_bytes_computed",
    "solver.factor_nnz",
    "solver.singular_count",
    "fields.csv_bytes",
    "verify.solve_calls",
    "trace.spans",
)


def small_workloads(out):
    return (
        workloads.SolveWorkload(out / "solve", n=16),
        workloads.SetupWorkload(out / "setup", n=32, seed=7),
        workloads.VerifyWorkload(
            out / "verify", convergence_n=(4, 8), checkerboard_n=(4, 8), cluster_n=(4, 8), full_n=(4, 16)
        ),
    )


def traced_counts(workload):
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        result = workloads.run_pass(workload.operations(), {}, tracer, log=sys.stderr)
    finally:
        tracer.close()
    assert result.failed == 0
    metrics = spans.per_layer(tracer, 0)
    return {key: metrics[key] for key in COUNTS}


@pytest.mark.parametrize("index", range(3))
def test_counts_repeat_exactly_between_runs(tmp_path, index):
    workload = small_workloads(tmp_path)[index]
    first = traced_counts(workload)
    assert first == traced_counts(workload)
    assert first["grid.n_edges"] > 0 and first["assembly.matrix_nnz"] > 0


def test_tracer_restores_library_functions():
    original = stokes_fv.assembly.h1_stiffness_matrix
    tracer = spans.Tracer()
    spans.install(tracer)
    assert stokes_fv.assembly.h1_stiffness_matrix is not original
    tracer.close()
    assert stokes_fv.assembly.h1_stiffness_matrix is original


def test_solve_calls_inside_verify_are_counted(tmp_path):
    counts = traced_counts(small_workloads(tmp_path)[2])
    # two levels for each of the three stable schemes
    assert counts["verify.solve_calls"] == 6


def test_cli_parity(tmp_path):
    workload = workloads.SolveWorkload(tmp_path)
    assert workloads.run_pass(workload.warmup_operations(), {}, log=sys.stderr).failed == 0


def test_reference_covers_fixed_workloads():
    reference = json.loads((HERE / "reference.json").read_text())
    for workload in (workloads.SolveWorkload(None), workloads.VerifyWorkload(None)):
        labels = {label for label, _ in workload.operations()}
        assert labels == set(reference[workload.name])


def test_gate_fails_on_values_off_reference():
    assert workloads.mismatches({"err": [1.0]}, {"err": [1.0 + 1e-9]}) == []
    assert workloads.mismatches({"err": [1.0]}, {"err": [1.0 + 1e-5]})
    assert workloads.mismatches({}, {"err": [1.0]})


def test_raising_operation_counts_as_failed():
    def broken(tally):
        raise RuntimeError("boom")

    result = workloads.run_pass([("ok", lambda tally: lambda: ([], {})), ("broken", broken)], {})
    assert (result.attempted, result.failed) == (2, 1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-n96", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
