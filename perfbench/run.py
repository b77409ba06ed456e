"""stokes-fv benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload solve-n96 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, a table

Each operation starts when the previous one finishes.  A run first does a
small warm-up pass (for solve-n96: the check that `stokes-fv solve` writes
the same files as the library calls the harness makes), then repeats full
passes until the run ends nearest to `--seconds`.  Every operation's
outputs are checked outside the timed region.

With `--trace 0` the last line of stdout is the end-to-end result; with
`--trace 1` the run alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, plus the tracing overhead.  The line
before the result records the run's provenance.  Files are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("solve-n96", "setup-n384", "verify-sweep")
# One BLAS thread: on a small shared machine a second thread waits on a CPU
# that other work also wants, so it adds noise for little speed (the dense
# inf-sup probe gains a few percent of wall time for 1.5x the CPU time), and
# one thread keeps runs comparable across machines of any size.
MAX_BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "unknowns_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas() -> int:
    """Pin the BLAS thread count; must run before numpy is imported."""
    threads = min(MAX_BLAS_THREADS, cpu_count())
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def measure(workload, seconds: float, trace: bool, log):
    """Warm up, then run passes for about `seconds` (at least one pass; two
    with `trace`, where passes alternate untraced/traced, starting untraced)."""
    import spans
    import workloads

    reference = json.loads((HERE / "reference.json").read_text()).get(workload.name, {})
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        spans.install(tracer)
    try:
        passes = [workloads.run_pass(workload.warmup_operations(), {}, log=log)]
        measured = []
        start = time.perf_counter()
        while True:
            traced = trace and len(measured) % 2 == 1
            if tracer is not None:
                tracer.pass_no = len(measured)
            measured.append(
                (traced, workloads.run_pass(workload.operations(), reference, tracer if traced else None, log))
            )
            # stop where the run ends nearest the deadline: another pass of
            # the mean length would overshoot it by more than half a pass
            elapsed = time.perf_counter() - start
            enough = not trace or len(measured) >= 2
            if enough and elapsed + 0.5 * elapsed / len(measured) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.close()
    passes += [p for _, p in measured]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if not trace:
        walls = [p.wall_s for _, p in measured]
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(p.setup_s for _, p in measured),
            "unknowns_per_s": measured[0][1].unknowns / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        traced_walls = [p.wall_s for t, p in measured if t]
        plain_walls = [p.wall_s for t, p in measured if not t]
        per_pass = [spans.per_layer(tracer, i) for i, (t, _) in enumerate(measured) if t]
        values = spans.median_metrics(per_pass)
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(plain_walls)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        tracer.write(workload.out / "spans.json")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, [round(p.wall_s, 4) for _, p in measured]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes_computed") or name.endswith("csv_bytes"):
        return "B"
    if name.endswith("fill_factor") or name.endswith("residual_max"):
        return "ratio"
    return "count"


def run_one(args) -> int:
    if not (SRC / "stokes_fv" / "__init__.py").is_file():
        print(f"no stokes_fv sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import workloads

    out = HERE / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](out, seed=args.seed)
    result, pass_walls = measure(workload, args.seconds, bool(args.trace), sys.stderr)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_wall_s": pass_walls,
        "nproc": cpu_count(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so its peak memory is its own."""
    status = 0
    print(f"{'workload':<14} {'metric':<16} {'value':>16}  unit")
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<14} failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<16} {m['value']:>16.6g}  {m['unit']}")
        failed_frac = result["failed"] / result["attempted"]
        print(f"{name:<14} {'failed_frac':<16} {failed_frac:>16.6g}  ratio "
              f"({result['failed']} of {result['attempted']} operations)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="sets the setup-n384 grid")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
