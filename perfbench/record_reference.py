"""Write reference.json: the gate values of one pass of each fixed workload.

    python3 perfbench/record_reference.py

Run it only on a commit whose numbers are the intended reference; the
benchmark then fails any operation whose values differ by more than
workloads.MATCH_RTOL.  setup-n384 is seeded, so it has exact checks instead.
"""

import json
import sys
from pathlib import Path

from run import HERE, SRC, pin_blas

pin_blas()
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

reference = {}
for cls in (workloads.SolveWorkload, workloads.VerifyWorkload):
    workload = cls(HERE / "out" / "reference")
    result = workloads.run_pass(workload.operations(), {}, log=sys.stderr)
    if result.failed:
        sys.exit(f"{workload.name}: {result.failed} operations failed; no reference written")
    reference[workload.name] = result.observed
Path(HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
