"""The benchmark still runs against the package: every name perfbench calls
exists and every answer it checks is right.

Each workload runs for the minimum of two passes in its own interpreter, as
perfbench/run.py starts it (one BLAS thread), and must exit 0 with no failed
and no wrong operation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("mpmath")  # the perfbench references need it

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["oracle", "gauss-exact"])
def test_benchmark_workload_runs_clean(workload):
    env = {k: v for k, v in os.environ.items() if k != "SCHATTENLAB_WORKERS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1", "--seconds", "0"],
        capture_output=True, text=True, env=env, cwd=WORKER.parent.parent,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["wrong"] == 0, result["problems"]
