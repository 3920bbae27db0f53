"""The benchmark's runner passes its own checks against this checkout.

For each workload that BENCHMARK.json names, ``bench/run.py`` runs from the root
of the checkout with ``--seed 0 --seconds 0 --trace 0``: its set-up samples, the
checked warm-up job 0, one timed job and the JSON line. ``run.py`` pins BLAS and
OpenMP to one thread and refuses a ``deep_euler`` imported from anywhere but
this checkout's ``src/``. The checks hold the golden bytes: ``train_ex1``'s
model sha256 and final loss, ``solve_eval``'s trajectory sha256 (eps's
``n_minus_r`` column among it) and stability flags.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_pinned_job_passes_its_checks(name):
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", name, "--seed", "0",
                           "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.splitlines()
    report = [line for line in lines if line.startswith(("# FAILED", "# env"))]
    recorded = json.loads((ROOT / "bench/golden.json").read_text())["recorded_with"]
    context = "\n".join([*report, f"goldens recorded with {recorded}", done.stderr[-2000:]])
    assert done.returncode == 0 and lines, context
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, context
