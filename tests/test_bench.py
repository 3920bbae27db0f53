"""The benchmark's pinned jobs pass their own checks against this checkout.

Each workload that BENCHMARK.json names runs its set-up, its pinned job 0 and
its check in a child interpreter with BLAS and OpenMP at one thread, as
``bench/run.py`` runs it. The checks hold the golden bytes: ``train_ex1``'s
model sha256 and final loss, ``solve_eval``'s trajectory sha256 (eps's
``n_minus_r`` column among it) and stability flags.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Prints one JSON object: each check's (label, passed) and the numpy/BLAS build.
SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
from types import SimpleNamespace

root, name, tmp = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import numpy as np
import deep_euler
import workloads

assert Path(deep_euler.__file__).resolve().parent == (root / "src/deep_euler").resolve()
workload = workloads.WORKLOADS[name]
ctx = SimpleNamespace(seed=0, tmp=tmp)
state = workload.setup(ctx)
with contextlib.redirect_stdout(io.StringIO()):
    _, _, data = workload.job(ctx, state, 0)
checks, _ = workload.check(state, data)
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"checks": checks, "build": f"numpy {np.__version__}, "
                  f"{blas.get('name')} {blas.get('version')}"}))
"""


@pytest.mark.parametrize("name", WORKLOADS)
def test_pinned_job_passes_its_checks(tmp_path, name):
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), name, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    failed = [label for label, passed in result["checks"] if not passed]
    recorded = json.loads((ROOT / "bench/golden.json").read_text())["recorded_with"]
    assert result["checks"] and not failed, (
        f"{name} failed {failed}; goldens recorded with {recorded}, run with {result['build']}")
