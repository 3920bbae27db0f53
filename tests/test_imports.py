"""The package's public names resolve, and scipy is loaded only by the runs
that integrate adaptively."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from deep_euler.ode import evaluate_truth, get_problem

ROOT = Path(__file__).resolve().parent.parent
TRUTH_XS = [0.0, 0.7, 3.25, 12.5]

# Runs in a fresh interpreter, so that nothing imported by pytest or by other
# tests is in sys.modules. Prints one JSON object: for each stage, whether
# any scipy module was loaded by then, and the lotka_volterra truth values.
SCRIPT = """
import contextlib, io, json, sys

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

loaded = {}
import deep_euler
from deep_euler import cli, ode
loaded["import"] = scipy_loaded()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
    loaded["help"] = scipy_loaded()
    rc_train = cli.main(["train", "--problem", "example1", "--points", "10", "--epochs", "1",
                         "--hidden-layers", "1", "--hidden-width", "4",
                         "--out-dir", sys.argv[1] + "/train"])
    loaded["train"] = scipy_loaded()
    rc_solve = cli.main(["solve", "--problem", "example1", "--method", "dem", "--h", "1.0",
                         "--checkpoint", sys.argv[2], "--out-dir", sys.argv[1] + "/solve"])
    loaded["solve"] = scipy_loaded()
truth = ode.evaluate_truth(ode.get_problem("lotka_volterra"), json.loads(sys.argv[3]))
loaded["evaluate_truth"] = "scipy.integrate" in sys.modules
print(json.dumps({"loaded": loaded, "exit_codes": [rc_train, rc_solve],
                  "truth": truth.tolist()}))
"""


def test_scipy_loads_only_for_reference_solves(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(ROOT / "bench/data/ex1_dem.bin"),
         json.dumps(TRUTH_XS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["exit_codes"] == [0, 0]
    assert result["loaded"] == {
        "import": False, "help": False, "train": False, "solve": False,
        "evaluate_truth": True,
    }
    in_process = evaluate_truth(get_problem("lotka_volterra"), TRUTH_XS)
    assert np.array_equal(np.array(result["truth"]), in_process)


def test_star_import_resolves_all():
    import deep_euler

    namespace = {}
    exec("from deep_euler import *", namespace)
    assert set(deep_euler.__all__) <= set(namespace)
