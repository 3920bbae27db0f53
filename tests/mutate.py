"""Mutation check of the fast test suite.

Copies the checkout to a scratch directory, plants one mutant at a time in the
copy's ``src/deep_euler``, and runs ``pytest -m "not slow" -x -q`` there with
one BLAS thread. A mutant is killed when that run fails, and survives when it
passes. Each mutant is one formula that the paper or the repo rests on; its
text must occur exactly once in its file.

    python tests/mutate.py    # every mutant, about 4 minutes

Exit code 0 when every mutant is killed or has a recorded reason why it is
equivalent, 1 when one survives without such a reason, 2 when a mutant's text
is not found exactly once or the unmutated suite fails. Standard library only;
pytest does not collect this file, and it is not part of the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q"]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/deep_euler
    old: str
    new: str
    equivalent: Optional[str] = None  # why the mutant cannot change a result


MUTANTS = [
    Mutant("exponent_order", "ode.py", "return self.order + 1", "return self.order"),
    Mutant("exponent_order_plus_2", "ode.py", "return self.order + 1", "return self.order + 2"),
    Mutant("defect_denominator", "ode.py", "/ dx**method.exponent", "/ dx**method.order"),
    Mutant("heun_half", "ode.py", "return 0.5 * (k1 + k2)", "return 0.25 * (k1 + k2)"),
    Mutant("relu_floor", "mlp.py", "_ZERO = np.zeros(())", "_ZERO = np.full((), -0.01)"),
    Mutant("linear_last_layer", "mlp.py", "yield w.T, b, z, k < last", "yield w.T, b, z, True"),
    Mutant("adam_c1", "mlp.py", "1.0 - _BETA1**state.step_count",
           "1.0 - _BETA1**(state.step_count + 1)"),
    Mutant("adam_c2", "mlp.py", "1.0 - _BETA2**state.step_count",
           "1.0 - _BETA2**(state.step_count + 1)"),
    Mutant("flush_floor", "mlp.py", "_FLUSH_FLOOR = 1e-150", "_FLUSH_FLOOR = 1e-4"),
    Mutant("pair_gap", "dataset.py", "(gaps >= policy.gap)", "(gaps > policy.gap)"),
    Mutant("pair_input_end_state", "dataset.py", "corrector_input(x_i, x_j, z_i,",
           "corrector_input(x_i, x_j, z_j,"),
    Mutant("stable_sort", "dataset.py", 'np.argsort(xs, kind="stable")',
           'np.argsort(xs, kind="quicksort")'),
    Mutant("region_lo_open", "metrics.py", "(ends > lo) & (ends <= hi)",
           "(ends >= lo) & (ends <= hi)"),
    Mutant("region_hi_closed", "metrics.py", "(ends > lo) & (ends <= hi)",
           "(ends > lo) & (ends < hi)"),
    Mutant("mesh_last_step", "ode.py", "xs = np.append(xs, b)", "xs[-1] = b"),
    Mutant("dopri_coefficient", "ode.py", "_DP_B = np.array([35/384,",
           "_DP_B = np.array([35/385,"),
    Mutant("checkpoint_byte_order", "mlp.py", 'params.data.astype("<f8")',
           'params.data.astype(">f8")'),
    Mutant("lipschitz_power", "mlp.py", "return alpha ** params.num_layers",
           "return alpha ** (params.num_layers - 1)"),
    Mutant("scan_abs", "metrics.py", "bounded &= np.abs(y_next) <= bound",
           "bounded &= y_next <= bound"),
    Mutant("train_min_points", "cli.py", '_TRAIN_MINIMUMS = {"points": 2,',
           '_TRAIN_MINIMUMS = {"points": 1,'),
    Mutant("target_exponent", "cli.py", 'method = BASE_METHODS[cfg["target"]]', "method = EULER"),
    Mutant("target_pairs", "cli.py", "build_pairs(problem, measurements, policy, method)",
           "build_pairs(problem, measurements, policy)"),
    Mutant("keep_going_default", "cli.py", "def _train_each(cfgs, labels, keep_going=False):",
           "def _train_each(cfgs, labels, keep_going=True):"),
    Mutant("failed_run_nan", "cli.py", "[np.nan if c is None else", "[0.0 if c is None else"),
    Mutant("manifest_drops_option", "cli.py", 'key not in {"func", "out_dir"}',
           'key not in {"func", "out_dir", "clip_ln"}'),
    Mutant("config_keeps_file_type", "cli.py", "return None if value is None else kind(value)",
           "return value"),
    Mutant("config_drops_table_option", "cli.py", 'for key in ("problem", *vars(args))',
           'for key in ("problem",)'),
]


def run_suite(copy: Path) -> tuple[str, float]:
    """The fast suite's first failing test in ``copy`` ("" when it passes), and its wall time."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no examples saved by a mutant
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(copy / "src")}
    start = time.perf_counter()
    done = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "", seconds
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return (failed or [f"pytest exit code {done.returncode}"])[0], seconds


def main() -> int:
    for mutant in MUTANTS:
        count = (ROOT / "src/deep_euler" / mutant.path).read_text().count(mutant.old)
        if count != 1:
            print(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.path}",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench*"))
        failed, seconds = run_suite(copy)
        print(f"{'(none)':24} {'FAILED' if failed else 'passed':9} {seconds:6.1f} s {failed}",
              flush=True)
        if failed:
            print("the unmutated suite fails; no mutant can be judged", file=sys.stderr)
            return 2
        unexplained = []
        for mutant in MUTANTS:
            path = copy / "src/deep_euler" / mutant.path
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            try:
                failed, seconds = run_suite(copy)
            finally:
                path.write_text(original)
            if failed:
                verdict, note = "killed", f"by {failed}"
            else:
                verdict, note = "survived", f"equivalent: {mutant.equivalent or '(no reason)'}"
                if not mutant.equivalent:
                    unexplained.append(mutant.name)
            print(f"{mutant.name:24} {verdict:9} {seconds:6.1f} s {note}", flush=True)
    if unexplained:
        print(f"survived without a recorded reason: {', '.join(unexplained)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
