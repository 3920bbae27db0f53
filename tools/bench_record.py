"""Record the benchmark trajectory of one change as BENCH_<pr>.json.

    python3 tools/bench_record.py N    # writes BENCH_N.json in about 15 minutes (2 cores)

Run from any directory; it works on the checkout it sits in. For each workload
that BENCHMARK.json names, it runs

    python3 bench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

for seeds 0, 1 and 2, and reads the JSON object on the last stdout line. Per
workload, BENCH_<pr>.json holds each run's correct, failed and attempted
counts and metrics, and each metric's median and quartiles over the runs
(``statistics.quantiles``, inclusive method). It also holds the ``# env``
record of the first run, ``git rev-parse HEAD`` and whether the tree had
uncommitted changes; if it had, also the sha256 of ``git diff --binary HEAD``
and the ``git status --porcelain`` lines, which together name the tree that
was measured (an untracked file appears in the status lines only). Last come
two wall times, each the median of 3 runs with BLAS and OpenMP at one thread:
the Tier-1 suite, and a 50-epoch example1 ``dem train`` at its defaults.
Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ENV = {**os.environ, **{var: "1" for var in THREAD_VARS}, "PYTHONPATH": str(ROOT / "src")}
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TRAIN = [sys.executable, "-m", "deep_euler.cli", "train", "--problem", "example1",
         "--epochs", "50", "--out-dir"]


def spread(values) -> dict:
    """Median and quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run(cmd, exit_codes=(0,)) -> subprocess.CompletedProcess:
    done = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True)
    if done.returncode not in exit_codes:
        raise SystemExit(f"{' '.join(map(str, cmd))} exited {done.returncode}:\n{done.stderr}")
    return done


def bench_runs(name: str, seconds: float) -> tuple[dict, dict]:
    """The workload's record over SEEDS, and the ``# env`` record of its first run."""
    runs, env = [], None
    for seed in SEEDS:
        done = run([sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"])
        lines = done.stdout.splitlines()
        env = env or json.loads(next(l for l in lines if l.startswith("# env "))[len("# env "):])
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **{k: result[k] for k in ("correct", "failed", "attempted")},
                     "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
        print(f"{name} seed {seed}: correct={result['correct']}", file=sys.stderr, flush=True)
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    metrics = {k: {"unit": unit, **spread([r["metrics"][k] for r in runs])}
               for k, unit in units.items()}
    return {"runs": runs, "metrics": metrics}, env


def wall_times(cmd_of_run, exit_codes=(0,)) -> tuple[list[float], str]:
    """REPEATS wall times of ``cmd_of_run(dir)``, and the last run's last stdout line."""
    times = []
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        for i in range(REPEATS):
            start = time.perf_counter()
            done = run(cmd_of_run(Path(tmp) / str(i)), exit_codes)
            times.append(time.perf_counter() - start)
    return times, done.stdout.strip().splitlines()[-1]


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    pr = int(argv[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = run(["git", "status", "--porcelain"]).stdout.splitlines()
    record = {
        "pr": pr,
        "git_head": run(["git", "rev-parse", "HEAD"]).stdout.strip(),
        "uncommitted_changes": bool(status),
        "bench_command": f"python3 bench/run.py --workload W --seed S "
                         f"--seconds {bench['run_seconds']} --trace 0",
        "seeds": list(SEEDS),
        "workloads": {},
    }
    if status:
        diff = subprocess.run(["git", "diff", "--binary", "HEAD"], cwd=ROOT, capture_output=True,
                              check=True).stdout
        record["uncommitted_diff_sha256"] = hashlib.sha256(diff).hexdigest()
        record["uncommitted_status"] = status
    for workload in bench["workloads"]:
        record["workloads"][workload["name"]], env = bench_runs(workload["name"],
                                                                bench["run_seconds"])
        record.setdefault("env", env)
    tier1, summary = wall_times(lambda tmp: TIER1, exit_codes=(0, 1))  # 1: a test failed
    record["tier1_s"] = {"command": " ".join(TIER1[1:]), "runs": tier1, "last_summary": summary,
                         **spread(tier1)}
    train, message = wall_times(lambda tmp: TRAIN + [str(tmp)])
    record["train_ex1_50_epochs_s"] = {"command": " ".join(TRAIN[1:] + ["DIR"]), "runs": train,
                                       "last_message": message, **spread(train)}
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"written to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
