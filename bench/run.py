"""deep-euler benchmark: one workload per run, closed loop, one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {train_ex1,pairs_systems,solve_eval} \
        --seed N --seconds S --trace {0,1}

Job 0 is an untimed, checked warm-up. With ``--trace 0`` the run then
prints the end-to-end metrics; with ``--trace 1`` it runs a third of the
time untraced, then wraps deep_euler's public functions (see tracer.py) and
prints per-layer metrics for the rest. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Lines before it, starting with ``#``, are a human-readable summary.
BLAS and OpenMP are pinned to one thread before numpy is imported. See
NOTES.md for what each workload and metric means.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import below

import os  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("DEM_SEED", None)  # flags set every seed explicitly

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (imports numpy, so it comes after the pinning above)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train_ex1", "pairs_systems", "solve_eval")
SETUP_SAMPLES = 5  # this process plus four fresh child processes
CALIBRATION_SHARE = 0.1  # calibration time after each job, as a share of the job's time


@dataclass
class Ctx:
    seed: int
    tmp: Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for set-up samples)")
    return parser.parse_args(argv)


def import_program():
    """Import deep_euler from this checkout's src/, never from anywhere else."""
    if not (SRC / "deep_euler" / "__init__.py").is_file():
        print(f"error: no deep_euler sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import deep_euler

    if Path(deep_euler.__file__).resolve().parent != (SRC / "deep_euler").resolve():
        print(f"error: deep_euler imported from {deep_euler.__file__}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def blas_record() -> dict:
    """BLAS build from numpy's config, plus each loaded OpenBLAS's own thread count."""
    import ctypes

    import numpy as np

    record = {"name": "unknown", "version": "unknown", "threads": {}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["name"], record["version"] = blas["name"], blas["version"]
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                record["threads"][Path(path).name] = int(getter())
                break
    return record


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def setup_samples(args, own: float) -> list[float]:
    """Set-up time of this process plus that of fresh child processes, run one at a time."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().split("\n")[-1]))
    return samples


@dataclass
class JobRecord:
    job_s: float
    items: int
    work_s: float
    checks: list
    summary: dict


def run_job(workload, ctx, state, i: int, tracer=None) -> JobRecord:
    """Run job ``i`` and check its outputs; a job that raises is a failed check."""
    t0 = time.perf_counter()
    try:
        # The CLI's progress line is not part of the result.
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                items, work, data = workload.job(ctx, state, i)
            else:
                with tracer.root(i):
                    items, work, data = workload.job(ctx, state, i)
        job_s = time.perf_counter() - t0
        checks, summary = workload.check(state, data)
        del data  # so the next job's peak memory does not include this one's outputs
    except Exception as err:  # a failed job is counted, reported and the loop goes on
        job_s = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        items, work, summary = 0, 0.0, {}
        checks = [(f"job {i} raised {type(err).__name__}: {err}", False)]
    return JobRecord(job_s, items, work, checks, summary)


def run_jobs(workload, ctx, state, seconds: float, first: int, calibration: list,
             tracer=None) -> list[JobRecord]:
    """Closed loop: start the next job only when the last one returned.

    After each job the calibration kernel runs for ``CALIBRATION_SHARE`` of
    the job's time; its chunk times go to ``calibration``. A job is started
    only if a job of median length and its calibration would still end within
    ``seconds``; the first job always runs.
    """
    records = []
    start = time.perf_counter()
    while not records or (
        time.perf_counter() - start
        + median(r.job_s for r in records) * (1 + CALIBRATION_SHARE) <= seconds
    ):
        records.append(run_job(workload, ctx, state, first + len(records), tracer))
        calibration.extend(calibrate.sample(CALIBRATION_SHARE * records[-1].job_s))
    return records


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    ctx = Ctx(seed=args.seed, tmp=OUT_DIR / f"tmp-{os.getpid()}")
    state = workload.setup(ctx)
    own_setup = time.perf_counter() - T0
    if args.setup_only:
        print(repr(own_setup))
        return 0

    try:
        ctx.tmp.mkdir()
        setup = [] if args.trace else setup_samples(args, own_setup)
        env = environment()
        # Job 0 warms caches and lazy imports, and one calibration pass warms
        # the kernel; both are checked or run but not timed.
        warmup = run_job(workload, ctx, state, 0)
        calibrate.sample(CALIBRATION_SHARE * warmup.job_s)
        calibration: list[float] = []
        if args.trace:
            untraced = run_jobs(workload, ctx, state, args.seconds / 3, 1, calibration)
            from tracer import Tracer

            tracer = Tracer(f"{args.workload}:seed={args.seed}:pid={os.getpid()}")
            tracer.install()
            traced_state = dict(state, problems={k: tracer.count_rhs(p)
                                                 for k, p in state["problems"].items()})
            traced = run_jobs(workload, ctx, traced_state, args.seconds * 2 / 3,
                              1 + len(untraced), calibration, tracer)
            tracer.uninstall()
            tracer.write(OUT_DIR / f"spans-{args.workload}.npz", env)
            records = untraced + traced
        else:
            records = run_jobs(workload, ctx, state, args.seconds, 1, calibration)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    checks = [c for r in [warmup] + records for c in r.checks]
    failed = [label for label, ok in checks if not ok]
    ok_records = [r for r in records if r.items > 0]

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"1 warm-up and {len(records)} timed jobs, {len(checks)} checks, {len(failed)} failed")
    print("# env " + json.dumps(env, sort_keys=True))
    for label in failed:
        print(f"# FAILED {label}")
    print(f"# failed_ops_frac {len(failed) / max(len(checks), 1)}")
    for key in sorted({k for r in [warmup] + records for k in r.summary}):
        values = [r.summary[key] for r in [warmup] + records if key in r.summary]
        print(f"# {key} median {median(values)!r} over {len(values)} jobs")
    # Seconds measured now, times ``speed``, are seconds at the reference speed.
    speed = calibrate.REFERENCE_S / median(calibration)
    print(f"# calibration: {len(calibration)} chunks, median {median(calibration)!r} s, "
          f"reference {calibrate.REFERENCE_S!r} s, speed factor {speed!r}")

    if args.trace:
        layer, closure = tracer.layer_metrics(len(traced))
        traced_job = layer["trace.job_s"][0]
        untraced_job = statistics.fmean(r.job_s for r in untraced)
        layer["trace.untraced_job_s"] = (untraced_job, "s")
        layer["trace.overhead_s"] = (traced_job - untraced_job, "s")
        if tracer.absent:
            print(f"# absent layers: {', '.join(tracer.absent)}")
        self_total = sum(v for k, (v, _) in layer.items() if k.endswith(".self_s"))
        print(f"# self times sum {self_total!r} s/job vs traced job {traced_job!r} s/job "
              f"(closure error {closure!r})")
        metrics = layer
    else:
        wall = {
            "setup_s": median(setup),
            "job_s": median(r.job_s for r in records),
            "items_per_s": median(r.items / r.work_s for r in ok_records),
        }
        metrics = {
            "setup_s": (wall["setup_s"] * speed, "s"),
            "job_s": (wall["job_s"] * speed, "s"),
            "items_per_s": (wall["items_per_s"] / speed, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"# setup samples {setup!r}")
        for name, value in wall.items():
            print(f"# wall {name} = {value!r} (unscaled)")
        print(f"# {workload.item}_per_s = {metrics['items_per_s'][0]!r} 1/s (items_per_s)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
