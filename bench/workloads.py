"""The three benchmark workloads: set-up, timed job and output checks.

Each workload is a closed loop with one client: the runner calls ``job``
again only after the previous call returned. ``job`` returns the number of
work items it did, the seconds spent in the calls that do them, and data
that ``check`` verifies outside the timed region; ``check`` returns the
(label, passed) checks and the job's summary figures. Checks use numpy,
hashlib and the problems' own right-hand sides, never the library functions
under test, so they add no spans to a traced run.

Library functions are always looked up through their module at call time
(``ode.solve_fixed``, not a name bound at import) so that a traced run sees
them.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from deep_euler import cli, dataset, dem, metrics, mlp, ode

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())
PINNED_SEED = 0


def derived_seed(seed: int, *keys: int) -> int:
    """Independent seed for one use (``keys``) in a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64))) for a in arrays)


class TrainEx1:
    """``dem train`` on the paper's example1 protocol: 200 points on U(0,5),
    19,900 all-pairs, an 8x80 ReLU net, batch size 32."""

    name = "train_ex1"
    epochs = 2
    points = 200
    item = "train_samples"

    def setup(self, ctx) -> dict:
        return {"problems": {}}  # the CLI builds its own problem

    def job(self, ctx, state, i):
        seed = PINNED_SEED if i == 0 else derived_seed(ctx.seed, 0, i)
        out = ctx.tmp / "train"
        argv = [
            "train", "--problem", "example1", "--points", str(self.points),
            "--interval", "0", "5", "--hidden-layers", "8", "--hidden-width", "80",
            "--batch-size", "32", "--learning-rate", "0.005",
            "--epochs", str(self.epochs), "--seed", str(seed), "--dataset-seed", str(seed),
            "--out-dir", str(out),
        ]
        t0 = time.perf_counter()
        rc = cli.main(argv)
        work = time.perf_counter() - t0
        pairs = self.points * (self.points - 1) // 2
        return self.epochs * pairs, work, {"rc": rc, "out": out, "pinned": i == 0}

    def check(self, state, data):
        checks = [("train exit code 0", data["rc"] == 0)]
        if data["rc"] != 0:
            return checks, {}
        rows = (data["out"] / "loss.csv").read_text().split("\n")[1:-1]
        losses = [r.split(",")[1] for r in rows]
        checks.append(("loss.csv finite",
                       len(losses) == self.epochs and _finite([float(v) for v in losses])))
        if not data["pinned"]:
            return checks, {}
        golden = GOLDEN["train_ex1"]
        checks.append(("model.bin golden sha256",
                       sha256(data["out"] / "model.bin") == golden["model_sha256"]))
        checks.append(("final loss golden", losses[-1] == golden["final_loss"]))
        return checks, {"final_loss": float(losses[-1])}


class PairsSystems:
    """Sampling, pair building and stacking for the two systems benchmarks:
    lotka_volterra at 1000 points with an Euler target (reference solve,
    499,500 pairs) and kepler at 300 points with a Heun target (the per-pair
    loop, 44,850 pairs)."""

    name = "pairs_systems"
    item = "pairs"
    cases = (
        ("lotka_volterra", 1000, "euler"),
        ("kepler", 300, "heun"),
    )
    spot_checks = 64

    def setup(self, ctx) -> dict:
        return {"problems": {name: ode.get_problem(name) for name, _, _ in self.cases}}

    def job(self, ctx, state, i):
        seed = derived_seed(ctx.seed, 0, i)
        items, work, built, phases = 0, 0.0, {}, {}
        for name, points, base in self.cases:
            problem = state["problems"][name]
            t0 = time.perf_counter()
            ms = dataset.sample_measurements(
                problem, (0.0, 15.0), points, dataset.NoiseSpec(0.0), seed
            )
            t1 = time.perf_counter()
            built_pairs = dataset.build_pairs(problem, ms, dataset.PairPolicy.all_pairs(), base)
            t2 = time.perf_counter()
            if isinstance(built_pairs, tuple):  # already (inputs, targets, ...) arrays
                inputs, targets = built_pairs[0], built_pairs[1]
            else:
                inputs, targets = dataset.stack_samples(built_pairs)
            t3 = time.perf_counter()
            del built_pairs
            work += t3 - t0
            phases[name] = {"sample_s": t1 - t0, "build_pairs_s": t2 - t1, "stack_s": t3 - t2}
            items += len(inputs)
            built[name] = (base, points, ms, inputs, targets)
        return items, work, {"built": built, "seed": seed, "phases": phases}

    def check(self, state, data):
        checks = []
        rng = np.random.default_rng(data["seed"])
        for name, (base, points, ms, inputs, targets) in data["built"].items():
            problem = state["problems"][name]
            xs = np.array([m.x for m in ms])
            zs = np.stack([m.z for m in ms])
            order = 1 if base == "euler" else 2
            n = problem.dim
            pairs = points * (points - 1) // 2
            checks.append((f"{name} shapes", inputs.shape == (pairs, n + 2)
                           and targets.shape == (pairs, n)))
            checks.append((f"{name} finite", _finite(inputs, targets)))
            if name == "kepler":
                truth = np.column_stack((np.cos(xs), np.sin(xs), -np.sin(xs), np.cos(xs)))
                checks.append(("kepler measurements exact",
                               np.allclose(zs, truth, rtol=0, atol=1e-12)))
            def f(x, y):
                return np.asarray(problem.rhs(x, y), dtype=np.float64)

            rows = rng.integers(0, len(inputs), size=self.spot_checks)
            ok = True
            for r in rows:
                x_i, x_j = inputs[r, 0], inputs[r, 1]
                i, j = np.searchsorted(xs, x_i), np.searchsorted(xs, x_j)
                z_i, z_j = zs[i], zs[j]
                ok &= xs[i] == x_i and xs[j] == x_j and np.array_equal(inputs[r, 2:], z_i)
                dx = x_j - x_i
                if base == "euler":
                    step = z_i + dx * f(x_i, z_i)
                else:
                    k1 = f(x_i, z_i)
                    step = z_i + 0.5 * dx * (k1 + f(x_i + dx, z_i + dx * k1))
                expect = (z_j - step) / dx ** (order + 1)
                # Rounding in z is amplified by 1/dx^(p+1); allow for a
                # different but equally exact order of operations.
                atol = 1e-13 * (1.0 + np.max(np.abs(z_j))) / dx ** (order + 1)
                ok &= np.allclose(targets[r], expect, rtol=1e-9, atol=atol)
            checks.append((f"{name} targets match the scaled defect", bool(ok)))
        summary = {f"{name}_{phase}": value for name, phases in data["phases"].items()
                   for phase, value in phases.items()}
        return checks, summary


class SolveEval:
    """Fixed-step solves and evaluation with the pinned example1 checkpoints:
    Euler/Heun/DEM/DHM over Table 1's h values plus a fine h, a kepler DEM
    solve, Euler/Heun on lotka_volterra against a reference solve, eps
    diagnostics, a stability scan, an oracle DEM solve and one ``dem solve``
    for the golden trajectory."""

    name = "solve_eval"
    item = "solve_steps"
    h_values = (0.01, 0.1, 1.0, 2.0, 0.002)
    kepler_h = 0.01
    systems_h = 0.01  # lotka_volterra has no closed form: its truth is a reference solve
    oracle_h = 0.1
    stability_h = (0.1, 0.2, 0.3, 0.4, 0.5)

    def setup(self, ctx) -> dict:
        golden = GOLDEN["solve_eval"]
        correctors = {}
        for method, exponent in (("dem", 2), ("dhm", 3)):
            path = BENCH_DIR / "data" / f"ex1_{method}.bin"
            raw = path.read_bytes()
            if hashlib.sha256(raw).hexdigest() != golden[f"checkpoint_{method}_sha256"]:
                raise RuntimeError(f"{path.name} does not match its recorded sha256")
            correctors[method] = dem.Corrector.network(mlp.load_model(raw), exponent)
        # An untrained kepler corrector from the run seed, clipped so that its
        # Lipschitz bound is at most 1 and the solve stays finite: it prices a
        # 6 -> 4 forward per step, its accuracy is not measured.
        widths = [6] + [80] * 8 + [4]
        kepler_net = mlp.clip_weights(mlp.init(widths, derived_seed(ctx.seed, 1)), 1.0)
        correctors["kepler"] = dem.Corrector.network(kepler_net, 2)
        return {
            "problems": {name: ode.get_problem(name)
                         for name in ("example1", "kepler", "lotka_volterra")},
            "correctors": correctors,
            "checkpoint": BENCH_DIR / "data" / "ex1_dem.bin",
        }

    def job(self, ctx, state, i):
        ex1, kepler = state["problems"]["example1"], state["problems"]["kepler"]
        corr = state["correctors"]
        timings: dict[str, tuple[float, int]] = {}
        errors: dict[tuple[str, float], float] = {}

        def timed_solve(label, solve, *args):
            t0 = time.perf_counter()
            traj = solve(*args)
            dt = time.perf_counter() - t0
            seconds, steps = timings.get(label, (0.0, 0))
            timings[label] = (seconds + dt, steps + len(traj) - 1)
            return traj

        for h in self.h_values:
            schedule = ode.StepSchedule.uniform(h)
            trajs = {
                "euler": timed_solve("euler", ode.solve_fixed, ex1, schedule, ode.euler_step),
                "heun": timed_solve("heun", ode.solve_fixed, ex1, schedule, ode.heun_step),
                "dem": timed_solve("dem", dem.solve_dem, ex1, corr["dem"], schedule),
                "dhm": timed_solve("dhm", dem.solve_dhm, ex1, corr["dhm"], schedule),
            }
            truth = ode.evaluate_truth(ex1, trajs["euler"].xs)
            for method, traj in trajs.items():
                errors[(method, h)] = metrics.max_abs_error(traj, truth)

        kepler_traj = timed_solve("kepler_dem", dem.solve_dem, kepler, corr["kepler"],
                                  ode.StepSchedule.uniform(self.kepler_h))
        lv = state["problems"]["lotka_volterra"]
        lv_schedule = ode.StepSchedule.uniform(self.systems_h)
        lv_trajs = {
            "euler": timed_solve("lv_euler", ode.solve_fixed, lv, lv_schedule, ode.euler_step),
            "heun": timed_solve("lv_heun", ode.solve_fixed, lv, lv_schedule, ode.heun_step),
        }
        lv_truth = ode.evaluate_truth(lv, lv_trajs["euler"].xs)
        lv_errors = {m: metrics.max_abs_error(t, lv_truth) for m, t in lv_trajs.items()}
        oracle_traj = timed_solve("oracle_dem", dem.solve_dem, ex1, dem.Corrector.oracle(ex1, 2),
                                  ode.StepSchedule.uniform(self.oracle_h))
        oracle_error = metrics.max_abs_error(oracle_traj, ode.evaluate_truth(ex1, oracle_traj.xs))

        _, gaps = metrics.eps_series(corr["dem"], ex1, ode.StepSchedule.uniform(0.01))
        eps_train = metrics.eps_mean(corr["dem"], ex1, ode.StepSchedule.uniform(0.1),
                                     region=(0.0, 5.0))
        stability = metrics.stability_scan(-5.0, corr["dem"], self.stability_h)

        out = ctx.tmp / "solve"
        rc = cli.main(["solve", "--problem", "example1", "--method", "dem", "--h", "1.0",
                       "--checkpoint", str(state["checkpoint"]), "--out-dir", str(out)])

        items = sum(steps for _, steps in timings.values())
        work = sum(seconds for seconds, _ in timings.values())
        return items, work, {
            "timings": timings, "errors": errors, "kepler": kepler_traj.ys, "lv_errors": lv_errors,
            "oracle_error": oracle_error, "gaps": gaps, "eps_train": eps_train,
            "stability": stability, "rc": rc, "out": out,
        }

    def check(self, state, data):
        golden = GOLDEN["solve_eval"]
        errors = data["errors"]
        checks = [("errors finite", _finite(list(errors.values())))]
        for h in (0.1, 1.0, 2.0):
            checks.append((f"e_dem <= e_euler/50 at h={h}",
                           errors[("dem", h)] <= errors[("euler", h)] / 50.0))
        checks.append(("heun beats euler at h=0.01",
                       errors[("heun", 0.01)] < errors[("euler", 0.01)]))
        checks.append(("kepler dem solve finite", _finite(data["kepler"])))
        lv_errors = data["lv_errors"]
        checks.append(("lotka_volterra heun beats euler against the reference solve",
                       _finite(list(lv_errors.values())) and lv_errors["heun"] < lv_errors["euler"]))
        checks.append(("oracle dem exact", data["oracle_error"] <= 1e-9))
        checks.append(("eps series finite", _finite(data["gaps"])))
        checks.append(("eps_mean <= 0.05 on the training region", data["eps_train"] <= 0.05))
        checks.append(("stability flags golden",
                       [[h, b] for h, b in data["stability"]] == golden["stability"]))
        checks.append(("solve exit code 0", data["rc"] == 0))
        if data["rc"] == 0:
            checks.append(("trajectory.csv golden sha256",
                           sha256(data["out"] / "trajectory.csv") == golden["trajectory_sha256"]))
        summary = {"dem_error_ratio": errors[("dem", 1.0)] / errors[("euler", 1.0)]}
        for label, (seconds, steps) in data["timings"].items():
            summary[f"{label}_us_per_step"] = seconds / steps * 1e6
        return checks, summary


WORKLOADS = {w.name: w for w in (TrainEx1(), PairsSystems(), SolveEval())}
