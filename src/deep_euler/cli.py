"""Command-line front end.

Every subcommand writes deterministic CSV artifacts plus a manifest.json
that records the run's configuration, so repeating a command with the same
manifest, numpy/BLAS build and BLAS thread count reproduces its outputs byte
for byte.

Exit codes: 0 success, 2 configuration error, 3 dimension/shape error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import dataset, dem, metrics, mlp
from .errors import (
    ConfigError,
    CorrectorShapeError,
    EmptyBatch,
    EmptyDataset,
    InvalidArchitecture,
    InvalidInput,
    MinStepReached,
    ModelFormatError,
    NonFiniteGradient,
    NonFiniteState,
    OrderMismatch,
    TooFewPoints,
    UnknownProblem,
)
from .ode import (
    StepSchedule,
    euler_step,
    evaluate_truth,
    get_problem,
    heun_step,
    restrict,
    solve_fixed,
)

_CONFIG_EXIT = 2
_SHAPE_EXIT = 3
_NUMERIC_EXIT = 4

# Training-region defaults; measurement counts follow the benchmark protocol.
_PROBLEM_DEFAULTS = {
    "example1": {"points": 200, "interval": [0.0, 5.0]},
    "lotka_volterra": {"points": 1000, "interval": [0.0, 15.0]},
    "kepler": {"points": 1000, "interval": [0.0, 15.0]},
}

_TRAIN_DEFAULTS = {
    "noise_level": 0.0,
    "pair_policy": "all_pairs",
    "min_gap": 0.0,
    "hidden_layers": 8,
    "hidden_width": 80,
    "target": "euler",
    "epochs": 50,
    "learning_rate": 5e-3,
    "batch_size": 32,
    "seed": 0,
    "clip_bound": None,
}

_TRAIN_KEYS = set(_TRAIN_DEFAULTS) | {"problem", "points", "interval", "dataset_seed"}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return format(v, ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(out_dir: Path, manifest: dict) -> None:
    manifest = dict(manifest)
    manifest["tool_version"] = __version__
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(value)


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    return float(value)


def _load_config_file(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"config file {path}: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    for key in raw:
        if key not in _TRAIN_KEYS:
            raise ConfigError(f"{key}: unknown configuration key")
    return raw


def _resolve_train_config(args) -> dict:
    cfg = dict(_TRAIN_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config))
    if args.problem is not None:
        cfg["problem"] = args.problem
    if "problem" not in cfg:
        raise ConfigError("problem: missing (flag --problem or config key)")
    defaults = _PROBLEM_DEFAULTS.get(cfg["problem"])
    if defaults is None:
        raise ConfigError(f"problem: unknown problem {cfg['problem']!r}")
    cfg.setdefault("points", defaults["points"])
    cfg.setdefault("interval", defaults["interval"])

    env_seed = os.environ.get("DEM_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"DEM_SEED: expected an integer, got {env_seed!r}") from None

    for flag in (
        "points", "noise_level", "min_gap", "hidden_layers", "hidden_width",
        "target", "epochs", "learning_rate", "batch_size", "seed",
        "dataset_seed", "clip_bound", "pair_policy",
    ):
        value = getattr(args, flag, None)
        if value is not None:
            cfg[flag] = value
    if getattr(args, "interval", None) is not None:
        cfg["interval"] = list(args.interval)

    cfg.setdefault("dataset_seed", cfg["seed"])
    _validate_train_config(cfg)
    return cfg


def _validate_train_config(cfg: dict) -> None:
    _as_int(cfg["points"], "points")
    _as_int(cfg["hidden_layers"], "hidden_layers")
    _as_int(cfg["hidden_width"], "hidden_width")
    _as_int(cfg["seed"], "seed")
    _as_int(cfg["dataset_seed"], "dataset_seed")
    _as_float(cfg["noise_level"], "noise_level")
    interval = cfg["interval"]
    if (
        not isinstance(interval, (list, tuple))
        or len(interval) != 2
        or not interval[0] < interval[1]
    ):
        raise ConfigError(f"interval: expected [lo, hi] with lo < hi, got {interval!r}")
    if cfg["pair_policy"] not in ("all_pairs", "min_gap"):
        raise ConfigError(f"pair_policy: expected all_pairs or min_gap, got {cfg['pair_policy']!r}")
    if cfg["target"] not in ("euler", "heun"):
        raise ConfigError(f"target: expected euler or heun, got {cfg['target']!r}")
    if cfg["hidden_layers"] < 1 or cfg["hidden_width"] < 1:
        raise ConfigError("hidden_layers/hidden_width: must be >= 1")
    # Optimizer-facing values are validated by TrainConfig itself.
    _train_config_of(cfg)


def _train_config_of(cfg: dict) -> mlp.TrainConfig:
    return mlp.TrainConfig(
        epochs=_as_int(cfg["epochs"], "epochs"),
        learning_rate=_as_float(cfg["learning_rate"], "learning_rate"),
        batch_size=_as_int(cfg["batch_size"], "batch_size"),
        seed=_as_int(cfg["seed"], "seed"),
        clip_bound=None if cfg["clip_bound"] is None else _as_float(cfg["clip_bound"], "clip_bound"),
    )


def _pair_policy_of(cfg: dict) -> dataset.PairPolicy:
    if cfg["pair_policy"] == "min_gap":
        return dataset.PairPolicy.min_gap(_as_float(cfg["min_gap"], "min_gap"))
    return dataset.PairPolicy.all_pairs()


def _run_training(cfg: dict) -> tuple[mlp.MlpParams, list[float]]:
    problem = get_problem(cfg["problem"])
    measurements = dataset.sample_measurements(
        problem,
        tuple(cfg["interval"]),
        cfg["points"],
        dataset.NoiseSpec(cfg["noise_level"]),
        cfg["dataset_seed"],
    )
    pairs = dataset.build_pairs(problem, measurements, _pair_policy_of(cfg), cfg["target"])
    inputs, targets = dataset.stack_samples(pairs)
    widths = [problem.dim + 2] + [cfg["hidden_width"]] * cfg["hidden_layers"] + [problem.dim]
    return mlp.train(inputs, targets, widths, _train_config_of(cfg))


def _corrector_for_method(method: str, checkpoint) -> dem.Corrector:
    exponent = {"dem": 2, "dhm": 3}[method]
    if checkpoint is None:
        raise ConfigError(f"checkpoint: required for method {method}")
    try:
        data = Path(checkpoint).read_bytes()
    except OSError as err:
        raise ConfigError(f"checkpoint: {err}") from None
    return dem.Corrector.network(mlp.load_model(data), exponent)


def cmd_train(args) -> int:
    cfg = _resolve_train_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, losses = _run_training(cfg)
    (out_dir / "model.bin").write_bytes(mlp.save_model(params))
    _write_csv(
        out_dir / "loss.csv",
        ["epoch", "mean_loss"],
        [(i + 1, loss) for i, loss in enumerate(losses)],
    )
    widths = [get_problem(cfg["problem"]).dim + 2]
    widths += [cfg["hidden_width"]] * cfg["hidden_layers"]
    widths += [get_problem(cfg["problem"]).dim]
    _write_manifest(
        out_dir,
        {
            "command": "train",
            "config": cfg,
            "network_widths": widths,
            "outputs": {"model": "model.bin", "loss_csv": "loss.csv"},
        },
    )
    print(f"trained {cfg['problem']} ({cfg['target']} target), final loss {losses[-1]:.6g}")
    return 0


_CLASSIC_STEPPERS = {"euler": euler_step, "heun": heun_step}


def cmd_solve(args) -> int:
    problem = get_problem(args.problem)
    if args.interval is not None:
        problem = restrict(problem, args.interval[0], args.interval[1])
    schedule = StepSchedule.uniform(args.h)

    corrector = None
    if args.method in ("dem", "dhm"):
        corrector = _corrector_for_method(args.method, args.checkpoint)
        base, order = (euler_step, 1) if args.method == "dem" else (heun_step, 2)
        stepper = dem.make_corrected_stepper(base, order, corrector, problem)
    else:
        stepper = _CLASSIC_STEPPERS[args.method]

    trajectory = solve_fixed(problem, schedule, stepper)

    header = ["x"] + [f"y_{c + 1}" for c in range(problem.dim)]
    columns = [trajectory.xs] + [trajectory.ys[:, c] for c in range(problem.dim)]
    if problem.exact is not None:
        truth = evaluate_truth(problem, trajectory.xs)
        header += [f"exact_{c + 1}" for c in range(problem.dim)]
        columns += [truth[:, c] for c in range(problem.dim)]
    if corrector is not None:
        _, gaps = metrics.eps_series(corrector, problem, schedule)
        header.append("n_minus_r")
        columns.append(np.append(gaps, np.nan))  # value at the step's left endpoint

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "trajectory.csv", header, zip(*columns))
    _write_manifest(
        out_dir,
        {
            "command": "solve",
            "problem": args.problem,
            "method": args.method,
            "h": args.h,
            "interval": list(args.interval) if args.interval else list(problem.domain),
            "checkpoint": args.checkpoint,
            "outputs": {"trajectory": "trajectory.csv"},
        },
    )
    print(f"solved {args.problem} with {args.method}, {len(trajectory)} mesh points")
    return 0


def _max_error_vs_truth(problem, trajectory) -> float:
    return metrics.max_abs_error(trajectory, evaluate_truth(problem, trajectory.xs))


def cmd_table1(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base_cfg = {
        "problem": "example1",
        "epochs": args.epochs,
        "seed": args.seed,
        "dataset_seed": args.dataset_seed if args.dataset_seed is not None else args.seed,
        "points": args.points,
    }
    models = {}
    for target in ("euler", "heun"):
        cfg = dict(_TRAIN_DEFAULTS)
        cfg.update(base_cfg)
        cfg["target"] = target
        cfg.setdefault("interval", _PROBLEM_DEFAULTS["example1"]["interval"])
        _validate_train_config(cfg)
        params, _ = _run_training(cfg)
        models[target] = params
        name = "model_dem.bin" if target == "euler" else "model_dhm.bin"
        (out_dir / name).write_bytes(mlp.save_model(params))

    problem = get_problem("example1")
    train_region = tuple(_PROBLEM_DEFAULTS["example1"]["interval"])
    dem_corr = dem.Corrector.network(models["euler"], 2)
    dhm_corr = dem.Corrector.network(models["heun"], 3)

    rows = []
    for h in args.h_list:
        schedule = StepSchedule.uniform(h)
        e_euler = _max_error_vs_truth(problem, solve_fixed(problem, schedule, euler_step))
        e_heun = _max_error_vs_truth(problem, solve_fixed(problem, schedule, heun_step))
        e_dem = _max_error_vs_truth(problem, dem.solve_dem(problem, dem_corr, schedule))
        e_dhm = _max_error_vs_truth(problem, dem.solve_dhm(problem, dhm_corr, schedule))
        eps = metrics.eps_mean(dem_corr, problem, schedule, region=train_region)
        rows.append((h, e_euler, e_heun, e_dem, e_dhm, eps, e_dem / e_euler))

    _write_csv(
        out_dir / "table1.csv",
        ["h", "euler", "heun", "dem", "dhm", "eps_mean", "ratio_dem_euler"],
        rows,
    )
    _write_manifest(
        out_dir,
        {
            "command": "table1",
            "config": base_cfg,
            "h_list": list(args.h_list),
            "eps_region": list(train_region),
            "outputs": {
                "table": "table1.csv",
                "model_dem": "model_dem.bin",
                "model_dhm": "model_dhm.bin",
            },
        },
    )
    print(f"table1 written to {out_dir / 'table1.csv'}")
    return 0


def _parse_arch(spec: str) -> tuple[int, int]:
    try:
        layers, width = spec.lower().split("x")
        return int(layers), int(width)
    except ValueError:
        raise ConfigError(f"archs: expected LAYERSxWIDTH, got {spec!r}") from None


def cmd_table2(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = get_problem("example1")
    a, b = problem.domain
    lo, hi = _PROBLEM_DEFAULTS["example1"]["interval"]
    schedule = StepSchedule.uniform(args.h)

    rows = []
    for points in args.points_list:
        for arch in args.archs:
            layers, width = _parse_arch(arch)
            eps_train, eps_test = [], []
            for run in range(args.num_seeds):
                cfg = dict(_TRAIN_DEFAULTS)
                cfg.update(
                    {
                        "problem": "example1",
                        "points": points,
                        "interval": [lo, hi],
                        "hidden_layers": layers,
                        "hidden_width": width,
                        "epochs": args.epochs,
                        "seed": args.seed + run,
                        "dataset_seed": args.seed + run,
                    }
                )
                _validate_train_config(cfg)
                try:
                    params, _ = _run_training(cfg)
                    corrector = dem.Corrector.network(params, 2)
                    eps_train.append(
                        metrics.eps_mean(corrector, problem, schedule, region=(lo, hi))
                    )
                    eps_test.append(
                        metrics.eps_mean(corrector, problem, schedule, region=(hi, b))
                    )
                except (NonFiniteGradient, NonFiniteState) as err:
                    print(
                        f"warning: cell points={points} arch={arch} run={run} failed: {err}",
                        file=sys.stderr,
                    )
                    eps_train.append(np.nan)
                    eps_test.append(np.nan)
            rows.append(
                (points, layers, width, float(np.mean(eps_train)), float(np.mean(eps_test)))
            )

    _write_csv(
        out_dir / "table2.csv",
        ["points", "hidden_layers", "hidden_width", "eps_train", "eps_test"],
        rows,
    )
    _write_manifest(
        out_dir,
        {
            "command": "table2",
            "archs": list(args.archs),
            "points_list": list(args.points_list),
            "num_seeds": args.num_seeds,
            "base_seed": args.seed,
            "epochs": args.epochs,
            "h": args.h,
            "outputs": {"table": "table2.csv"},
        },
    )
    print(f"table2 written to {out_dir / 'table2.csv'}")
    return 0


def cmd_table3(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = get_problem("example1")
    train_region = tuple(_PROBLEM_DEFAULTS["example1"]["interval"])

    correctors = {}
    for level in args.noise_levels:
        cfg = dict(_TRAIN_DEFAULTS)
        cfg.update(
            {
                "problem": "example1",
                "points": args.points,
                "interval": list(train_region),
                "noise_level": level,
                "epochs": args.epochs,
                "seed": args.seed,
                "dataset_seed": args.dataset_seed if args.dataset_seed is not None else args.seed,
            }
        )
        _validate_train_config(cfg)
        params, _ = _run_training(cfg)
        correctors[level] = dem.Corrector.network(params, 2)
        tag = format(level, "g").replace(".", "p")
        (out_dir / f"model_noise_{tag}.bin").write_bytes(mlp.save_model(params))

    rows = []
    for h in args.h_list:
        schedule = StepSchedule.uniform(h)
        for level in args.noise_levels:
            corrector = correctors[level]
            eps = metrics.eps_mean(corrector, problem, schedule, region=train_region)
            e_dem = _max_error_vs_truth(problem, dem.solve_dem(problem, corrector, schedule))
            rows.append((h, level, eps, e_dem))

    _write_csv(out_dir / "table3.csv", ["h", "delta", "eps_mean", "e_dem"], rows)
    _write_manifest(
        out_dir,
        {
            "command": "table3",
            "noise_levels": list(args.noise_levels),
            "h_list": list(args.h_list),
            "points": args.points,
            "epochs": args.epochs,
            "seed": args.seed,
            "outputs": {"table": "table3.csv"},
        },
    )
    print(f"table3 written to {out_dir / 'table3.csv'}")
    return 0


def cmd_convergence(args) -> int:
    problem = get_problem(args.problem)
    if args.method in ("dem", "dhm"):
        base, order = (euler_step, 1) if args.method == "dem" else (heun_step, 2)
        if args.oracle:
            corrector = dem.Corrector.oracle(problem, order + 1)
        else:
            corrector = _corrector_for_method(args.method, args.checkpoint)
        stepper = dem.make_corrected_stepper(base, order, corrector, problem)
    else:
        stepper = _CLASSIC_STEPPERS[args.method]

    estimate = metrics.convergence_order(problem, stepper, args.h_list)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        (h, err, estimate.order, estimate.degenerate)
        for h, err in zip(estimate.h_values, estimate.errors)
    ]
    _write_csv(
        out_dir / "convergence.csv",
        ["h", "max_error", "fitted_order", "degenerate"],
        rows,
    )
    _write_manifest(
        out_dir,
        {
            "command": "convergence",
            "problem": args.problem,
            "method": args.method,
            "oracle": bool(args.oracle),
            "h_list": list(args.h_list),
            "outputs": {"table": "convergence.csv"},
        },
    )
    print(f"fitted order {estimate.order:.4g} (degenerate={estimate.degenerate})")
    return 0


def cmd_stability(args) -> int:
    if args.clip_ln is not None:
        # Linear single-layer corrector whose Lipschitz bound equals clip_ln,
        # produced by clipping an over-scaled row.
        raw = mlp.MlpParams(
            (3, 1),
            (np.array([[0.0, 0.0, 2.0 * args.clip_ln]]),),
            (np.zeros(1),),
        )
        corrector = dem.Corrector.network(mlp.clip_weights(raw, args.clip_ln), 2)
    elif args.checkpoint is not None:
        params = mlp.load_model(Path(args.checkpoint).read_bytes())
        corrector = dem.Corrector.network(params, 2)
    else:
        corrector = dem.Corrector.zero(2)

    results = metrics.stability_scan(
        args.lam, corrector, args.h_grid, steps=args.steps, bound=args.bound
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "stability.csv", ["h", "bounded"], results)
    _write_manifest(
        out_dir,
        {
            "command": "stability",
            "lam": args.lam,
            "h_grid": list(args.h_grid),
            "corrector": (
                "zero" if args.clip_ln is None and args.checkpoint is None
                else (f"clip_ln={args.clip_ln}" if args.clip_ln is not None else "checkpoint")
            ),
            "steps": args.steps,
            "bound": args.bound,
            "outputs": {"table": "stability.csv"},
        },
    )
    print(f"stability scan written to {out_dir / 'stability.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dem",
        description="Hybrid ODE solving: classical steppers corrected by a trained "
        "truncation-error network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a corrector network")
    p_train.add_argument("--problem", choices=sorted(_PROBLEM_DEFAULTS))
    p_train.add_argument("--config", help="JSON config file; flags override it")
    p_train.add_argument("--out-dir", default=".")
    p_train.add_argument("--points", type=int)
    p_train.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"))
    p_train.add_argument("--noise-level", type=float, dest="noise_level")
    p_train.add_argument("--pair-policy", choices=("all_pairs", "min_gap"), dest="pair_policy")
    p_train.add_argument("--min-gap", type=float, dest="min_gap")
    p_train.add_argument("--hidden-layers", type=int, dest="hidden_layers")
    p_train.add_argument("--hidden-width", type=int, dest="hidden_width")
    p_train.add_argument("--target", choices=("euler", "heun"))
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--learning-rate", type=float, dest="learning_rate")
    p_train.add_argument("--batch-size", type=int, dest="batch_size")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--dataset-seed", type=int, dest="dataset_seed")
    p_train.add_argument("--clip-bound", type=float, dest="clip_bound")
    p_train.set_defaults(func=cmd_train)

    p_solve = sub.add_parser("solve", help="integrate a problem and write the trajectory")
    p_solve.add_argument("--problem", required=True, choices=sorted(_PROBLEM_DEFAULTS))
    p_solve.add_argument("--method", required=True, choices=("euler", "heun", "dem", "dhm"))
    p_solve.add_argument("--h", type=float, required=True)
    p_solve.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"))
    p_solve.add_argument("--checkpoint")
    p_solve.add_argument("--out-dir", default=".")
    p_solve.set_defaults(func=cmd_solve)

    p_t1 = sub.add_parser("table1", help="method comparison across step sizes")
    p_t1.add_argument("--out-dir", default=".")
    p_t1.add_argument("--seed", type=int, default=0)
    p_t1.add_argument("--dataset-seed", type=int, dest="dataset_seed")
    p_t1.add_argument("--epochs", type=int, default=50)
    p_t1.add_argument("--points", type=int, default=200)
    p_t1.add_argument("--h-list", type=float, nargs="+", dest="h_list",
                      default=[0.01, 0.1, 1.0, 2.0])
    p_t1.set_defaults(func=cmd_table1)

    p_t2 = sub.add_parser("table2", help="architecture / data-size sweep")
    p_t2.add_argument("--out-dir", default=".")
    p_t2.add_argument("--archs", nargs="+", default=["2x20", "4x40", "8x80", "16x160"])
    p_t2.add_argument("--points-list", type=int, nargs="+", dest="points_list",
                      default=[10, 25, 50, 100, 200, 500])
    p_t2.add_argument("--num-seeds", type=int, dest="num_seeds", default=10)
    p_t2.add_argument("--seed", type=int, default=0)
    p_t2.add_argument("--epochs", type=int, default=50)
    p_t2.add_argument("--h", type=float, default=0.1)
    p_t2.set_defaults(func=cmd_table2)

    p_t3 = sub.add_parser("table3", help="noise-level sweep")
    p_t3.add_argument("--out-dir", default=".")
    p_t3.add_argument("--noise-levels", type=float, nargs="+", dest="noise_levels",
                      default=[0.0, 0.01, 0.05, 0.10])
    p_t3.add_argument("--h-list", type=float, nargs="+", dest="h_list",
                      default=[0.01, 0.1, 0.5, 1.0, 2.0])
    p_t3.add_argument("--points", type=int, default=200)
    p_t3.add_argument("--epochs", type=int, default=50)
    p_t3.add_argument("--seed", type=int, default=0)
    p_t3.add_argument("--dataset-seed", type=int, dest="dataset_seed")
    p_t3.set_defaults(func=cmd_table3)

    p_conv = sub.add_parser("convergence", help="measured convergence order")
    p_conv.add_argument("--problem", required=True, choices=sorted(_PROBLEM_DEFAULTS))
    p_conv.add_argument("--method", required=True, choices=("euler", "heun", "dem", "dhm"))
    p_conv.add_argument("--h-list", type=float, nargs="+", dest="h_list", required=True)
    p_conv.add_argument("--checkpoint")
    p_conv.add_argument("--oracle", action="store_true",
                        help="use the exact truncation-error corrector")
    p_conv.add_argument("--out-dir", default=".")
    p_conv.set_defaults(func=cmd_convergence)

    p_stab = sub.add_parser("stability", help="bounded/unbounded scan over step sizes")
    p_stab.add_argument("--lam", type=float, default=-5.0)
    p_stab.add_argument("--h-grid", type=float, nargs="+", dest="h_grid", required=True)
    p_stab.add_argument("--clip-ln", type=float, dest="clip_ln",
                        help="use a linear corrector clipped to this Lipschitz bound")
    p_stab.add_argument("--checkpoint")
    p_stab.add_argument("--steps", type=int, default=1000)
    p_stab.add_argument("--bound", type=float, default=10.0)
    p_stab.add_argument("--out-dir", default=".")
    p_stab.set_defaults(func=cmd_stability)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ValueError: an argument argparse accepts but the library rejects, such
    # as a step size or interval out of range. OSError: an unreadable file.
    except (ConfigError, UnknownProblem, ModelFormatError, TooFewPoints, EmptyDataset,
            ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _CONFIG_EXIT
    except (CorrectorShapeError, OrderMismatch, InvalidArchitecture, InvalidInput, EmptyBatch) as err:
        print(f"error: {err}", file=sys.stderr)
        return _SHAPE_EXIT
    except (NonFiniteState, MinStepReached, NonFiniteGradient) as err:
        print(f"error: {err}", file=sys.stderr)
        return _NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
