"""Command-line front end.

Every subcommand writes deterministic CSV artifacts plus a manifest.json
that records the run's configuration, so repeating a command with the same
manifest, numpy/BLAS build and BLAS thread count reproduces its outputs byte
for byte.

Exit codes: 0 success, 2 configuration error (ConfigError; a size too large
to allocate among them), 3 dimension/shape error (ShapeError), 4 numerical
failure (NumericalError); each error class carries its own code, and the
error line is its message.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import dataset, dem, metrics, mlp
from .errors import ConfigError, DeepEulerError, NumericalError
from .ode import (
    BASE_METHODS, EULER, HEUN, StepSchedule, evaluate_truth, get_problem, restrict, solve_fixed,
)

# Every --method name: the base methods, then their corrected forms.
_METHODS = {**BASE_METHODS, **{m.corrected: m for m in BASE_METHODS.values()}}

# Training-region defaults; measurement counts follow the benchmark protocol.
_PROBLEM_DEFAULTS = {
    "example1": {"points": 200, "interval": [0.0, 5.0]},
    "lotka_volterra": {"points": 1000, "interval": [0.0, 15.0]},
    "kepler": {"points": 1000, "interval": [0.0, 15.0]},
}
# The tables train on example1 and take eps_mean over its training region.
_EX1_REGION = tuple(_PROBLEM_DEFAULTS["example1"]["interval"])

# The default of a key with none of its own: problem must be given, points and
# interval come from the problem's defaults, dataset_seed from seed.
_UNSET = object()

# dem train's keys, each both a flag and a config-file key, in --help order:
# key -> (default, argparse keywords). The keywords also type the config
# file's values: a choice is a string, and an interval a [lo, hi] pair.
_TRAIN_KEYS = {
    "problem": (_UNSET, {"choices": sorted(_PROBLEM_DEFAULTS)}),
    "points": (_UNSET, {"type": int}),
    "interval": (_UNSET, {"type": float, "nargs": 2, "metavar": ("LO", "HI")}),
    "noise_level": (0.0, {"type": float}),
    "min_gap": (0.0, {"type": float}),
    "hidden_layers": (8, {"type": int}),
    "hidden_width": (80, {"type": int}),
    "target": ("euler", {"choices": list(BASE_METHODS)}),
    "epochs": (50, {"type": int}),
    "learning_rate": (5e-3, {"type": float}),
    "batch_size": (32, {"type": int}),
    "seed": (0, {"type": int}),
    "dataset_seed": (_UNSET, {"type": int}),
    "clip_bound": (None, {"type": float}),
}
# What each type accepts, and its name in errors; a bool counts as neither number.
_ACCEPTS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}
# Lower bounds of integer keys; mlp.TrainConfig checks the optimizer's own.
_TRAIN_MINIMUMS = {"points": 2, "hidden_layers": 1, "hidden_width": 1, "seed": 0, "dataset_seed": 0}


def _csv(header: list[str], rows) -> bytes:
    text = io.StringIO()
    np.savetxt(text, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    return text.getvalue().encode()


def _write_artifacts(out_dir, manifest: dict, files: dict, message: str) -> int:
    """Write ``files`` (output key -> (file name, bytes)) and a manifest.json
    that lists them into ``out_dir``, then print ``message``; exit code 0."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.values():
        (out_dir / name).write_bytes(data)
    outputs = {key: name for key, (name, _) in files.items()}
    manifest = {**manifest, "outputs": outputs, "tool_version": __version__}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(message)
    return 0


def _recorded(args, *names) -> dict:
    """Manifest entries: the subcommand and the named arguments' values."""
    return {"command": args.command, **{name: getattr(args, name) for name in names}}


def _has_type(kind, value) -> bool:
    return not isinstance(value, bool) and isinstance(value, _ACCEPTS[kind][0])


def _check_value(key: str, value) -> None:
    """ConfigError unless ``value`` has the type and choices of training key ``key``."""
    default, spec = _TRAIN_KEYS[key]
    kind, choices = spec.get("type", str), spec.get("choices")
    if "nargs" in spec:
        expected = "[lo, hi] with lo < hi"
        ok = (isinstance(value, (list, tuple)) and len(value) == 2
              and all(_has_type(kind, v) for v in value) and value[0] < value[1])
    else:
        expected = f"one of {', '.join(choices)}" if choices else _ACCEPTS[kind][1]
        ok = (value is None and default is None) or (
            _has_type(kind, value) and (choices is None or value in choices))
    if not ok:
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")


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


def _train_config(*overrides: dict) -> dict:
    """The training defaults updated by each of ``overrides`` in turn, with the
    problem's defaults for what they leave unset; validated."""
    cfg = {key: default for key, (default, _) in _TRAIN_KEYS.items() if default is not _UNSET}
    for layer in overrides:
        cfg.update(layer)
    if "problem" not in cfg:
        raise ConfigError("problem: missing (flag --problem or config key)")
    _check_value("problem", cfg["problem"])
    for key, value in _PROBLEM_DEFAULTS[cfg["problem"]].items():
        cfg.setdefault(key, value)
    cfg.setdefault("dataset_seed", cfg["seed"])
    for key, value in cfg.items():
        _check_value(key, value)
    for key, least in _TRAIN_MINIMUMS.items():
        if cfg[key] < least:
            raise ConfigError(f"{key}: must be >= {least}, got {cfg[key]}")
    _training_objects(cfg)  # building them checks the remaining ranges
    return cfg


def _training_objects(cfg: dict):
    """The noise spec, pair policy and optimizer settings of a config."""
    policy = dataset.PairPolicy(float(cfg["min_gap"]))
    clip = None if cfg["clip_bound"] is None else float(cfg["clip_bound"])
    train_cfg = mlp.TrainConfig(int(cfg["epochs"]), float(cfg["learning_rate"]),
                                int(cfg["batch_size"]), int(cfg["seed"]), clip)
    return dataset.NoiseSpec(cfg["noise_level"]), policy, train_cfg


def _run_training(cfg: dict) -> tuple[mlp.MlpParams, list[float]]:
    problem = get_problem(cfg["problem"])
    noise, policy, train_cfg = _training_objects(cfg)
    measurements = dataset.sample_measurements(problem, tuple(cfg["interval"]), cfg["points"],
                                               noise, cfg["dataset_seed"])
    inputs, targets = dataset.build_pairs(problem, measurements, policy, cfg["target"])
    widths = [problem.dim + 2] + [cfg["hidden_width"]] * cfg["hidden_layers"] + [problem.dim]
    return mlp.train(inputs, targets, widths, train_cfg)


def _network_corrector(method, checkpoint) -> dem.Corrector:
    """The network in ``checkpoint``, scaled for the corrected form of ``method``."""
    if checkpoint is None:
        raise ConfigError(f"checkpoint: required for method {method.corrected}")
    try:
        params = mlp.load_model(Path(checkpoint).read_bytes())
    except (OSError, ConfigError) as err:
        raise ConfigError(f"checkpoint: {err}") from None
    return dem.Corrector.network(params, method.exponent)


def _unread_checkpoint(checkpoint, reason: str) -> None:
    """ConfigError when a checkpoint is given to a run that would not read it."""
    if checkpoint is not None:
        raise ConfigError(f"checkpoint: not read {reason}")


def _method_stepper(name: str, problem, checkpoint, oracle: bool = False):
    """The stepper that --method ``name`` selects, and its corrector (None for
    a base method)."""
    method = _METHODS[name]
    if name == method.name:
        if oracle:
            corrected = " or ".join(m.corrected for m in BASE_METHODS.values())
            raise ConfigError(f"oracle: needs a corrected method ({corrected}), got {name}")
        _unread_checkpoint(checkpoint, f"by method {name}")
        return method.step, None
    if oracle:
        _unread_checkpoint(checkpoint, "with --oracle")
        corrector = dem.Corrector.oracle(problem, method.exponent)
    else:
        corrector = _network_corrector(method, checkpoint)
    return dem.make_corrected_stepper(method, corrector, problem), corrector


def cmd_train(args) -> int:
    # Every config key has a flag of the same name, and the flags override the file.
    flags = {key: getattr(args, key) for key in _TRAIN_KEYS if getattr(args, key) is not None}
    cfg = _train_config(_load_config_file(args.config) if args.config else {}, flags)
    params, losses = _run_training(cfg)
    loss_csv = _csv(["epoch", "mean_loss"], list(enumerate(losses, 1)))
    manifest = {**_recorded(args), "config": cfg, "network_widths": list(params.layer_widths)}
    files = {"model": ("model.bin", mlp.save_model(params)), "loss_csv": ("loss.csv", loss_csv)}
    return _write_artifacts(args.out_dir, manifest, files, f"trained {cfg['problem']} "
                            f"({cfg['target']} target), final loss {losses[-1]:.6g}")


def cmd_solve(args) -> int:
    problem = get_problem(args.problem)
    if args.interval is not None:
        problem = restrict(problem, args.interval[0], args.interval[1])
    schedule = StepSchedule.uniform(args.h)
    schedule.mesh(*problem.domain)  # h must fit the interval before a checkpoint is read
    stepper, corrector = _method_stepper(args.method, problem, args.checkpoint)
    trajectory = solve_fixed(problem, schedule, stepper)
    components = range(1, problem.dim + 1)
    header = ["x"] + [f"y_{c}" for c in components]
    columns = [trajectory.xs[:, None], trajectory.ys]
    if problem.exact is not None:
        header += [f"exact_{c}" for c in components]
        columns.append(evaluate_truth(problem, trajectory.xs))
    if corrector is not None:
        _, gaps = metrics.eps_series(corrector, problem, schedule)
        header.append("n_minus_r")
        columns.append(np.append(gaps, np.nan)[:, None])  # value at the step's left endpoint

    manifest = {**_recorded(args, "problem", "method", "h", "checkpoint"),
                "interval": list(args.interval) if args.interval else list(problem.domain)}
    files = {"trajectory": ("trajectory.csv", _csv(header, np.hstack(columns)))}
    return _write_artifacts(args.out_dir, manifest, files, f"solved {args.problem} with "
                            f"{args.method}, {len(trajectory)} mesh points")


def _example1_schedules(h_list, regions) -> list[StepSchedule]:
    """example1's uniform schedule for each h, checked to end a mesh step in every region."""
    domain = get_problem("example1").domain
    schedules = [StepSchedule.uniform(h) for h in h_list]
    for schedule in schedules:
        for region in regions:
            metrics.region_mask(schedule.mesh(*domain)[1:], region)
    return schedules


def _train_then_evaluate(args, variants, evaluate):
    """Train an example1 corrector per ``(output key, config overrides, base
    method)`` variant, checking every config and h first; then get each h's
    rows from ``evaluate(h, schedule, correctors)``. Returns the rows, the
    model files and the settings shared by the variants."""
    shared = {"points": args.points, "epochs": args.epochs, "seed": args.seed,
              "dataset_seed": args.seed if args.dataset_seed is None else args.dataset_seed}
    cfgs = [_train_config({"problem": "example1"}, shared, extra) for _, extra, _ in variants]
    schedules = _example1_schedules(args.h_list, [_EX1_REGION])
    files, correctors = {}, []
    for (key, _, method), cfg in zip(variants, cfgs):
        params, _ = _run_training(cfg)
        files[key] = (f"{key}.bin", mlp.save_model(params))
        correctors.append(dem.Corrector.network(params, method.exponent))
    rows = [row for h, s in zip(args.h_list, schedules) for row in evaluate(h, s, correctors)]
    return rows, files, shared


def cmd_table1(args) -> int:
    problem = get_problem("example1")
    variants = [(f"model_{m.corrected}", {"target": m.name}, m) for m in (EULER, HEUN)]

    def evaluate(h, schedule, correctors):
        dem_corr, dhm_corr = correctors
        e_euler = metrics.max_abs_error(solve_fixed(problem, schedule, EULER.step), problem.exact)
        e_heun = metrics.max_abs_error(solve_fixed(problem, schedule, HEUN.step), problem.exact)
        e_dem = metrics.max_abs_error(dem.solve_dem(problem, dem_corr, schedule), problem.exact)
        e_dhm = metrics.max_abs_error(dem.solve_dhm(problem, dhm_corr, schedule), problem.exact)
        eps = metrics.eps_mean(dem_corr, problem, schedule, region=_EX1_REGION)
        return [(h, e_euler, e_heun, e_dem, e_dhm, eps, e_dem / e_euler)]

    rows, models, shared = _train_then_evaluate(args, variants, evaluate)
    table = _csv(["h", "euler", "heun", "dem", "dhm", "eps_mean", "ratio_dem_euler"], rows)
    manifest = {**_recorded(args, "h_list"), "config": {"problem": "example1", **shared},
                "eps_region": list(_EX1_REGION)}
    return _write_artifacts(args.out_dir, manifest, {"table": ("table1.csv", table), **models},
                            f"table1 written to {Path(args.out_dir) / 'table1.csv'}")


def _parse_arch(spec: str) -> tuple[int, int]:
    try:
        layers, width = (int(v) for v in spec.lower().split("x"))
    except ValueError:
        raise ConfigError(f"archs: expected LAYERSxWIDTH, got {spec!r}") from None
    if layers < 1 or width < 1:
        raise ConfigError(f"archs: layers and width must be >= 1, got {spec!r}")
    return layers, width


def cmd_table2(args) -> int:
    if args.num_seeds < 1:
        raise ConfigError(f"num_seeds: must be >= 1, got {args.num_seeds}")
    # Every spec, point count and h is checked before the first training.
    archs = [(arch, *_parse_arch(arch)) for arch in args.archs]
    too_few = [points for points in args.points_list if points < 2]
    if too_few:
        raise ConfigError(f"points_list: each value must be >= 2, got {too_few[0]}")
    problem = get_problem("example1")
    regions = [_EX1_REGION, (_EX1_REGION[1], problem.domain[1])]  # train, test
    (schedule,) = _example1_schedules([args.h], regions)
    cells = len(args.points_list) * len(archs)

    rows = []
    for points in args.points_list:
        for arch, layers, width in archs:
            eps = []  # (train, test) region means per seed
            for run in range(args.num_seeds):
                cfg = _train_config({"problem": "example1", "points": points,
                                     "hidden_layers": layers, "hidden_width": width,
                                     "epochs": args.epochs, "seed": args.seed + run})
                try:
                    params, _ = _run_training(cfg)
                    corrector = dem.Corrector.network(params, EULER.exponent)
                    eps.append([metrics.eps_mean(corrector, problem, schedule, r) for r in regions])
                except NumericalError as err:
                    print(f"warning: cell points={points} arch={arch} run={run} failed: {err}",
                          file=sys.stderr)
                    eps.append([np.nan, np.nan])
            rows.append((points, layers, width, *(float(np.mean(seeds)) for seeds in zip(*eps))))
            print(f"cell {len(rows)}/{cells}: points={points} arch={arch} "
                  f"eps_train={rows[-1][3]:.6g} eps_test={rows[-1][4]:.6g}", file=sys.stderr)

    table = _csv(["points", "hidden_layers", "hidden_width", "eps_train", "eps_test"], rows)
    manifest = {**_recorded(args, "archs", "points_list", "num_seeds", "epochs", "h"),
                "base_seed": args.seed}
    return _write_artifacts(args.out_dir, manifest, {"table": ("table2.csv", table)},
                            f"table2 written to {Path(args.out_dir) / 'table2.csv'}")


def cmd_table3(args) -> int:
    problem = get_problem("example1")
    levels = {}  # model name -> noise level; two levels may not share a name
    for level in args.noise_levels:
        name = "model_noise_" + format(level + 0.0, "g").replace(".", "p")  # -0.0 names level 0
        if name in levels:
            raise ConfigError(f"noise_levels: {levels[name]} and {level} share model name {name}")
        levels[name] = level
    variants = [(name, {"noise_level": level}, EULER) for name, level in levels.items()]

    def evaluate(h, schedule, correctors):
        return [
            (h, level, metrics.eps_mean(corrector, problem, schedule, region=_EX1_REGION),
             metrics.max_abs_error(dem.solve_dem(problem, corrector, schedule), problem.exact))
            for level, corrector in zip(args.noise_levels, correctors)
        ]

    rows, models, shared = _train_then_evaluate(args, variants, evaluate)
    manifest = {**_recorded(args, "noise_levels", "h_list"), **shared}
    table = _csv(["h", "delta", "eps_mean", "e_dem"], rows)
    return _write_artifacts(args.out_dir, manifest, {"table": ("table3.csv", table), **models},
                            f"table3 written to {Path(args.out_dir) / 'table3.csv'}")


def cmd_convergence(args) -> int:
    problem = get_problem(args.problem)
    metrics.halving_schedules(problem, args.h_list)  # checked before a checkpoint is read
    stepper, _ = _method_stepper(args.method, problem, args.checkpoint, args.oracle)
    estimate = metrics.convergence_order(problem, stepper, args.h_list)
    rows = [(h, err, estimate.order, estimate.degenerate)
            for h, err in zip(estimate.h_values, estimate.errors)]
    table = _csv(["h", "max_error", "fitted_order", "degenerate"], rows)
    manifest = _recorded(args, "problem", "method", "oracle", "h_list", "checkpoint")
    return _write_artifacts(args.out_dir, manifest, {"table": ("convergence.csv", table)},
                            f"fitted order {estimate.order:.4g} (degenerate={estimate.degenerate})")


def cmd_stability(args) -> int:
    if args.clip_ln is not None:
        _unread_checkpoint(args.checkpoint, "with --clip-ln")
        # Linear single-layer corrector whose Lipschitz bound equals clip_ln,
        # produced by clipping an over-scaled row.
        row = 2.0 * args.clip_ln
        if not 0.0 < row < np.inf:
            raise ConfigError(f"clip_ln: must be in (0, {np.finfo(float).max / 2:.4g}], "
                              f"got {args.clip_ln}")
        raw = mlp.MlpParams((3, 1), (np.array([[0.0, 0.0, row]]),), (np.zeros(1),))
        corrector = dem.Corrector.network(mlp.clip_weights(raw, args.clip_ln), EULER.exponent)
        label = f"clip_ln={args.clip_ln}"
    elif args.checkpoint is not None:
        corrector, label = _network_corrector(EULER, args.checkpoint), "checkpoint"
    else:
        corrector, label = dem.Corrector.zero(EULER.exponent), "zero"
    results = metrics.stability_scan(args.lam, corrector, args.h_grid, args.steps, args.bound)
    manifest = {**_recorded(args, "lam", "h_grid", "checkpoint", "steps", "bound"),
                "corrector": label}
    table = _csv(["h", "bounded"], results)
    return _write_artifacts(args.out_dir, manifest, {"table": ("stability.csv", table)},
                            f"stability scan written to {Path(args.out_dir) / 'stability.csv'}")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _ex1_default(key: str) -> tuple[str, dict]:
    """Training key ``key``'s flag with its example1 default, as the tables take it."""
    return _flag(key), {"default": _PROBLEM_DEFAULTS["example1"].get(key, _TRAIN_KEYS[key][0])}


# Options that several subcommands take, each declared once: dem train's keys
# (among them --problem, --points, --seed, --dataset-seed, --epochs) and these.
_OPTIONS = {
    **{_flag(key): spec for key, (_, spec) in _TRAIN_KEYS.items()},
    "--out-dir": {"default": "."},
    "--method": {"choices": list(_METHODS)},
    "--checkpoint": {},
    "--h-list": {"type": float, "nargs": "+"},
}
_REQUIRED = {"required": True}

# Each subcommand's help line and options, in --help order. An option is a
# flag of _OPTIONS, or (flag, keywords added to its _OPTIONS entry).
_COMMANDS = {
    "train": ("train a corrector network", [
        "--problem", ("--config", {"help": "JSON config file; flags override it"}), "--out-dir",
        *[_flag(key) for key in _TRAIN_KEYS if key != "problem"],
    ]),
    "solve": ("integrate a problem and write the trajectory", [
        ("--problem", _REQUIRED), ("--method", _REQUIRED), ("--h", {"type": float, **_REQUIRED}),
        "--interval", "--checkpoint", "--out-dir",
    ]),
    "table1": ("method comparison across step sizes", [
        "--out-dir", _ex1_default("seed"), "--dataset-seed", _ex1_default("epochs"),
        _ex1_default("points"), ("--h-list", {"default": [0.01, 0.1, 1.0, 2.0]}),
    ]),
    "table2": ("architecture / data-size sweep", [
        "--out-dir", ("--archs", {"nargs": "+", "default": ["2x20", "4x40", "8x80", "16x160"]}),
        ("--points-list", {"type": int, "nargs": "+", "default": [10, 25, 50, 100, 200, 500]}),
        ("--num-seeds", {"type": int, "default": 10}), _ex1_default("seed"),
        _ex1_default("epochs"), ("--h", {"type": float, "default": 0.1}),
    ]),
    "table3": ("noise-level sweep", [
        "--out-dir",
        ("--noise-levels", {"type": float, "nargs": "+", "default": [0.0, 0.01, 0.05, 0.10]}),
        ("--h-list", {"default": [0.01, 0.1, 0.5, 1.0, 2.0]}), _ex1_default("points"),
        _ex1_default("epochs"), _ex1_default("seed"), "--dataset-seed",
    ]),
    "convergence": ("measured convergence order", [
        ("--problem", _REQUIRED), ("--method", _REQUIRED), ("--h-list", _REQUIRED), "--checkpoint",
        ("--oracle", {"action": "store_true", "help": "use the exact truncation-error corrector"}),
        "--out-dir",
    ]),
    "stability": ("bounded/unbounded scan over step sizes", [
        ("--lam", {"type": float, "default": -5.0}),
        ("--h-grid", {"type": float, "nargs": "+", **_REQUIRED}),
        ("--clip-ln", {"type": float,
                       "help": "use a linear corrector clipped to this Lipschitz bound"}),
        "--checkpoint", ("--steps", {"type": int, "default": 1000}),
        ("--bound", {"type": float, "default": 10.0}), "--out-dir",
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dem", description="Hybrid ODE solving: classical "
                                     "steppers corrected by a trained truncation-error network.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option in options:
            flag, extra = (option, {}) if isinstance(option, str) else option
            p.add_argument(flag, **_OPTIONS.get(flag, {}), **extra)
        # Looked up on each call, so that a replaced cmd_* function is the one run.
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ValueError: an argument argparse accepts but the library rejects, such
    # as a step size or interval out of range. OSError: an unreadable file.
    # MemoryError: a size too large to allocate. All are configuration errors.
    except (DeepEulerError, ValueError, OSError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return err.exit_code if isinstance(err, DeepEulerError) else DeepEulerError.exit_code


if __name__ == "__main__":
    sys.exit(main())
