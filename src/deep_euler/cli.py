"""Command-line front end.

Every subcommand writes deterministic CSV artifacts plus a manifest.json that records its
command and every option it declares except --out-dir; a run that trains records `config`, the
checked values of its problem and training options, in place of those options. Repeating a
command with the options its manifest records, numpy/BLAS build and BLAS thread count
reproduces its outputs byte for byte.

Exit codes: 0 success, 2 configuration error (ConfigError; a size too large
to allocate, or an integer too large for the machine, among them), 3
dimension/shape error (ShapeError), 4 numerical failure (NumericalError); each
error class carries its own code, and the error line is its message.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import dataset, dem, metrics, mlp
from .errors import ConfigError, DeepEulerError, NumericalError
from .ode import (BASE_METHODS, EULER, HEUN, StepSchedule, evaluate_truth, get_problem, restrict,
                  solve_fixed)

# Every --method name: the base methods, then their corrected forms.
_METHODS = {**BASE_METHODS, **{m.corrected: m for m in BASE_METHODS.values()}}

# Training-region defaults; measurement counts follow the benchmark protocol.
_PROBLEM_DEFAULTS = {
    "example1": {"points": 200, "interval": [0.0, 5.0]},
    "lotka_volterra": {"points": 1000, "interval": [0.0, 15.0]},
    "kepler": {"points": 1000, "interval": [0.0, 15.0]},
}
# The tables train on example1 and take eps_mean over its training region.
_EX1 = get_problem("example1")
_EX1_REGION = tuple(_PROBLEM_DEFAULTS[_EX1.name]["interval"])

# The default of a key with none of its own, which _train_config fills in or refuses.
_UNSET = object()


def _default(function, name: str):
    """The default of ``function``'s parameter ``name``: a library default is read, not restated."""
    return inspect.signature(function).parameters[name].default


# dem train's keys, each both a flag and a config-file key, in --help order: key -> (default,
# argparse keywords). The keywords also type the config file's values: a choice is a string,
# an interval a [lo, hi] pair. A checked value is stored as its key's type: a file's 0 as 0.0.
_TRAIN_KEYS = {
    "problem": (_UNSET, {"choices": sorted(_PROBLEM_DEFAULTS)}),
    "points": (_UNSET, {"type": int}),
    "interval": (_UNSET, {"type": float, "nargs": 2, "metavar": ("LO", "HI")}),
    "noise_level": (dataset.NoiseSpec.level, {"type": float}),
    "min_gap": (dataset.PairPolicy.gap, {"type": float}),
    "hidden_layers": (8, {"type": int}),
    "hidden_width": (80, {"type": int}),
    "target": (_default(dataset.build_pairs, "method").name, {"choices": list(BASE_METHODS)}),
    "epochs": (50, {"type": int}),
    "learning_rate": (mlp.TrainConfig.learning_rate, {"type": float}),
    "batch_size": (mlp.TrainConfig.batch_size, {"type": int}),
    "seed": (mlp.TrainConfig.seed, {"type": int}),
    "dataset_seed": (_UNSET, {"type": int}),
    "clip_bound": (mlp.TrainConfig.clip_bound, {"type": float}),
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
    that lists them into ``out_dir``, then print ``message``; exit code 0. The
    manifest is strict JSON: a NaN or infinity in it is refused before any write."""
    outputs = {key: name for key, (name, _) in files.items()}
    manifest = {**manifest, "outputs": outputs, "tool_version": __version__}
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.values():
        (out_dir / name).write_bytes(data)
    (out_dir / "manifest.json").write_text(text)
    print(message)
    return 0


def _given(args) -> dict:
    """The training options that were given: those of _TRAIN_KEYS whose value is not None."""
    return {key: getattr(args, key) for key in _TRAIN_KEYS if getattr(args, key, None) is not None}


def _manifest(args, cfg=None, **facts) -> dict:
    """A run's record: its command and every option but --out-dir, then ``facts``. Given ``cfg``,
    its training options give way to ``config``: their and the problem's values in ``cfg``."""
    options = {key: value for key, value in vars(args).items() if key not in {"func", "out_dir"}}
    if cfg is not None:
        options = {key: value for key, value in options.items() if key not in _TRAIN_KEYS}
        options["config"] = {key: cfg[key] for key in ("problem", *vars(args)) if key in cfg}
    return {**options, **facts}


def _has_type(kind, value) -> bool:
    return not isinstance(value, bool) and isinstance(value, _ACCEPTS[kind][0])


def _checked(key: str, value):
    """``value`` as training key ``key``'s type; ConfigError unless it has that type and choices."""
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
    if "nargs" in spec:
        return [kind(v) for v in value]
    return None if value is None else kind(value)


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
    _checked("problem", cfg["problem"])
    for key, value in _PROBLEM_DEFAULTS[cfg["problem"]].items():
        cfg.setdefault(key, value)
    cfg.setdefault("dataset_seed", cfg["seed"])
    cfg = {key: _checked(key, value) for key, value in cfg.items()}
    for key, least in _TRAIN_MINIMUMS.items():
        if cfg[key] < least:
            raise ConfigError(f"{key}: must be >= {least}, got {cfg[key]}")
    _training_objects(cfg)  # building them checks the remaining ranges
    return cfg


def _training_objects(cfg: dict):
    """The noise spec, pair policy and optimizer settings of a config."""
    train_cfg = mlp.TrainConfig(cfg["epochs"], cfg["learning_rate"], cfg["batch_size"],
                                cfg["seed"], cfg["clip_bound"])
    return dataset.NoiseSpec(cfg["noise_level"]), dataset.PairPolicy(cfg["min_gap"]), train_cfg


def _run_training(cfg: dict) -> tuple[dem.Corrector, list[float]]:
    """The network a validated config trains, as its target's corrector, and each epoch's loss."""
    problem = get_problem(cfg["problem"])
    noise, policy, train_cfg = _training_objects(cfg)
    measurements = dataset.sample_measurements(problem, tuple(cfg["interval"]), cfg["points"],
                                               noise, cfg["dataset_seed"])
    method = BASE_METHODS[cfg["target"]]
    inputs, targets = dataset.build_pairs(problem, measurements, policy, method)
    widths = [inputs.shape[1], *[cfg["hidden_width"]] * cfg["hidden_layers"], targets.shape[1]]
    params, losses = mlp.train(inputs, targets, widths, train_cfg)
    return dem.Corrector.network(params, method.exponent), losses


def _train_each(cfgs, labels, keep_going=False):
    """Yield each validated config's trained corrector, or None for a failure under keep_going."""
    for i, (cfg, label) in enumerate(zip(cfgs, labels), 1):
        try:
            corrector = _run_training(cfg)[0]
        except NumericalError as err:
            if not keep_going:
                raise
            print(f"warning: {label} failed: {err}", file=sys.stderr)
            corrector = None
        print(f"training {i}/{len(cfgs)} done: {label}", file=sys.stderr)
        yield corrector


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
    """The stepper that --method ``name`` selects, and its corrector (None for a base method)."""
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
    cfg = _train_config(_load_config_file(args.config) if args.config else {}, _given(args))
    corrector, losses = _run_training(cfg)
    params = corrector.params
    loss_csv = _csv(["epoch", "mean_loss"], list(enumerate(losses, 1)))
    manifest = _manifest(args, cfg, network_widths=list(params.layer_widths))
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

    manifest = _manifest(args, interval=list(problem.domain))
    files = {"trajectory": ("trajectory.csv", _csv(header, np.hstack(columns)))}
    return _write_artifacts(args.out_dir, manifest, files, f"solved {args.problem} with "
                            f"{args.method}, {len(trajectory)} mesh points")


def _example1_schedules(h_list, regions) -> list[StepSchedule]:
    """example1's uniform schedule for each h, checked to end a mesh step in every region."""
    schedules = [StepSchedule.uniform(h) for h in h_list]
    for schedule in schedules:
        for region in regions:
            metrics.region_mask(schedule.mesh(*_EX1.domain)[1:], region)
    return schedules


def _train_then_evaluate(args, variants, evaluate):
    """Train an example1 corrector per variant (output key -> config overrides) after checking
    every config and h; returns evaluate's rows for each h, the model files and the first config."""
    cfgs = [_train_config({"problem": _EX1.name}, _given(args), extra)
            for extra in variants.values()]
    schedules = _example1_schedules(args.h_list, [_EX1_REGION])
    correctors = list(_train_each(cfgs, list(variants)))
    files = {key: (f"{key}.bin", mlp.save_model(c.params)) for key, c in zip(variants, correctors)}
    rows = [row for h, s in zip(args.h_list, schedules) for row in evaluate(h, s, correctors)]
    return rows, files, cfgs[0]


def cmd_table1(args) -> int:
    variants = {f"model_{m.corrected}": {"target": m.name} for m in (EULER, HEUN)}

    def evaluate(h, schedule, correctors):
        dem_corr, dhm_corr = correctors
        e_euler = metrics.max_abs_error(solve_fixed(_EX1, schedule, EULER.step), _EX1.exact)
        e_heun = metrics.max_abs_error(solve_fixed(_EX1, schedule, HEUN.step), _EX1.exact)
        e_dem = metrics.max_abs_error(dem.solve_dem(_EX1, dem_corr, schedule), _EX1.exact)
        e_dhm = metrics.max_abs_error(dem.solve_dhm(_EX1, dhm_corr, schedule), _EX1.exact)
        eps = metrics.eps_mean(dem_corr, _EX1, schedule, region=_EX1_REGION)
        return [(h, e_euler, e_heun, e_dem, e_dhm, eps, e_dem / e_euler)]

    rows, models, cfg = _train_then_evaluate(args, variants, evaluate)
    table = _csv(["h", "euler", "heun", "dem", "dhm", "eps_mean", "ratio_dem_euler"], rows)
    manifest = _manifest(args, cfg, eps_region=list(_EX1_REGION))
    return _write_artifacts(args.out_dir, manifest, {"table": ("table1.csv", table), **models},
                            f"table1 written to {Path(args.out_dir) / 'table1.csv'}")


def _parse_arch(spec: str) -> tuple[int, int]:
    try:
        layers, width = (int(v) for v in spec.lower().split("x"))
    except ValueError:
        raise ConfigError(f"archs: expected LAYERSxWIDTH, got {spec!r}") from None
    return layers, width


def cmd_table2(args) -> int:
    if args.num_seeds < 1:
        raise ConfigError(f"num_seeds: must be >= 1, got {args.num_seeds}")
    # Every spec, cell and h is checked before the first training, a cell at its first seed.
    archs = [(arch, *_parse_arch(arch)) for arch in args.archs]
    cells = [(arch, _train_config({"problem": _EX1.name, "points": points, "hidden_layers": layers,
                                   "hidden_width": width}, _given(args)))
             for points in args.points_list for arch, layers, width in archs]
    regions = [_EX1_REGION, (_EX1_REGION[1], _EX1.domain[1])]  # train, test
    (schedule,) = _example1_schedules([args.h], regions)

    runs = [({**cfg, "seed": cfg["seed"] + run, "dataset_seed": cfg["dataset_seed"] + run},
             f"cell points={cfg['points']} arch={arch} run={run}")
            for arch, cfg in cells for run in range(args.num_seeds)]
    trained = _train_each(*zip(*runs), keep_going=True)
    rows = []
    for arch, cfg in cells:
        eps = [[np.nan if c is None else metrics.eps_mean(c, _EX1, schedule, r) for r in regions]
               for c in [next(trained) for _ in range(args.num_seeds)]]
        rows.append((cfg["points"], cfg["hidden_layers"], cfg["hidden_width"],
                     *(float(np.mean(seeds)) for seeds in zip(*eps))))
        print(f"cell {len(rows)}/{len(cells)}: points={cfg['points']} arch={arch} "
              f"eps_train={rows[-1][3]:.6g} eps_test={rows[-1][4]:.6g}", file=sys.stderr)

    table = _csv(["points", "hidden_layers", "hidden_width", "eps_train", "eps_test"], rows)
    manifest = _manifest(args, cells[0][1])
    return _write_artifacts(args.out_dir, manifest, {"table": ("table2.csv", table)},
                            f"table2 written to {Path(args.out_dir) / 'table2.csv'}")


def cmd_table3(args) -> int:
    levels = {}  # model name -> noise level; two levels may not share a name
    for level in args.noise_levels:
        name = "model_noise_" + format(level + 0.0, "g").replace(".", "p")  # -0.0 names level 0
        if name in levels:
            raise ConfigError(f"noise_levels: {levels[name]} and {level} share model name {name}")
        levels[name] = level
    variants = {name: {"noise_level": level} for name, level in levels.items()}

    def evaluate(h, schedule, correctors):
        return [(h, level, metrics.eps_mean(corrector, _EX1, schedule, region=_EX1_REGION),
                 metrics.max_abs_error(dem.solve_dem(_EX1, corrector, schedule), _EX1.exact))
                for level, corrector in zip(args.noise_levels, correctors)]

    rows, models, cfg = _train_then_evaluate(args, variants, evaluate)
    manifest = _manifest(args, cfg)
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
    return _write_artifacts(args.out_dir, _manifest(args), {"table": ("convergence.csv", table)},
                            f"fitted order {estimate.order:.4g} (degenerate={estimate.degenerate})")


def cmd_stability(args) -> int:
    if args.clip_ln is not None:
        _unread_checkpoint(args.checkpoint, "with --clip-ln")
        if not 0.0 < args.clip_ln < np.inf:
            raise ConfigError(f"clip_ln: must be in (0, inf), got {args.clip_ln}")
        # The linear corrector N = c*y: one layer, whose Lipschitz bound is c.
        row = mlp.MlpParams((3, 1), (np.array([[0.0, 0.0, args.clip_ln]]),), (np.zeros(1),))
        corrector = dem.Corrector.network(row, EULER.exponent)
    elif args.checkpoint is not None:
        corrector = _network_corrector(EULER, args.checkpoint)
    else:
        corrector = dem.Corrector.zero(EULER.exponent)
    results = metrics.stability_scan(args.lam, corrector, args.h_grid, args.steps, args.bound)
    table = _csv(["h", "bounded"], results)
    return _write_artifacts(args.out_dir, _manifest(args), {"table": ("stability.csv", table)},
                            f"stability scan written to {Path(args.out_dir) / 'stability.csv'}")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# Options that several subcommands take, each declared once: dem train's keys
# (among them --problem, --points, --seed, --dataset-seed, --epochs) and these.
_OPTIONS = {
    **{_flag(key): spec for key, (_, spec) in _TRAIN_KEYS.items()},
    "--out-dir": {"default": "."},
    "--method": {"choices": list(_METHODS)},
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
        "--out-dir", "--seed", "--dataset-seed", "--epochs", "--points",
        ("--h-list", {"default": [0.01, 0.1, 1.0, 2.0]}),
    ]),
    "table2": ("architecture / data-size sweep", [
        "--out-dir", ("--archs", {"nargs": "+", "default": ["2x20", "4x40", "8x80", "16x160"]}),
        ("--points-list", {"type": int, "nargs": "+", "default": [10, 25, 50, 100, 200, 500]}),
        ("--num-seeds", {"type": int, "default": 10}), "--seed", "--epochs",
        ("--h", {"type": float, "default": 0.1}),
    ]),
    "table3": ("noise-level sweep", [
        "--out-dir",
        ("--noise-levels", {"type": float, "nargs": "+", "default": [0.0, 0.01, 0.05, 0.10]}),
        ("--h-list", {"default": [0.01, 0.1, 0.5, 1.0, 2.0]}), "--points", "--epochs", "--seed",
        "--dataset-seed",
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
                       "help": "use the linear corrector N = c*y, whose Lipschitz bound is c"}),
        "--checkpoint",
        ("--steps", {"type": int, "default": _default(metrics.stability_scan, "steps")}),
        ("--bound", {"type": float, "default": _default(metrics.stability_scan, "bound")}),
        "--out-dir",
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
    # MemoryError: a size too large to allocate. OverflowError: an integer too
    # large for a float or an index. All are configuration errors.
    except (DeepEulerError, ValueError, OSError, MemoryError, OverflowError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return err.exit_code if isinstance(err, DeepEulerError) else DeepEulerError.exit_code


if __name__ == "__main__":
    sys.exit(main())
