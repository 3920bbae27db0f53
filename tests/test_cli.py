"""Command-line interface: artifacts, determinism, exit codes."""

import argparse
import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deep_euler import cli, dataset, metrics, mlp
from deep_euler.cli import main
from deep_euler.dem import Corrector
from deep_euler.errors import DeepEulerError, NumericalError
from deep_euler.ode import HEUN, get_problem


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def strict_json(text):
    """Parsed JSON that holds no NaN or Infinity."""
    return json.loads(text, parse_constant=refuse_constant)


def read_manifest(out_dir):
    return strict_json((out_dir / "manifest.json").read_text())


TINY_TRAIN = ["--points", 25, "--epochs", 2, "--seed", 0]
ROOT = Path(__file__).resolve().parent.parent
CHECKPOINT = ROOT / "bench/data/ex1_dem.bin"


def count_trainings(monkeypatch):
    """Replace the training run with a recorder of the configs it is given."""
    trainings = []
    monkeypatch.setattr(cli, "_run_training", lambda cfg: trainings.append(cfg))
    return trainings


def fail_training(monkeypatch, failing):
    """Let each training run and record its config, except that the ``failing``-th
    (counted from 1; 0 for none) raises a NumericalError."""
    real, trainings = cli._run_training, []

    def train_or_fail(cfg):
        trainings.append(cfg)
        if len(trainings) == failing:
            raise NumericalError("gradient contains NaN or infinity")
        return real(cfg)

    monkeypatch.setattr(cli, "_run_training", train_or_fail)
    return trainings


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_model")
    assert run("train", "--problem", "example1", "--out-dir", out, *TINY_TRAIN) == 0
    return out / "model.bin"


class TestTrain:
    def test_writes_model_loss_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--problem", "example1", "--out-dir", out, *TINY_TRAIN) == 0
        assert (out / "model.bin").exists()
        header, rows = read_csv(out / "loss.csv")
        assert header == ["epoch", "mean_loss"]
        assert len(rows) == 2
        manifest = read_manifest(out)
        assert manifest["command"] == "train"
        assert manifest["config"]["points"] == 25
        assert manifest["outputs"]["model"] == "model.bin"

    def test_repeat_run_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("train", "--problem", "example1", "--out-dir", out, *TINY_TRAIN) == 0
            outs.append(out)
        for artifact in ("model.bin", "loss.csv", "manifest.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "example1", "points": 25, "epochs": 1}))
        out = tmp_path / "run"
        assert run("train", "--config", cfg, "--out-dir", out, "--epochs", 2) == 0
        manifest = read_manifest(out)
        assert manifest["config"]["epochs"] == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "example1", "leraning_rate": 0.1}))
        assert run("train", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "leraning_rate" in capsys.readouterr().err

    def test_pair_policy_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "example1", "pair_policy": "min_gap"}))
        assert run("train", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "pair_policy: unknown configuration key" in capsys.readouterr().err

    def test_min_gap_alone_filters_the_pairs(self, tmp_path):
        outs = [tmp_path / "all", tmp_path / "gap"]
        for out, gap in zip(outs, (0.0, 1.0)):
            assert run("train", "--problem", "example1", "--min-gap", gap, "--out-dir", out,
                       *TINY_TRAIN) == 0
        assert (outs[0] / "model.bin").read_bytes() != (outs[1] / "model.bin").read_bytes()
        config = read_manifest(outs[1])["config"]
        assert config["min_gap"] == 1.0 and "pair_policy" not in config

    @pytest.mark.parametrize(
        "config",
        [{"problem": ["x"]}, {"problem": "example1", "interval": [0, "5"]},
         {"problem": "example1", "min_gap": float("nan")}, None, ["example1"],
         {"problem": "example1", "points": 3, "epochs": 1, "clip_bound": float("inf")},
         {"problem": "example1", "learning_rate": 10**309}],
        ids=["problem_list", "interval_string", "min_gap_nan", "missing_file", "json_array",
             "clip_bound_infinity", "learning_rate_past_float"],
    )
    def test_malformed_config_value_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        if config is not None:  # None: the file does not exist
            cfg.write_text(json.dumps(config))  # NaN and Infinity as Python's json writes them
        assert run("train", "--config", cfg, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        if not isinstance(config, dict):
            assert err.startswith(f"error: config file {cfg}: ")

    def test_zero_epochs_exits_2(self, tmp_path):
        assert (
            run("train", "--problem", "example1", "--out-dir", tmp_path,
                "--points", 25, "--epochs", 0)
            == 2
        )

    def test_non_finite_pair_targets_exit_2(self, tmp_path, capsys):
        # Measurements about 1e-301 apart: each target divides by dx^2 = 0.
        out = tmp_path / "out"
        assert run("train", "--problem", "example1", "--points", 3, "--epochs", 1,
                   "--interval", 0, 1e-300, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: min_gap: the euler target of a pair \S+ apart "
                            r"is not finite\n", err)
        assert not out.exists()

    def test_environment_does_not_change_the_bytes(self, tmp_path, monkeypatch):
        # A run's settings come from its flags and its config file only.
        outs = [tmp_path / "with_env", tmp_path / "without_env"]
        train = ["train", "--problem", "example1", "--points", 25, "--epochs", 2, "--out-dir"]
        monkeypatch.setenv("DEM_SEED", "99")
        assert run(*train, outs[0]) == 0
        monkeypatch.delenv("DEM_SEED")
        assert run(*train, outs[1]) == 0
        for name in ("model.bin", "loss.csv", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        assert read_manifest(outs[0])["config"]["seed"] == 0

    def test_heun_target_trains_on_heun_pairs(self, tmp_path):
        models = {}
        for target in ("euler", "heun"):
            out = tmp_path / target
            assert run("train", "--problem", "example1", "--points", 20, "--epochs", 1,
                       "--hidden-layers", 2, "--hidden-width", 8, "--target", target,
                       "--out-dir", out) == 0
            models[target] = (out / "model.bin").read_bytes()
        problem = get_problem("example1")
        measurements = dataset.sample_measurements(problem, (0.0, 5.0), 20, dataset.NoiseSpec(), 0)
        pairs = dataset.build_pairs(problem, measurements, dataset.PairPolicy(), HEUN)
        params, _ = mlp.train(*pairs, [3, 8, 8, 1], mlp.TrainConfig(epochs=1, seed=0))
        assert models["heun"] == mlp.save_model(params)
        assert models["heun"] != models["euler"]


def test_every_training_flag_defaults_to_none():
    # A training flag left out is filled in by _train_config, in every subcommand.
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    defaults = {(name, action.dest): action.default for name, parser in commands.items()
                for action in parser._actions if action.dest in cli._TRAIN_KEYS}
    assert {("table2", "epochs"), ("table3", "points"), ("table1", "seed")} <= set(defaults)
    assert {key: value for key, value in defaults.items() if value is not None} == {}


class TestSolve:
    def test_euler_needs_no_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        assert run("solve", "--problem", "example1", "--method", "euler",
                   "--h", 2.0, "--out-dir", out) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["x", "y_1", "exact_1"]
        assert len(rows) == 6
        assert np.allclose(rows[:, 0], [0, 2, 4, 6, 8, 10])

    def test_dem_writes_network_gap_column(self, tmp_path, tiny_model):
        out = tmp_path / "run"
        assert run("solve", "--problem", "example1", "--method", "dem",
                   "--h", 2.0, "--checkpoint", tiny_model, "--out-dir", out) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["x", "y_1", "exact_1", "n_minus_r"]
        assert np.all(np.isfinite(rows[:-1, 3]))
        assert np.isnan(rows[-1, 3])

    def test_restricted_interval_starts_from_truth(self, tmp_path):
        out = tmp_path / "run"
        assert run("solve", "--problem", "kepler", "--method", "euler", "--h", 1.0,
                   "--interval", 15.0, 20.0, "--out-dir", out) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert rows[0, 0] == 15.0 and rows[-1, 0] == 20.0
        assert rows[0, 1] == pytest.approx(np.cos(15.0), abs=1e-12)

    def test_repeat_solve_is_byte_identical(self, tmp_path, tiny_model):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("solve", "--problem", "example1", "--method", "dem", "--h", 1.0,
                       "--checkpoint", tiny_model, "--out-dir", out) == 0
            outs.append(out / "trajectory.csv")
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_benchmark_trajectory_matches_its_golden_hash(self, tmp_path):
        golden = json.loads((ROOT / "bench/golden.json").read_text())["solve_eval"]
        assert run("solve", "--problem", "example1", "--method", "dem", "--h", 1.0,
                   "--checkpoint", CHECKPOINT, "--out-dir", tmp_path) == 0
        digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest()
        assert digest == golden["trajectory_sha256"]

    def test_dimension_mismatch_exits_3(self, tmp_path, tiny_model):
        assert run("solve", "--problem", "kepler", "--method", "dem", "--h", 1.0,
                   "--checkpoint", tiny_model, "--out-dir", tmp_path) == 3

    def test_dimension_mismatch_dhm_exits_3(self, tmp_path, tiny_model):
        assert run("solve", "--problem", "kepler", "--method", "dhm", "--h", 1.0,
                   "--checkpoint", tiny_model, "--out-dir", tmp_path) == 3

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert run("solve", "--problem", "example1", "--method", "dem",
                   "--h", 1.0, "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("corrupt, message", [
        (lambda blob: b"XXXX" + blob[4:], "bad magic b'XXXX'"),
        (lambda blob: blob[:-8], "payload holds"),
        (lambda blob: struct.pack("<4sII3I", b"FCN1", 1, 3, 3, 0, 1) + bytes(8),
         "invalid layer widths (3, 0, 1)"),
        (lambda blob: blob[:-8] + np.array([np.nan], dtype="<f8").tobytes(),
         "layer 8: non-finite parameters"),
    ], ids=["bad_magic", "truncated", "zero_width", "non_finite_payload"])
    def test_corrupt_checkpoint_exits_2_naming_the_key(self, tmp_path, capsys, corrupt, message):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(corrupt(CHECKPOINT.read_bytes()))
        assert run("solve", "--problem", "example1", "--method", "dem", "--h", 1.0,
                   "--checkpoint", bad, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_numerical_blowup_exits_4(self, tmp_path):
        # Euler at this step diverges to overflow on the predator-prey system.
        assert run("solve", "--problem", "lotka_volterra", "--method", "euler",
                   "--h", 0.5, "--out-dir", tmp_path) == 4


class TestTables:
    def test_table1_shape_and_ratio_identity(self, tmp_path):
        out = tmp_path / "t1"
        assert run("table1", "--out-dir", out, "--points", 25, "--epochs", 2,
                   "--h-list", 0.1, 1.0) == 0
        header, rows = read_csv(out / "table1.csv")
        assert header == ["h", "euler", "heun", "dem", "dhm", "eps_mean", "ratio_dem_euler"]
        assert len(rows) == 2
        assert np.allclose(rows[:, 6], rows[:, 3] / rows[:, 1], rtol=1e-12)
        assert (out / "model_dem.bin").exists() and (out / "model_dhm.bin").exists()

    def test_table2_grid_and_seed_averaging(self, tmp_path, capsys):
        out = tmp_path / "t2"
        assert run("table2", "--out-dir", out, "--archs", "2x8", "--points-list", 10, 25,
                   "--num-seeds", 2, "--epochs", 1) == 0
        header, rows = read_csv(out / "table2.csv")
        assert header == ["points", "hidden_layers", "hidden_width", "eps_train", "eps_test"]
        assert len(rows) == 2
        assert np.all(rows[:, 3] > 0) and np.all(rows[:, 4] > 0)
        # One progress line per finished cell, on stderr only.
        captured = capsys.readouterr()
        assert "cell " not in captured.out
        cells = [line for line in captured.err.splitlines() if line.startswith("cell ")]
        assert cells == [
            f"cell {i + 1}/2: points={int(row[0])} arch=2x8 "
            f"eps_train={row[3]:.6g} eps_test={row[4]:.6g}"
            for i, row in enumerate(rows)
        ]

    def test_table2_failed_run_warns_and_writes_nan(self, tmp_path, capsys, monkeypatch):
        real = cli._run_training

        def second_seed_fails(cfg):
            if cfg["seed"] == 1:
                raise NumericalError("gradient contains NaN or infinity")
            return real(cfg)

        monkeypatch.setattr(cli, "_run_training", second_seed_fails)
        out = tmp_path / "t2"
        assert run("table2", "--out-dir", out, "--archs", "2x8", "--points-list", 10,
                   "--num-seeds", 2, "--epochs", 1) == 0
        _, rows = read_csv(out / "table2.csv")
        assert len(rows) == 1 and np.isnan(rows[0, 3]) and np.isnan(rows[0, 4])
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: ")]
        assert warnings == ["warning: cell points=10 arch=2x8 run=1 failed: "
                            "gradient contains NaN or infinity"]

    @pytest.mark.parametrize("command, first", [("table1", "model_dem"),
                                                ("table3", "model_noise_0")])
    def test_numerical_error_ends_the_table(self, tmp_path, capsys, monkeypatch, command, first):
        trainings = fail_training(monkeypatch, 2)
        out = tmp_path / command
        assert run(*TINY_RUNS[command], "--out-dir", out) == 4
        assert len(trainings) == 2 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"training 1/2 done: {first}",
                                             "error: gradient contains NaN or infinity"]

    @pytest.mark.parametrize("command, labels, key, values", [
        ("table1", ["model_dem", "model_dhm"], "target", ["euler", "heun"]),
        ("table2", [f"cell points={p} arch=2x8 run={r}" for p in (10, 25) for r in (0, 1)],
         "seed", [0, 1, 0, 1]),
        ("table3", ["model_noise_0", "model_noise_0p05"], "noise_level", [0.0, 0.05]),
    ], ids=["table1", "table2", "table3"])
    def test_one_progress_line_per_training(self, tmp_path, capsys, monkeypatch,
                                            command, labels, key, values):
        # table2 keeps going past a failed training (its second), which gets a line too.
        trainings = fail_training(monkeypatch, 2 if command == "table2" else 0)
        out = tmp_path / command
        assert run(*TINY_RUNS[command], "--out-dir", out) == 0
        assert [cfg[key] for cfg in trainings] == values
        captured = capsys.readouterr()
        assert captured.out == f"{command} written to {out / (command + '.csv')}\n"
        done = [f"training {i}/{len(labels)} done: {label}" for i, label in enumerate(labels, 1)]
        if command == "table2":
            _, rows = read_csv(out / "table2.csv")
            assert np.isnan(rows[0, 3:]).all() and np.isfinite(rows[1, 3:]).all()
            cells = [f"cell {i + 1}/2: points={int(row[0])} arch=2x8 "
                     f"eps_train={row[3]:.6g} eps_test={row[4]:.6g}" for i, row in enumerate(rows)]
            warning = f"warning: {labels[1]} failed: gradient contains NaN or infinity"
            done = [done[0], warning, done[1], cells[0], done[2], done[3], cells[1]]
        assert captured.err.splitlines() == done

    @pytest.mark.parametrize("bad, key", [("bogus", "archs"), ("2x0", "hidden_width")],
                             ids=["bogus", "2x0"])
    def test_table2_checks_archs_before_training(self, tmp_path, capsys, monkeypatch, bad, key):
        trainings = count_trainings(monkeypatch)
        assert run("table2", "--out-dir", tmp_path, "--archs", "2x8", bad,
                   "--points-list", 200, "--num-seeds", 3, "--epochs", 3) == 2
        assert trainings == []
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    @pytest.mark.parametrize("points", [[10, 1], [0, 10], [10, 25, -3]])
    def test_table2_checks_points_before_training(self, tmp_path, capsys, monkeypatch, points):
        trainings = count_trainings(monkeypatch)
        assert run("table2", "--out-dir", tmp_path, "--archs", "2x8",
                   "--points-list", *points, "--num-seeds", 1, "--epochs", 1) == 2
        assert trainings == []
        assert capsys.readouterr().err.startswith("error: points: ")

    @pytest.mark.parametrize(
        "argv, error",
        [(["--points-list", 10, 1], "points: must be >= 2, got 1"),
         (["--archs", "2x8", "2x0"], "hidden_width: must be >= 1, got 0"),
         (["--epochs", 0], "epochs: must be >= 1, got 0"),
         (["--seed", -1], "seed: must be >= 0, got -1")],
        ids=["one_point", "zero_width", "zero_epochs", "negative_seed"],
    )
    def test_table2_checks_training_settings_before_training(self, tmp_path, capsys,
                                                              monkeypatch, argv, error):
        # argparse keeps an option's last value, so each case's flags replace the valid ones.
        trainings = count_trainings(monkeypatch)
        out = tmp_path / "t2"
        assert run("table2", "--out-dir", out, "--archs", "2x8", "--points-list", 10,
                   "--num-seeds", 2, "--epochs", 1, *argv) == 2
        assert trainings == [] and not out.exists()
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("h_list", [[0.1, 20], [0.1, 6], [0.5, -1], [1e-320]])
    def test_table1_checks_h_before_training(self, tmp_path, capsys, monkeypatch, h_list):
        trainings = count_trainings(monkeypatch)
        assert run("table1", "--out-dir", tmp_path, "--points", 10, "--epochs", 1,
                   "--h-list", *h_list) == 2
        assert trainings == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["--noise-levels", 0, 1.5], ["--noise-levels", 0, "--h-list", 0.5, -1],
         ["--noise-levels", 0, "--points", 1], ["--noise-levels", 0, "--seed", -1],
         ["--noise-levels", 0.0100001, 0.01000012], ["--noise-levels", 0.05, 0, 0.05],
         ["--noise-levels", 0, "--h-list", 1e-320], ["--noise-levels", 0, -0.0]],
        ids=["noise_level", "negative_h", "one_point", "negative_seed", "shared_model_name",
             "repeated_level", "tiny_h", "negative_zero_level"],
    )
    def test_table3_checks_arguments_before_training(self, tmp_path, capsys, monkeypatch, argv):
        trainings = count_trainings(monkeypatch)
        assert run("table3", "--out-dir", tmp_path, "--points", 10, "--epochs", 1, *argv) == 2
        assert trainings == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("h", [20, 6])
    def test_table2_checks_h_before_training(self, tmp_path, capsys, monkeypatch, h):
        trainings = count_trainings(monkeypatch)
        assert run("table2", "--out-dir", tmp_path, "--archs", "2x8", "--points-list", 10,
                   "--num-seeds", 1, "--epochs", 1, "--h", h) == 2
        assert trainings == []
        assert capsys.readouterr().err.startswith("error: ")

    def test_table3_manifest_records_dataset_seed(self, tmp_path):
        manifests = []
        for name, extra in (("default", []), ("seven", ["--dataset-seed", 7])):
            out = tmp_path / name
            assert run("table3", "--out-dir", out, "--noise-levels", 0.0, "--h-list", 1.0,
                       "--points", 10, "--epochs", 1, *extra) == 0
            manifests.append(read_manifest(out))
        assert [m["config"]["dataset_seed"] for m in manifests] == [0, 7]
        assert manifests[0]["outputs"]["model_noise_0"] == "model_noise_0.bin"

    def test_table3_noise_grid(self, tmp_path):
        out = tmp_path / "t3"
        assert run("table3", "--out-dir", out, "--noise-levels", 0.0, 0.05,
                   "--h-list", 0.5, "--points", 25, "--epochs", 1) == 0
        header, rows = read_csv(out / "table3.csv")
        assert header == ["h", "delta", "eps_mean", "e_dem"]
        assert len(rows) == 2
        assert set(rows[:, 1]) == {0.0, 0.05}


class TestConvergenceCommand:
    def test_euler_order_close_to_one(self, tmp_path):
        out = tmp_path / "conv"
        assert run("convergence", "--problem", "example1", "--method", "euler",
                   "--h-list", 0.1, 0.05, 0.025, "--out-dir", out) == 0
        header, rows = read_csv(out / "convergence.csv")
        assert header == ["h", "max_error", "fitted_order", "degenerate"]
        assert rows[0, 2] == pytest.approx(1.0, abs=0.15)
        assert np.all(rows[:, 3] == 0)

    def test_oracle_dem_is_degenerate(self, tmp_path):
        out = tmp_path / "conv"
        assert run("convergence", "--problem", "example1", "--method", "dem", "--oracle",
                   "--h-list", 0.1, 0.05, 0.025, "--out-dir", out) == 0
        _, rows = read_csv(out / "convergence.csv")
        assert np.all(rows[:, 3] == 1)

    @pytest.mark.parametrize("checkpoint", [None, CHECKPOINT], ids=["none", "checkpoint"])
    def test_manifest_records_checkpoint(self, tmp_path, checkpoint):
        out = tmp_path / "conv"
        method = "euler" if checkpoint is None else "dem"
        extra = [] if checkpoint is None else ["--checkpoint", checkpoint]
        assert run("convergence", "--problem", "example1", "--method", method,
                   "--h-list", 0.4, 0.2, 0.1, "--out-dir", out, *extra) == 0
        manifest = read_manifest(out)
        assert manifest["checkpoint"] == (None if checkpoint is None else str(checkpoint))


class TestStabilityCommand:
    def test_zero_corrector_flip(self, tmp_path):
        out = tmp_path / "stab"
        assert run("stability", "--lam", -5.0, "--h-grid", 0.4, 0.5, "--out-dir", out) == 0
        _, rows = read_csv(out / "stability.csv")
        assert rows[0, 1] == 1 and rows[1, 1] == 0

    @pytest.mark.parametrize("checkpoint", [None, CHECKPOINT], ids=["zero", "checkpoint"])
    def test_manifest_records_checkpoint(self, tmp_path, checkpoint):
        out = tmp_path / "stab"
        extra = [] if checkpoint is None else ["--checkpoint", checkpoint]
        assert run("stability", "--h-grid", 0.3, "--out-dir", out, *extra) == 0
        manifest = read_manifest(out)
        assert manifest["checkpoint"] == (None if checkpoint is None else str(checkpoint))
        assert manifest["clip_ln"] is None and "corrector" not in manifest

    def test_clipped_linear_corrector_boundary(self, tmp_path):
        out = tmp_path / "stab"
        assert run("stability", "--lam", -5.0, "--clip-ln", 6.0,
                   "--h-grid", 0.8, 0.9, "--out-dir", out) == 0
        _, rows = read_csv(out / "stability.csv")
        assert rows[0, 1] == 1 and rows[1, 1] == 0

    @pytest.mark.parametrize("clip_ln", [6.0, 1.0, 1e-301, 5e-324, 8.98e307])
    def test_clip_ln_is_the_clipped_row(self, tmp_path, clip_ln):
        # N = c*y flags each h as a row of twice the bound clipped back to it does.
        out, grid = tmp_path / "stab", [0.1, 0.5, 1.0]
        assert run("stability", "--clip-ln", clip_ln, "--h-grid", *grid, "--out-dir", out) == 0
        raw = mlp.MlpParams((3, 1), (np.array([[0.0, 0.0, 2.0 * clip_ln]]),), (np.zeros(1),))
        corrector = Corrector.network(mlp.clip_weights(raw, clip_ln), 2)
        expected = metrics.stability_scan(-5.0, corrector, grid)
        assert (out / "stability.csv").read_bytes() == cli._csv(["h", "bounded"], expected)

    def test_largest_clip_ln_is_unbounded(self, tmp_path):
        # c = 1e308 is in range; one step of h = 0.1 already overflows the state.
        out = tmp_path / "stab"
        assert run("stability", "--clip-ln", 1e308, "--h-grid", 0.1, "--out-dir", out) == 0
        _, rows = read_csv(out / "stability.csv")
        assert rows.tolist() == [[0.1, 0.0]]
        row = mlp.MlpParams((3, 1), (np.array([[0.0, 0.0, 1e308]]),), (np.zeros(1),))
        assert metrics.stability_scan(-5.0, Corrector.network(row, 2), [0.1]) == [(0.1, False)]

    @pytest.mark.parametrize("clip_ln", ["0", "-1", "nan", "inf"])
    def test_clip_ln_out_of_range_exits_2(self, tmp_path, capsys, clip_ln):
        out = tmp_path / "stab"
        assert run("stability", "--h-grid", 0.1, f"--clip-ln={clip_ln}", "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: clip_ln: must be in (0, inf), got {float(clip_ln)}\n"
        assert not out.exists()


# One tiny run of each subcommand.
TINY_RUNS = {
    "train": ["train", "--problem", "example1", "--points", 25, "--epochs", 1,
              "--hidden-layers", 2, "--hidden-width", 8],
    "solve": ["solve", "--problem", "example1", "--method", "dem", "--h", 1.0,
              "--checkpoint", CHECKPOINT],
    "table1": ["table1", "--points", 25, "--epochs", 1, "--h-list", 0.5, 1.0],
    "table2": ["table2", "--archs", "2x8", "--points-list", 10, 25, "--num-seeds", 2,
               "--epochs", 1],
    "table3": ["table3", "--noise-levels", 0.0, 0.05, "--h-list", 0.5, 1.0, "--points", 25,
               "--epochs", 1],
    "convergence": ["convergence", "--problem", "example1", "--method", "dem", "--oracle",
                    "--h-list", 0.4, 0.2, 0.1],
    "stability": ["stability", "--h-grid", 0.3, 0.5, 0.9, "--checkpoint", CHECKPOINT],
}
# TINY_RUNS and three runs whose manifests once fell short of replaying them: one
# recorded --clip-ln only in its corrector label, one a seed no option reads, and one
# a config file's JSON integer for a float key.
CONFIG_FILE = "{config}"  # replaced by a file holding REPLAY_CONFIG
REPLAY_CONFIG = {"problem": "example1", "points": 25, "epochs": 1, "hidden_layers": 2,
                 "hidden_width": 8, "min_gap": 0, "clip_bound": 2}
REPLAY_RUNS = {
    **TINY_RUNS,
    "stability_clip_ln": ["stability", "--clip-ln", 6, "--h-grid", 0.8, 0.9],
    "table2_seed": ["table2", "--archs", "2x8", "--points-list", 10, "--num-seeds", 1,
                    "--epochs", 1, "--seed", 4],
    "train_config_file": ["train", "--config", CONFIG_FILE],
}


def replay_argv(manifest: dict) -> list:
    """The argv a manifest records: its command, then every option its subcommand declares
    except --config and --out-dir, a training option's value read from ``config``."""
    recorded = {**manifest, **manifest.get("config", {})}
    argv = [manifest["command"]]
    for option in cli._COMMANDS[manifest["command"]][1]:
        flag = option if isinstance(option, str) else option[0]
        if flag in ("--config", "--out-dir"):
            continue
        value = recorded[flag[2:].replace("-", "_")]
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *value]
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")  # argparse reads "--lam -1e-05" as a missing value
    return argv


def files_in(out_dir) -> dict:
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


class TestArtifacts:
    """Every subcommand writes the same bytes on a repeat run of the options its
    manifest records, and its manifest's outputs name exactly the files it wrote."""

    @pytest.mark.parametrize("name", sorted(REPLAY_RUNS))
    def test_repeat_run_and_outputs_map(self, tmp_path, name):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(REPLAY_CONFIG))
        argv = [config if arg == CONFIG_FILE else arg for arg in REPLAY_RUNS[name]]
        assert run(*argv, "--out-dir", tmp_path / "a") == 0
        assert run(*replay_argv(read_manifest(tmp_path / "a")), "--out-dir", tmp_path / "b") == 0
        files = files_in(tmp_path / "a")
        assert files_in(tmp_path / "b") == files
        outputs = strict_json(files["manifest.json"])["outputs"]
        assert sorted(outputs.values()) == sorted(set(files) - {"manifest.json"})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_manifest_value_is_refused_before_any_write(self, tmp_path, value):
        files = {"table": ("table.csv", b"h\n")}
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_artifacts(tmp_path / "out", {"bound": value}, files, "written")
        assert not (tmp_path / "out").exists()


class TestRejectedArguments:
    """Values argparse accepts but the library rejects exit 2 with one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "example1", "--method", "euler", "--h", 0],
            ["solve", "--problem", "example1", "--method", "euler", "--h", 20],
            ["solve", "--problem", "example1", "--method", "euler", "--h", 1,
             "--interval", 5, 3],
            ["stability", "--lam", 5, "--h-grid", 0.1, 0.2],
            ["stability", "--lam", -5, "--h-grid", 0.1, "--checkpoint", "{missing}"],
            ["convergence", "--problem", "example1", "--method", "euler",
             "--h-list", 0.1, 0.05],
            ["table2", "--num-seeds", 0, "--archs", "2x8", "--points-list", 10,
             "--epochs", 1],
            ["stability", "--h-grid", 0.1, "--steps", -3],
            ["stability", "--h-grid", 0.1, "--bound", 0],
            ["convergence", "--problem", "example1", "--method", "euler", "--oracle",
             "--h-list", 0.1, 0.05, 0.025],
            ["convergence", "--problem", "example1", "--method", "heun", "--oracle",
             "--h-list", 0.1, 0.05, 0.025],
            ["train", "--problem", "example1", "--points", 1, "--epochs", 1],
            ["train", "--problem", "example1", "--points", 10, "--epochs", 1, "--seed", -1],
            ["convergence", "--problem", "example1", "--method", "euler",
             "--h-list", 0.4, 0, 0.1],
            ["stability", "--h-grid", 0.1, "--clip-ln", "inf"],
            ["stability", "--h-grid", 0.1, "--clip-ln", "nan"],
            ["train", "--problem", "example1", "--points", 10, "--epochs", 1,
             "--min-gap", "nan"],
            ["solve", "--problem", "example1", "--method", "euler", "--h", 1,
             "--checkpoint", "{missing}"],
            ["convergence", "--problem", "example1", "--method", "heun",
             "--h-list", 0.4, 0.2, 0.1, "--checkpoint", CHECKPOINT],
            ["convergence", "--problem", "example1", "--method", "dem", "--oracle",
             "--h-list", 0.4, 0.2, 0.1, "--checkpoint", "{missing}"],
            ["stability", "--h-grid", 0.9, 0.5, 0.1, "--clip-ln", 1.0,
             "--checkpoint", "{missing}"],
            ["stability", "--h-grid", 0.1, "inf"],
            ["stability", "--h-grid", 0.1, "inf", "--checkpoint", CHECKPOINT],
            ["convergence", "--problem", "kepler", "--method", "dhm",
             "--h-list", 0, 0.2, 0.1, "--checkpoint", CHECKPOINT],
            ["solve", "--problem", "lotka_volterra", "--method", "dhm", "--h", 6,
             "--interval", 0, 5, "--checkpoint", CHECKPOINT],
            ["solve", "--problem", "example1", "--method", "euler", "--h", 1e-320],
            ["convergence", "--problem", "example1", "--method", "euler",
             "--h-list", 4e-320, 2e-320, 1e-320],
            # argparse reads a bare -inf as an option, so the value is joined to its flag.
            ["stability", "--lam=-inf", "--h-grid", 0.1, 0.2],
            ["stability", "--h-grid", 0.1, "--bound", "inf"],
            ["train", "--problem", "example1", "--points", 3, "--epochs", 1,
             "--clip-bound", "inf"],
            ["train", "--problem", "example1", "--points", 10, "--epochs", 1,
             "--hidden-layers=10000000000000000000"],
            ["table2", "--archs", "10000000000000000000x8", "--points-list", 10,
             "--num-seeds", 1, "--epochs", 1],
        ],
        ids=["h_zero", "h_longer_than_domain", "reversed_interval", "positive_lam",
             "missing_checkpoint", "two_h_values", "zero_seeds", "negative_steps",
             "zero_bound", "oracle_euler", "oracle_heun", "one_point", "negative_seed",
             "zero_h_in_list", "infinite_clip_ln", "nan_clip_ln",
             "nan_min_gap", "checkpoint_unread_by_euler", "checkpoint_unread_by_heun",
             "checkpoint_unread_with_oracle", "checkpoint_unread_with_clip_ln",
             "infinite_h_grid_zero", "infinite_h_grid_checkpoint",
             "zero_h_before_checkpoint_shape", "long_h_before_checkpoint_shape",
             "tiny_h", "tiny_h_list", "infinite_lam", "infinite_bound", "infinite_clip_bound",
             "hidden_layers_past_index", "arch_layers_past_index"],
    )
    def test_exits_2(self, tmp_path, capsys, argv):
        argv = [str(a).format(missing=tmp_path / "missing.bin") for a in argv]
        assert run(*argv, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, h",
        [
            (["solve", "--problem", "example1", "--method", "euler", "--h", 1e-300], 1e-300),
            (["solve", "--problem", "example1", "--method", "euler", "--h", 2.2e-18], 2.2e-18),
            (["convergence", "--problem", "example1", "--method", "euler",
              "--h-list", 4e-300, 2e-300, 1e-300], 4e-300),
            (["table1", "--points", 10, "--epochs", 1, "--h-list", 0.1, 1e-300], 1e-300),
        ],
        ids=["solve", "solve_2.2e-18", "convergence", "table1"],
    )
    def test_too_many_steps_names_the_step(self, tmp_path, capsys, monkeypatch, argv, h):
        # The step count is finite but more than an array can hold.
        trainings = count_trainings(monkeypatch)
        assert run(*argv, "--out-dir", tmp_path / "out") == 2
        assert trainings == []
        assert capsys.readouterr().err == f"error: step {h} is too small for interval length 10.0\n"
        assert not (tmp_path / "out").exists()


def error_classes(cls=DeepEulerError):
    for sub in cls.__subclasses__():
        yield sub
        yield from error_classes(sub)


class TestExitCodes:
    """Every toolkit error leaves main() as its class's exit code and one error line."""

    @pytest.mark.parametrize("error", sorted(error_classes(), key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_error_exits_with_its_code(self, tmp_path, capsys, monkeypatch, error):
        def fail(args):
            raise error(0.5)

        monkeypatch.setattr(cli, "cmd_stability", fail)
        assert error.exit_code in (2, 3, 4)
        assert run("stability", "--h-grid", 0.1, "--out-dir", tmp_path) == error.exit_code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("message", ["Unable to allocate 745. GiB", ""], ids=["numpy", "bare"])
    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch, message):
        def fail(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "_run_training", fail)
        assert run("train", "--problem", "example1", "--out-dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message or 'MemoryError'}\n"
        assert not (tmp_path / "manifest.json").exists()


# Python ints within float64's exact range, bools and any float64.
CSV_VALUES = st.one_of(st.integers(-(2**53) + 1, 2**53 - 1), st.booleans(), st.floats())
CSV_TABLES = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.tuples(*[CSV_VALUES] * width), max_size=5).map(
        lambda rows: ([f"c{i}" for i in range(width)], rows)))


@settings(max_examples=300, deadline=None)
@given(table=CSV_TABLES)
def test_csv_round_trips_every_value(table):
    header, rows = table
    lines = cli._csv(header, rows).decode().split("\n")
    assert lines[0] == ",".join(header) and lines[-1] == ""  # a trailing newline
    assert len(lines) == len(rows) + 2
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert len(fields) == len(row)
        for field, value in zip(fields, row):
            if isinstance(value, float):
                parsed = float(field)
                assert (math.isnan(parsed) and math.isnan(value)) or (
                    np.float64(parsed).tobytes() == np.float64(value).tobytes())
            else:
                assert field == str(int(value))  # no decimal point, no exponent
