"""Command-line interface: artifacts, determinism, exit codes."""

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

from deep_euler import cli
from deep_euler.cli import main
from deep_euler.errors import DeepEulerError, NumericalError


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


TINY_TRAIN = ["--points", 25, "--epochs", 2, "--seed", 0]
ROOT = Path(__file__).resolve().parent.parent
CHECKPOINT = ROOT / "bench/data/ex1_dem.bin"


def count_trainings(monkeypatch):
    """Replace the training run with a recorder of the configs it is given."""
    trainings = []
    monkeypatch.setattr(cli, "_run_training", lambda cfg: trainings.append(cfg))
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
        manifest = json.loads((out / "manifest.json").read_text())
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
        manifest = json.loads((out / "manifest.json").read_text())
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
        config = json.loads((outs[1] / "manifest.json").read_text())["config"]
        assert config["min_gap"] == 1.0 and "pair_policy" not in config

    @pytest.mark.parametrize(
        "config",
        [{"problem": ["x"]}, {"problem": "example1", "interval": [0, "5"]},
         {"problem": "example1", "min_gap": float("nan")}, None, ["example1"]],
        ids=["problem_list", "interval_string", "min_gap_nan", "missing_file", "json_array"],
    )
    def test_malformed_config_value_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        if config is not None:  # None: the file does not exist
            cfg.write_text(json.dumps(config))
        assert run("train", "--config", cfg, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
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
        assert json.loads((outs[0] / "manifest.json").read_text())["config"]["seed"] == 0


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

    @pytest.mark.parametrize("bad", ["bogus", "2x0"])
    def test_table2_checks_archs_before_training(self, tmp_path, capsys, monkeypatch, bad):
        trainings = count_trainings(monkeypatch)
        assert run("table2", "--out-dir", tmp_path, "--archs", "2x8", bad,
                   "--points-list", 200, "--num-seeds", 3, "--epochs", 3) == 2
        assert trainings == []
        assert capsys.readouterr().err.startswith("error: archs: ")

    @pytest.mark.parametrize("points", [[10, 1], [0, 10], [10, 25, -3]])
    def test_table2_checks_points_before_training(self, tmp_path, capsys, monkeypatch, points):
        trainings = count_trainings(monkeypatch)
        assert run("table2", "--out-dir", tmp_path, "--archs", "2x8",
                   "--points-list", *points, "--num-seeds", 1, "--epochs", 1) == 2
        assert trainings == []
        assert capsys.readouterr().err.startswith("error: points_list: ")

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
            manifests.append(json.loads((out / "manifest.json").read_text()))
        assert [m["dataset_seed"] for m in manifests] == [0, 7]
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
        manifest = json.loads((out / "manifest.json").read_text())
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
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checkpoint"] == (None if checkpoint is None else str(checkpoint))
        assert manifest["corrector"] == ("zero" if checkpoint is None else "checkpoint")

    def test_clipped_linear_corrector_boundary(self, tmp_path):
        out = tmp_path / "stab"
        assert run("stability", "--lam", -5.0, "--clip-ln", 6.0,
                   "--h-grid", 0.8, 0.9, "--out-dir", out) == 0
        _, rows = read_csv(out / "stability.csv")
        assert rows[0, 1] == 1 and rows[1, 1] == 0


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


class TestArtifacts:
    """Every subcommand writes the same bytes on a repeat run, and its
    manifest's outputs name exactly the files it wrote."""

    @pytest.mark.parametrize("command", sorted(TINY_RUNS))
    def test_repeat_run_and_outputs_map(self, tmp_path, command):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(*TINY_RUNS[command], "--out-dir", out) == 0
            runs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert runs[0] == runs[1]
        outputs = json.loads(runs[0]["manifest.json"])["outputs"]
        assert sorted(outputs.values()) == sorted(set(runs[0]) - {"manifest.json"})


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
            ["stability", "--h-grid", 0.1, "--clip-ln", 1e308],
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
        ],
        ids=["h_zero", "h_longer_than_domain", "reversed_interval", "positive_lam",
             "missing_checkpoint", "two_h_values", "zero_seeds", "negative_steps",
             "zero_bound", "oracle_euler", "oracle_heun", "one_point", "negative_seed",
             "zero_h_in_list", "infinite_clip_ln", "nan_clip_ln", "clip_ln_row_overflows",
             "nan_min_gap", "checkpoint_unread_by_euler", "checkpoint_unread_by_heun",
             "checkpoint_unread_with_oracle", "checkpoint_unread_with_clip_ln",
             "infinite_h_grid_zero", "infinite_h_grid_checkpoint",
             "zero_h_before_checkpoint_shape", "long_h_before_checkpoint_shape",
             "tiny_h", "tiny_h_list", "infinite_lam"],
    )
    def test_exits_2(self, tmp_path, capsys, argv):
        argv = [str(a).format(missing=tmp_path / "missing.bin") for a in argv]
        assert run(*argv, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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
