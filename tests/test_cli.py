"""Command-line interface: artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest

from deep_euler.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


TINY_TRAIN = ["--points", 25, "--epochs", 2, "--seed", 0]


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

    def test_zero_epochs_exits_2(self, tmp_path):
        assert (
            run("train", "--problem", "example1", "--out-dir", tmp_path,
                "--points", 25, "--epochs", 0)
            == 2
        )

    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run("train", "--problem", "example1", "--out-dir", out_a, *TINY_TRAIN)
        monkeypatch.setenv("DEM_SEED", "99")
        run("train", "--problem", "example1", "--out-dir", out_b,
            "--points", 25, "--epochs", 2)
        run("train", "--problem", "example1", "--out-dir", out_c,
            "--points", 25, "--epochs", 2)
        assert (out_a / "model.bin").read_bytes() != (out_b / "model.bin").read_bytes()
        assert (out_b / "model.bin").read_bytes() == (out_c / "model.bin").read_bytes()
        assert json.loads((out_b / "manifest.json").read_text())["config"]["seed"] == 99


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

    def test_dimension_mismatch_exits_3(self, tmp_path, tiny_model):
        assert run("solve", "--problem", "kepler", "--method", "dem", "--h", 1.0,
                   "--checkpoint", tiny_model, "--out-dir", tmp_path) == 3

    def test_dimension_mismatch_dhm_exits_3(self, tmp_path, tiny_model):
        assert run("solve", "--problem", "kepler", "--method", "dhm", "--h", 1.0,
                   "--checkpoint", tiny_model, "--out-dir", tmp_path) == 3

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert run("solve", "--problem", "example1", "--method", "dem",
                   "--h", 1.0, "--out-dir", tmp_path) == 2

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

    def test_table2_grid_and_seed_averaging(self, tmp_path):
        out = tmp_path / "t2"
        assert run("table2", "--out-dir", out, "--archs", "2x8", "--points-list", 10, 25,
                   "--num-seeds", 2, "--epochs", 1) == 0
        header, rows = read_csv(out / "table2.csv")
        assert header == ["points", "hidden_layers", "hidden_width", "eps_train", "eps_test"]
        assert len(rows) == 2
        assert np.all(rows[:, 3] > 0) and np.all(rows[:, 4] > 0)

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


class TestStabilityCommand:
    def test_zero_corrector_flip(self, tmp_path):
        out = tmp_path / "stab"
        assert run("stability", "--lam", -5.0, "--h-grid", 0.4, 0.5, "--out-dir", out) == 0
        _, rows = read_csv(out / "stability.csv")
        assert rows[0, 1] == 1 and rows[1, 1] == 0

    def test_clipped_linear_corrector_boundary(self, tmp_path):
        out = tmp_path / "stab"
        assert run("stability", "--lam", -5.0, "--clip-ln", 6.0,
                   "--h-grid", 0.8, 0.9, "--out-dir", out) == 0
        _, rows = read_csv(out / "stability.csv")
        assert rows[0, 1] == 1 and rows[1, 1] == 0


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
        ],
        ids=["h_zero", "h_longer_than_domain", "reversed_interval", "positive_lam",
             "missing_checkpoint", "two_h_values"],
    )
    def test_exits_2(self, tmp_path, capsys, argv):
        argv = [str(a).format(missing=tmp_path / "missing.bin") for a in argv]
        assert run(*argv, "--out-dir", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: ")
