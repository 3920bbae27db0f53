"""Fuzzed command-line contract.

Argument lists are drawn from the CLI's own option table (every subcommand's
flags, their types and choices) mixed with bad numbers, strings and config
files. Whatever the arguments, ``dem`` ends with exit code 0, 2, 3 or 4
(2 when exactly one flag value is bad), prints exactly one error line when it
fails, and never a traceback; a table command that exits 2 has not trained.
Sizes stay tiny: at most 10 points, 1 epoch, 2 seeds and 2x8 networks.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deep_euler import cli, mlp
from deep_euler.ode import builtin_problems

CHECKPOINT = str(Path(__file__).resolve().parent.parent / "bench/data/ex1_dem.bin")

BAD_INTS = [-1, 0, "x", "1.5"]
BAD_FLOATS = [-1.0, 0.0, "nan", "inf", "x"]

# (good values, bad values) for the flags whose good range is narrow, such as
# sizes and step sizes; every other flag draws from generic pools by type.
FLAG_VALUES = {
    "--points": ([2, 5, 10], [1, -3, "x"]),
    "--epochs": ([1], [0, "x"]),
    "--hidden-layers": ([1, 2], [0, "x"]),
    "--hidden-width": ([1, 8], [0, "x"]),
    "--batch-size": ([1, 8, 32], [0, "x"]),
    "--num-seeds": ([1, 2], [0, -1]),
    "--points-list": ([2, 5, 10], [1, 0, "x"]),
    "--archs": (["2x8", "1x4"], ["bogus", "2x0", "x8"]),
    "--h": ([0.5, 1.0, 2.5], [0, -1, 6, 20, "nan", "x", "1e-320", "1e-300"]),
    "--h-list": ([0.5, 1.0], [0, -1, 6, 20, "nan", "x", "1e-320", "1e-300"]),
    "--h-grid": ([0.1, 0.5, 0.9], [0, -1, "x"]),
    "--lam": ([-5.0, -1.0], [5.0, 0.0, "nan", "x"]),
    "--steps": ([10, 100], [0, -3, "x"]),
    "--bound": ([10.0, 1.0], [0.0, -1.0, "nan", "inf"]),
    "--clip-ln": ([1.0, 6.0], [0.0, -1.0, "nan", "inf"]),
    "--noise-level": ([0.0, 0.05, 0.5], [1.5, -0.1, "nan"]),
    "--noise-levels": ([0.0, 0.05, 0.5], [1.5, -0.1, "nan"]),
    "--min-gap": ([0.0, 0.1, 10.0], [-1.0, "nan"]),
    "--learning-rate": ([0.005, 0.1], [0.0, 2.0, "nan", "x"]),
    "--clip-bound": ([1.0, 0.5], [0.0, -1.0, "nan", "inf"]),
    "--interval": ([0.0, 5.0], [30.0, -1.0, "nan"]),
    "--seed": ([0, 1, 7], [-1, "x"]),
    "--dataset-seed": ([0, 3], [-1, "x"]),
}
# Bad values that a run may accept: a step longer than example1's domain or a
# table's region (0, 5], but not longer than kepler's or lotka_volterra's. As
# the one bad value, they may exit 0, or 4 where a solve at so long a step
# diverges. A checkpoint is never among them: a run that would not read it
# refuses it.
MAYBE_UNREAD = {"--h": {"6", "20"}, "--h-list": {"6", "20"}}
# Good value lists for the flags whose values depend on each other.
FLAG_LISTS = {
    "--h-list": [[0.4, 0.2, 0.1], [1.0, 0.5, 0.25], [1.0], [0.1, 2.0]],
    "--interval": [[0.0, 5.0], [1.0, 5.0], [0.0, 1.0]],
}
# Flags that bound a run's size: always given when the subcommand has them.
SIZE_FLAGS = {"--points", "--epochs", "--hidden-layers", "--hidden-width", "--num-seeds",
              "--points-list", "--archs"}
JUNK = st.sampled_from([None, True, "x", [1], {"a": 1}, -1, 0.5])


def options(command):
    """(flag, argparse keywords) for each option of ``command``, from the CLI's table."""
    for option in cli._COMMANDS[command][1]:
        flag, extra = (option, {}) if isinstance(option, str) else option
        yield flag, {**cli._OPTIONS.get(flag, {}), **extra}


def flag_values(flag, spec):
    """(good values, bad values) of a flag."""
    if flag in FLAG_VALUES:
        return FLAG_VALUES[flag]
    if "choices" in spec:
        return list(spec["choices"]), ["bogus"]
    if spec.get("type") is int:
        return [1, 3], BAD_INTS
    return [0.5, 2.0], BAD_FLOATS


def config_files(workdir, bad):
    """A config file path: good keys and values, or else junk values, an unknown
    key, text that is not a JSON object, or a missing file."""
    good_values = {
        key: st.sampled_from(FLAG_LISTS.get(flag) or flag_values(flag, spec)[0])
        for key, (_, spec) in cli._TRAIN_KEYS.items() for flag in [cli._flag(key)]
    }
    if bad:
        text = st.one_of(
            st.fixed_dictionaries({}, optional={**{k: JUNK for k in good_values}, "typo": JUNK})
            .filter(bool).map(json.dumps),
            st.sampled_from(["{not json", "[1, 2]", ""]),
        )
    else:
        text = st.fixed_dictionaries({}, optional=good_values).map(json.dumps)

    def write(content):
        path = Path(workdir) / "config.json"
        path.write_text(content)
        return str(path)

    files = text.map(write)
    return st.one_of(files, st.just(str(Path(workdir) / "missing.json"))) if bad else files


def checkpoint_for(problem, workdir):
    """A checkpoint that fits ``problem``: an untrained one-layer network of
    its widths, or the pinned example1 one for a one-dimensional, unknown or
    absent problem."""
    dim = {name: p.dim for name, p in builtin_problems().items()}.get(problem, 1)
    if dim == 1:
        return CHECKPOINT
    path = Path(workdir) / f"{problem}.bin"
    path.write_bytes(mlp.save_model(mlp.init([dim + 2, dim], 0)))
    return str(path)


def value(flag, spec, bad, workdir, good=None, problem=None):
    """One argument for ``flag``: ``good`` or a good value of its pool, or a
    bad one. A good checkpoint fits ``problem``, the --problem drawn before."""
    if flag == "--config":
        return config_files(workdir, bad)
    if flag == "--checkpoint":
        if bad:
            return st.sampled_from([str(Path(workdir) / "missing.bin"), __file__])
        return st.builds(checkpoint_for, st.just(problem), st.just(workdir))
    if not bad and good is not None:
        return st.just(str(good))
    return st.sampled_from(flag_values(flag, spec)[bad]).map(str)


@st.composite
def argvs(draw, command, workdir):
    """(argv, the exit codes it may end with) for ``command``: argv holds only
    good values, exactly one bad value, or bad values scattered at random. One
    bad value exits 2, or 0 or 4 where it may be accepted (MAYBE_UNREAD)."""
    mode = draw(st.sampled_from(["good", "one bad", "scattered"]))
    chosen = []  # (flag, spec, the good values of a dependent list or None per value)
    for flag, spec in options(command):
        if flag == "--out-dir":
            continue
        # A required flag is left out now and then, to reach argparse's own error.
        if flag not in SIZE_FLAGS and not draw(st.booleans()) and not (
                spec.get("required") and draw(st.integers(0, 9))):
            continue
        if spec.get("action") == "store_true":
            goods = []
        elif flag in FLAG_LISTS:
            goods = draw(st.sampled_from(FLAG_LISTS[flag]))
        else:
            goods = [None] * (draw(st.integers(1, 3)) if spec.get("nargs") == "+" else 1)
        chosen.append((flag, spec, goods))
    slots = sum(len(goods) for _, _, goods in chosen)
    bad_slot = draw(st.integers(0, slots - 1)) if mode == "one bad" and slots else -1
    argv, slot, problem = [command], 0, None
    codes = (2,) if bad_slot >= 0 else (0, 2, 3, 4)
    for flag, spec, goods in chosen:
        argv.append(flag)
        for good in goods:
            bad = slot == bad_slot or (mode == "scattered" and draw(st.integers(0, 3)) == 0)
            argv.append(draw(value(flag, spec, bad, workdir, good, problem)))
            if slot == bad_slot and argv[-1] in MAYBE_UNREAD.get(flag, ()):
                codes = (0, 2, 4)
            slot += 1
        if flag == "--problem":
            problem = argv[-1]
    return argv, codes


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:  # argparse's own usage errors
            code = exit_.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_ends_with_a_documented_exit_code(command, data):
    with tempfile.TemporaryDirectory() as workdir:
        argv, codes = data.draw(argvs(command, workdir), label="argv")
        argv += ["--out-dir", str(Path(workdir) / "out")]
        with mock.patch.object(cli, "_run_training", wraps=cli._run_training) as training:
            code, err = run_cli(argv)
    assert code in codes, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code != 0:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    # The tables check their arguments before the first training.
    if command.startswith("table") and code == 2:
        assert training.call_count == 0, (argv, err)
