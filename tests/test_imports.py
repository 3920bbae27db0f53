"""The package's public names resolve and have callers, and scipy is loaded
only by the runs that integrate adaptively."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from deep_euler.ode import evaluate_truth, get_problem

ROOT = Path(__file__).resolve().parent.parent
TRUTH_XS = [0.0, 0.7, 3.25, 12.5]

# Runs in a fresh interpreter, so that nothing imported by pytest or by other
# tests is in sys.modules. Prints one JSON object: for each stage, whether
# any scipy module was loaded by then, and the lotka_volterra truth values.
SCRIPT = """
import contextlib, io, json, sys

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

loaded = {}
import deep_euler
from deep_euler import cli, ode
loaded["import"] = scipy_loaded()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
    loaded["help"] = scipy_loaded()
    rc_train = cli.main(["train", "--problem", "example1", "--points", "10", "--epochs", "1",
                         "--hidden-layers", "1", "--hidden-width", "4",
                         "--out-dir", sys.argv[1] + "/train"])
    loaded["train"] = scipy_loaded()
    rc_solve = cli.main(["solve", "--problem", "example1", "--method", "dem", "--h", "1.0",
                         "--checkpoint", sys.argv[2], "--out-dir", sys.argv[1] + "/solve"])
    loaded["solve"] = scipy_loaded()
truth = ode.evaluate_truth(ode.get_problem("lotka_volterra"), json.loads(sys.argv[3]))
loaded["evaluate_truth"] = "scipy.integrate" in sys.modules
print(json.dumps({"loaded": loaded, "exit_codes": [rc_train, rc_solve],
                  "truth": truth.tolist()}))
"""


def test_scipy_loads_only_for_reference_solves(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(ROOT / "bench/data/ex1_dem.bin"),
         json.dumps(TRUTH_XS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["exit_codes"] == [0, 0]
    assert result["loaded"] == {
        "import": False, "help": False, "train": False, "solve": False,
        "evaluate_truth": True,
    }
    in_process = evaluate_truth(get_problem("lotka_volterra"), TRUTH_XS)
    assert np.array_equal(np.array(result["truth"]), in_process)


def test_star_import_resolves_all():
    import deep_euler

    namespace = {}
    exec("from deep_euler import *", namespace)
    assert set(deep_euler.__all__) <= set(namespace)


PACKAGE = ROOT / "src" / "deep_euler"

# Public names, and public methods and properties ("Class.method") of the
# classes among them, with no caller in the package, each with the reason it stays.
UNCALLED_PUBLIC = {
    "stack_samples": "tests/test_acceptance.py trains on the build_pairs arrays through it",
    "lipschitz_bound": "tests/test_acceptance.py checks a clipped network's bound with it",
    "PairPolicy.all_pairs": "tests/test_acceptance.py builds the example1 pairs with it",
}


def _binds(node, name) -> bool:
    """Whether top-level ``node`` defines ``name`` (def, class or assignment)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    return False


def _references(tree, name, skip=None) -> bool:
    """Whether ``tree`` uses ``name`` outside the subtree ``skip``: as a loaded
    name, a loaded attribute or an imported name. Docstrings and comments do
    not count."""
    inside = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.ImportFrom):
            found = any(alias.name == name for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            used = node.id if isinstance(node, ast.Name) else node.attr
            found = used == name and isinstance(node.ctx, ast.Load)
        else:
            found = False
        if found:
            return True
    return False


def _uncalled_public_names() -> set:
    """Names in ``__all__`` that no module of the package uses outside their
    own definition, and ``Class.method`` for each public method or property
    of a class in ``__all__`` whose name no module loads as an attribute
    outside the method's own body. Any attribute of that name counts, whatever
    its object. ``__init__`` re-exports every public name, so it is not
    searched."""
    import deep_euler

    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")
             if path.name != "__init__.py"]
    uncalled = {
        name for name in deep_euler.__all__
        if not any(_references(tree, name, next((n for n in tree.body if _binds(n, name)), None))
                   for tree in trees)
    }
    methods = [(f"{cls.name}.{node.name}", node) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name in deep_euler.__all__
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    uncalled.update(qualified for qualified, node in methods
                    if not any(_references(tree, node.name, node) for tree in trees))
    return uncalled


def test_every_public_name_has_a_caller():
    import deep_euler

    assert {name.split(".")[0] for name in UNCALLED_PUBLIC} <= set(deep_euler.__all__)
    assert _uncalled_public_names() == set(UNCALLED_PUBLIC)


def test_only_code_counts_as_a_caller():
    mention = ast.parse('"""Calls stack_samples."""\n# stack_samples\nx = "stack_samples"\n')
    assert not _references(mention, "stack_samples")
    for code in ("stack_samples(p)", "dataset.stack_samples(p)",
                 "from .dataset import stack_samples"):
        assert _references(ast.parse(code), "stack_samples")
    definition = ast.parse("def stack_samples(p):\n    return stack_samples(p)\n")
    assert not _references(definition, "stack_samples", skip=definition.body[0])
