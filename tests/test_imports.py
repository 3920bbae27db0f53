"""The package's public names resolve and have callers, every error class
is raised or caught, no module reads the environment, and no run of it,
reference and oracle solves included, imports scipy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from deep_euler.dem import Corrector, solve_dem
from deep_euler.ode import StepSchedule, evaluate_truth, get_problem

ROOT = Path(__file__).resolve().parent.parent
TRUTH_XS = [0.0, 0.7, 3.25, 12.5]

# Runs in a fresh interpreter, so that nothing imported by pytest or by other
# tests is in sys.modules. Prints one JSON object: for each stage, whether
# any scipy module was loaded by then, the lotka_volterra truth values and the
# states of an oracle DEM solve.
SCRIPT = """
import contextlib, io, json, sys

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

loaded = {}
import deep_euler
from deep_euler import cli, dem, ode
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
loaded["evaluate_truth"] = scipy_loaded()
ex1 = ode.get_problem("example1")
oracle = dem.solve_dem(ex1, dem.Corrector.oracle(ex1, 2), ode.StepSchedule.uniform(0.5))
loaded["oracle_solve"] = scipy_loaded()
print(json.dumps({"loaded": loaded, "exit_codes": [rc_train, rc_solve],
                  "truth": truth.tolist(), "oracle": oracle.ys.tolist()}))
"""


def test_no_run_loads_scipy(tmp_path):
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
        "evaluate_truth": False, "oracle_solve": False,
    }
    in_process = evaluate_truth(get_problem("lotka_volterra"), TRUTH_XS)
    assert np.array_equal(np.array(result["truth"]), in_process)
    ex1 = get_problem("example1")
    oracle = solve_dem(ex1, Corrector.oracle(ex1, 2), StepSchedule.uniform(0.5))
    assert np.array_equal(np.array(result["oracle"]), oracle.ys)


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
    "euler_step": "tests/test_acceptance.py and bench/workloads.py solve with it; "
                  "the package calls EULER.step",
    "heun_step": "tests/test_acceptance.py and bench/workloads.py solve with it; "
                 "the package calls HEUN.step",
}


def _bound_names(node) -> set:
    """The names that top-level ``node`` defines (def, class or assignment)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


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


def _has_caller(trees, name) -> bool:
    """Whether some tree uses ``name`` outside its own top-level definition."""
    for tree in trees:
        definition = next((n for n in tree.body if name in _bound_names(n)), None)
        if _references(tree, name, definition):
            return True
    return False


def _package_trees() -> list:
    """The parsed modules of the package but ``__init__``, which re-exports
    every public name and so is not searched for callers."""
    return [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")
            if path.name != "__init__.py"]


def _uncalled_public_names() -> set:
    """Names in ``__all__`` that no module of the package uses outside their
    own definition, and ``Class.method`` for each public method or property
    of a class in ``__all__`` whose name no module loads as an attribute
    outside the method's own body. Any attribute of that name counts, whatever
    its object. ``__init__`` re-exports every public name, so it is not
    searched."""
    import deep_euler

    trees = _package_trees()
    uncalled = {name for name in deep_euler.__all__ if not _has_caller(trees, name)}
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


def _uncalled_module_names(trees) -> set:
    """The public names that the top level of a tree defines (def, class or
    assignment) and no tree uses outside that definition."""
    defined = {name for tree in trees for node in tree.body for name in _bound_names(node)}
    return {name for name in defined
            if not name.startswith("_") and not _has_caller(trees, name)}


def test_every_public_module_name_has_a_caller():
    # build_parser looks up each command's cmd_<name> through globals().
    from deep_euler import cli

    commands = {f"cmd_{name}" for name in cli._COMMANDS}
    exempt = {name for name in UNCALLED_PUBLIC if "." not in name}
    assert _uncalled_module_names(_package_trees()) == exempt | commands


def test_a_dead_helper_is_found():
    trees = [ast.parse("LIMIT = 3\n_PRIVATE = 4\ndef used():\n    return LIMIT\n"
                       "def dead(n):\n    return dead(n - 1)\n"),
             ast.parse("from .a import used\nclass Unused:\n    x = used()\n")]
    assert _uncalled_module_names(trees) == {"dead", "Unused"}


def test_only_code_counts_as_a_caller():
    mention = ast.parse('"""Calls stack_samples."""\n# stack_samples\nx = "stack_samples"\n')
    assert not _references(mention, "stack_samples")
    for code in ("stack_samples(p)", "dataset.stack_samples(p)",
                 "from .dataset import stack_samples"):
        assert _references(ast.parse(code), "stack_samples")
    definition = ast.parse("def stack_samples(p):\n    return stack_samples(p)\n")
    assert not _references(definition, "stack_samples", skip=definition.body[0])


def _unused_imports(tree) -> set:
    """Names that an import binds in ``tree`` and no code in it loads;
    ``from __future__ import annotations`` binds nothing."""
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names}
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - loaded


def test_every_import_is_used():
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_an_unused_import_is_found():
    code = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
            "from .dem import Corrector, make_corrected_stepper\n"
            "def f(c: Corrector):\n    return np.ones(1)\n")
    assert _unused_imports(ast.parse(code)) == {"os", "make_corrected_stepper"}


def _scipy_imports(tree) -> set:
    """The scipy modules that ``tree`` imports, at any depth."""
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules.update(node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 0)
    return {module for module in modules if module.split(".")[0] == "scipy"}


def test_no_module_imports_scipy():
    imports = {path.name: _scipy_imports(ast.parse(path.read_text()))
               for path in PACKAGE.glob("*.py")}
    assert {name: modules for name, modules in imports.items() if modules} == {}


def test_a_scipy_import_is_found():
    code = ("import numpy as np, scipy.linalg\nfrom .scipy_like import x\n"
            "def f():\n    from scipy.integrate import solve_ivp\n    return solve_ivp\n")
    assert _scipy_imports(ast.parse(code)) == {"scipy.linalg", "scipy.integrate"}


# The os names through which a module reads environment variables.
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree) -> set:
    """The names of ``ENVIRONMENT_READS`` that ``tree`` loads as an attribute
    (``os.environ``) or imports (``from os import getenv``)."""
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names.update(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names)
    return names & ENVIRONMENT_READS


def test_no_module_reads_the_environment():
    # A run's settings come from its flags and its config file; the BLAS
    # thread variables are numpy's to read.
    reads = {path.name: _environment_reads(ast.parse(path.read_text()))
             for path in PACKAGE.glob("*.py")}
    assert {name: names for name, names in reads.items() if names} == {}


def test_an_environment_read_is_found():
    for code, name in [("import os\nseed = os.environ.get('SEED')\n", "environ"),
                       ("import os\nseed = os.getenv('SEED')\n", "getenv"),
                       ("from os import environ\n", "environ")]:
        assert _environment_reads(ast.parse(code)) == {name}, code
    assert _environment_reads(ast.parse("import os\npath = os.path.join('a', 'b')\n")) == set()


def _raised_or_caught(tree) -> set:
    """The names that ``tree`` raises (``raise E(...)``, ``raise E``) or
    catches (``except E``, ``except (E, F)``), bare or as an attribute."""
    def named(node) -> set:
        node = node.func if isinstance(node, ast.Call) else node
        if isinstance(node, ast.Tuple):
            return set().union(*map(named, node.elts))
        if isinstance(node, ast.Name):
            return {node.id}
        return {node.attr} if isinstance(node, ast.Attribute) else set()

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names |= named(node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names |= named(node.type)
    return names


def test_every_error_class_is_raised_or_caught():
    defined = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    used = set().union(*(_raised_or_caught(ast.parse(path.read_text()))
                         for path in PACKAGE.glob("*.py") if path.name != "errors.py"))
    assert defined - used == set()


def test_a_raise_or_catch_is_found():
    code = ("from . import errors\nfrom .errors import Unused\n"
            "def f():\n    try:\n        raise errors.A('x') from None\n"
            "    except (B, errors.C):\n        raise\n    except D as err:\n        raise E\n")
    assert _raised_or_caught(ast.parse(code)) == {"A", "B", "C", "D", "E"}


def _errstates(tree) -> list:
    """Each ``errstate(...)`` call in ``tree``, as (line, whether its only
    argument is ``**_QUIET``)."""
    calls = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "errstate"):
            only = [(k.arg, getattr(k.value, "id", None)) for k in node.keywords]
            calls.append((node.lineno, not node.args and only == [(None, "_QUIET")]))
    return sorted(calls)


def test_every_errstate_is_the_quiet_policy():
    # One constant, ode._QUIET, says that no floating-point event warns.
    calls = {f"{path.name}:{line}": quiet for path in sorted(PACKAGE.glob("*.py"))
             for line, quiet in _errstates(ast.parse(path.read_text()))}
    assert calls and [where for where, quiet in calls.items() if not quiet] == []


def test_an_errstate_of_its_own_is_found():
    code = ("with np.errstate(**_QUIET):\n    pass\nwith np.errstate(over='ignore'):\n    pass\n"
            "with np.errstate(**_QUIET, divide='warn'):\n    pass\n"
            "with np.errstate(**OTHER):\n    pass\n")
    assert _errstates(ast.parse(code)) == [(1, True), (3, False), (5, False), (7, False)]


def test_no_source_line_exceeds_100_characters():
    long_lines = [f"{path.name}:{number}" for path in sorted(PACKAGE.glob("*.py"))
                  for number, line in enumerate(path.read_text().splitlines(), 1)
                  if len(line) > 100]
    assert long_lines == []
