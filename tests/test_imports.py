"""Every import in the package and its tests is used, and the package
runs on numpy alone.

No linter runs on this repository, so an AST scan stands in for one:
a name bound by an import must be read somewhere in the same module.
Package ``__init__.py`` files are skipped, since their imports are the
public re-exports.
"""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Imports the package, then blocks scipy and runs the paths that call
# LAPACK: a one-tile and a tiled factor (a 300-wide view), the baseline
# fit, a grid cell's condition estimate and an in-process federated run.
WITHOUT_SCIPY = """
import sys
import numpy as np
import mmvfl, mmvfl.cli, mmvfl.federation
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert loaded == [], loaded
sys.modules["scipy"] = None
from mmvfl import (Hyperparams, make_folds, one_hot, run_grid, run_reference, supfl_solve,
                   synth_planted)
from mmvfl.federation import run_federated
dataset, _ = synth_planted(num_participants=2, num_samples=60, dims=(300, 5),
                           n_informative=2, seed=0)
labels = one_hot(dataset.labels, dataset.num_classes)
hyper = Hyperparams.uniform(2, outer_max=3)
reference = run_reference(dataset.views, labels, hyper, seed=0)
federated = run_federated(dataset.views, labels, hyper, seed=0)
assert np.array_equal(reference.consensus, federated.consensus)
assert reference.objectives == federated.objectives
supfl_solve(dataset.views[0], labels, 0.1)
rows = run_grid(("supfl",), dataset, make_folds(dataset, 2, seed=0), (0.1,), (50.0,), hyper)
assert len(rows) == 4, rows
print("ok")
"""


def test_the_package_loads_no_scipy_and_runs_without_it():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    paths = [path for top in ("src", "tests") for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"]
    assert len(paths) > 20
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in paths for line, name in unused_imports(path)]
    assert found == []
