"""Import hygiene: which SciPy subpackages the library and each subcommand
load.  No module of hyplab imports scipy.integrate (with it scipy.optimize and
scipy.special): the flow has its own DOP853 stepper, and the tests alone use
scipy.integrate, as an oracle.  scipy.linalg is loaded only by the numerical
modules.

Each subcommand case runs one fresh interpreter, because a module imported
once stays in sys.modules for the rest of the test session.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

import hyplab
from hyplab.cli import run

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(hyplab.__file__)))
_WATCHED = ("scipy.integrate", "scipy.linalg")

# argv[1]: JSON {"imports": [module, ...], "run": cli argv or null}.  Prints
# the exit code and the watched modules loaded after the imports and after
# the run.
_CHILD = """
import importlib, json, sys
spec = json.loads(sys.argv[1])
watched = %r
for name in spec["imports"]:
    importlib.import_module(name)
before = [m for m in watched if m in sys.modules]
rc = None
if spec["run"] is not None:
    from hyplab.cli import run
    rc = run(spec["run"])
print(json.dumps({"rc": rc, "before": before,
                  "after": [m for m in watched if m in sys.modules]}))
""" % (_WATCHED,)


def _fresh_interpreter(imports, argv=None):
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD,
         json.dumps({"imports": imports, "run": argv})],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_library_imports_leave_scipy_integrate_unloaded():
    out = _fresh_interpreter(["hyplab.cli", "hyplab.conjugate", "hyplab.laplab",
                              "hyplab.mourre", "hyplab.abstract",
                              "hyplab.weights", "hyplab.model"])
    assert "scipy.integrate" not in out["before"]


@pytest.mark.parametrize("experiment",
                         ["spectrum", "flow", "weights", "report"])
def test_light_subcommands_load_no_scipy_linalg(tmp_path, experiment):
    if experiment == "report":
        assert run(["spectrum", "--out", str(tmp_path / "spec")]) == 0
        out_dir = tmp_path
    else:
        out_dir = tmp_path / experiment
    out = _fresh_interpreter([], [experiment, "--out", str(out_dir)])
    assert out["rc"] == 0
    assert out["after"] == []


def test_flow_leaves_scipy_integrate_unloaded_and_matches_in_process(tmp_path):
    argv = ["flow", "--set", "n_points=200"]
    assert run(argv + ["--out", str(tmp_path / "here")]) == 0
    out = _fresh_interpreter([], argv + ["--out", str(tmp_path / "fresh")])
    assert out["rc"] == 0
    assert "scipy.integrate" not in out["after"]
    assert ((tmp_path / "fresh" / "flow.csv").read_bytes()
            == (tmp_path / "here" / "flow.csv").read_bytes())


@pytest.mark.parametrize("argv", [["mourre"], ["sweep"],
                                  ["testbed", "--workers", "2"]],
                         ids=["mourre", "sweep", "testbed"])
def test_numerical_subcommands_leave_scipy_integrate_unloaded(tmp_path, argv):
    out = _fresh_interpreter([], argv + ["--out", str(tmp_path / "run")])
    assert out["rc"] == 0
    assert "scipy.integrate" not in out["after"]


def _imports_scipy_integrate(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module] + [f"{node.module}.{alias.name}"
                                 for alias in node.names]
    else:
        return False
    return any(name == "scipy.integrate" or name.startswith("scipy.integrate.")
               for name in names)


def test_no_module_imports_scipy_integrate():
    # every import statement, at module level or inside a function, of every
    # module of the package
    paths = sorted(glob.glob(os.path.join(_SRC, "hyplab", "**", "*.py"),
                             recursive=True))
    assert len(paths) >= 10
    offenders = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        offenders += [f"{os.path.relpath(path, _SRC)}:{node.lineno}"
                      for node in ast.walk(tree)
                      if _imports_scipy_integrate(node)]
    assert offenders == []


# Public names of hyplab that no module of the package and no benchmark
# script uses, only the tests: each still waits for a caller, a move into
# tests/ or its deletion.
_PENDING_WITHOUT_CALLER = {
    "laplab.mode_norm",
    "mourre.double_commutator_matrix",
    "mourre.semiclassical_bound_check",
}


def _mentions(node):
    """The names a node uses: a Name, the attribute of an Attribute, or the
    last part of each name an import statement binds."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    return set()


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name's own definition does not count as its caller
    root = os.path.dirname(_SRC)
    paths = sorted(glob.glob(os.path.join(_SRC, "hyplab", "*.py"))
                   + glob.glob(os.path.join(root, "benchmark", "*.py")))
    users = {}  # name -> ids of the nodes that use it
    defined = []
    trees = []  # kept alive, so that no node id is reused
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        trees.append(tree)
        for node in ast.walk(tree):
            for name in _mentions(node):
                users.setdefault(name, set()).add(id(node))
        if path.startswith(_SRC):
            defined += [(os.path.basename(path)[:-3], node)
                        for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]
    assert len(defined) >= 50
    without_caller = {
        f"{module}.{definition.name}" for module, definition in defined
        if users.get(definition.name, set())
        <= {id(node) for node in ast.walk(definition)}}
    assert without_caller == _PENDING_WITHOUT_CALLER
