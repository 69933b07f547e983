"""Import hygiene: which SciPy subpackages the library and each subcommand
load.  scipy.integrate (with scipy.optimize and scipy.special) is needed only
to integrate a flow, and scipy.linalg only by the numerical modules.

Each case runs one fresh interpreter, because a module imported once stays in
sys.modules for the rest of the test session.
"""

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
    out = _fresh_interpreter(["hyplab.cli", "hyplab.laplab", "hyplab.mourre",
                              "hyplab.abstract", "hyplab.weights",
                              "hyplab.model"])
    assert "scipy.integrate" not in out["before"]


@pytest.mark.parametrize("experiment", ["spectrum", "weights", "report"])
def test_light_subcommands_load_no_scipy_linalg(tmp_path, experiment):
    if experiment == "report":
        assert run(["spectrum", "--out", str(tmp_path / "spec")]) == 0
        out_dir = tmp_path
    else:
        out_dir = tmp_path / experiment
    out = _fresh_interpreter([], [experiment, "--out", str(out_dir)])
    assert out["rc"] == 0
    assert out["after"] == []


def test_flow_loads_scipy_integrate_itself_and_matches_in_process(tmp_path):
    argv = ["flow", "--set", "n_points=200"]
    assert run(argv + ["--out", str(tmp_path / "here")]) == 0
    out = _fresh_interpreter(["hyplab.conjugate"],
                             argv + ["--out", str(tmp_path / "fresh")])
    assert "scipy.integrate" not in out["before"]
    assert out["rc"] == 0
    assert "scipy.integrate" in out["after"]
    assert ((tmp_path / "fresh" / "flow.csv").read_bytes()
            == (tmp_path / "here" / "flow.csv").read_bytes())
