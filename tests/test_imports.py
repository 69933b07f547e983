"""Import hygiene: which SciPy subpackages the library and each subcommand
load.  No module of hyplab imports scipy.integrate (with it scipy.optimize and
scipy.special): the flow has its own DOP853 stepper, and the tests alone use
scipy.integrate, as an oracle.  scipy.linalg is loaded only by the numerical
modules.

Each subcommand case runs one fresh interpreter, because a module imported
once stays in sys.modules for the rest of the test session.
"""

import ast
import contextlib
import glob
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import pytest

import hyplab
from hyplab import cli
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


def _child_output(code, *args):
    """The JSON last line that code prints in a fresh interpreter."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fresh_interpreter(imports, argv=None):
    return _child_output(_CHILD, json.dumps({"imports": imports,
                                             "run": argv}))


def test_library_imports_leave_scipy_integrate_unloaded():
    out = _fresh_interpreter(["hyplab.cli", "hyplab.conjugate", "hyplab.laplab",
                              "hyplab.mourre", "hyplab.abstract",
                              "hyplab.weights", "hyplab.model"])
    assert "scipy.integrate" not in out["before"]


# Wraps every function of numpy.fft before hyplab is imported, makes one cold
# hs_calculus call with a bump of the calculus benchmark's shape on a 30x30
# symmetric matrix, and prints the certified rung and the numpy.fft calls.
_FFT_CHILD = """
import json
import numpy as np
import numpy.fft
calls = []

def counted(name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper

for name in numpy.fft.__all__:
    setattr(numpy.fft, name, counted(name, getattr(numpy.fft, name)))
from hyplab import mourre, weights

class Bump:
    support = (-3.0, 3.0)

    def __call__(self, E, j=0):
        E = np.asarray(E, dtype=float)
        vals = weights.profile_eval("q", (3.0 - np.abs(E)) / 2.0, j,
                                    extended=True)
        return vals * np.where(E >= 0.0, -0.5, 0.5) ** j

raw = np.random.default_rng(0).standard_normal((30, 30))
bump = Bump()
mourre.hs_calculus(bump, (raw + raw.T) / 60 ** 0.5, u_range=bump.support)
print(json.dumps({"rung": mourre._HS_CACHE[(bump, -3.0, 3.0)].rung,
                  "calls": calls}))
"""


def test_the_calculus_makes_no_numpy_fft_call():
    # The far groups' DCT-I is _chebyshev_transform's, not numpy.fft's: a
    # prototype that formed it with numpy.fft measured 0.69 MiB more
    # ru_maxrss on the calculus benchmark.  scipy.linalg already imports
    # numpy.fft when hyplab.mourre is imported, so the guard is on calls: a
    # cold call that certifies the benchmark bump at rung 5, collapsing its
    # 58 far groups, calls no numpy.fft function.
    assert _child_output(_FFT_CHILD) == {"rung": 5, "calls": []}


@pytest.mark.parametrize("experiment",
                         ["spectrum", "flow", "weights", "report", "testbed"])
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


def _series_offenders(node):
    """math.comb, or an import of numpy.polynomial, at node."""
    if isinstance(node, ast.Attribute):
        return ast.unparse(node) == "math.comb"
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module] + [f"{node.module}.{alias.name}"
                                 for alias in node.names]
        if node.module == "math":
            names += [alias.name for alias in node.names]
    else:
        return False
    return any(name in ("comb", "numpy.polynomial")
               or name.startswith("numpy.polynomial.") for name in names)


def test_derivatives_take_no_binomial_or_polynomial_route():
    # profile and generator derivatives are Taylor jets: no module of the
    # package calls math.comb or imports numpy.polynomial
    paths = sorted(glob.glob(os.path.join(_SRC, "hyplab", "**", "*.py"),
                             recursive=True))
    assert len(paths) >= 10
    offenders = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        offenders += [f"{os.path.relpath(path, _SRC)}:{node.lineno}"
                      for node in ast.walk(tree) if _series_offenders(node)]
    assert offenders == []


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


def _attribute_reads(node):
    """The attribute names a node reads: the attribute of a loaded
    Attribute, or the string that a getattr or hasattr call names."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return {node.attr}
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return {node.args[1].value}
    return set()


def test_every_public_name_has_a_caller_outside_the_tests():
    # Every public function and class of a module, and every public method
    # and property of those classes; a name's own definition does not count
    # as its caller.  A method or property needs its name read as an
    # attribute or named in a getattr or hasattr string.
    root = os.path.dirname(_SRC)
    paths = sorted(glob.glob(os.path.join(_SRC, "hyplab", "*.py"))
                   + glob.glob(os.path.join(root, "benchmark", "*.py")))
    users = {}  # name -> ids of the nodes that use it
    readers = {}  # attribute name -> ids of the nodes that read it
    defined = []
    methods = []
    trees = []  # kept alive, so that no node id is reused
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        trees.append(tree)
        for node in ast.walk(tree):
            for name in _mentions(node):
                users.setdefault(name, set()).add(id(node))
            for name in _attribute_reads(node):
                readers.setdefault(name, set()).add(id(node))
        if path.startswith(_SRC):
            module = os.path.basename(path)[:-3]
            defined += [(module, node) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]
            methods += [(f"{module}.{cls.name}", node)
                        for cls in tree.body if isinstance(cls, ast.ClassDef)
                        for node in cls.body
                        if isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")]
    assert len(defined) >= 50 and len(methods) >= 20
    without_caller = {
        f"{module}.{definition.name}" for module, definition in defined
        if users.get(definition.name, set())
        <= {id(node) for node in ast.walk(definition)}}
    without_caller |= {
        f"{owner}.{method.name}" for owner, method in methods
        if readers.get(method.name, set())
        <= {id(node) for node in ast.walk(method)}}
    assert without_caller == set()


def _is_dataclass(node):
    return any(_mentions(d.func if isinstance(d, ast.Call) else d)
               == {"dataclass"} for d in node.decorator_list)


def _parameters_with_defaults(tree):
    """Every parameter with a default, as (callee, name, position, keyword,
    definition): the callee is the function's bare name, or its class's for
    __init__ and for a dataclass field; position is the parameter's index
    among the arguments that a call passes by position (None for a
    keyword-only one), and keyword tells whether a call may name it."""
    classes = {}  # id of a method -> its class
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        classes.update((id(n), node) for n in node.body
                       if isinstance(n, ast.FunctionDef))
        if _is_dataclass(node):
            fields = [n for n in node.body if isinstance(n, ast.AnnAssign)
                      and "ClassVar" not in ast.unparse(n.annotation)]
            found += [(node.name, f.target.id, i, True, f)
                      for i, f in enumerate(fields) if f.value is not None]
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = classes.get(id(node))
        callee = (cls.name if cls is not None and node.name == "__init__"
                  else node.name)
        args = node.args
        positional = args.posonlyargs + args.args
        bound = cls is not None and not any(
            _mentions(d) == {"staticmethod"} for d in node.decorator_list)
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            found.append((callee, arg.arg, i - bound,
                          i >= len(args.posonlyargs), node))
        found += [(callee, arg.arg, None, True, node)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return found


def _calls_and_parameters():
    """The calls in the package, the benchmark and the tests, and the
    parameters with a default of the package's functions.  calls maps a
    callee's bare name to (node id, positional count, keywords, starred) per
    call, where starred tells whether the call passes *args or **kwargs;
    parameters holds (module, *p) for each p of _parameters_with_defaults.
    The parsed trees come last, kept alive so that no node id is reused."""
    root = os.path.dirname(_SRC)
    paths = sorted(glob.glob(os.path.join(_SRC, "hyplab", "*.py"))
                   + glob.glob(os.path.join(root, "benchmark", "*.py"))
                   + glob.glob(os.path.join(root, "tests", "*.py")))
    calls = {}
    parameters = []
    trees = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        trees.append(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _mentions(node.func):
                (name,) = _mentions(node.func)
                keywords = {k.arg for k in node.keywords}
                starred = None in keywords or any(
                    isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (id(node), len(node.args), keywords, starred))
        if path.startswith(_SRC):
            module = os.path.basename(path)[:-3]
            parameters += [(module, *p)
                           for p in _parameters_with_defaults(tree)]
    assert len(parameters) >= 40
    return calls, parameters, trees


def _parameters_where(calls, parameters, relies):
    """module.callee(name) of every parameter none of whose calls outside
    its own definition satisfies relies(sets, starred), where sets tells
    whether the call passes the parameter by position or by keyword."""
    found = set()
    for module, callee, name, position, keyword, definition in parameters:
        own = {id(node) for node in ast.walk(definition)}
        if not any(call not in own and relies(
                (position is not None and count > position)
                or (keyword and name in keywords), starred)
                   for call, count, keywords, starred in calls.get(callee, ())):
            found.add(f"{module}.{callee}({name})")
    return found


def test_every_parameter_with_a_default_has_a_caller_that_sets_it():
    # a call sets a parameter when it passes it by keyword or by position,
    # or passes *args or **kwargs; calls inside the parameter's own
    # definition do not count
    calls, parameters, _trees = _calls_and_parameters()
    assert _parameters_where(
        calls, parameters, lambda sets, starred: sets or starred) == set()


def test_every_parameter_default_is_relied_on_by_a_call():
    # the converse: a call relies on a default when it passes the parameter
    # neither by keyword nor by position, or passes *args or **kwargs; a
    # default that every call overrides is a required parameter
    calls, parameters, _trees = _calls_and_parameters()
    assert _parameters_where(
        calls, parameters, lambda sets, starred: not sets or starred) == set()


def test_each_subcommand_takes_the_run_flags_its_runner_reads():
    # The RunContext fields with a default are set from the command-line
    # flags of their names.  A subcommand takes such a flag exactly when
    # its runner reads the field from its context.
    fields = {name for name, parameter
              in inspect.signature(cli.RunContext).parameters.items()
              if parameter.default is not inspect.Parameter.empty}
    assert fields == {"workers", "seed"}
    parser = cli.build_parser()
    taken = set()
    for name, (runner, _flags) in cli._RUNNERS.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(runner)))
        reads = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "ctx"}
        takes = set()
        for field in fields:
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    parser.parse_args([name, f"--{field}", "1"])
            except SystemExit:
                continue
            takes.add(field)
        assert takes == reads & fields, name
        taken |= takes
    assert taken == fields


def test_every_grid_comes_from_the_resolution_rule():
    # RadialGrid is called in one place in the package: inside
    # linops.resolved_grid, the rule that ties the step to the energy
    paths = sorted(glob.glob(os.path.join(_SRC, "hyplab", "*.py")))
    assert len(paths) >= 10
    inside_rule = []
    outside = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        rule = {id(node) for definition in tree.body
                if isinstance(definition, ast.FunctionDef)
                and definition.name == "resolved_grid"
                and os.path.basename(path) == "linops.py"
                for node in ast.walk(definition)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and _mentions(node.func) == {"RadialGrid"}):
                site = f"{os.path.relpath(path, _SRC)}:{node.lineno}"
                (inside_rule if id(node) in rule else outside).append(site)
    assert len(inside_rule) == 1
    assert outside == []


def test_every_tridiagonal_eigensolve_goes_through_hermitian_eig():
    # eigh_tridiagonal is named in one place in the package, its call inside
    # linops.hermitian_eig, so every eigensolve of a DiscreteOperator runs
    # hermitian_eig's checks; mourre.hs_calculus keeps the one it reuses
    paths = sorted(glob.glob(os.path.join(_SRC, "hyplab", "*.py")))
    assert len(paths) >= 10
    inside = []
    outside = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        solver = {id(node) for definition in tree.body
                  if isinstance(definition, ast.FunctionDef)
                  and definition.name == "hermitian_eig"
                  and os.path.basename(path) == "linops.py"
                  for node in ast.walk(definition)}
        for node in ast.walk(tree):
            if "eigh_tridiagonal" in _mentions(node):
                site = f"{os.path.relpath(path, _SRC)}:{node.lineno}"
                (inside if id(node) in solver else outside).append(site)
    assert len(inside) == 2  # the windowed call and the full one
    assert outside == []


def test_the_potential_is_written_only_in_the_model():
    # mu_k e^{-2r} and its derivatives come from RadialOperatorSpec.potential:
    # neither the operator assembly (linops) nor the commutators (mourre)
    # call np.exp, so a new end changes hyplab.model alone
    offenders = []
    for name in ("linops", "mourre"):
        path = os.path.join(_SRC, "hyplab", f"{name}.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        offenders += [f"{name}.py:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func) in ("np.exp", "numpy.exp")]
    assert offenders == []


def test_the_sweep_builds_and_measures_every_cell_at_one_site():
    # laplab calls discretize and limiting_absorption once each, in the one
    # function that builds and measures every cell of the sweep, the limit
    # cell included, so a change to how a cell is built reaches them all
    path = os.path.join(_SRC, "hyplab", "laplab.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    callees = [name for node in ast.walk(tree) if isinstance(node, ast.Call)
               for name in _mentions(node.func)]
    assert callees.count("discretize") == 1
    assert callees.count("limiting_absorption") == 1


def _unread_locals(function):
    """The names that a function binds and never reads, with the line of
    their first binding.  A name counts as read anywhere in the function,
    nested functions and comprehensions included; parameters and names
    starting with _ are exempt."""
    bound, read = {}, set()
    for node in ast.walk(function):
        names = []
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                read.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
        elif isinstance(node, ast.FunctionDef) and node is not function:
            names = [node.name]
        for name in names:
            bound.setdefault(name, node.lineno)
    return {name: line for name, line in bound.items()
            if name not in read and not name.startswith("_")}


def test_every_local_name_is_read():
    # a local bound in a function of the package and never read there is
    # dead code: a value computed for nothing, or a result dropped
    paths = sorted(glob.glob(os.path.join(_SRC, "hyplab", "*.py")))
    assert len(paths) >= 10
    unread = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                unread += [f"{os.path.relpath(path, _SRC)}:{line} {name}"
                           for name, line in _unread_locals(node).items()]
    assert unread == []


def test_every_spectral_norm_of_the_testbed_is_a_gram_eigenvalue():
    # hyplab.abstract takes no SVD and no matrix norm of its own:
    # _spectral_norms is its one route to a spectral norm
    path = os.path.join(_SRC, "hyplab", "abstract.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    offenders = [f"abstract.py:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and node.attr in ("svd", "norm")
                 and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")]
    offenders += [f"abstract.py:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module == "numpy.linalg"]
    assert offenders == []


def test_the_benchmark_spans_wrap_and_restore_their_functions(tmp_path):
    # benchmark/spans.py names the functions it wraps; a renamed one fails
    # here rather than in a traced benchmark run.  The testbed's checks are
    # looked up on hyplab.abstract at call time, so the spans see them.
    from hyplab import abstract

    n_seeds = 12
    root = os.path.dirname(_SRC)
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(root, "benchmark", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    before = {name: getattr(abstract, name)
              for name in ("algebre_identity_check",
                           "commutator_identity_residuals", "diffineq_check")}
    spans.instrument(tracer)
    try:
        originals = list(tracer._patches)
        assert len(originals) >= 10
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in originals)
        assert run(["testbed", "--out", str(tmp_path), "--workers", "1",
                    "--set", f"n_seeds={n_seeds}"]) == 0
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original
               for owner, attr, original in originals)
    assert all(getattr(abstract, name) is fn for name, fn in before.items())
    for name in before:
        assert tracer.count(f"abstract.{name}") == math.ceil(
            n_seeds / cli._TESTBED_BATCH)
        assert tracer.total(f"abstract.{name}") > 0


def test_each_run_file_has_one_writer():
    # In hyplab/cli.py, _atomic_json is called only by run, which writes
    # every summary.json, and by RunContext.finish, which writes the
    # manifest; and .outputs is touched only inside RunContext, so that
    # RunContext.path is the one route into the manifest's outputs.
    path = os.path.join(_SRC, "hyplab", "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    scoped = []  # (the definition a node is in, node)
    for top in tree.body:
        members = ([(f"{top.name}.{getattr(n, 'name', None)}", n)
                    for n in top.body]
                   if isinstance(top, ast.ClassDef)
                   else [(getattr(top, "name", None), top)])
        scoped += [(scope, node) for scope, member in members
                   for node in ast.walk(member)]
    writers = {scope for scope, node in scoped if isinstance(node, ast.Call)
               and _mentions(node.func) == {"_atomic_json"}}
    assert writers == {"run", "RunContext.finish"}
    touching = {scope for scope, node in scoped
                if isinstance(node, ast.Attribute) and node.attr == "outputs"}
    assert touching == {"RunContext.__init__", "RunContext.path",
                        "RunContext.finish"}
