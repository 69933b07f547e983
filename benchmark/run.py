"""hyplab benchmark: one command, three workloads, end-to-end and per-layer
metrics, every output checked against a computation made apart from hyplab.

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 13 --trace 0

Run from the root of a source checkout: hyplab is imported from ./src, never
from an installed copy.  Outputs and traces go to ./.bench_runs/<workload>/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1.  See benchmark/README.md for
the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
WORKLOADS = ("sweep", "calculus", "subcommands")

# Largest N_err = max_lambda |N(lambda) / N_ref(lambda) - 1| a sweep may show
# before the run counts as wrong; the CAP path reads 0.98 today.
N_ERR_CEILING = 1.5
HS_TOL = 1e-6
FLOW_TOL = 1e-8


def set_up():
    """Import hyplab and finish the lazy set-up that its first operation
    would pay (the profile-derivative tables); returns the seconds taken."""
    start = time.perf_counter()
    import hyplab.abstract  # noqa: F401
    import hyplab.cli  # noqa: F401
    import hyplab.conjugate  # noqa: F401
    import hyplab.laplab  # noqa: F401
    import hyplab.mourre  # noqa: F401
    from hyplab import weights

    weights.profile_eval("q", 0.5)
    return time.perf_counter() - start


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment():
    import numpy
    import scipy

    blas = {k: v for k, v in os.environ.items()
            if k.endswith("_NUM_THREADS") or k.startswith("OPENBLAS")}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "affinity": sorted(os.sched_getaffinity(0)),
            "blas_env": blas}


def cli_run(argv):
    from hyplab.cli import run

    return run([str(a) for a in argv])


# ----------------------------------------------------------------------------
# Workloads.  Each has first_round() and next_round(), which return the wall
# time of one round, and trace(tracer), which returns per-layer metrics.  Every
# operation counts in self.attempted; one that exits non-zero or raises
# counts in self.failed; outputs that disagree with the benchmark's own
# computation set self.correct to False.
# ----------------------------------------------------------------------------


class Workload:
    def __init__(self, out, seed):
        self.out = out
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def wrong(self, message):
        self.correct = False
        print(f"WRONG: {message}", flush=True)

    def operate(self, fn, *args):
        """One operation; returns (seconds, ok)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            ok = fn(*args) == 0
        except Exception:  # an operation that raises is a failure
            traceback.print_exc()
            ok = False
        elapsed = time.perf_counter() - start
        if not ok:
            self.failed += 1
        return elapsed, ok

    def first_round(self):
        return self.next_round()

    def report(self):
        """Print the accuracy figures of the run."""


class SweepWorkload(Workload):
    """hyplab sweep --check --workers 2 at the default config."""

    WORKERS = 2

    def __init__(self, out, seed):
        super().__init__(out, seed)
        self.bodies = None
        self.N_err = None
        self.N = None
        self.fit = None

    def sweep(self, workers, name):
        target = self.out / name
        seconds, ok = self.operate(cli_run, ["sweep", "--check", "--workers",
                                             workers, "--out", target])
        if ok:
            self.check(target)
        return seconds

    def check(self, target):
        bodies = {n: (target / n).read_bytes()
                  for n in ("sweep.csv", "N_of_lambda.csv")}
        if self.bodies is None:
            self.bodies = bodies
            self.check_reference(target)
        elif bodies != self.bodies:
            self.wrong(f"{target.name}: sweep outputs differ between sweeps")

    def check_reference(self, target):
        manifest = json.loads((target / "manifest.json").read_text("utf-8"))
        cfg = manifest["resolved_config"]
        cs = cfg["cross_section"]
        if (cfg["weight_kind"] != "mode" or cs.get("kind") != "circle"
                or float(cs.get("radius", 1.0)) != 1.0):
            self.wrong("the reference covers the mode weight on the unit "
                       "circle only")
            return
        ref = cached_reference(cfg)
        rows = (target / "N_of_lambda.csv").read_text("utf-8").split("\n")[1:]
        self.N = {float(a): float(b) for a, b in
                  (line.split(",") for line in rows if line)}
        if sorted(self.N) != sorted(float(l) for l in ref):
            self.wrong("N_of_lambda.csv does not hold the configured energies")
            return
        self.N_err = max(abs(self.N[float(l)] / ref[l] - 1.0) for l in ref)
        self.N_ref = {float(l): v for l, v in ref.items()}
        summary = json.loads((target / "summary.json").read_text("utf-8"))
        self.fit = summary.get("fit")
        if not self.N_err <= N_ERR_CEILING:
            self.wrong(f"N_err {self.N_err:.4f} above the ceiling "
                       f"{N_ERR_CEILING}")

    def next_round(self):
        return self.sweep(self.WORKERS, "sweep")

    def trace(self, tracer):
        from spans import instrument

        pooled = self.sweep(self.WORKERS, "pooled")
        serial = self.sweep(1, "serial")
        instrument(tracer)
        try:
            traced = tracer.call("cli.sweep", self.sweep, 1, "traced")
        finally:
            tracer.restore()
        print(f"tracing overhead: serial sweep {serial:.3f} s untraced, "
              f"{traced:.3f} s traced ({100 * (traced / serial - 1):+.1f} %)",
              flush=True)
        norms = tracer.count("linops.weighted_operator_norm")
        iterations = tracer.children_of(
            "linops.weighted_operator_norm",
            {"linops.ShiftedSolver.solve"})
        ladders = tracer.results.get("laplab.limiting_absorption", [])
        return {
            "linops.factorizations": tracer.count("linops.ShiftedSolver"),
            "linops.factor_s": tracer.total("linops.ShiftedSolver"),
            "linops.solves": tracer.count("linops.ShiftedSolver.solve")
            + tracer.count("linops.ShiftedSolver.solve_adjoint"),
            "linops.solve_s": tracer.total("linops.ShiftedSolver.solve")
            + tracer.total("linops.ShiftedSolver.solve_adjoint"),
            "linops.norms": norms,
            "linops.norm_s": tracer.total("linops.weighted_operator_norm"),
            "linops.power_iters_per_norm": iterations / max(norms, 1),
            "linops.assembly_s": tracer.total("linops.discretize"),
            "laplab.eps_steps": sum(len(diag["eps"]) for _, diag in ladders),
            "laplab.pool_speedup": serial / pooled,
            "laplab.N_err": self.N_err,
        }

    def report(self):
        if self.N is None:
            return
        for lam in sorted(self.N):
            print(f"N({lam:.6g}) = {self.N[lam]:.6g}   reference "
                  f"{self.N_ref[lam]:.6g}", flush=True)
        print(f"N_err = {self.N_err:.6g}; fit {json.dumps(self.fit)}",
              flush=True)


class Bump:
    """f(E) = q((3 - |E|) / 2): 1 on [-1, 1], supported in [-3, 3], the shape
    of acceptance criterion 8, with derivatives to order 7 from
    weights.profile_eval("q", ..., extended=True).  Each instance is a new
    function to hs_calculus; the time and points of every derivative
    evaluation are counted here."""

    support = (-3.0, 3.0)

    def __init__(self):
        from hyplab import weights

        self._q = weights.profile_eval
        self.seconds = 0.0
        self.points = 0

    def __call__(self, E, j=0):
        import numpy as np

        start = time.perf_counter()
        E = np.asarray(E, dtype=float)
        vals = self._q("q", (3.0 - np.abs(E)) / 2.0, j, extended=True)
        if j:
            vals = vals * np.where(E >= 0.0, -0.5, 0.5) ** j
        self.seconds += time.perf_counter() - start
        self.points += E.size
        return vals

    @staticmethod
    def exact(E):
        """f(E) from the benchmark's own closed-form step."""
        import numpy as np

        from reference import step_q

        return step_q((3.0 - np.abs(np.asarray(E, dtype=float))) / 2.0)


class CalculusWorkload(Workload):
    """mourre.hs_calculus on 30x30 random Hermitian matrices (Hessenberg and
    tridiagonal path) and on the 120-point mode operator (banded path)."""

    DIM = 30

    def __init__(self, out, seed):
        import numpy as np

        from hyplab.linops import RadialGrid, discretize, hermitian_eig
        from hyplab.model import ModelConfig, mode_operator_spec

        super().__init__(out, seed)
        self.rng = np.random.default_rng(seed)
        self.bumps = []  # alive for the whole run: no id() is ever reused
        self.errors = []
        circle = ModelConfig(n=2, r0=0.25,
                             cross_section={"kind": "circle", "radius": 1.0})
        grid = RadialGrid(r0=0.25, r_max=12.0, N=120)
        op = discretize(mode_operator_spec(circle, 1), grid)
        evals, _ = hermitian_eig(op)
        self.banded = op.scaled_shifted(scale=2.5 / float(np.max(np.abs(evals))))
        self.banded_ref = None

    def matrix(self):
        import numpy as np

        raw = self.rng.standard_normal((self.DIM, self.DIM))
        return (raw + raw.T) / math.sqrt(2 * self.DIM)

    def reference(self, dense):
        """f(H) from numpy.linalg.eigh and the closed-form step."""
        import numpy as np

        evals, evecs = np.linalg.eigh(dense)
        return (evecs * Bump.exact(evals)) @ evecs.conj().T

    def banded_dense(self):
        import numpy as np

        op = self.banded
        dense = np.zeros((op.n, op.n), dtype=complex)
        for off, vals in op.diagonals.items():
            dense += np.diag(vals, off)
        return dense

    def apply(self, bump, op, ref):
        from hyplab import mourre

        result = {}

        def call():
            result["out"] = mourre.hs_calculus(bump, op, u_range=bump.support)
            return 0

        seconds, ok = self.operate(call)
        if ok:
            import numpy as np

            err = float(np.linalg.norm(result["out"] - ref, 2))
            self.errors.append(err)
            if not err <= HS_TOL:
                self.wrong(f"hs_calculus error {err:.3e} above {HS_TOL}")
        return seconds

    def dense_call(self, bump, H=None):
        H = self.matrix() if H is None else H
        return self.apply(bump, H, self.reference(H))

    def banded_call(self, bump):
        if self.banded_ref is None:
            self.banded_ref = self.reference(self.banded_dense())
        return self.apply(bump, self.banded, self.banded_ref)

    def first_round(self):
        self.bumps.append(Bump())
        return self.next_round()

    def next_round(self):
        return self.dense_call(self.bumps[-1]) + self.banded_call(
            self.bumps[-1])

    def trace(self, tracer):
        from spans import instrument

        bump = Bump()
        self.bumps.append(bump)
        H = self.matrix()
        instrument(tracer)
        try:
            cold = self.dense_call(bump, H)
            warm = self.dense_call(bump, H)
            dense = [self.dense_call(bump) for _ in range(3)]
            banded = [self.banded_call(bump) for _ in range(3)]
        finally:
            tracer.restore()
        return {
            "weights.deriv_s": bump.seconds,
            "weights.deriv_points": bump.points,
            "mourre.certification_s": cold - warm,
            "mourre.apply_dense_s": statistics.median(dense),
            "mourre.apply_banded_s": statistics.median(banded),
            "mourre.hs_err": max(self.errors),
        }

    def report(self):
        if self.errors:
            print(f"hs_calculus: {len(self.errors)} outputs, largest error "
                  f"{max(self.errors):.3e} (tolerance {HS_TOL})", flush=True)


class SubcommandsWorkload(Workload):
    """One pass of spectrum, flow, mourre, testbed --workers 2, weights and
    report at their defaults."""

    PASS = ("spectrum", "flow", "mourre", "testbed", "weights", "report")

    def __init__(self, out, seed):
        super().__init__(out, seed)
        self.times = {name: [] for name in self.PASS}

    def subcommand(self, name, workers=2, tracer=None):
        target = self.out if name == "report" else self.out / name
        argv = [name, "--check", "--out", target]
        if name == "testbed":
            argv += ["--workers", workers]
        if tracer is None:
            seconds, ok = self.operate(cli_run, argv)
        else:
            seconds, ok = tracer.call(f"cli.{name}", self.operate, cli_run,
                                      argv)
        if ok:
            check = getattr(self, f"check_{name}", None)
            if check is not None:
                check(target)
        return seconds

    def check_spectrum(self, target):
        manifest = json.loads((target / "manifest.json").read_text("utf-8"))
        cs = manifest["resolved_config"]["cross_section"]
        radius = float(cs.get("radius", 1.0))
        lines = (target / "spectrum.csv").read_text("utf-8").split("\n")
        rows = [line.split(",") for line in lines[1:] if line]
        expect = manifest["resolved_config"]["K_max"] + 1
        if cs.get("kind") != "circle" or len(rows) != expect:
            self.wrong("spectrum.csv: wrong cross-section or mode count")
            return
        for k, (kk, mu, mult) in enumerate(rows):
            if (int(kk) != k or float(mu) != (k / radius) ** 2
                    or int(mult) != (1 if k == 0 else 2)):
                self.wrong(f"spectrum.csv row {k}: {kk},{mu},{mult}")
                return

    def check_flow(self, target):
        """gamma_t(r) = (r + 2S) e^t - 2S and d gamma = e^t wherever
        r >= 2R, where a_0(r) = r + 2S exactly (k = 0, nu = 1)."""
        manifest = json.loads((target / "manifest.json").read_text("utf-8"))
        cfg = manifest["resolved_config"]
        if cfg["k"] != 0:
            self.wrong("flow check covers the k = 0 mode only")
            return
        lam = float(cfg["lambda"])
        R, S = math.log(5.0 * lam), math.log(4.0 * lam)
        checked = 0
        lines = (target / "flow.csv").read_text("utf-8").split("\n")[1:]
        for line in lines:
            if not line:
                continue
            t, r, gamma, dgamma = (float(v) for v in line.split(","))
            if r < 2.0 * R:
                continue
            exact = (r + 2.0 * S) * math.exp(t) - 2.0 * S
            if (abs(gamma - exact) > FLOW_TOL * abs(exact)
                    or abs(dgamma - math.exp(t)) > FLOW_TOL * math.exp(t)):
                self.wrong(f"flow.csv t={t} r={r}: gamma {gamma} against "
                           f"{exact}")
                return
            checked += 1
        if checked == 0:
            self.wrong("flow.csv has no point in the linear region r >= 2R")

    def check_report(self, target):
        text = (target / "report.md").read_text("utf-8")
        for name in self.PASS[:-1]:
            if f"## {name} ({name}, status ok)" not in text:
                self.wrong(f"report.md lacks the {name} section")
        if "section absent: no sweep run" not in text:
            self.wrong("report.md does not flag the absent sweep section")

    def next_round(self):
        total = 0.0
        for name in self.PASS:
            seconds = self.subcommand(name)
            self.times[name].append(seconds)
            total += seconds
        return total

    def trace(self, tracer):
        from spans import instrument

        self.next_round()
        pooled = self.times["testbed"][-1]
        serial = self.subcommand("testbed", workers=1)
        instrument(tracer)
        try:
            for name in self.PASS:
                self.subcommand(name, workers=1, tracer=tracer)
        finally:
            tracer.restore()
        identity = (tracer.total("abstract.algebre_identity_check")
                    + tracer.total("abstract.commutator_identity_residuals"))
        return {
            "conjugate.flow_integrate_s": tracer.total(
                "conjugate.flow_integrate"),
            "abstract.identity_s": identity,
            "abstract.diffineq_s": tracer.total("abstract.diffineq_check"),
            "weights.quantize_s": tracer.total(
                "weights.quantize_and_factor_check"),
            "weights.temperate_s": tracer.total("weights.temperate_check"),
            "linops.eig_s": tracer.total("mourre.hermitian_eig"),
            "cli.flow_s": self.times["flow"][-1],
            "cli.testbed_s": pooled,
            "cli.weights_s": self.times["weights"][-1],
            "cli.mourre_s": self.times["mourre"][-1],
            "cli.pool_speedup": serial / pooled,
        }


# ----------------------------------------------------------------------------
# Reference cache, metrics and the entry point
# ----------------------------------------------------------------------------


def cached_reference(cfg):
    """{lambda: N_ref} for the sweep config, cached under .bench_runs keyed
    on the config and on the reference solver's source.  A child process
    computes it, so its arrays never count in this process's peak RSS."""
    import hashlib

    params = {"lambdas": [float(l) for l in cfg["lambdas"]],
              "K_max": int(cfg["K_max"]), "s": float(cfg["s"]),
              "n": int(cfg["n"]), "r0": float(cfg["r0"])}
    source = BENCH / "reference.py"
    key = hashlib.sha256((json.dumps(params, sort_keys=True)
                          + source.read_text("utf-8")).encode()).hexdigest()
    path = OUT / f"reference-{key[:16]}.json"
    if not path.exists():
        print("computing the reference N(lambda) (cached afterwards)",
              flush=True)
        subprocess.run([sys.executable, str(source), json.dumps(params),
                        str(path)], check=True, timeout=300)
    table = json.loads(path.read_text("utf-8"))
    return {float(l): v for l, v in table.items()}


def setup_samples():
    """Seconds of set-up in this process and in one fresh interpreter started
    beside it (one per core)."""
    probe = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                              "--setup-probe"], stdout=subprocess.PIPE,
                             text=True)
    try:
        own = set_up()
        text, _ = probe.communicate(timeout=170)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
    if probe.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return [own, float(text.strip().splitlines()[-1])]


def measure(workload, seconds):
    """A first round that lets caches fill and lazy set-up finish (on
    calculus, the node certification), then whole rounds until `seconds` have
    passed; returns the median of the latter."""
    first = workload.first_round()
    rounds = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rounds.append(workload.next_round())
    print(f"first round {first:.3f} s; rounds after it "
          f"{[round(r, 3) for r in rounds]} s", flush=True)
    return {"round_s": statistics.median(rounds)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=13.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hyplab" / "__init__.py").is_file():
        print(f"no hyplab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(set_up())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    samples = [set_up()] if args.trace else setup_samples()
    import hyplab

    if not Path(hyplab.__file__).resolve().is_relative_to(SRC):
        print(f"hyplab was imported from {hyplab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment()
    print(f"environment: {json.dumps(env)}", flush=True)
    (out / "environment.json").write_text(json.dumps(env, indent=2), "utf-8")

    workload = {"sweep": SweepWorkload, "calculus": CalculusWorkload,
                "subcommands": SubcommandsWorkload}[args.workload](
                    out, args.seed)
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        values = workload.trace(tracer)
        tracer.write(out / f"trace-seed{args.seed}.json")
        listed = spec["per_layer"]  # metrics a workload does not reach read 0
    else:
        values = measure(workload, args.seconds)
        values["setup_s"] = statistics.median(samples)
        values["peak_rss_mb"] = peak_rss_mb()
        print(f"setup samples {samples}", flush=True)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in listed}
    workload.report()
    print(json.dumps({"correct": workload.correct,
                      "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
