"""Config-driven experiment runner.

Single entry point with subcommands (spectrum, flow, mourre, sweep, testbed,
weights, report); JSON configs with dotted --set overrides, CSV tables at
full precision, JSON summaries with a schema version, and an atomically
written run manifest.  Exit codes: 0 success, 1 invalid config, 2 numerical
failure, 3 acceptance-check failure under --check.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import time

import numpy as np
import scipy

import hyplab
from hyplab.errors import ConfigError, HyplabError
from hyplab.model import build_spectrum
from hyplab.pool import effective_workers

_SCHEMA = 1


# ----------------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------------

_DEFAULTS = {
    "spectrum": {"cross_section": {"kind": "circle", "radius": 1.0},
                 "K_max": 8},
    "flow": {"lambda": 100.0, "k": 0,
             "cross_section": {"kind": "circle", "radius": 1.0},
             "t_values": [0.25, 0.5, 1.0], "r0": 0.25, "r_max": 30.0,
             "n_points": 2000},
    "mourre": {"lambda": 100.0, "s0": 1.0, "K_max": 48, "C": 10.0,
               "n_points": 1200, "r0": 0.25, "auto_calibrate": True,
               "cross_section": {"kind": "circle", "radius": 1.0}, "n": 2},
    "sweep": {"lambdas": [1e2, 10**2.5, 1e3, 10**3.5, 1e4], "s": 1.0,
              "s0": 1.0, "K_max": 24, "r0": 0.25, "n_points": None,
              "weight_kind": "mode",
              "cross_section": {"kind": "circle", "radius": 1.0}, "n": 2,
              "norm_tol": 1e-6},
    "testbed": {"n_seeds": 100, "dim": 20, "window_count": 5,
                "alpha_factor": 2.0, "s": 0.75, "slack": 0.2},
    "weights": {"s": 1.0, "sigma_values": [0.0, 2.0],
                "temperate_samples": 100000, "temperate_C": 4.0,
                "temperate_M": 1.0, "nu_ladder": [2.0, 4.0, 8.0, 16.0, 32.0]},
    "report": {},
}


def _parse_override(text):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_override(config, key, value):
    parts = key.split(".")
    node = config
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def load_config(experiment, path, overrides):
    config = copy.deepcopy(_DEFAULTS[experiment])
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        config.update(loaded)
    for text in overrides or ():
        key, value = _parse_override(text)
        _apply_override(config, key, value)
    unknown = set(config) - set(_DEFAULTS[experiment])
    if unknown:
        raise ConfigError(
            f"unknown config keys for {experiment}: {sorted(unknown)}"
        )
    return config


def config_hash(config):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


# Python and numpy floats, which _fmt writes as "%.17g"
_FLOAT_TYPES = frozenset((float, np.float64))


def write_csv(path, header, rows):
    """Rows of floats only are written with one "%.17g,...,%.17g" format;
    the others value by value with _fmt.  Both give the same text."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if _FLOAT_TYPES.issuperset(map(type, row)):
                fh.write(",".join(["%.17g"] * len(row)) % tuple(row) + "\n")
            else:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _atomic_json(path, payload):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class RunContext:
    def __init__(self, experiment, config, out_dir, workers, seed):
        self.experiment = experiment
        self.config = config
        self.out_dir = out_dir
        self.workers = workers
        self.seed = seed
        self.tasks = []
        self.outputs = []
        self.started = time.time()
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name):
        full = os.path.join(self.out_dir, name)
        self.outputs.append(name)
        return full

    @contextlib.contextmanager
    def stage(self, name):
        """Time the enclosed stage as one manifest task; a stage that raises
        is recorded with status "error" before the exception propagates."""
        t0 = time.time()
        status = "error"
        try:
            yield
            status = "ok"
        finally:
            self.tasks.append({"name": name, "status": status,
                               "wall_time": time.time() - t0})

    def finish(self, status="ok", diagnostic=None):
        manifest = {
            "schema": _SCHEMA,
            "tool_version": hyplab.__version__,
            "experiment": self.experiment,
            "config_hash": config_hash(self.config),
            "resolved_config": self.config,
            "workers": self.workers,
            "seed": self.seed,
            "status": status,
            "diagnostic": diagnostic,
            "tasks": self.tasks,
            "outputs": sorted(set(self.outputs)),
            "wall_time": time.time() - self.started,
            # library versions, the CPUs this process may run on, and the
            # thread settings that BLAS and OpenMP read from the environment
            "environment": {
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "cpus": len(os.sched_getaffinity(0)),
                "thread_env": {k: v for k, v in sorted(os.environ.items())
                               if k.endswith("_NUM_THREADS")
                               or k.startswith("OPENBLAS")},
            },
        }
        _atomic_json(os.path.join(self.out_dir, "manifest.json"), manifest)


# ----------------------------------------------------------------------------
# Experiments
# ----------------------------------------------------------------------------


def _run_spectrum(ctx):
    cfg = ctx.config
    spectrum = build_spectrum(cfg["cross_section"], cfg["K_max"])
    rows = [(k, spectrum.mu(k), spectrum.multiplicity(k))
            for k in range(len(spectrum))]
    write_csv(ctx.path("spectrum.csv"), ["k", "mu", "multiplicity"], rows)
    summary = {"schema": _SCHEMA, "experiment": "spectrum",
               "modes": len(rows)}
    _atomic_json(ctx.path("summary.json"), summary)
    return summary, True


def _run_flow(ctx):
    from hyplab.conjugate import (ConjugateParams, a_k_field, flow_integrate,
                                  unitary_apply)

    cfg = ctx.config
    lam = float(cfg["lambda"])
    params = ConjugateParams.from_lambda(lam)
    spectrum = build_spectrum(cfg["cross_section"], max(cfg["k"], 0))
    nu = spectrum.nu(cfg["k"])
    field = a_k_field(params, nu)
    r = np.linspace(cfg["r0"], cfg["r_max"], cfg["n_points"])
    times = [float(t) for t in cfg["t_values"]]
    # One chained pass per sign in order of increasing |t|: each time
    # continues from the last one on its side of t = 0 (the group law).
    flows, last = {}, None
    for t in sorted(set(times), key=lambda t: (t < 0.0, abs(t))):
        start = last if last is not None and last.t * t > 0.0 else None
        with ctx.stage(f"flow_integrate t={_fmt(t)}"):
            last = flows[t] = flow_integrate(field, t, r, start=start)
    rows = []
    for t in times:
        rows.extend((t, ri, gi, di) for ri, gi, di
                    in zip(r, flows[t].gamma, flows[t].dgamma))
    write_csv(ctx.path("flow.csv"), ["t", "r", "gamma", "dgamma"], rows)
    # U_t keeps the norm of a phi that is negligible outside I_t, the part
    # of [r0, r_max] inside [gamma_t(r0), gamma_t(r_max)]: a Gaussian
    # centred in I_t, a tenth of I_t wide, is e^-25 at its ends.
    defects = []
    for t in times:
        gamma = flows[t].gamma
        lo, hi = max(gamma[0], r[0]), min(gamma[-1], r[-1])
        phi = np.exp(-((r - 0.5 * (lo + hi)) / (0.1 * (hi - lo))) ** 2)
        norm = np.linalg.norm(unitary_apply(flows[t], phi, r))
        defects.append(abs(norm / np.linalg.norm(phi) - 1.0))
    summary = {"schema": _SCHEMA, "experiment": "flow", "lambda": lam,
               "t_values": list(cfg["t_values"]),
               "n_steps": [flows[t].n_steps for t in times],
               "n_evals": [flows[t].n_evals for t in times],
               "unitarity_defect": defects}
    _atomic_json(ctx.path("summary.json"), summary)
    return summary, True


def _run_mourre(ctx):
    from hyplab.linops import RadialGrid
    from hyplab.model import ModelConfig
    from hyplab.mourre import default_positivity_grid, mourre_positivity_check

    cfg = ctx.config
    lam = float(cfg["lambda"])
    grid = default_positivity_grid(lam, n_points=cfg["n_points"],
                                   r0=cfg["r0"])
    model = ModelConfig(n=cfg["n"], r0=cfg["r0"],
                        cross_section=cfg["cross_section"])
    with ctx.stage("mourre_positivity_check"):
        report = mourre_positivity_check(
            lam, cfg["s0"], grid, cfg["K_max"],
            config=model, C=cfg["C"], auto_calibrate=cfg["auto_calibrate"],
        )
    payload = dict(report.to_dict())
    payload["schema"] = _SCHEMA
    payload["experiment"] = "mourre"
    _atomic_json(ctx.path("summary.json"), payload)
    rows = [(m.k, m.mu, m.window_size, m.excluded,
             m.min_eig if m.min_eig is not None else math.nan)
            for m in report.per_mode]
    write_csv(ctx.path("per_mode.csv"),
              ["k", "mu", "window_size", "excluded", "min_eig"], rows)
    return payload, report.passed


def _run_sweep(ctx):
    from hyplab.laplab import SweepConfig, fit_scaling, lambda_sweep

    cfg = ctx.config
    sweep_cfg = SweepConfig(
        lambdas=tuple(float(l) for l in cfg["lambdas"]),
        s=cfg["s"], s0=cfg["s0"], K_max=cfg["K_max"], r0=cfg["r0"],
        n_points=cfg["n_points"], weight_kind=cfg["weight_kind"],
        norm_tol=cfg["norm_tol"], cross_section=cfg["cross_section"],
        n=cfg["n"],
    )
    with ctx.stage("lambda_sweep"):
        result = lambda_sweep(sweep_cfg, workers=ctx.workers)
    rows = [(r["lambda"], r["k"], r["mu"], r["norm"], r["iterations"])
            for r in result.rows]
    write_csv(ctx.path("sweep.csv"),
              ["lambda", "k", "mu", "norm", "iterations"], rows)
    write_csv(ctx.path("N_of_lambda.csv"), ["lambda", "N"],
              sorted(result.N_of_lambda.items()))
    diag = result.diagnostics
    summary = {"schema": _SCHEMA, "experiment": "sweep",
               "N_of_lambda": {(_fmt(l)): v
                               for l, v in sorted(result.N_of_lambda.items())},
               "argmax_k": {_fmt(l): k
                            for l, k in sorted(diag["argmax_k"].items())},
               "sup_at_K_max": diag["sup_at_K_max"],
               "failures": diag["failures"]}
    ok = not diag["failures"]
    if len(result.lambdas()) >= 4 and max(result.lambdas()) >= 100.0 * min(
            result.lambdas()):
        fit = fit_scaling(result)
        summary["fit"] = {"p": fit.p, "q": fit.q, "C": fit.C,
                          "residual": fit.residual, "p_err": fit.p_err,
                          "q_err": fit.q_err, "cond": fit.cond}
        summary["bound_check"] = {"Cprime": fit.C_prime,
                                  "pass": fit.bound_pass}
        ok = ok and -0.6 <= fit.p <= -0.4 and fit.bound_pass
    _atomic_json(ctx.path("summary.json"), summary)
    return summary, ok


def _testbed_seed_report(args):
    seed, dim, window_count, alpha_factor, s, slack = args
    from hyplab.abstract import (TestbedInstance, algebre_identity_check,
                                 commutator_identity_residuals, diffineq_check)

    inst = TestbedInstance.generate(seed, dim=dim, window_count=window_count,
                                    alpha_factor=alpha_factor)
    z = inst.lam + 0.3 * inst.delta + 1j * 1e-6
    eps_nu = inst.delta / inst.alpha
    rep = algebre_identity_check(inst, z, 0.5 * eps_nu, 0.25 * eps_nu,
                                 seed=seed)
    r1, r2 = commutator_identity_residuals(inst, 0.3 + 0.5j, 0.2 + 0.1j)
    schedule = [0.9 * eps_nu * 1.1 ** (-i) for i in range(20)]
    diff = diffineq_check(inst, s, z, schedule, slack=slack)
    return {
        "seed": seed,
        "rejects": inst.rejects,
        "max_residual": max(rep["residual_difference"],
                            rep["residual_adjoint"], r1, r2),
        "violations": (0 if rep["norm_bound_ok"] else 1)
        + rep["quadratic_violations"] + (0 if diff["holds"] else 1),
    }


def _run_testbed(ctx):
    # Imported before parallel_map first starts its pool, so that forked
    # workers inherit the module instead of each importing it (and SciPy)
    # anew; workers forked earlier, by a sweep in this process, import it
    # once each.
    from hyplab.abstract import (BoundProfile, recurrence_iterate,
                                 recurrence_step_bound, scalar_weight_check)
    from hyplab.pool import parallel_map

    cfg = ctx.config
    seeds = [ctx.seed + i for i in range(cfg["n_seeds"])]
    args = [(s, cfg["dim"], cfg["window_count"], cfg["alpha_factor"],
             cfg["s"], cfg["slack"]) for s in sorted(seeds)]
    with ctx.stage("testbed"):
        # the scalar checks of acceptance criterion 2, once, at the run's s;
        # an s outside (1/2, 1] raises ConfigError
        scalar = scalar_weight_check(cfg["s"])
        trace, _final, steps = recurrence_iterate(
            cfg["s"], BoundProfile(1.0, 1.0, 1.0, 1.0))
        reports = parallel_map(_testbed_seed_report, args, ctx.workers)
    write_csv(ctx.path("testbed.csv"),
              ["seed", "rejects", "max_residual", "violations"],
              [(r["seed"], r["rejects"], r["max_residual"], r["violations"])
               for r in reports])
    summary = {
        "schema": _SCHEMA,
        "experiment": "testbed",
        "seeds": len(reports),
        "rejects": sum(r["rejects"] for r in reports),
        "max_residuals": max(r["max_residual"] for r in reports),
        "violations": sum(r["violations"] for r in reports),
        "scalar_weight": scalar,
        "recurrence": {"cases": [case for case, _sigma in trace],
                       "steps": steps,
                       "step_bound": recurrence_step_bound(cfg["s"])},
    }
    _atomic_json(ctx.path("summary.json"), summary)
    return summary, summary["violations"] == 0 and scalar["violations"] == 0


def _run_weights(ctx):
    from hyplab.weights import (quantize_and_factor_check, temperate_check,
                                unboundedness_demo)

    cfg = ctx.config
    with ctx.stage("temperate_check"):
        violations = temperate_check(cfg["temperate_samples"],
                                     cfg["temperate_C"], cfg["temperate_M"],
                                     seed=ctx.seed)
    ladders = {}
    for sigma in cfg["sigma_values"]:
        with ctx.stage(
                f"quantize_and_factor_check sigma={_fmt(float(sigma))}"):
            vals = quantize_and_factor_check(cfg["s"], float(sigma))
        ladders[_fmt(float(sigma))] = {"values": vals,
                                       "spread": max(vals) / min(vals)}
    with ctx.stage("unboundedness_demo"):
        ratios = unboundedness_demo(cfg["s"], cfg["nu_ladder"])
    summary = {
        "schema": _SCHEMA,
        "experiment": "weights",
        "temperate_violations": len(violations),
        "quantization_ladders": ladders,
        "unboundedness_ratios": ratios,
    }
    _atomic_json(ctx.path("summary.json"), summary)
    rows = list(zip(cfg["nu_ladder"], ratios))
    write_csv(ctx.path("unboundedness.csv"), ["nu", "ratio"], rows)
    ok = (len(violations) == 0
          and all(l["spread"] <= 2.0 for l in ladders.values())
          and all(b > a for a, b in zip(ratios, ratios[1:])))
    return summary, ok


def _run_report(ctx):
    out = ctx.out_dir
    sections = []
    for name in sorted(os.listdir(out)):
        sub = os.path.join(out, name)
        manifest_path = os.path.join(sub, "manifest.json")
        if not os.path.isdir(sub) or not os.path.exists(manifest_path):
            continue
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        summary_path = os.path.join(sub, "summary.json")
        summary = {}
        if os.path.exists(summary_path):
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
        sections.append((name, manifest, summary))
    if not sections:
        raise ConfigError(f"no completed runs found under {out}")
    lines = ["# Run report", ""]
    seen = set()
    for name, manifest, summary in sections:
        exp = manifest.get("experiment", "?")
        seen.add(exp)
        lines.append(f"## {name} ({exp}, status {manifest.get('status')})")
        if exp == "sweep" and "argmax_k" in summary:
            if "fit" in summary:
                fit = summary["fit"]
                lines.append(
                    "fitted decay: p = %.4f, q = %.4f, C = %.4g, residual %.3g"
                    % (fit["p"], fit["q"], fit["C"], fit["residual"]))
                bc = summary.get("bound_check", {})
                lines.append(
                    "bound N(lambda) <= C' (log lambda)^{2s0+2s} rho(lambda): "
                    f"C' = {bc.get('Cprime'):.4g}, pass = {bc.get('pass')}")
            lines.append("maximizing mode k per lambda: " + ", ".join(
                f"{float(l):.6g}: {k}" for l, k in sorted(
                    summary["argmax_k"].items(), key=lambda e: float(e[0]))))
            lines.append("sup at the last mode K_max (truncated sup): "
                         f"{summary['sup_at_K_max']}")
            plot_rows = sorted(
                (float(k), v) for k, v in summary["N_of_lambda"].items())
            write_csv(os.path.join(out, "plot_N_of_lambda.dat"),
                      ["lambda", "N"], plot_rows)
            ctx.outputs.append("plot_N_of_lambda.dat")
        elif exp == "mourre":
            lines.append("min_eig_ratio = %s over %s contributing modes"
                         % (summary.get("min_eig_ratio"),
                            summary.get("contributing_modes")))
            deficits = summary.get("deficits", {})
            rows = sorted(deficits.items())
            write_csv(os.path.join(out, f"plot_deficits_{name}.dat"),
                      ["term", "value"], rows)
            ctx.outputs.append(f"plot_deficits_{name}.dat")
        elif exp == "testbed":
            lines.append("violations = %s over %s seeds (rejects %s)"
                         % (summary.get("violations"), summary.get("seeds"),
                            summary.get("rejects")))
            if "scalar_weight" in summary:
                scalar, rec = summary["scalar_weight"], summary["recurrence"]
                lines.append(
                    "scalar weight: %s violations over %s samples (worst "
                    "margin %.3g); recurrence: %s in %s steps (bound %s)"
                    % (scalar["violations"], scalar["samples"],
                       scalar["worst_margin"], " -> ".join(rec["cases"]),
                       rec["steps"], rec["step_bound"]))
        elif exp == "flow":
            flow_csv = os.path.join(out, name, "flow.csv")
            if os.path.exists(flow_csv):
                lines.append(f"flow trajectories: {name}/flow.csv")
            if "unitarity_defect" in summary:
                lines.append("unitarity defect | ||U_t phi|| / ||phi|| - 1 | "
                             "per t: " + ", ".join(
                                 "%s: %.3g" % pair for pair in zip(
                                     summary["t_values"],
                                     summary["unitarity_defect"])))
        lines.append("")
    for absent in ("spectrum", "flow", "mourre", "sweep", "testbed",
                   "weights"):
        if absent not in seen:
            lines.append(f"section absent: no {absent} run in this directory")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out, "report.md"), "w", encoding="utf-8") as fh:
        fh.write(text)
    ctx.outputs.append("report.md")
    return {"schema": _SCHEMA, "experiment": "report",
            "sections": sorted(seen)}, True


_RUNNERS = {
    "spectrum": _run_spectrum,
    "flow": _run_flow,
    "mourre": _run_mourre,
    "sweep": _run_sweep,
    "testbed": _run_testbed,
    "weights": _run_weights,
    "report": _run_report,
}


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyplab",
        description="Numerical laboratory for weighted resolvent estimates "
                    "on asymptotically hyperbolic model operators.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append",
                       metavar="KEY=VALUE", help="override a config entry")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--check", action="store_true",
                       help="exit 3 when the acceptance condition fails")
        p.add_argument("--out", default="runs", help="output directory")
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    experiment = args.experiment
    try:
        config = load_config(experiment, args.config, args.overrides)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    ctx = RunContext(experiment, config, args.out,
                     effective_workers(args.workers), args.seed)
    try:
        summary, ok = _RUNNERS[experiment](ctx)
    except ConfigError as exc:
        ctx.finish(status="invalid", diagnostic=str(exc))
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except HyplabError as exc:
        ctx.finish(status="numerical-failure", diagnostic=str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    if args.check and not ok:
        ctx.finish(status="check-failed")
        print("acceptance check failed", file=sys.stderr)
        return 3
    ctx.finish(status="ok")
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
