"""End-to-end tests of the command-line entry points."""

import json
import math
import os

import numpy as np
import pytest
import scipy

from hyplab.cli import _fmt, config_hash, load_config, run, write_csv
from hyplab.laplab import log_fit


def _read(path):
    return path.read_text(encoding="utf-8")


def _manifest(out_dir):
    return json.loads(_read(out_dir / "manifest.json"))


# ---------------------------------------------------------------------------
# Value formatting
# ---------------------------------------------------------------------------


def test_fmt_round_trips_floats_and_marks_booleans():
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(5) == "5"
    assert float(_fmt(0.1)) == 0.1
    assert _fmt(0.1) == "%.17g" % 0.1
    assert float(_fmt(1.0 / 3.0)) == 1.0 / 3.0


def test_write_csv_rows_match_the_per_value_format(tmp_path):
    # all-float rows take the one-format path, the others go value by
    # value; every row must read as _fmt writes it
    rows = [
        (0.25, np.float64(1.0 / 3.0), -2.5e-300, 1e17),
        (np.float64("nan"), 0.1, math.inf, -0.0),
        (True, np.int64(7), np.float64(0.1), 2.0, "x", math.nan),
        (False, 3, np.float32(0.1), np.int32(-4)),
        (True, 0.5),
        (1.0, np.int64(2)),
        ("label", 1.0),
        (),
    ]
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b"], rows)
    expected = "a,b\n" + "".join(",".join(_fmt(v) for v in row) + "\n"
                                 for row in rows)
    assert path.read_bytes() == expected.encode()


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------


def test_spectrum_run_writes_closed_form_table(tmp_path):
    out = tmp_path / "spec"
    rc = run(["spectrum", "--out", str(out), "--set", "K_max=3"])
    assert rc == 0
    lines = _read(out / "spectrum.csv").strip().splitlines()
    assert lines[0] == "k,mu,multiplicity"
    table = [line.split(",") for line in lines[1:]]
    # Circle of radius one: mu = j^2 with multiplicity 2 for j >= 1.
    assert [row[1] for row in table] == ["0", "1", "4", "9"]
    assert [row[2] for row in table] == ["1", "2", "2", "2"]
    summary = json.loads(_read(out / "summary.json"))
    assert summary["modes"] == 4


def test_manifest_records_config_and_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.setenv("OPENBLAS_VERBOSE", "0")
    out = tmp_path / "spec"
    rc = run(["spectrum", "--out", str(out), "--set", "K_max=3",
              "--seed", "7"])
    assert rc == 0
    manifest = _manifest(out)
    assert manifest["schema"] == 1
    assert manifest["status"] == "ok"
    assert manifest["experiment"] == "spectrum"
    assert manifest["workers"] == 1
    assert manifest["seed"] == 7
    assert set(manifest["outputs"]) == {"spectrum.csv", "summary.json"}
    resolved = load_config("spectrum", None, ["K_max=3"])
    assert manifest["config_hash"] == config_hash(resolved)
    assert manifest["resolved_config"] == resolved
    assert manifest["wall_time"] >= 0
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__
    assert env["cpus"] == len(os.sched_getaffinity(0))
    threads = env["thread_env"]
    assert threads["OPENBLAS_NUM_THREADS"] == "1"
    assert threads["OMP_NUM_THREADS"] == "2"
    assert threads["OPENBLAS_VERBOSE"] == "0"
    assert "PATH" not in threads


def test_dotted_override_leaves_the_defaults_alone():
    changed = load_config("spectrum", None, ["cross_section.radius=2.0"])
    assert changed["cross_section"] == {"kind": "circle", "radius": 2.0}
    default = load_config("spectrum", None, [])
    assert default["cross_section"] == {"kind": "circle", "radius": 1.0}


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_invalid_config_exits_one(tmp_path):
    out = str(tmp_path / "bad")
    assert run(["sweep", "--out", out, "--set", "lambdas=[]"]) == 1
    assert run(["sweep", "--out", out, "--set", "bogus=1"]) == 1
    assert run(["sweep", "--out", out, "--set", "no-equals-sign"]) == 1
    # The keys of the former absorbing layer and eps ladder are unknown.
    for key in ("eps_start_factor", "eps_ratio", "eps_floor_scale",
                "cap_exponent", "cap_fraction", "rel_tol"):
        assert run(["sweep", "--out", out, "--set", f"{key}=1"]) == 1


def test_non_object_config_file_exits_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]", encoding="utf-8")
    assert run(["spectrum", "--out", str(tmp_path / "o"),
                "--config", str(cfg)]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exits_two(tmp_path):
    # The plateau flow grows like e^t, so an extreme time overflows the
    # integrator and must surface as a numerical failure, not a crash.
    out = tmp_path / "flow"
    rc = run(["flow", "--out", str(out), "--set", "t_values=[800.0]",
              "--set", "n_points=50"])
    assert rc == 2
    manifest = _manifest(out)
    assert manifest["status"] == "numerical-failure"
    assert "flow integration failed" in manifest["diagnostic"]


def test_failed_check_exits_three(tmp_path):
    # A decreasing cutoff ladder reverses the growth the check requires.
    out = tmp_path / "weights"
    rc = run(["weights", "--out", str(out), "--check",
              "--set", "nu_ladder=[32.0,16.0,8.0]",
              "--set", "temperate_samples=1000"])
    assert rc == 3
    assert _manifest(out)["status"] == "check-failed"


# ---------------------------------------------------------------------------
# Experiment runs
# ---------------------------------------------------------------------------


def test_flow_run_writes_trajectories(tmp_path):
    out = tmp_path / "flow"
    rc = run(["flow", "--out", str(out), "--set", "t_values=[0.25]",
              "--set", "n_points=50"])
    assert rc == 0
    lines = _read(out / "flow.csv").strip().splitlines()
    assert lines[0] == "t,r,gamma,dgamma"
    assert len(lines) == 51


def test_flow_manifest_times_each_t_value(tmp_path):
    out = tmp_path / "flow"
    rc = run(["flow", "--out", str(out), "--set", "t_values=[0.25,0.5]",
              "--set", "n_points=50"])
    assert rc == 0
    tasks = _manifest(out)["tasks"]
    assert [t["name"] for t in tasks] == ["flow_integrate t=0.25",
                                         "flow_integrate t=0.5"]
    assert all(t["status"] == "ok" and t["wall_time"] >= 0 for t in tasks)


def test_flow_chains_times_but_writes_them_in_config_order(tmp_path):
    from hyplab.conjugate import ConjugateParams, a_k_field, flow_integrate

    out = tmp_path / "flow"
    times = [1.0, -0.5, 0.25, 0.0]
    rc = run(["flow", "--out", str(out),
              "--set", "t_values=[1.0,-0.5,0.25,0.0]"])
    assert rc == 0
    cfg = load_config("flow", None, [])
    table = np.loadtxt(out / "flow.csv", delimiter=",", skiprows=1)
    blocks = table.reshape(len(times), cfg["n_points"], 4)
    field = a_k_field(ConjugateParams.from_lambda(cfg["lambda"]), 1.0)
    r = np.linspace(cfg["r0"], cfg["r_max"], cfg["n_points"])
    for t, block in zip(times, blocks):
        direct = flow_integrate(field, t, r)
        assert np.all(block[:, 0] == t)
        assert np.array_equal(block[:, 1], r)
        assert block[:, 2] == pytest.approx(direct.gamma, rel=1e-9)
        assert block[:, 3] == pytest.approx(direct.dgamma, rel=1e-9)
    tasks = _manifest(out)["tasks"]
    assert sorted(t["name"] for t in tasks) == sorted(
        f"flow_integrate t={_fmt(t)}" for t in times)
    summary = json.loads(_read(out / "summary.json"))
    # t = 0 takes no step; each later time continues from the one before
    assert summary["n_steps"][3] == summary["n_evals"][3] == 0
    assert all(n > 0 for n in summary["n_steps"][:3])


def test_failed_stage_is_recorded_in_the_manifest(tmp_path):
    out = tmp_path / "mourre"
    rc = run(["mourre", "--out", str(out), "--set", "K_max=4"])
    assert rc == 2
    manifest = _manifest(out)
    assert manifest["status"] == "numerical-failure"
    tasks = manifest["tasks"]
    assert [t["name"] for t in tasks] == ["mourre_positivity_check"]
    assert tasks[0]["status"] == "error" and tasks[0]["wall_time"] >= 0


def test_weights_check_passes_with_defaults(tmp_path):
    out = tmp_path / "weights"
    rc = run(["weights", "--out", str(out), "--check",
              "--set", "temperate_samples=1000"])
    assert rc == 0
    summary = json.loads(_read(out / "summary.json"))
    assert summary["temperate_violations"] == 0
    ratios = summary["unboundedness_ratios"]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    for ladder in summary["quantization_ladders"].values():
        assert ladder["spread"] <= 2.0
    tasks = _manifest(out)["tasks"]
    assert [t["name"] for t in tasks] == [
        "temperate_check", "quantize_and_factor_check sigma=0",
        "quantize_and_factor_check sigma=2", "unboundedness_demo"]
    assert all(t["status"] == "ok" and t["wall_time"] >= 0 for t in tasks)


def test_mourre_check_reports_positivity(tmp_path):
    out = tmp_path / "mourre"
    rc = run(["mourre", "--out", str(out), "--check",
              "--set", "lambda=100", "--set", "K_max=16"])
    assert rc == 0
    summary = json.loads(_read(out / "summary.json"))
    assert summary["min_eig_ratio"] >= -0.1
    assert summary["contributing_modes"] >= 1
    lines = _read(out / "per_mode.csv").strip().splitlines()
    assert lines[0] == "k,mu,window_size,excluded,min_eig"
    # Modes k = 0 .. K_max inclusive, one row each.
    assert len(lines) == 18


def test_mourre_check_verdict_is_the_calibration_policy(tmp_path,
                                                       monkeypatch):
    # --check accepts exactly the reports that auto-calibration accepts:
    # min-eig / lam >= -mourre._RATIO_TOL, whatever that constant is.
    from hyplab import mourre

    ratio = {}

    def fake_check(lam, *args, **kwargs):
        return mourre.PositivityReport(
            lam=lam, C=10.0, delta_lambda=1.0, min_eig_ratio=ratio["value"],
            per_mode=[], deficits={}, contributing_modes=1)

    monkeypatch.setattr(mourre, "mourre_positivity_check", fake_check)
    monkeypatch.setattr(mourre, "_RATIO_TOL", 0.3)
    cases = ((-0.3, 0), (-0.2, 0), (-0.31, 3), (None, 3))
    for i, (value, rc) in enumerate(cases):
        ratio["value"] = value
        assert run(["mourre", "--out", str(tmp_path / str(i)), "--check"]) == rc


def test_mourre_manifest_times_the_positivity_check(tmp_path):
    out = tmp_path / "mourre"
    rc = run(["mourre", "--out", str(out)])
    assert rc == 0
    tasks = _manifest(out)["tasks"]
    assert [t["name"] for t in tasks] == ["mourre_positivity_check"]
    assert all(t["status"] == "ok" and t["wall_time"] >= 0 for t in tasks)


_SWEEP_ARGS = ["--set", "lambdas=[50.0,100.0]", "--set", "K_max=2",
               "--set", 'cross_section={"kind":"custom","mu":[0.0,1.0]}']


def test_sweep_outputs_are_worker_count_invariant(tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert run(["sweep", "--out", str(out1), "--workers", "1",
                *_SWEEP_ARGS]) == 0
    assert run(["sweep", "--out", str(out2), "--workers", "2",
                *_SWEEP_ARGS]) == 0
    assert _read(out1 / "sweep.csv") == _read(out2 / "sweep.csv")
    assert _read(out1 / "N_of_lambda.csv") == _read(out2 / "N_of_lambda.csv")
    summary = json.loads(_read(out1 / "summary.json"))
    assert not summary["failures"]
    assert set(summary["N_of_lambda"]) == {"50", "100"}
    assert all(math.isfinite(v) and v > 0
               for v in summary["N_of_lambda"].values())


def test_sweep_reports_the_maximizing_mode(tmp_path):
    out = tmp_path / "sweep"
    cores = len(os.sched_getaffinity(0))
    assert run(["sweep", "--out", str(out), "--workers", str(cores + 1),
                *_SWEEP_ARGS]) == 0
    # The pool never gets more workers than the process has cores.
    assert _manifest(out)["workers"] == cores
    lines = _read(out / "sweep.csv").strip().splitlines()
    assert lines[0] == "lambda,k,mu,norm,iterations"
    cells = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert [(lam, k) for lam, k, _, _, _ in cells] == [
        (50.0, 0.0), (50.0, 1.0), (100.0, 0.0), (100.0, 1.0)]
    # Gram steps are whole numbers, at least one per cell.
    assert all(n >= 1 and n == int(n) for *_, n in cells)
    summary = json.loads(_read(out / "summary.json"))
    assert "cap_sensitivity" not in summary
    for key, N in summary["N_of_lambda"].items():
        lam = float(key)
        norms = {int(k): n for l, k, _, n, _ in cells if l == lam}
        k_max = summary["argmax_k"][key]
        assert norms[k_max] == N == max(norms.values())
    assert summary["sup_at_K_max"] == any(
        k == 1 for k in summary["argmax_k"].values())
    assert run(["report", "--out", str(tmp_path)]) == 0
    report = _read(tmp_path / "report.md")
    assert "maximizing mode k per lambda: 50: " in report
    assert ", 100: " in report
    assert ("sup at the last mode K_max (truncated sup): "
            f"{summary['sup_at_K_max']}") in report


def test_sweep_fit_reports_its_uncertainties(tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--out", str(out), "--set",
                "lambdas=[50.0,200.0,1000.0,5000.0]", *_SWEEP_ARGS[2:]]) == 0
    summary = json.loads(_read(out / "summary.json"))
    lams = sorted(summary["N_of_lambda"], key=float)
    expected = dict(zip(
        ("p", "q", "C", "residual", "p_err", "q_err", "cond"),
        log_fit([float(l) for l in lams],
                [summary["N_of_lambda"][l] for l in lams])))
    assert summary["fit"] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def test_report_collects_runs_and_lists_absent_sections(tmp_path):
    assert run(["spectrum", "--out", str(tmp_path / "spec"),
                "--set", "K_max=3"]) == 0
    assert run(["report", "--out", str(tmp_path)]) == 0
    report = _read(tmp_path / "report.md")
    assert "# Run report" in report
    assert "spec (spectrum, status ok)" in report
    for absent in ("flow", "mourre", "sweep", "testbed", "weights"):
        assert f"section absent: no {absent} run" in report


def test_report_links_flow_trajectories(tmp_path):
    # "spec" sorts after "flow", so the flow section must not borrow the
    # directory of the last run listed.
    assert run(["flow", "--out", str(tmp_path / "flow"),
                "--set", "t_values=[0.25]", "--set", "n_points=50"]) == 0
    assert run(["spectrum", "--out", str(tmp_path / "spec"),
                "--set", "K_max=3"]) == 0
    assert run(["report", "--out", str(tmp_path)]) == 0
    assert "flow trajectories: flow/flow.csv" in _read(tmp_path / "report.md")


def test_report_on_empty_directory_exits_one(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert run(["report", "--out", str(out)]) == 1
