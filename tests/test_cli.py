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
    rc = run(["spectrum", "--out", str(out), "--set", "K_max=3"])
    assert rc == 0
    manifest = _manifest(out)
    assert manifest["schema"] == 1
    assert manifest["status"] == "ok"
    assert manifest["experiment"] == "spectrum"
    # workers and seed are recorded where the subcommand takes them
    assert "workers" not in manifest and "seed" not in manifest
    assert run(["testbed", "--out", str(tmp_path / "testbed"), "--seed", "7",
                "--set", "n_seeds=1", "--set", "dim=12"]) == 0
    testbed = _manifest(tmp_path / "testbed")
    assert testbed["workers"] == 1
    assert testbed["seed"] == 7
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
    # So are the C-doubling switch and the point counts: the mourre check
    # takes one pass on a grid of its own, and the sweep ties its step to
    # lambda.
    for argv in (["mourre", "--set", "auto_calibrate=false"],
                 ["mourre", "--set", "n_points=1200"],
                 ["sweep", "--set", "n_points=100"]):
        assert run(argv + ["--out", out]) == 1


def test_non_object_config_file_exits_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]", encoding="utf-8")
    assert run(["spectrum", "--out", str(tmp_path / "o"),
                "--config", str(cfg)]) == 1


@pytest.mark.parametrize("experiment, override", [
    ("spectrum", "K_max=1.5"), ("mourre", "K_max=1.5"), ("flow", "k=1.5"),
    ("flow", "n_points=200.5"), ("testbed", "n_seeds=1.5"),
    ("testbed", "dim=12.5"), ("testbed", "window_count=3.5"),
    ("weights", "temperate_samples=1.5"), ("spectrum", "K_max=true"),
    ("flow", "lambda=true"), ("sweep", 'lambdas=["a"]'),
    ("sweep", "lambdas=5"), ("sweep", "lambdas=[100,true]"),
    ("flow", 't_values=["x"]'),
    ("flow", "t_values=0.5"), ("weights", 'nu_ladder=["x"]'),
    ("weights", "sigma_values=2"), ("mourre", "cross_section=3"),
    ("sweep", "cross_section=null")])
def test_a_number_of_the_wrong_kind_exits_one(tmp_path, capsys, experiment,
                                              override):
    # An integer key takes an integer, and a float key an integer or a
    # float; neither takes a bool.  A list of numbers takes a list of such
    # floats, and a section a dict.  The config is refused before the run.
    out = tmp_path / "run"
    assert run([experiment, "--out", str(out), "--set", override]) == 1
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [
    "cross_section.kind=torus", 'cross_section={"kind":"torus","radii":5}',
    'cross_section={"kind":"torus","radii":["a",1]}',
    'cross_section={"kind":"custom","mu":3}',
    'cross_section={"kind":"custom","mu":[0,"x"]}',
    'cross_section={"kind":"custom","mu":[0,true]}'])
def test_a_malformed_cross_section_exits_one(tmp_path, capsys, override):
    # a torus needs radii and a custom spectrum mu, each a list of numbers
    out = tmp_path / "spec"
    assert run(["spectrum", "--out", str(out), "--set", override]) == 1
    assert "invalid config" in capsys.readouterr().err
    manifest = _manifest(out)
    assert manifest["status"] == "invalid"
    assert "is not a list of numbers" in manifest["diagnostic"]


def test_a_float_key_takes_an_integer():
    config = load_config("mourre", None, ["lambda=100", "C=10",
                                          "cross_section.radius=2"])
    assert (config["lambda"], config["C"]) == (100, 10)
    assert config["cross_section"]["radius"] == 2


@pytest.mark.parametrize("argv", [
    ["mourre", "--workers", "2"], ["spectrum", "--seed", "7"],
    ["flow", "--workers", "2"], ["sweep", "--seed", "1"],
    ["weights", "--workers", "2"], ["report", "--seed", "1"],
    ["report", "--set", "title=x"], ["report", "--config", "report.json"]])
def test_a_flag_the_run_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                       argv):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


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


def test_weights_empty_nu_ladder_exits_one(tmp_path):
    out = tmp_path / "weights"
    rc = run(["weights", "--out", str(out), "--set", "nu_ladder=[]",
              "--set", "temperate_samples=1000"])
    assert rc == 1
    manifest = _manifest(out)
    assert manifest["status"] == "invalid"
    assert "nu_ladder is empty" in manifest["diagnostic"]


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
    from hyplab.conjugate import ConjugateParams, flow_integrate

    out = tmp_path / "flow"
    times = [1.0, -0.5, 0.25, 0.0]
    rc = run(["flow", "--out", str(out),
              "--set", "t_values=[1.0,-0.5,0.25,0.0]"])
    assert rc == 0
    cfg = load_config("flow", None, [])
    table = np.loadtxt(out / "flow.csv", delimiter=",", skiprows=1)
    blocks = table.reshape(len(times), cfg["n_points"], 4)
    params = ConjugateParams.from_lambda(cfg["lambda"])
    r = np.linspace(cfg["r0"], cfg["r_max"], cfg["n_points"])
    for t, block in zip(times, blocks):
        direct = flow_integrate(params, 1.0, t, r)
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


def test_flow_unitarity_defect_falls_at_second_order(tmp_path):
    # |‖U_t phi‖/‖phi‖ - 1| comes from the linear interpolation of phi at
    # gamma_t(r), so it falls like h^2, at the order criterion 4 requires.
    cfg = load_config("flow", None, [])
    defects, hs = [], []
    for n in (2000, 4000, 8000):
        out = tmp_path / f"flow{n}"
        assert run(["flow", "--out", str(out),
                    "--set", f"n_points={n}"]) == 0
        defects.append(json.loads(_read(out / "summary.json"))
                       ["unitarity_defect"])
        hs.append((cfg["r_max"] - cfg["r0"]) / (n - 1))
    orders = np.polyfit(np.log(hs), np.log(defects), 1)[0]
    assert orders.shape == (len(cfg["t_values"]),)
    assert np.all(orders >= 1.7)


def test_flow_keeps_phi_on_the_grid_at_negative_times(tmp_path):
    # a negative t pulls gamma_t(r_max) below r_max: phi must sit inside
    # [gamma_t(r0), gamma_t(r_max)], or unitary_apply raises FlowExitsGrid
    out = tmp_path / "flow"
    assert run(["flow", "--out", str(out),
                "--set", "t_values=[-1,-0.25,0.25,1]"]) == 0
    defects = json.loads(_read(out / "summary.json"))["unitarity_defect"]
    assert len(defects) == 4 and max(defects) <= 1e-5


def test_flow_negative_mode_index_exits_one(tmp_path):
    # k = -1 would index the spectrum from its end and write mode 0's flow
    out = tmp_path / "flow"
    assert run(["flow", "--out", str(out), "--set", "k=-1",
                "--set", "n_points=50"]) == 1
    manifest = _manifest(out)
    assert manifest["status"] == "invalid"
    assert not (out / "flow.csv").exists()


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
    assert lines[0] == "k,mu,window_size,min_eig,double_commutator"
    # Modes k = 0 .. K_max inclusive, one row each.
    assert len(lines) == 18
    # the double commutator: one finite value per contributing mode, their
    # max in the summary and in the report
    second = [float(line.split(",")[-1]) for line in lines[1:]]
    finite = [v for v in second if math.isfinite(v)]
    assert len(finite) == summary["contributing_modes"]
    assert summary["double_commutator_ratio"] == max(finite) > 0.0
    assert run(["report", "--out", str(tmp_path)]) == 0
    assert ("double commutator ||f(H) [[H,A],A] f(H)|| / lambda = %r "
            "(max over modes)" % summary["double_commutator_ratio"]
            in _read(tmp_path / "report.md"))


def test_mourre_check_verdict_is_the_calibration_policy(tmp_path,
                                                       monkeypatch):
    # --check accepts exactly the reports that PositivityReport.passed
    # accepts: min-eig / lam >= -mourre._RATIO_TOL, whatever that constant is.
    from hyplab import mourre
    from hyplab.linops import resolved_grid

    ratio = {}

    def fake_check(lam, *args, **kwargs):
        return mourre.PositivityReport(
            lam=lam, C=10.0, grid=resolved_grid(lam, 20.0), delta_lambda=1.0,
            min_eig_ratio=ratio["value"], per_mode=[], deficits={},
            contributing_modes=1)

    monkeypatch.setattr(mourre, "mourre_positivity_check", fake_check)
    monkeypatch.setattr(mourre, "_RATIO_TOL", 0.3)
    cases = ((-0.3, 0), (-0.2, 0), (-0.31, 3), (None, 3))
    for i, (value, rc) in enumerate(cases):
        ratio["value"] = value
        assert run(["mourre", "--out", str(tmp_path / str(i)), "--check"]) == rc


@pytest.mark.parametrize("C", ["0", "-1"])
def test_mourre_nonpositive_C_exits_one(tmp_path, C):
    # The window width is (log lam)^{-2 s0} lam^{1/2} / C: C must be positive.
    out = tmp_path / "mourre"
    assert run(["mourre", "--out", str(out), "--set", f"C={C}"]) == 1
    manifest = _manifest(out)
    assert manifest["status"] == "invalid"
    assert "must be positive" in manifest["diagnostic"]


@pytest.mark.parametrize("lam", ["0", "-5"])
def test_mourre_nonpositive_lambda_exits_one(tmp_path, lam):
    out = tmp_path / "mourre"
    assert run(["mourre", "--out", str(out), "--set", f"lambda={lam}"]) == 1
    manifest = _manifest(out)
    assert manifest["status"] == "invalid"
    assert "lambda must be positive" in manifest["diagnostic"]


def test_mourre_check_passes_at_the_sweep_energies(tmp_path):
    # The check builds its grid from the sweep's rule at every energy, four
    # times as fine: h sqrt(lambda) <= 1/4.
    from hyplab.cli import _DEFAULTS

    for lam in _DEFAULTS["sweep"]["lambdas"]:
        out = tmp_path / _fmt(lam)
        assert run(["mourre", "--out", str(out), "--check",
                    "--set", f"lambda={lam!r}"]) == 0
        summary = json.loads(_read(out / "summary.json"))
        assert summary["h"] * math.sqrt(lam) <= 0.25
        print(f"mourre lambda = {lam:.6g}: n_points {summary['n_points']}, "
              f"min_eig_ratio {summary['min_eig_ratio']:.4f}, "
              f"double_commutator_ratio "
              f"{summary['double_commutator_ratio']:.2f}")


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
    assert lines[0] == "lambda,k,mu,norm,iterations,N_sc,glancing"
    rows = [line.split(",") for line in lines[1:]]
    assert all(glancing in ("true", "false") for *_, glancing in rows)
    cells = [tuple(float(v) for v in row[:-1]) for row in rows]
    # The formula names mode 1 of the custom list at both energies: mode
    # 0's formula lies more than 1 % below it, and neither is glancing (a
    # custom list is finite: no limit row).
    assert [(lam, k) for lam, k, *_ in cells] == [(50.0, 1.0), (100.0, 1.0)]
    # Gram steps are whole numbers, at least one per cell.
    assert all(n >= 1 and n == int(n) for *_, n, _ in cells)
    summary = json.loads(_read(out / "summary.json"))
    assert "cap_sensitivity" not in summary
    for key, N in summary["N_of_lambda"].items():
        lam = float(key)
        norms = {int(k): n for l, k, _, n, _, _ in cells if l == lam}
        k_max = summary["argmax_k"][key]
        assert norms[k_max] == N == max(norms.values())
    assert summary["sup_at_K_max"] == any(
        k == 1 for k in summary["argmax_k"].values())
    # the largest |norm / N_sc - 1| of a cell where the formula is trusted
    assert summary["sc_deviation"] == max(
        abs(n / sc - 1.0) for (*_, n, _, sc), (*_, glancing)
        in zip(cells, rows) if glancing == "false")
    assert run(["report", "--out", str(tmp_path)]) == 0
    report = _read(tmp_path / "report.md")
    assert "maximizing mode k per lambda: 50: " in report
    assert ", 100: " in report
    assert ("sup at the limit cell (k -> infinity): False; sup at the last "
            "mode K_max (truncated sup): "
            f"{summary['sup_at_K_max']}") in report


def test_sweep_marks_its_limit_rows(tmp_path):
    # On a circle the mode weight's sweep ends each energy with the limit
    # cell, k -> infinity, and the report says the sup sits there.
    out = tmp_path / "sweep"
    assert run(["sweep", "--out", str(out), "--set", "lambdas=[50.0,100.0]",
                "--set", "K_max=2"]) == 0
    lines = _read(out / "sweep.csv").strip().splitlines()
    limits = [line.split(",") for line in lines[1:]
              if line.split(",")[1] == "limit"]
    assert [(lam, mu, glancing) for lam, _, mu, *_, glancing in limits] == [
        ("50", "inf", "false"), ("100", "inf", "false")]
    summary = json.loads(_read(out / "summary.json"))
    assert summary["argmax_k"] == {"50": "limit", "100": "limit"}
    for lam, _, _, norm, *_ in limits:
        assert float(norm) == summary["N_of_lambda"][lam]
    assert not summary["sup_at_K_max"]
    assert run(["report", "--out", str(tmp_path)]) == 0
    report = _read(tmp_path / "report.md")
    assert "maximizing mode k per lambda: 50: limit, 100: limit" in report
    assert ("sup at the limit cell (k -> infinity): True; sup at the last "
            "mode K_max (truncated sup): False") in report


def test_sweep_refuses_a_norm_tol_outside_the_unit_interval(tmp_path):
    # norm_tol = 0 ran 5,000 Gram steps per cell, recorded every cell as a
    # failure, and without --check exited 0 with an empty N_of_lambda.
    for tol in ("0", "-1"):
        out = tmp_path / f"tol{tol}"
        assert run(["sweep", "--out", str(out), "--set", f"norm_tol={tol}",
                    "--set", "K_max=0", "--set", "lambdas=[50.0,100.0]"]) == 1
        assert _manifest(out)["status"] == "invalid"
        assert not (out / "sweep.csv").exists()


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
# Testbed
# ---------------------------------------------------------------------------


def test_testbed_check_reports_criterion_two(tmp_path):
    out = tmp_path / "testbed"
    rc = run(["testbed", "--out", str(out), "--check", "--seed", "5",
              "--set", "n_seeds=3", "--set", "dim=12"])
    assert rc == 0
    summary = json.loads(_read(out / "summary.json"))
    assert summary["violations"] == 0 and summary["seeds"] == 3
    assert summary["scalar_weight"]["violations"] == 0
    assert summary["scalar_weight"]["samples"] == 4 * 100 * 101
    assert summary["scalar_weight"]["worst_margin"] < 0
    # s = 0.75 from sigma = 1: one power step to sigma = 1/4, then flat
    assert summary["recurrence"] == {"cases": ["power", "flat"], "steps": 2,
                                     "step_bound": 2}
    lines = _read(out / "testbed.csv").strip().splitlines()
    assert lines[0] == "seed,rejects,max_residual,violations"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [5, 6, 7]
    assert run(["report", "--out", str(tmp_path)]) == 0
    assert ("scalar weight: 0 violations over 40400 samples"
            in _read(tmp_path / "report.md"))


def test_testbed_check_fails_on_a_scalar_weight_violation(tmp_path,
                                                          monkeypatch):
    from hyplab import abstract

    def one_violation(s):
        return {"violations": 1, "worst_margin": 1e-3, "samples": 1}

    monkeypatch.setattr(abstract, "scalar_weight_check", one_violation)
    out = tmp_path / "testbed"
    rc = run(["testbed", "--out", str(out), "--check",
              "--set", "n_seeds=2", "--set", "dim=12"])
    assert rc == 3
    assert _manifest(out)["status"] == "check-failed"
    summary = json.loads(_read(out / "summary.json"))
    assert summary["violations"] == 0
    assert summary["scalar_weight"]["violations"] == 1


def test_testbed_outputs_do_not_depend_on_workers_or_batches(tmp_path,
                                                             monkeypatch):
    # 23 seeds fill two batches and part of a third
    from hyplab import abstract, cli

    outs = {}
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert run(["testbed", "--out", str(out), "--workers", workers,
                    "--set", "n_seeds=23"]) == 0
        outs[workers] = [(out / name).read_bytes()
                         for name in ("testbed.csv", "summary.json")]
    assert outs["1"] == outs["2"]
    assert 23 > cli._TESTBED_BATCH and 23 % cli._TESTBED_BATCH
    cfg = cli._DEFAULTS["testbed"]
    config = tuple(cfg[key] for key in ("dim", "window_count",
                                        "alpha_factor", "s", "slack"))
    # each instance draws its quadratic-estimate matrices from its own seed
    drawn = []
    check = abstract.algebre_identity_check

    def recording_check(instance, z, eps, eps0, seed):
        drawn.append(np.asarray(seed).tolist())
        return check(instance, z, eps, eps0, seed)

    monkeypatch.setattr(abstract, "algebre_identity_check", recording_check)
    one_batch = cli._testbed_batch_report((list(range(23)), *config))
    assert drawn == [list(range(23))]
    assert [row["seed"] for row in one_batch] == list(range(23))
    assert one_batch == [row for seed in range(23)
                         for row in cli._testbed_batch_report(([seed],
                                                               *config))]


@pytest.mark.parametrize("override", ["n_seeds=0", "window_count=0",
                                      "window_count=1", "window_count=13",
                                      "alpha_factor=0", "alpha_factor=-1"])
def test_testbed_degenerate_config_exits_one(tmp_path, override):
    # No seed to report, a spectral window of fewer than two of the dim
    # eigenvalues (or more than there are), or a window minimum of the
    # commutator that is not positive: refused as a config error, with an
    # invalid manifest, at any worker count.
    for workers in ("1", "2"):
        out = tmp_path / workers
        rc = run(["testbed", "--out", str(out), "--workers", workers,
                  "--set", "n_seeds=2", "--set", "dim=12",
                  "--set", override])
        assert rc == 1
        assert _manifest(out)["status"] == "invalid"


def test_testbed_exponent_outside_the_range_exits_one(tmp_path):
    out = tmp_path / "testbed"
    rc = run(["testbed", "--out", str(out), "--set", "s=1.2",
              "--set", "n_seeds=2"])
    assert rc == 1
    manifest = _manifest(out)
    assert manifest["status"] == "invalid"
    assert "(1/2, 1]" in manifest["diagnostic"]


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
    report = _read(tmp_path / "report.md")
    assert "flow trajectories: flow/flow.csv" in report
    assert "unitarity defect | ||U_t phi|| / ||phi|| - 1 | per t: 0.25: " \
        in report


def test_report_keeps_each_sweep_runs_plot(tmp_path):
    # two sweep runs in one directory: each gets its own N(lambda) plot, so
    # the second no longer overwrites the first
    energies = {"a": "[50.0,100.0]", "b": "[60.0,120.0]"}
    for name, lambdas in energies.items():
        assert run(["sweep", "--out", str(tmp_path / name),
                    "--set", f"lambdas={lambdas}", *_SWEEP_ARGS[2:]]) == 0
    assert run(["report", "--out", str(tmp_path)]) == 0
    for name in energies:
        summary = json.loads(_read(tmp_path / name / "summary.json"))
        lines = _read(tmp_path / f"plot_N_of_lambda_{name}.dat").split()
        assert lines[0] == "lambda,N"
        assert [[float(v) for v in line.split(",")] for line in lines[1:]] \
            == sorted([float(lam), N]
                      for lam, N in summary["N_of_lambda"].items())
    assert not (tmp_path / "plot_N_of_lambda.dat").exists()
    outputs = _manifest(tmp_path)["outputs"]
    assert {"plot_N_of_lambda_a.dat", "plot_N_of_lambda_b.dat"} <= set(outputs)


def test_report_on_empty_directory_exits_one(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert run(["report", "--out", str(out)]) == 1
