"""Tests for the boundary-value sweep and scaling-fit machinery."""

import dataclasses
import math
import os

import numpy as np
import pytest

from hyplab.errors import ConfigError
from hyplab.laplab import (
    SweepConfig,
    SweepResult,
    conjugate_weight_sup,
    fit_scaling,
    lambda_sweep,
    limiting_absorption,
    log_fit,
    mode_norm,
    resolvent_expansion_check,
    sweep_grid,
)
from hyplab.linops import RadialGrid, ShiftedSolver, discretize
from hyplab.model import ModelConfig, mode_operator_spec
from hyplab.pool import effective_workers
from hyplab.weights import polynomial_weight_vector


# ---------------------------------------------------------------------------
# Boundary value of the resolvent for a single mode operator
# ---------------------------------------------------------------------------


_FREE = ModelConfig(n=2, r0=0.25,
                    cross_section={"kind": "custom", "mu": [0.0]})


def _free_mode_setup(lam=4.0, r_max=25.0, N=500):
    """Mode operator with zero cross-section eigenvalue, H = D*D + 1/4,
    closed by the outgoing wave at energy lam."""
    grid = RadialGrid(r0=0.25, r_max=r_max, N=N)
    return grid, discretize(mode_operator_spec(_FREE, 0), grid, outgoing=lam)


def test_limiting_absorption_box_insensitive():
    grid, op = _free_mode_setup()
    # Same step, twice the box: N + 1 -> 2 (N + 1).
    longer, op_long = _free_mode_setup(
        r_max=grid.r0 + 2.0 * (grid.r_max - grid.r0), N=2 * grid.N + 1)
    assert longer.h == pytest.approx(grid.h, rel=1e-14)
    # Past r_max the free discrete problem is solved exactly by the outgoing
    # wave, so the longer box reproduces the shorter box's solution.
    r = grid.points()
    rhs = np.exp(-((r - 8.0) ** 2)).astype(complex)
    short = ShiftedSolver(op, 4.0).solve(rhs)
    padded = np.concatenate([rhs, np.zeros(longer.N - grid.N)])
    long_ = ShiftedSolver(op_long, 4.0).solve(padded)[: grid.N]
    assert np.max(np.abs(long_ - short)) <= 1e-9 * np.max(np.abs(short))
    # The weighted norm only gains the weight's tail: 1.6 % at s = 1.
    for s, tol in ((1.0, 0.03), (2.0, 1e-3)):
        norms = []
        for g, o in ((grid, op), (longer, op_long)):
            w = polynomial_weight_vector(g.points(), s)
            norm, diag = limiting_absorption(o, 4.0, w, w)
            assert diag["eps"] == []
            norms.append(norm)
        assert norms[0] > 0
        assert abs(norms[1] / norms[0] - 1.0) <= tol


def test_limiting_absorption_requires_absorber():
    # Without the outgoing closure at the requested energy the box would
    # reflect the wave, so the operator is refused.
    grid, op = _free_mode_setup()
    bare = discretize(mode_operator_spec(_FREE, 0), grid)
    w = np.ones(grid.N)
    with pytest.raises(ConfigError):
        limiting_absorption(bare, 4.0, w, w)
    with pytest.raises(ConfigError):
        limiting_absorption(op, 5.0, w, w)


def test_below_threshold_resolvent_is_spectrally_bounded():
    # At energy 0.1 the distance to the essential spectrum [1/4, inf) is
    # 0.15; the decaying root closes the box with a Hermitian operator whose
    # spectrum stays in [1/4, inf), so the resolvent norm is at most 1/0.15.
    grid, op = _free_mode_setup(lam=0.1)
    assert op.is_hermitian()
    ones = np.ones(grid.N)
    norm, _ = limiting_absorption(op, 0.1, ones, ones)
    assert norm <= 1.0 / 0.15 * 1.01


def test_resolvent_expansion_identity():
    _, op = _free_mode_setup()
    err = resolvent_expansion_check(op, 4.0 + 0.5j, 4.0 + 2.0j)
    assert err <= 1e-8


# ---------------------------------------------------------------------------
# Sweep configuration, grids, and the sweep itself
# ---------------------------------------------------------------------------


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(lambdas=(100.0,), s=0.5)
    with pytest.raises(ConfigError):
        SweepConfig(lambdas=())
    with pytest.raises(ConfigError):
        SweepConfig(lambdas=(0.5,))
    with pytest.raises(ConfigError):
        SweepConfig(lambdas=(100.0,), weight_kind="gaussian")


def test_sweep_grid_resolves_local_wavelength():
    for lam in (100.0, 10000.0):
        g = sweep_grid(lam)
        assert g.r_max == pytest.approx(2.0 * math.log(5.0 * lam) + 5.0)
        assert g.h <= 0.5 / math.sqrt(lam) * 1.01
    doubled = sweep_grid(100.0, refine=2.0)
    assert doubled.N == 2 * sweep_grid(100.0).N


def test_effective_workers_clamps_to_affinity():
    cores = len(os.sched_getaffinity(0))
    assert effective_workers(1) == 1
    assert effective_workers(0) == 1
    assert effective_workers(cores) == cores
    assert effective_workers(cores + 7) == cores


def test_single_mode_sweep_sup_equals_mode_norm():
    cfg = SweepConfig(lambdas=(50.0,), s=1.0, K_max=1,
                      cross_section={"kind": "custom", "mu": [1.0]})
    res = lambda_sweep(cfg)
    assert set(res.mode_norms) == {(50.0, 0)}
    assert res.N_of_lambda[50.0] == res.mode_norms[(50.0, 0)]
    assert res.lambdas() == [50.0]
    assert not res.diagnostics["failures"]
    _, diag = mode_norm(cfg, 50.0, 0, sweep_grid(50.0))
    assert res.rows == [{"lambda": 50.0, "k": 0, "mu": 1.0,
                         "norm": res.mode_norms[(50.0, 0)],
                         "iterations": diag["iterations"]}]
    # The only mode is the last one, so the sup sits at K_max.
    assert res.diagnostics["argmax_k"] == {50.0: 0}
    assert res.diagnostics["sup_at_K_max"]


def test_sweep_sup_over_modes():
    cfg = SweepConfig(lambdas=(50.0,), s=1.0, K_max=3,
                      cross_section={"kind": "custom", "mu": [0.0, 1.0, 4.0]})
    res = lambda_sweep(cfg)
    per_mode = [res.mode_norms[(50.0, k)] for k in range(3)]
    assert res.N_of_lambda[50.0] == pytest.approx(max(per_mode))
    k_max = res.diagnostics["argmax_k"][50.0]
    assert per_mode[k_max] == max(per_mode)
    assert res.diagnostics["sup_at_K_max"] == (k_max == 2)
    # Each cell is the same computation as mode_norm on the sweep's grid,
    # started from the previous mode's vector (mode 0 cold).
    steps = {(row["lambda"], row["k"]): row["iterations"] for row in res.rows}
    start = None
    for k in range(3):
        norm, diag = mode_norm(cfg, 50.0, k, sweep_grid(50.0), start=start)
        assert norm == res.mode_norms[(50.0, k)]
        assert diag["iterations"] == steps[(50.0, k)]
        start = diag["vector"]


_DEFAULT_SWEEP = SweepConfig(lambdas=(1e2, 10**2.5, 1e3, 10**3.5, 1e4), s=1.0)


def test_warm_started_cells_match_cold_and_tight_starts():
    res = lambda_sweep(_DEFAULT_SWEEP)
    tight = lambda_sweep(dataclasses.replace(_DEFAULT_SWEEP, norm_tol=1e-13))
    worst = 0.0
    for (lam, k), norm in res.mode_norms.items():
        cold, _ = mode_norm(_DEFAULT_SWEEP, lam, k, sweep_grid(lam))
        assert abs(norm / cold - 1.0) <= 1e-8
        worst = max(worst, abs(norm / tight.mode_norms[(lam, k)] - 1.0))
    # The cold-started sweep's worst cell was 7.3e-10 from tol = 1e-13.
    assert worst <= 7.3e-10


def test_default_sweep_gram_steps(monkeypatch):
    # Timing-free guard on the warm starts: the cold-started sweep took 751
    # Gram steps, each one solve and one adjoint solve.
    solves = []
    solve = ShiftedSolver.solve

    def counted(self, rhs):
        solves.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(ShiftedSolver, "solve", counted)
    res = lambda_sweep(_DEFAULT_SWEEP)
    steps = sum(row["iterations"] for row in res.rows)
    assert steps == len(solves)
    assert steps <= 650


def test_refined_sweep_is_worker_count_invariant():
    # At refine=2 the vectors pass 10^4 entries, where BLAS level-1 calls
    # would run on threads of their own inside each pool worker.
    cfg = SweepConfig(lambdas=(1e2, 10**2.5, 1e3, 10**3.5, 1e4), s=1.0)
    serial = lambda_sweep(cfg, workers=1, refine=2.0)
    pooled = lambda_sweep(cfg, workers=2, refine=2.0)
    assert max(sweep_grid(l, refine=2.0).N for l in cfg.lambdas) > 10**4
    assert pooled.N_of_lambda == serial.N_of_lambda
    assert pooled.mode_norms == serial.mode_norms


# ---------------------------------------------------------------------------
# Scaling fits
# ---------------------------------------------------------------------------


_LAMS = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0))


def _design(lams):
    ll = np.log(np.asarray(lams, dtype=float))
    return np.column_stack([ll, np.log(ll), np.ones_like(ll)])


def test_fit_from_table_recovers_pure_power():
    p, q, C, resid, *_ = log_fit(_LAMS, [l ** -0.5 for l in _LAMS])
    assert p == pytest.approx(-0.5, abs=1e-10)
    assert q == pytest.approx(0.0, abs=1e-10)
    assert C == pytest.approx(1.0, rel=1e-10)
    assert resid <= 1e-12


def test_fit_from_table_recovers_log_correction():
    norms = [3.0 * math.log(l) ** 4 * l ** -0.5 for l in _LAMS]
    p, q, C, resid, *_ = log_fit(_LAMS, norms)
    assert p == pytest.approx(-0.5, abs=1e-10)
    assert q == pytest.approx(4.0, abs=1e-10)
    assert C == pytest.approx(3.0, rel=1e-10)


def test_fit_uncertainties_match_the_textbook_formula():
    # Perturbed data: se_j = sqrt(s^2 [(X^T X)^{-1}]_jj), s^2 = RSS/(n - 3),
    # evaluated here through the QR factors, X^T X = R^T R.
    lams = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0))
    wiggle = np.array([0.03, -0.02, 0.01, 0.04, -0.03, 0.02, -0.01])
    norms = [math.log(l) ** 0.5 * l ** -0.5 * math.exp(d)
             for l, d in zip(lams, wiggle)]
    p, q, _, _, p_err, q_err, cond = log_fit(lams, norms)
    X = _design(lams)
    y = np.log(norms)
    Q, R = np.linalg.qr(X)
    beta = np.linalg.solve(R, Q.T @ y)
    s2 = float(np.sum((y - X @ beta) ** 2)) / (len(lams) - 3)
    R_inv = np.linalg.inv(R)
    se = np.sqrt(s2 * np.sum(R_inv ** 2, axis=1))
    assert p == pytest.approx(beta[0], rel=1e-9)
    assert q == pytest.approx(beta[1], rel=1e-9)
    assert p_err == pytest.approx(se[0], rel=1e-8)
    assert q_err == pytest.approx(se[1], rel=1e-8)
    assert p_err > 0.0 and q_err > 0.0
    assert cond == pytest.approx(np.linalg.cond(X), rel=1e-12)


def _synthetic_result(lams, norms, s=1.0, s0=1.0):
    cfg = SweepConfig(lambdas=tuple(lams), s=s, s0=s0)
    return SweepResult(config=cfg, rows=[], mode_norms={},
                       N_of_lambda=dict(zip(lams, norms)), diagnostics={})


def test_fit_scaling_envelope_constant():
    norms = [l ** -0.5 for l in _LAMS]
    fit = fit_scaling(_synthetic_result(_LAMS, norms))
    assert fit.p == pytest.approx(-0.5, abs=1e-10)
    assert fit.bound_pass
    # N / ((log lam)^{2 s0 + 2 s} rho) is maximized at the smallest energy.
    expected = max(n / (math.log(l) ** 4 * l ** -0.5)
                   for l, n in zip(_LAMS, norms))
    assert fit.C_prime == pytest.approx(expected, rel=1e-12)
    assert set(fit.to_dict()) == {"p", "q", "C", "residual", "p_err",
                                  "q_err", "cond", "C_prime", "bound_pass"}
    assert fit.p_err <= 1e-10 and fit.q_err <= 1e-10
    assert fit.cond == pytest.approx(np.linalg.cond(_design(_LAMS)),
                                     rel=1e-12)


def test_fit_scaling_requires_enough_energies_and_range():
    with pytest.raises(ConfigError):
        fit_scaling(_synthetic_result([100.0, 200.0, 400.0],
                                      [1.0, 0.7, 0.5]))
    with pytest.raises(ConfigError):
        fit_scaling(_synthetic_result([100.0, 200.0, 400.0, 800.0],
                                      [1.0, 0.7, 0.5, 0.35]))


# ---------------------------------------------------------------------------
# The conjugate-weight supremum
# ---------------------------------------------------------------------------


def test_conjugate_weight_sup_stays_bounded_in_energy():
    sups = []
    for lam in (1e2, 1e3, 1e4):
        sup, ratio = conjugate_weight_sup(lam, K_max=16, n_r=1000)
        assert ratio <= 1.0
        sups.append(sup)
    # The raw supremum itself is stable across two decades of energy.
    assert max(sups) / min(sups) <= 1.10
