"""Tests for the boundary-value sweep and scaling-fit machinery."""

import dataclasses
import math
import os

import numpy as np
import pytest

from hyplab import laplab
from hyplab.errors import ConfigError
from hyplab.laplab import (
    LIMIT,
    SweepConfig,
    SweepResult,
    fit_scaling,
    lambda_sweep,
    limiting_absorption,
    log_fit,
    semiclassical_norm,
    sweep_grid,
    turning_point,
)
from hyplab.linops import RadialGrid, ShiftedSolver, discretize
from hyplab.model import ModelConfig, mode_operator_spec
from hyplab.pool import effective_workers
from hyplab.weights import mode_weight_vector, polynomial_weight_vector

from conftest import (cell_norms, limit_grid, limit_norm, mode_chain,
                      mode_norm)


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
            norm, diag = limiting_absorption(o, 4.0, w)
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
        limiting_absorption(bare, 4.0, w)
    with pytest.raises(ConfigError):
        limiting_absorption(op, 5.0, w)


def test_below_threshold_resolvent_is_spectrally_bounded():
    # At energy 0.1 the distance to the essential spectrum [1/4, inf) is
    # 0.15; the decaying root closes the box with a Hermitian operator whose
    # spectrum stays in [1/4, inf), so the resolvent norm is at most 1/0.15.
    grid, op = _free_mode_setup(lam=0.1)
    assert op.is_hermitian()
    ones = np.ones(grid.N)
    norm, _ = limiting_absorption(op, 0.1, ones)
    assert norm <= 1.0 / 0.15 * 1.01


def resolvent_expansion_check(op, z, Z, probe=None):
    """Relative residual of the iterated second-resolvent identity

    (H-z)^{-1} = (H-Z)^{-1} + (z-Z)(H-Z)^{-2}
                 + (z-Z)^2 (H-Z)^{-1}(H-z)^{-1}(H-Z)^{-1}

    on a probe vector."""
    if probe is None:
        n = op.n
        probe = np.cos(0.3 * np.arange(n)) + 0.2j * np.sin(np.arange(n) * 0.7)
    sz = ShiftedSolver(op, z)
    sZ = ShiftedSolver(op, Z)
    lhs = sz.solve(probe)
    rZ = sZ.solve(probe)
    rhs = rZ + (z - Z) * sZ.solve(rZ) + (z - Z) ** 2 * sZ.solve(sz.solve(rZ))
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))


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
    # A tolerance of 0 or below never converges: every cell would run
    # _MAX_POWER_STEPS Gram steps and fail.  One of 1 or more stops at once.
    for tol in (0.0, -1.0, 1.0):
        with pytest.raises(ConfigError):
            SweepConfig(lambdas=(100.0,), norm_tol=tol)


def test_sweep_grid_resolves_local_wavelength():
    for lam in (100.0, 10000.0):
        g = sweep_grid(lam)
        assert g.r_max == pytest.approx(2.0 * math.log(5.0 * lam) + 5.0)
        assert g.h <= 1.0 / math.sqrt(lam) * 1.01
    doubled = sweep_grid(100.0, refine=2.0)
    assert doubled.N == 2 * sweep_grid(100.0).N


def test_effective_workers_clamps_to_affinity():
    cores = len(os.sched_getaffinity(0))
    assert effective_workers(1) == 1
    assert effective_workers(0) == 1
    assert effective_workers(cores) == cores
    assert effective_workers(cores + 7) == cores


def test_single_mode_sweep_sup_equals_mode_norm():
    # A custom spectrum is finite: no limit cell.
    cfg = SweepConfig(lambdas=(50.0,), s=1.0, K_max=1,
                      cross_section={"kind": "custom", "mu": [1.0]})
    res = lambda_sweep(cfg)
    norms = cell_norms(res)
    assert set(norms) == {(50.0, 0)}
    assert res.N_of_lambda[50.0] == norms[(50.0, 0)]
    assert res.lambdas() == [50.0]
    assert not res.diagnostics["failures"]
    _, diag = mode_norm(cfg, 50.0, 0, sweep_grid(50.0))
    (n_sc,) = semiclassical_norm(*turning_point(50.0, [1.0], 0.25), 0.25,
                                 sweep_grid(50.0).r_max, 1.0,
                                 log_nu=[0.5 * math.log(2.0)])
    assert res.rows == [{"lambda": 50.0, "k": 0, "mu": 1.0,
                         "norm": norms[(50.0, 0)],
                         "iterations": diag["iterations"],
                         "N_sc": n_sc, "glancing": False}]
    # The only mode is the last one, so the sup sits at K_max.
    assert res.diagnostics["argmax_k"] == {50.0: 0}
    assert res.diagnostics["sup_at_K_max"]


def test_sweep_sup_over_modes():
    cfg = SweepConfig(lambdas=(50.0,), s=1.0, K_max=3,
                      cross_section={"kind": "custom", "mu": [0.0, 1.0, 4.0]})
    res = lambda_sweep(cfg)
    norms = cell_norms(res)
    named = sorted(k for _, k in norms)
    assert named and set(named) <= {0, 1, 2}
    assert res.N_of_lambda[50.0] == max(norms.values())
    k_max = res.diagnostics["argmax_k"][50.0]
    assert norms[(50.0, k_max)] == res.N_of_lambda[50.0]
    assert res.diagnostics["sup_at_K_max"] == (k_max == 2)
    # No mode of the chain over every k exceeds the sup.
    chain = mode_chain(cfg, 50.0)
    assert max(chain.values()) <= res.N_of_lambda[50.0] * (1.0 + 1e-8)
    # Each cell is the same computation as mode_norm on the sweep's grid,
    # started from the previous named cell's vector (the first cold).
    steps = {(row["lambda"], row["k"]): row["iterations"] for row in res.rows}
    start = None
    for k in named:
        norm, diag = mode_norm(cfg, 50.0, k, sweep_grid(50.0), start=start)
        assert norm == norms[(50.0, k)]
        assert diag["iterations"] == steps[(50.0, k)]
        start = diag["vector"]


_DEFAULT_SWEEP = SweepConfig(lambdas=(1e2, 10**2.5, 1e3, 10**3.5, 1e4), s=1.0)


def _cold(cfg, lam, k):
    """A sweep cell at lam from a cold start: mode k, or the limit cell."""
    if k == LIMIT:
        return limit_norm(cfg, lam, limit_grid(lam))[0]
    return mode_norm(cfg, lam, k, sweep_grid(lam))[0]


def test_warm_started_cells_match_cold_and_tight_starts():
    res = lambda_sweep(_DEFAULT_SWEEP)
    tight = cell_norms(lambda_sweep(
        dataclasses.replace(_DEFAULT_SWEEP, norm_tol=1e-13)))
    norms = cell_norms(res)
    assert set(tight) == set(norms)
    worst = 0.0
    for (lam, k), norm in norms.items():
        assert abs(norm / _cold(_DEFAULT_SWEEP, lam, k) - 1.0) <= 1e-8
        worst = max(worst, abs(norm / tight[(lam, k)] - 1.0))
    # The cold-started sweep's worst cell was 7.3e-10 from tol = 1e-13.
    assert worst <= 7.3e-10


def test_the_sweep_limit_rows_are_the_limit_cell(monkeypatch):
    # The sweep's limit rows against the cell on the sweep's r_max from
    # x0 = -(1/2) log lam - 6, at the sweep's step, built here from the
    # public pieces: the same grid, norm and Gram steps, no eps ladder, and
    # the formula of w^{-s}(x) on that box.
    measured = {}
    measure = laplab.limiting_absorption

    def recorded(op, lam, w, **kwargs):
        norm, diag = measure(op, lam, w, **kwargs)
        measured[lam, op.grid.r0] = (op.grid, diag)
        return norm, diag

    monkeypatch.setattr(laplab, "limiting_absorption", recorded)
    res = lambda_sweep(dataclasses.replace(_DEFAULT_SWEEP, lambdas=(1e2, 1e4)))
    rows = {row["lambda"]: row for row in res.rows if row["k"] == LIMIT}
    assert sorted(rows) == [1e2, 1e4]
    for lam, row in rows.items():
        grid = limit_grid(lam)
        assert grid.r_max == sweep_grid(lam).r_max
        assert grid.h == pytest.approx(sweep_grid(lam).h, rel=1e-2)
        swept, swept_diag = measured[lam, grid.r0]
        assert (swept.r_max, swept.N) == (grid.r_max, grid.N)
        assert swept_diag["eps"] == [] and row["iterations"] >= 1
        norm, diag = limit_norm(_DEFAULT_SWEEP, lam, grid)
        assert diag["eps"] == []
        assert row["norm"] == norm
        assert row["iterations"] == diag["iterations"]
        (n_sc,) = semiclassical_norm(*turning_point(lam, [1.0], 0.25),
                                     grid.r0, grid.r_max, 1.0, log_nu=[0.0])
        assert (row["mu"], row["N_sc"], row["glancing"]) == (
            math.inf, n_sc, False)


def test_default_sweep_gram_steps(monkeypatch):
    # Timing-free guard on the cells the formula names and on their warm
    # starts: 35 cells and 192 Gram steps, each one solve and one adjoint
    # solve.  The chain over every k <= K_max ran 125 cells and 610 steps,
    # under a bound of 650.
    solves = []
    solve = ShiftedSolver.solve

    def counted(self, rhs):
        solves.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(ShiftedSolver, "solve", counted)
    res = lambda_sweep(_DEFAULT_SWEEP)
    steps = sum(row["iterations"] for row in res.rows)
    assert steps == len(solves)
    assert len(res.rows) <= 35
    assert steps <= 200


def test_refined_sweep_is_worker_count_invariant():
    # At refine=4 the vectors pass 10^4 entries, where BLAS level-1 calls
    # would run on threads of their own inside each pool worker.
    cfg = SweepConfig(lambdas=(1e2, 10**2.5, 1e3, 10**3.5, 1e4), s=1.0)
    serial = lambda_sweep(cfg, workers=1, refine=4.0)
    pooled = lambda_sweep(cfg, workers=2, refine=4.0)
    assert max(sweep_grid(l, refine=4.0).N for l in cfg.lambdas) > 10**4
    assert pooled.N_of_lambda == serial.N_of_lambda
    assert pooled.rows == serial.rows


@pytest.mark.parametrize("kind", ["mode", "polynomial"])
def test_default_cells_are_within_one_and_a_half_percent_of_refine_four(kind):
    # Numerov's pencil at h = 1/sqrt(lam): the worst cell read 1.11e-2 from
    # its refine=4 value; the order-2 stencil at half the step read 3.08e-2.
    # Every mode k <= K_max, by the chain, and the sweep's own cells, the
    # limit cells included.
    cfg = SweepConfig(lambdas=(1e2, 1e4), s=1.0, weight_kind=kind)
    base = cell_norms(lambda_sweep(cfg, workers=2))
    fine = cell_norms(lambda_sweep(cfg, workers=2, refine=4.0))
    assert set(base) == set(fine)
    assert ((1e4, LIMIT) in base) == (kind == "mode")
    for cell, norm in base.items():
        assert abs(norm / fine[cell] - 1.0) <= 1.5e-2
    for lam in cfg.lambdas:
        chain, fine_chain = mode_chain(cfg, lam), mode_chain(cfg, lam, 4.0)
        assert len(chain) == cfg.K_max + 1
        for k, norm in chain.items():
            assert abs(norm / fine_chain[k] - 1.0) <= 1.5e-2


# ---------------------------------------------------------------------------
# The semiclassical formula and the modes it names
# ---------------------------------------------------------------------------


def _formula(cfg, lam):
    """N_k^sc of every mode k <= K_max at lam on the sweep's box, and
    whether each mode is glancing, |r_t - r0| kappa^{2/3} < 2."""
    spectrum = cfg.model().spectrum(cfg.K_max)
    mus = np.array([spectrum.mu(k) for k in range(len(spectrum))])
    log_nu = 0.5 * np.log1p(mus) if cfg.weight_kind == "mode" else None
    kappa = math.sqrt(lam - 0.25)
    with np.errstate(divide="ignore"):
        r_t = 0.5 * np.log(mus / kappa**2)
    glancing = np.abs(r_t - cfg.r0) * kappa ** (2.0 / 3.0) < 2.0
    n_sc = semiclassical_norm(kappa, r_t, cfg.r0, sweep_grid(lam).r_max,
                              cfg.s, log_nu=log_nu)
    return n_sc, glancing


def _richardson(norm_at):
    """The step-converged (16 N_4 - N_2) / 15 from the norms at refine 2
    and 4."""
    return (16.0 * norm_at(4.0) - norm_at(2.0)) / 15.0


def test_formula_matches_adaptive_quadrature():
    # scipy's quad on the same integral, in t = (r - r_t)^{1/2} from a
    # turning point inside the box and in r otherwise, split at the weight's
    # kinks; the panels agree to 1e-10 from lam = 1e2 to 1e6.
    from scipy.integrate import quad

    for lam in (1e2, 1e4, 1e6):
        r_max = sweep_grid(lam).r_max
        kappa2 = lam - 0.25
        mus = np.array([0.0, 1.0, 37.0, 0.7 * kappa2, 3.0 * kappa2,
                        2.2 * lam, 1e3 * lam, 1e6 * lam])
        for log_nu in (None, 0.5 * np.log1p(mus)):
            got = semiclassical_norm(*turning_point(lam, mus, 0.25), 0.25,
                                     r_max, 1.0, log_nu=log_nu)
            for i, mu in enumerate(mus):
                shift = None if log_nu is None else log_nu[i]

                def weight(r):
                    if shift is None:
                        return float(polynomial_weight_vector(r, 1.0))
                    return float(mode_weight_vector(np.array([r - shift]),
                                                    1.0, 1.0)[0])

                r_t = 0.5 * math.log(mu / kappa2) if mu > 0 else -math.inf
                kinks = [] if shift is None else [shift, shift + 1.0]
                if r_t >= r_max:
                    assert got[i] == 0.0
                    continue
                if r_t >= 0.25:
                    value, _ = quad(
                        lambda t: weight(r_t + t * t) ** 2 * 2.0 * t
                        / math.sqrt(-kappa2 * math.expm1(-2.0 * t * t)),
                        0.0, math.sqrt(r_max - r_t), limit=400,
                        points=[math.sqrt(b - r_t) for b in kinks
                                if r_t < b < r_max] or None)
                else:
                    value, _ = quad(
                        lambda r: weight(r) ** 2
                        / math.sqrt(kappa2 - mu * math.exp(-2.0 * r)),
                        0.25, r_max, limit=400,
                        points=[b for b in kinks if 0.25 < b < r_max] or None)
                assert got[i] == pytest.approx(2.0 / math.pi * value,
                                               rel=1e-9)


# Largest |cell / N_sc - 1| of a trusted mode k <= 24 against its
# step-converged cell: measured 3.5e-3 (k = 0) and 3.0e-5 for the mode
# weight at 1e2 and 1e4, 6.3e-3 (k = 8, next to the glancing band) and 8e-6
# for the polynomial weight.
@pytest.mark.parametrize("kind, lam, tol", [
    ("mode", 1e2, 4e-3), ("mode", 1e4, 5e-5),
    ("polynomial", 1e2, 7e-3), ("polynomial", 1e4, 1e-5)])
def test_formula_matches_step_converged_cells(kind, lam, tol):
    cfg = SweepConfig(lambdas=(lam,), s=1.0, weight_kind=kind)
    n_sc, glancing = _formula(cfg, lam)
    assert np.count_nonzero(~glancing) >= 14
    for k in np.flatnonzero(~glancing):
        converged = _richardson(lambda refine: mode_norm(
            cfg, lam, k, sweep_grid(lam, refine=refine))[0])
        assert abs(converged / n_sc[k] - 1.0) <= tol


# The limit cell against its formula: measured 2.4e-4 at 1e2 and 1.0e-6 at
# 1e4.
@pytest.mark.parametrize("lam, tol", [(1e2, 3e-4), (1e4, 3e-6)])
def test_formula_matches_step_converged_limit_cell(lam, tol):
    cfg = SweepConfig(lambdas=(lam,), s=1.0)
    x0 = limit_grid(lam).r0
    (n_sc,) = semiclassical_norm(*turning_point(lam, [1.0], 0.25), x0,
                                 sweep_grid(lam).r_max, 1.0, log_nu=[0.0])
    converged = _richardson(
        lambda refine: limit_norm(cfg, lam, limit_grid(lam, refine))[0])
    assert abs(converged / n_sc - 1.0) <= tol


@pytest.mark.parametrize("kind", ["mode", "polynomial"])
def test_no_mode_is_missed(kind):
    # The chain over every k <= K_max is the oracle.  For the polynomial
    # weight the sweep reports the chain's sup; for the mode weight no mode
    # exceeds the sweep's N, which takes in the limit cell.  At 1e2 the
    # polynomial weight's sup is the glancing k = 15, where the formula
    # reads 7 % high, and the formula's own argmax, k = 13, reads 1.5 %
    # below it.
    res = lambda_sweep(_DEFAULT_SWEEP if kind == "mode" else
                       dataclasses.replace(_DEFAULT_SWEEP, weight_kind=kind))
    assert not res.diagnostics["failures"]
    for lam in _DEFAULT_SWEEP.lambdas:
        chain = mode_chain(res.config, lam)
        N = res.N_of_lambda[lam]
        if kind == "polynomial":
            assert abs(N / max(chain.values()) - 1.0) <= 1e-8
        else:
            assert max(chain.values()) <= N
            assert res.diagnostics["argmax_k"][lam] == LIMIT


def test_sweep_sup_does_not_depend_on_the_cross_section():
    # At 1e4 the sup over the whole mode family sits at mu ~ 2.2 lam, far
    # past K_max = 24 for every cross-section here: the limit cell carries
    # it.  The chain over k <= K_max read 0.0388, 0.0271 and 0.0225 here,
    # each with its sup at K_max, and the torus 0.0309 even at K_max = 300.
    runs = [SweepConfig(lambdas=(1e4,), s=1.0, cross_section=cs, n=n)
            for cs, n in (({"kind": "circle", "radius": 0.5}, 2),
                          ({"kind": "circle", "radius": 3.0}, 2),
                          ({"kind": "torus", "radii": [1.0, 1.7]}, 3))]
    norms = []
    for cfg in runs:
        res = lambda_sweep(cfg)
        assert not res.diagnostics["sup_at_K_max"]
        assert res.diagnostics["argmax_k"] == {1e4: LIMIT}
        norms.append(res.N_of_lambda[1e4])
    assert max(norms) / min(norms) - 1.0 <= 1.5e-2
    assert min(norms) >= 0.049


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
    return SweepResult(config=cfg, rows=[],
                       N_of_lambda=dict(zip(lams, norms)), diagnostics={})


def test_fit_scaling_envelope_constant():
    norms = [l ** -0.5 for l in _LAMS]
    fit = fit_scaling(_synthetic_result(_LAMS, norms))
    assert fit.p == pytest.approx(-0.5, abs=1e-10)
    # N / ((log lam)^{2 s0 + 2 s} rho) is maximized at the smallest energy.
    expected = max(n / (math.log(l) ** 4 * l ** -0.5)
                   for l, n in zip(_LAMS, norms))
    assert fit.C_prime == pytest.approx(expected, rel=1e-12)
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
