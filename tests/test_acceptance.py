"""Acceptance suite: one test per headline criterion.

Each test prints a single pass/fail line with its runtime and asserts the
stated runtime budget alongside the quantitative tolerances.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

import conftest
from conftest import (WIDE_BUMP, generator_matrix, gronwall_ok, limit_grid,
                      limit_norm, mode_norm, semiclassical_bound_check,
                      spec_of_nu, spectral_calculus, synthetic_flow)

from hyplab.abstract import (
    TestbedInstance as _TestbedInstance,
    algebre_identity_check,
    commutator_identity_residuals,
    diffineq_check,
    recurrence_iterate,
    scalar_weight_check,
)
from hyplab.cli import run as cli_run
from hyplab.conjugate import (
    ConjugateParams,
    a_k_derivs,
    flow_integrate,
    unitary_apply,
)
from hyplab.laplab import (LIMIT, SweepConfig, fit_scaling, lambda_sweep,
                           sweep_grid)
from hyplab.linops import RadialGrid, discretize, hermitian_eig, resolved_grid
from hyplab.model import ModelConfig, build_spectrum, mode_operator_spec
from hyplab.mourre import (
    hs_calculus,
    mode_commutators,
    mourre_positivity_check,
)
from hyplab.weights import (
    profile_eval,
    quantize_and_factor_check,
    temperate_check,
    unboundedness_demo,
)


CIRCLE = ModelConfig(n=2, r0=0.25,
                     cross_section={"kind": "circle", "radius": 1.0})
PARAMS_100 = ConjugateParams.from_lambda(100.0)


def _announce(line):
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


@contextlib.contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _announce(f"criterion {number} ({label}): FAIL after {elapsed:.1f} s")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL (over budget)"
    _announce(f"criterion {number} ({label}): {verdict} in {elapsed:.1f} s "
              f"(budget {budget:.0f} s)")
    assert elapsed < budget


def _seeded_instance(seed):
    inst = _TestbedInstance.generate(seed)
    z = inst.lam + 0.3 * inst.delta + 1e-6j
    eps_nu = inst.delta / inst.alpha
    return inst, z, eps_nu


def test_criterion_01_abstract_identities():
    with criterion(1, "abstract identities", 10.0):
        for seed in range(100):
            inst, z, eps_nu = _seeded_instance(seed)
            rep = algebre_identity_check(inst, z, 0.5 * eps_nu,
                                         0.25 * eps_nu, seed=seed)
            assert rep["residual_difference"] <= 1e-10
            assert rep["residual_adjoint"] <= 1e-10
            assert rep["norm_bound_ok"]
            assert rep["quadratic_violations"] == 0
            r1, r2 = commutator_identity_residuals(inst, z, z + 0.5j)
            assert max(r1, r2) <= 1e-10


def test_criterion_02_scalar_weight_and_recurrence():
    with criterion(2, "scalar weight inequality and iteration", 5.0):
        exponents = (0.55, 0.6, 0.75, 1.0)
        for s in exponents:
            out = scalar_weight_check(s, n_eps=50, n_E=50)
            assert out["samples"] >= 1e4
            assert out["violations"] == 0
        for s in exponents:
            _trace, steps = recurrence_iterate(s)
            assert steps <= math.ceil(math.log2(1.0 / (2.0 * s - 1.0))) + 1


def test_criterion_03_differential_inequality():
    with criterion(3, "differential inequality", 60.0):
        for seed in range(100):
            inst, z, eps_nu = _seeded_instance(seed)
            schedule = sorted(0.9 * eps_nu * 1.1 ** (-i) for i in range(20))
            out = diffineq_check(inst, 0.75, z, schedule, slack=0.2)
            assert out["holds"]
            assert all(pt["ok"] for pt in out["points"])


def _bump_field(r):
    a = 0.5 * profile_eval("chi", r) * profile_eval("chi", 4.0 - r)
    a_prime = 0.5 * (profile_eval("chi", r, 1) * profile_eval("chi", 4.0 - r)
                     - profile_eval("chi", r) * profile_eval("chi", 4.0 - r, 1))
    return a, a_prime


def test_criterion_04_flow_and_group():
    with criterion(4, "flow and unitary group", 30.0):
        # Exact linear-region trajectory.
        c = 2.0 * PARAMS_100.S
        r = np.array([15.0, 15.5])
        res = flow_integrate(PARAMS_100, 1.0, 0.1, r)
        assert res.gamma == pytest.approx((r + c) * math.exp(0.1) - c,
                                          abs=1e-8)
        # Unitarity defect decays at second order under refinement.
        defects, hs = [], []
        for n in (2000, 4000, 8000, 16000):
            rr = np.linspace(0.0, 4.0, n + 1)
            h = rr[1] - rr[0]
            phi = np.exp(-((rr - 2.0) ** 2) * 4.0)
            out = unitary_apply(synthetic_flow(_bump_field, 0.1, rr), phi,
                                rr)
            defects.append(abs(np.linalg.norm(out) - np.linalg.norm(phi))
                           * math.sqrt(h))
            hs.append(h)
        order = np.polyfit(np.log(hs), np.log(defects), 1)[0]
        assert 1.7 <= order <= 2.3
        # Group law at h = 1e-3.
        rr = np.linspace(0.0, 4.0, 4001)
        phi = np.exp(-((rr - 2.0) ** 2) * 4.0)
        half = synthetic_flow(_bump_field, 0.05, rr)
        one = unitary_apply(synthetic_flow(_bump_field, 0.1, rr), phi, rr)
        two = unitary_apply(half, unitary_apply(half, phi, rr), rr)
        assert np.linalg.norm(one - two) <= 1e-6 * np.linalg.norm(phi)
        # Gronwall bound on the flow derivative.
        grid = np.linspace(0.25, 40.0, 30001)
        a_prime = a_k_derivs(PARAMS_100, 1.0, grid, 1)[1]
        ap_sup = float(np.max(np.abs(a_prime)))
        for t in (0.05, 0.2, 0.5):
            res = flow_integrate(PARAMS_100, 1.0, t,
                                 np.linspace(0.25, 20.0, 101))
            assert gronwall_ok(res, ap_sup)


def test_criterion_05_commutators():
    with criterion(5, "commutator construction", 30.0):
        nu = 2.0
        mu = nu**2 - 1.0
        # Convergence to the matrix commutator on a Gaussian probe.
        errs, hs = [], []
        for N in (1500, 3000, 6000):
            g = RadialGrid(r0=0.25, r_max=24.0, N=N)
            r = g.points()
            spec = mode_operator_spec(CIRCLE, 2)
            H = discretize(spec, g)
            A = generator_matrix(PARAMS_100, nu, g)
            C, _ = mode_commutators(PARAMS_100, spec, nu, g)
            phi = np.exp(-((r - 2.2 * PARAMS_100.R) ** 2)).astype(complex)
            direct = 1j * (H.matvec(A.matvec(phi)) - A.matvec(H.matvec(phi)))
            errs.append(np.max(np.abs(direct - C.matvec(phi))))
            hs.append(g.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate >= 1.7
        # Plateau closed forms.
        g = RadialGrid(r0=0.25, r_max=24.0, N=2000)
        r = g.points()
        plateau = (r >= 2.0 * PARAMS_100.R + 0.5) & (r <= g.r_max - 1.0)
        idx = np.flatnonzero(plateau)[5:-5]
        a0 = a_k_derivs(PARAMS_100, nu, r[idx], 0)[0]
        C, D = mode_commutators(PARAMS_100, spec_of_nu(nu), nu, g)
        h2 = g.h**2
        assert C.diagonals[0][idx] == pytest.approx(
            4.0 / h2 + 2.0 * a0 * mu * np.exp(-2.0 * r[idx]), abs=1e-10)
        assert C.diagonals[1][idx] == pytest.approx(
            np.full(idx.size, -2.0 / h2), rel=1e-12)
        # off-diagonal -b/h^2 of D b D: b = -4 on the plateau
        assert D.diagonals[1][idx] * h2 == pytest.approx(
            np.full(idx.size, 4.0), abs=1e-10)


def test_criterion_06_generator_derivative_bounds():
    with criterion(6, "generator derivative bounds", 10.0):
        fits = {j: [] for j in range(1, 5)}
        for lam in (1e2, 1e3, 1e4):
            p = ConjugateParams.from_lambda(lam)
            r = np.linspace(0.25, 4.0 * p.R, 20001)
            for nu in (1.0, 2.0, 5.0, 25.0):
                for j in range(1, 5):
                    sup = float(np.max(np.abs(a_k_derivs(p, nu, r, j)[j])))
                    fits[j].append(sup / p.S ** (1 - j))
        for j in range(1, 5):
            per_lam = np.array(fits[j]).reshape(3, 4).max(axis=1)
            assert per_lam.max() <= 1.2 * per_lam.min()


def test_criterion_07_semiclassical_bound():
    with criterion(7, "semiclassical resolvent bound", 300.0):
        spectrum = build_spectrum({"kind": "circle", "radius": 1.0}, 8)
        nus = [spectrum.nu(k) for k in range(len(spectrum))]
        for lam in (1e2, 1e3, 1e4):
            R = math.log(5.0 * lam)
            grid = RadialGrid(r0=0.25, r_max=3.0 * R, N=1200)
            # Xi_k vanishes on the grid for the circle modes (nu_k <= 8.1);
            # the mode with log nu = R + S/2 + 2 has Xi_k > 0 on (R, R + 2)
            params = ConjugateParams.from_lambda(lam)
            live = math.exp(params.R + 0.5 * params.S + 2.0)
            for re in np.linspace(-2.0, 2.0, 9):
                for im in (0.5, 1.0, 2.0):
                    lhs, rhs, ok = semiclassical_bound_check(
                        lam, complex(re, im), nus + [live], grid)
                    assert ok and 0.0 < lhs <= rhs


def test_criterion_08_functional_calculus():
    with criterion(8, "quadrature functional calculus", 60.0):
        f = WIDE_BUMP
        rng = np.random.default_rng(2024)
        for _ in range(20):
            raw = rng.standard_normal((30, 30))
            H = (raw + raw.T) / math.sqrt(2 * 30)
            out = hs_calculus(f, H, u_range=f.support)
            ref = spectral_calculus(f, H)
            assert np.linalg.norm(out - ref, 2) <= 1e-6
        g = RadialGrid(r0=0.25, r_max=12.0, N=120)
        op = discretize(mode_operator_spec(CIRCLE, 1), g)
        evals, _ = hermitian_eig(op)
        scale = 2.5 / float(np.max(np.abs(evals)))
        out = hs_calculus(f, op.scaled_shifted(scale=scale),
                          u_range=f.support)
        ref = spectral_calculus(f, op.scaled_shifted(scale=scale))
        assert np.linalg.norm(out - ref, 2) <= 1e-6


def test_criterion_09_positive_commutator():
    with criterion(9, "positive commutator estimate", 600.0):
        config = ModelConfig(n=2, r0=0.25, cross_section={"kind": "circle"})
        reports = {}
        for lam in (1e2, 1e3):
            rep = mourre_positivity_check(lam, 1.0, 48, config)
            R = math.log(5.0 * lam)
            assert rep.grid == resolved_grid(
                lam, max(2.0 * R + 5.0, 0.5 * R**2), r0=0.25, refine=4.0)
            assert rep.min_eig_ratio is not None
            assert rep.min_eig_ratio >= -0.1
            reports[lam] = rep
        low, high = reports[1e2].deficits, reports[1e3].deficits
        assert set(low) == set(high)
        for term in low:
            assert high[term] < low[term]


_SWEEP = SweepConfig(lambdas=(1e2, 10**2.5, 1e3, 10**3.5, 1e4), s=1.0)


def test_criterion_10_scaling_sweep():
    with criterion(10, "energy scaling sweep", 1200.0):
        base = lambda_sweep(_SWEEP, workers=8)
        fit = fit_scaling(base)
        assert -0.6 <= fit.p <= -0.4
        # Grid refinement moves every N(lambda) by at most 3 %, and by at
        # most 1.5 % on Numerov's pencil (1.03e-2 measured; 2.40e-2 with the
        # order-2 stencil at half the step).
        refined = lambda_sweep(_SWEEP, workers=8, refine=2.0)
        for lam, N in base.N_of_lambda.items():
            assert abs(refined.N_of_lambda[lam] / N - 1.0) <= 0.03
            assert abs(refined.N_of_lambda[lam] / N - 1.0) <= 0.015
        # Doubling r_max at the same step moves the norm of each energy's
        # maximizing mode, or of its limit cell, by at most 3 %.
        for lam, k in base.diagnostics["argmax_k"].items():
            g = limit_grid(lam) if k == LIMIT else sweep_grid(lam)
            n_long = int(round((2.0 * g.r_max - g.r0) / g.h)) - 1
            longer = RadialGrid(r0=g.r0, r_max=2.0 * g.r_max, N=n_long)
            norm, _ = (limit_norm(_SWEEP, lam, longer) if k == LIMIT
                       else mode_norm(_SWEEP, lam, k, longer))
            assert abs(norm / base.N_of_lambda[lam] - 1.0) <= 0.03


def test_criterion_11_weight_facts():
    with criterion(11, "weight facts", 300.0):
        ladder = [math.e**2, math.e**4, math.e**8, math.e**16]
        for s in (0.75, 1.0):
            ratios = unboundedness_demo(s, ladder)
            assert all(b > a for a, b in zip(ratios, ratios[1:]))
            slope = np.polyfit(np.log(np.log(ladder)), np.log(ratios), 1)[0]
            assert abs(slope - s) <= 0.15
        assert temperate_check(100000, 4.0, 1.0, seed=0) == []
        for sigma in (0.0, 2.0):
            vals = quantize_and_factor_check(1.0, sigma)
            assert max(vals) / min(vals) <= 2.0


def test_criterion_12_worker_determinism(tmp_path):
    with criterion(12, "worker-count determinism", 2400.0):
        args = ["sweep", "--check"]
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        assert cli_run([*args, "--out", str(out1), "--workers", "1"]) == 0
        assert cli_run([*args, "--out", str(out8), "--workers", "8"]) == 0
        for name in ("sweep.csv", "N_of_lambda.csv"):
            body1 = (out1 / name).read_bytes()
            body8 = (out8 / name).read_bytes()
            assert body1 == body8
        s1 = json.loads((out1 / "summary.json").read_text("utf-8"))
        s8 = json.loads((out8 / "summary.json").read_text("utf-8"))
        assert s1["N_of_lambda"] == s8["N_of_lambda"]
