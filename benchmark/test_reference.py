"""Tests of the benchmark's independent reference (python3 -m pytest benchmark).

The reference must agree with the closed-form outgoing kernel of the free
mode and converge under grid refinement and box growth; nothing here
imports hyplab.
"""

import math

import numpy as np
import pytest

import reference
from reference import OutgoingMode, mode_norms, n_of_lambda, step_q, weight_w

R0 = 0.25


def free_kernel(r, r_prime, kappa):
    """sin(kappa (r_< - r0)) e^{i kappa (r_> - r0)} / kappa."""
    lo, hi = np.minimum(r, r_prime), np.maximum(r, r_prime)
    return np.sin(kappa * (lo - R0)) * np.exp(1j * kappa * (hi - R0)) / kappa


def kernel_column(lam, h, r_max, at):
    """Column of the discrete resolvent kernel (H_0 - lam - i0)^{-1} / h at
    the grid point nearest to r = at."""
    mode = OutgoingMode(lam, 0, h, r_max)
    j = int(np.argmin(np.abs(mode.r - at)))
    e = np.zeros(len(mode.r))
    e[j] = 1.0 / mode.h
    return mode.r, mode.r[j], mode.solve(e)


def test_step_and_weight_closed_forms():
    x = np.linspace(-0.5, 1.5, 401)
    assert np.allclose(step_q(x) + step_q(1.0 - x), 1.0, atol=1e-15)
    assert step_q(0.5) == pytest.approx(0.5)
    w = weight_w(x)
    assert np.all(w[x <= 0] == 1.0) and np.all(w[x >= 1] == x[x >= 1])
    # 1 + q(x)(x - 1) dips below 1 inside (0, 1) and joins both plateaus
    # continuously
    assert np.all(w > 0.5)
    assert np.max(np.abs(np.diff(w))) <= 2.0 * (x[1] - x[0])


def test_free_mode_matches_closed_form_kernel_at_second_order():
    lam, r_max = 25.0, 8.0
    kappa = math.sqrt(lam - 0.25)
    errors = []
    for h in (0.02, 0.01, 0.005):
        r, r_j, col = kernel_column(lam, h, r_max, at=3.0)
        exact = free_kernel(r, r_j, kappa)
        errors.append(float(np.max(np.abs(col - exact))) / (1.0 / kappa))
    assert errors[-1] < 1e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 < coarse / fine < 5.0


def test_outgoing_condition_is_exact_for_the_free_mode():
    """With the potential constant past the box, the closing condition is
    exact: a longer box leaves the kernel on the shorter one unchanged."""
    lam, h = 100.0, 0.025
    r_short, _, short = kernel_column(lam, h, 10.0, at=3.0)
    r_long, _, long = kernel_column(lam, h, 20.0, at=3.0)
    n = len(r_short)
    assert np.allclose(r_long[:n], r_short)
    assert np.max(np.abs(long[:n] - short)) <= 1e-9 * np.max(np.abs(short))


def test_norm_converges_at_second_order_under_refinement():
    lam, k = 100.0, 4
    h0 = reference.STEP_FACTOR / math.sqrt(lam)
    norms = [mode_norms(lam, k, h0 / 2**j, 20.0)[k] for j in range(4)]
    steps = [abs(b - a) for a, b in zip(norms, norms[1:])]
    for coarse, fine in zip(steps, steps[1:]):
        assert 3.0 < coarse / fine < 5.0
    assert steps[-1] / norms[-1] < 2e-3


def test_norm_converges_under_box_growth():
    """The weight w^{-1} ~ 1/r makes the box tail converge like 1/r_max."""
    lam, k = 100.0, 4
    h = 0.5 * reference.STEP_FACTOR / math.sqrt(lam)
    norms = [mode_norms(lam, k, h, r_max)[k] for r_max in (20, 40, 80, 160)]
    steps = [abs(b - a) for a, b in zip(norms, norms[1:])]
    for coarse, fine in zip(steps, steps[1:]):
        assert 1.5 < coarse / fine < 2.5
    assert steps[-1] / norms[-1] < 2e-3


def test_n_of_lambda_stops_within_tolerance():
    row = n_of_lambda(100.0, 2)
    assert row["step_change"] < reference.REL_TOL
    assert row["box_change"] < reference.REL_TOL
    assert row["N"] == max(row["norms"])
    finer = max(mode_norms(100.0, 2, 0.5 * row["h"], 2.0 * row["r_max"]))
    assert abs(finer / row["N"] - 1.0) < 2.0 * reference.REL_TOL
