"""Smooth profiles, weight vectors, symbol weights, and the weight checks."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplab.errors import ConfigError
from hyplab import weights
from hyplab.weights import (gram_below, mode_weight_vector,
                            polynomial_weight_vector, profile_eval,
                            quantize_and_factor_check, symbol_weight,
                            temperate_check, unboundedness_demo)

from conftest import chi_sqrt_eval, xi_sqrt_eval


# ----------------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------------


def test_w_plateaus_and_midpoint():
    assert profile_eval("w", -2.0) == 1.0
    assert profile_eval("w", 5.0) == 5.0
    assert profile_eval("w", 0.5) == pytest.approx(0.75)


def test_w_positive_and_dips_below_one():
    x = np.linspace(-1.0, 2.0, 2001)
    w = profile_eval("w", x)
    assert np.all(w > 0.0)
    assert w.min() < 1.0  # forced by the matching plateaus


def test_cutoff_plateaus():
    assert profile_eval("chi", 0.5) == 0.0
    assert profile_eval("chi", 3.0) == 1.0
    assert profile_eval("xi", -2.0) == 0.0
    assert profile_eval("xi", 0.0) == 1.0


def test_cutoffs_nondecreasing_in_unit_range():
    r = np.linspace(0.0, 3.0, 1501)
    chi = profile_eval("chi", r)
    assert np.all(np.diff(chi) >= -1e-13)
    assert np.all((chi >= 0.0) & (chi <= 1.0))
    y = np.linspace(-1.5, 0.0, 1501)
    xi = profile_eval("xi", y)
    assert np.all(np.diff(xi) >= -1e-13)
    assert np.all((xi >= 0.0) & (xi <= 1.0))


def test_spectral_bump_plateau_and_support():
    assert profile_eval("f", 0.0) == 1.0
    assert profile_eval("f", 2.0) == 1.0
    assert profile_eval("f", -2.0) == 1.0
    assert profile_eval("f", 3.5) == 0.0
    E = np.linspace(-4.0, 4.0, 801)
    f = profile_eval("f", E)
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert f == pytest.approx(f[::-1])  # even


def test_sqrt_cutoffs_square_to_profiles():
    r = np.linspace(0.5, 2.5, 301)
    assert chi_sqrt_eval(r) ** 2 == pytest.approx(profile_eval("chi", r),
                                                  abs=1e-13)
    y = np.linspace(-1.2, -0.3, 301)
    assert xi_sqrt_eval(y) ** 2 == pytest.approx(profile_eval("xi", y),
                                                 abs=1e-13)


def test_derivative_order_limits():
    assert profile_eval("w", 0.3, 6) == profile_eval("w", 0.3, 6)
    with pytest.raises(ConfigError):
        profile_eval("w", 0.3, 7)
    # one extra order for internal use
    profile_eval("w", 0.3, 7, extended=True)
    with pytest.raises(ConfigError):
        profile_eval("w", 0.3, 8, extended=True)


@pytest.mark.parametrize("which,lo,hi", [("q", 0.0, 1.0), ("w", 0.0, 1.0),
                                         ("chi", 1.0, 2.0),
                                         ("xi", -1.0, -0.5)])
def test_derivatives_consistent_with_finite_differences(which, lo, hi):
    # independent oracle for the closed-form derivatives
    x = np.linspace(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), 41)
    d = 1e-6 * (hi - lo)
    for j in range(6):
        fd = (profile_eval(which, x + d, j) -
              profile_eval(which, x - d, j)) / (2.0 * d)
        exact = profile_eval(which, x, j + 1)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(fd - exact)) <= 1e-4 * scale


@pytest.mark.parametrize("which,lo,hi", [("w", 0.0, 1.0), ("chi", 1.0, 2.0),
                                         ("xi", -1.0, -0.5)])
def test_derivatives_vanish_at_plateau_junctions(which, lo, hi):
    d = 1e-3 * (hi - lo)
    for j in range(1, 7):
        assert abs(profile_eval(which, lo - d, j)) == 0.0
        assert abs(profile_eval(which, hi + d, j)) == (
            1.0 if (which == "w" and j == 1) else 0.0)
        # just inside the transition the derivatives are tiny (smooth glue)
        assert abs(profile_eval(which, lo + 1e-4 * (hi - lo), j)) < 1e-3


def _q_oracle(x, j):
    """q^{(j)}(x) from mpmath at 50 digits, independent of the closed forms."""
    with mp.workdps(50):
        return float(mp.diff(lambda t: 1 / (1 + mp.exp(1 / t - 1 / (1 - t))),
                             mp.mpf(float(x)), j))


def test_step_derivatives_match_high_precision_oracle():
    x = np.concatenate([[1e-3, 3e-3, 0.01], np.linspace(0.025, 0.975, 39),
                        [0.99, 0.997, 1.0 - 1e-3]])
    for j in range(weights.MAX_DERIVATIVE + 1):
        ref = np.array([_q_oracle(t, j) for t in x])
        got = profile_eval("q", x, j, extended=True)
        # measured: at most 4.2e-15 (order 7).  The largest sampled value
        # stands in for max|q^{(j)}|; it can only be smaller.
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("which,lo,hi", [("q", 0.0, 1.0), ("w", 0.0, 1.0),
                                         ("chi", 1.0, 2.0),
                                         ("xi", -1.0, -0.5)])
def test_transition_ends_give_exact_plateau_values(which, lo, hi):
    gaps = np.array([5e-324, 1e-300, 1e-12])
    left_x, right_x = lo + gaps, hi - gaps
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for j in range(weights.MAX_DERIVATIVE + 1):
            left = profile_eval(which, left_x, j, extended=True)
            right = profile_eval(which, right_x, j, extended=True)
            if which == "w":
                left_limit = 1.0 if j == 0 else 0.0
                right_limit = right_x if j == 0 else float(j == 1)
            else:
                left_limit, right_limit = 0.0, float(j == 0)
            assert np.all(np.isfinite(left)) and np.all(np.isfinite(right))
            assert np.array_equal(left, np.broadcast_to(left_limit, 3))
            assert np.array_equal(right, np.broadcast_to(right_limit, 3))


# ----------------------------------------------------------------------------
# Weight vectors
# ----------------------------------------------------------------------------


def test_mode_weight_plateau_values():
    r = np.array([5.0 + math.log(2.0)])
    assert mode_weight_vector(r, 2.0, 1.0)[0] == pytest.approx(0.2)
    r = np.array([10.0 + math.log(2.0)])
    assert mode_weight_vector(r, 2.0, 2.0)[0] == pytest.approx(0.01)
    assert mode_weight_vector(np.array([3.0]), 1.5, 0.0)[0] == 1.0


def test_mode_weight_inverse_pair():
    r = np.linspace(0.25, 25.0, 400)
    for s in (0.6, 1.0, 2.0):
        prod = mode_weight_vector(r, 3.0, s) * mode_weight_vector(r, 3.0, -s)
        assert prod == pytest.approx(np.ones_like(r), rel=1e-13)


def test_mode_weight_rejects_nu_below_one():
    with pytest.raises(ConfigError):
        mode_weight_vector(np.array([1.0]), 0.5, 1.0)


def test_polynomial_weight():
    r = np.array([0.0, 1.0, 3.0])
    assert polynomial_weight_vector(r, 1.0) == pytest.approx(
        (1.0 + r**2) ** -0.5)


@settings(max_examples=50, deadline=None)
@given(s=st.floats(0.1, 3.0), nu=st.floats(1.0, 100.0),
       r=st.floats(-5.0, 50.0))
def test_mode_weight_bounded_by_one_property(s, nu, r):
    # w >= 1 up to the small dip; w^{-s} stays below the dip bound
    vec = mode_weight_vector(np.array([r]), nu, s)
    dip = profile_eval("w", np.linspace(0.0, 1.0, 400)).min()
    assert vec[0] <= dip ** -s + 1e-12


# ----------------------------------------------------------------------------
# Symbol weights and hyperbolic decay
# ----------------------------------------------------------------------------


def test_symbol_weight_matches_shifted_profile():
    r, eta = 4.0, 3.0
    expected = profile_eval("w", r - 0.5 * math.log(1.0 + eta**2)) ** 1.0
    assert symbol_weight(r, eta, 1.0) == pytest.approx(expected)


def _symbol_sample(n=40):
    rng = np.random.default_rng(0)
    r = rng.uniform(-10.0, 25.0, n)
    rho = rng.uniform(-4.0, 4.0, n)
    eta = rng.uniform(-60.0, 60.0, n)
    return r, rho, eta


def test_hyperbolic_symbol_decay_first_and_second_derivatives():
    # |d^a (p - z)^{-1}| <= C |p - z|^{-1} w_{-s}(r, eta) at z = -1 with a
    # single fitted C per s, via finite differences
    r, rho, eta = _symbol_sample()
    z = -1.0

    def p(rr, hh):
        return rho**2 + np.exp(-2.0 * rr) * hh**2 - z

    base = 1.0 / p(r, eta)
    d = 1e-5
    dr = (1.0 / p(r + d, eta) - 1.0 / p(r - d, eta)) / (2 * d)
    de = (1.0 / p(r, eta + d) - 1.0 / p(r, eta - d)) / (2 * d)
    drr = (1.0 / p(r + d, eta) - 2.0 * base + 1.0 / p(r - d, eta)) / d**2
    for s in (0.0, 1.0, 2.0):
        ws = np.array([symbol_weight(ri, ei, -s) for ri, ei in zip(r, eta)])
        envelope = np.abs(base) * ws
        for deriv in (dr, de, drr):
            C = np.max(np.abs(deriv) / envelope)
            assert np.isfinite(C)


def test_hyperbolic_prefactor_inequality():
    # e^{-2r} eta^2 / (rho^2 + e^{-2r} eta^2 + 1) <= C_s w_{-s}(r, eta)
    r, rho, eta = _symbol_sample(200)
    lhs = (np.exp(-2.0 * r) * eta**2
           / (rho**2 + np.exp(-2.0 * r) * eta**2 + 1.0))
    for s in (0.0, 1.0, 2.0):
        ws = np.array([symbol_weight(ri, ei, -s) for ri, ei in zip(r, eta)])
        C = np.max(lhs / ws)
        assert np.isfinite(C) and C > 0.0


# ----------------------------------------------------------------------------
# Temperate weights
# ----------------------------------------------------------------------------


def test_temperate_identity_point():
    # r = r1, eta = eta1 can never violate with C >= 1
    assert temperate_check(2000, 1.0, 1.0, seed=3, box=0.0) == []


def test_temperate_concrete_constants():
    assert temperate_check(20000, 4.0, 1.0, seed=0) == []


def test_temperate_negative_control():
    assert len(temperate_check(20000, 0.01, 0.0, seed=0)) > 0


def test_temperate_chunks_match_one_pass():
    # 20,000 samples: two whole chunks and a part; C = 1, M = 0 violates at
    # about a third of them.  The list must be the one-pass list, in order.
    n, C, M = 20000, 1.0, 0.0
    assert n % weights._TEMPERATE_CHUNK != 0
    rng = np.random.default_rng(5)
    r, r1, eta, eta1 = rng.uniform(-50.0, 50.0, size=(4, n))
    lhs = profile_eval("w", r - 0.5 * np.log1p(eta**2))
    rhs = C * profile_eval("w", r1 - 0.5 * np.log1p(eta1**2)) * (
        1.0 + np.abs(r - r1) + np.abs(eta - eta1)) ** M
    expected = [(r[i], r1[i], eta[i], eta1[i], lhs[i], rhs[i])
                for i in np.nonzero(lhs > rhs)[0]]
    got = temperate_check(n, C, M, seed=5)
    assert len(expected) > n // 4
    assert got == expected


# ----------------------------------------------------------------------------
# Quantization factorization and unboundedness
# ----------------------------------------------------------------------------


def test_quantize_identity_symbol_flat():
    # s = sigma = 0: the operator is multiplication by kappa kappa~, whose
    # sup is 1 on the plateau.
    table = quantize_and_factor_check(0.0, 0.0)
    assert len(table) >= 3
    assert all(abs(v - 1.0) <= 1e-12 for v in table)


def _dense_quantization_norm(s, sigma, n_r=48, n_theta=32, r_max=12.0):
    """||W_s kappa Op(a) kappa~|| as one dense matrix on the whole grid, each
    factor applied to every unit vector through the explicit mode sum
    (Op(b) phi)(r, theta) = sum_m b(r, m) phihat_m(r) e^{i m theta} / n_theta."""
    r = np.linspace(0.0, r_max, n_r)
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    m = np.fft.fftfreq(n_theta, d=1.0 / n_theta)
    phase = np.exp(1j * np.outer(theta, m))  # (theta, m)
    base = profile_eval("w", r[:, None] - np.log(np.sqrt(1.0 + m**2))[None, :])
    a = base ** complex(-s, sigma)
    w_s = base ** abs(s)

    def plateau(x, lo, hi):
        return profile_eval("q", x - lo) * profile_eval("q", hi - x)

    kappa = np.outer(plateau(r, 1.0, r_max - 1.0),
                     plateau(theta, 0.5, 2 * np.pi - 0.5))
    kappa_tilde = np.outer(plateau(r, 0.5, r_max - 0.5),
                           plateau(theta, 0.25, 2 * np.pi - 0.25))

    def quantize(b, phi):
        phihat = np.einsum("tm,rtk->rmk", phase.conj(), phi, optimize=True)
        return np.einsum("tm,rm,rmk->rtk", phase, b, phihat,
                         optimize=True) / n_theta

    n = n_r * n_theta
    unit = np.eye(n).reshape(n_r, n_theta, n)
    out = quantize(w_s, kappa[:, :, None]
                   * quantize(a, kappa_tilde[:, :, None] * unit))
    return float(np.linalg.norm(out.reshape(n, n), 2))


@pytest.mark.parametrize("s, sigma", [(1.0, 2.0), (-1.0, 0.0)])
def test_quantize_level_zero_matches_dense_oracle(s, sigma):
    level0 = quantize_and_factor_check(s, sigma)[0]
    assert level0 == pytest.approx(_dense_quantization_norm(s, sigma),
                                   rel=1e-9)


@pytest.mark.parametrize("s, sigma", [(1.0, 2.0), (-1.0, 0.0)])
def test_quantize_odd_level_zero_matches_dense_oracle(s, sigma):
    # odd n_theta: halves of sizes 8 and 7, no Nyquist index
    level0 = quantize_and_factor_check(s, sigma, n_theta0=15)[0]
    assert level0 == pytest.approx(
        _dense_quantization_norm(s, sigma, n_theta=15), rel=1e-9)


def _blockwise_quantization_norms(s, sigma, levels=3, n_r0=48, n_theta0=32,
                                  r_max0=12.0):
    """The ladder as the largest SVD norm of the full n_theta x n_theta
    radial blocks, each factor an explicit mode sum; no symmetry assumed."""
    def plateau(x, lo, hi):
        return profile_eval("q", x - lo) * profile_eval("q", hi - x)

    norms = []
    for lev in range(levels):
        n_r, n_theta = n_r0 * 2**lev, n_theta0 * 2**lev
        r_max = r_max0 * 1.5**lev
        r = np.linspace(0.0, r_max, n_r)
        theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
        m = np.fft.fftfreq(n_theta, d=1.0 / n_theta)
        phase = np.exp(1j * np.outer(theta, m)) / math.sqrt(n_theta)
        base = profile_eval("w", r[:, None]
                            - np.log(np.sqrt(1.0 + m**2))[None, :])
        a = base ** complex(-s, sigma)
        w_s = base ** abs(s)
        kappa_t = plateau(theta, 0.5, 2 * np.pi - 0.5)
        kt_t = plateau(theta, 0.25, 2 * np.pi - 0.25)
        scale = plateau(r, 1.0, r_max - 1.0) * plateau(r, 0.5, r_max - 0.5)
        best = 0.0
        for i in range(n_r):
            op_w = (phase * w_s[i]) @ phase.conj().T
            op_a = (phase * a[i]) @ phase.conj().T
            block = scale[i] * op_w @ (kappa_t[:, None] * op_a * kt_t)
            best = max(best, float(np.linalg.norm(block, 2)))
        norms.append(best)
    return norms


def test_quantize_ladder_matches_blockwise_oracle_where_odd_half_wins():
    # At (s, sigma) = (0.5, 10) the J-odd half carries the norm on levels 1
    # and 2 (1.01210 and 1.01104 against 1.01067 and 1.01011 on the even
    # half), so a ladder that dropped it would fail here.
    assert quantize_and_factor_check(0.5, 10.0) == pytest.approx(
        _blockwise_quantization_norms(0.5, 10.0), rel=1e-12)


@pytest.mark.parametrize("n_theta", [15, 16, 32])
def test_reflection_halves_are_orthogonal(n_theta):
    (even, C), (odd, S) = weights._reflection_halves(n_theta)
    assert len(even) + len(odd) == n_theta
    for M in (C, S):
        assert np.abs(M @ M.T - np.eye(len(M))).max() <= 1e-13
        assert np.abs(M.T @ M - np.eye(len(M))).max() <= 1e-13


def test_reflection_halves_are_the_dft_on_each_half():
    # the unitary DFT U maps (delta_j +- delta_{-j})/sqrt2 to C[:, j] resp.
    # -i S[:, j] in the same bases of mode space
    for n in (15, 16):
        U = np.fft.fft(np.eye(n), axis=0) / math.sqrt(n)
        (even, C), (odd, S) = weights._reflection_halves(n)
        for idx, M, sign, factor in ((even, C, 1.0, 1.0),
                                     (odd, S, -1.0, -1j)):
            basis = np.zeros((n, len(idx)))
            basis[idx, np.arange(len(idx))] += 1.0
            basis[-idx % n, np.arange(len(idx))] += sign
            basis /= np.linalg.norm(basis, axis=0)
            assert np.abs(U @ basis - factor * basis @ M).max() <= 1e-13


@pytest.mark.parametrize("s, sigma, frozen", [
    (1.0, 0.0, [1.0705405339015663, 1.0709134474929451, 1.0710933105966591]),
    (1.0, 2.0, [1.0292320129626598, 1.0275395858927494, 1.0273038983357226]),
    (-1.0, 0.0, [97.96993013581039, 254.1850536206592, 620.579429881697]),
])
def test_quantize_ladder_frozen_values(s, sigma, frozen):
    # Values of the whole ladder from the per-block SVD norm(B, 2); the
    # Gram-eigenvalue norm must reproduce them.
    assert quantize_and_factor_check(s, sigma) == pytest.approx(frozen,
                                                                rel=1e-12)


def _ladder_diagonalizing_every_block(s, sigma, levels=3, n_r0=48,
                                      n_theta0=32, r_max0=12.0):
    """The ladder with no block certified away: the top Gram eigenvalue of
    every block, in the same order and arithmetic as the library."""
    norms = []
    for lev in range(levels):
        n_r, n_theta = n_r0 * 2**lev, n_theta0 * 2**lev
        r_max = r_max0 * 1.5**lev
        r = np.linspace(0.0, r_max, n_r)
        theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
        kappa_r = weights._plateau_cutoff(r, 1.0, r_max - 1.0)
        kappa_t = weights._plateau_cutoff(theta, 0.5, 2 * np.pi - 0.5)
        kt_r = weights._plateau_cutoff(r, 0.5, r_max - 0.5)
        kt_t = weights._plateau_cutoff(theta, 0.25, 2 * np.pi - 0.25)
        live = np.nonzero(kappa_r)[0]
        scale = kappa_r[live] * kt_r[live]
        best = 0.0
        for idx, M in weights._reflection_halves(n_theta):
            a = symbol_weight(r[live, None], idx[None, :], -s, sigma)
            w_s = symbol_weight(r[live, None], idx[None, :], abs(s))
            K = (M * kappa_t[idx]) @ M.T
            R = M * kt_t[idx]
            for c, a_i, w_i in zip(scale, a, w_s):
                X = (c * w_i)[:, None] * (K @ (a_i[:, None] * R))
                gram = X.conj().T @ X
                best = max(best, math.sqrt(np.linalg.eigvalsh(gram)[-1]))
        norms.append(best)
    return norms


@pytest.mark.parametrize("s, sigma, n_theta0", [
    (1.0, 0.0, 32), (1.0, 2.0, 32), (-1.0, 0.0, 32), (0.5, 10.0, 32),
    (1.0, 2.0, 15), (-1.0, 0.0, 15),
])
def test_quantize_ladder_equals_diagonalizing_every_block(s, sigma, n_theta0):
    # a block certified below the running max cannot change it, so the
    # ladder must equal the exhaustive one to the bit
    assert quantize_and_factor_check(s, sigma, n_theta0=n_theta0) == \
        _ladder_diagonalizing_every_block(s, sigma, n_theta0=n_theta0)


def test_quantize_ladder_diagonalizes_few_blocks(monkeypatch):
    # 2 halves x (40 + 84 + 176) live radii = 600 blocks per ladder
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda g: calls.append(len(g)) or eigvalsh(g))
    quantize_and_factor_check(1.0, 0.0)
    assert 3 <= len(calls) <= 60


def _hermitian_with_top(top, m=65, seed=0):
    # U diag(lam) U^H with lam in [0, 0.9] below an isolated top eigenvalue
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, m))
                        + 1j * rng.standard_normal((m, m)))
    lam = np.append(0.9 * rng.random(m - 1), top)
    return (U * lam) @ U.conj().T


@pytest.mark.parametrize("seed", range(5))
def test_gram_below_rejects_a_top_eigenvalue_just_above_the_floor(seed):
    floor = 2.0
    dense = floor * _hermitian_with_top(1.0 + 1e-12, seed=seed)
    assert not gram_below(dense, floor)
    diagonal = np.diag(np.append(np.linspace(0.0, 0.9, 64), 1.0 + 1e-12))
    assert not gram_below(floor * diagonal, floor)


@pytest.mark.parametrize("seed", range(5))
def test_gram_below_certifies_a_top_eigenvalue_just_below_the_floor(seed):
    floor = 2.0
    # the Gershgorin row sums of the dense matrix exceed the floor, so only
    # the Cholesky certificate can pass it
    dense = floor * _hermitian_with_top(1.0 - 1e-6, seed=seed)
    assert np.abs(dense).sum(axis=1).max() > floor
    assert gram_below(dense, floor)
    diagonal = np.diag(np.append(np.linspace(0.0, 0.9, 64), 1.0 - 1e-6))
    assert gram_below(floor * diagonal, floor)
    assert gram_below(np.zeros((65, 65), dtype=complex), floor)
    assert not gram_below(np.zeros((65, 65)), 0.0)


def test_quantize_bounded_ladder():
    table = quantize_and_factor_check(1.0, 0.0)
    assert max(table) / min(table) <= 2.0


def test_quantize_negative_control_wrong_sign():
    good = quantize_and_factor_check(1.0, 0.0)
    bad = quantize_and_factor_check(-1.0, 0.0)
    assert bad[-1] / bad[0] > 2.0 * (good[-1] / good[0])
    assert bad[-1] > 10.0 * max(good)


def test_quantize_ladder_too_short():
    with pytest.raises(ConfigError):
        quantize_and_factor_check(1.0, 0.0, levels=2)


def test_unboundedness_ratios_grow():
    ladder = [math.e**2, math.e**4, math.e**8]
    ratios = unboundedness_demo(1.0, ladder)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    # growth about a factor 2 per step along the geometric ladder
    assert ratios[1] / ratios[0] == pytest.approx(2.0, rel=0.35)
    assert ratios[2] / ratios[1] == pytest.approx(2.0, rel=0.35)


def test_unboundedness_s_zero_flat():
    ratios = unboundedness_demo(0.0, [2.0, 4.0, 8.0])
    assert ratios == pytest.approx(np.ones(3), rel=1e-6)
