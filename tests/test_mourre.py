"""Commutator matrices, localization operators, semiclassical bound,
functional calculus."""

import math

import numpy as np
import pytest

from hyplab import mourre
from hyplab.conjugate import ConjugateParams, a_k_eval, generator_matrix
from hyplab.errors import ConfigError, NumericalFailure, RegimeError
from hyplab.linops import RadialGrid, discretize, hermitian_eig
from hyplab.model import ModelConfig, mode_operator_spec
from hyplab.mourre import (SpectralCutoff, commutator_matrix,
                           default_positivity_grid, double_commutator_matrix,
                           hs_calculus, mourre_positivity_check,
                           semiclassical_bound_check, semiclassical_gap,
                           spectral_calculus, xi_build, xi_profile_constant)
from hyplab.weights import chi_sqrt_eval, profile_eval

from conftest import WIDE_BUMP, WideBump


PARAMS = ConjugateParams.from_lambda(100.0)
CONFIG = ModelConfig(n=2, r0=0.25,
                     cross_section={"kind": "circle", "radius": 1.0})


def _grid(N=1200, r_max=20.0):
    return RadialGrid(r0=0.25, r_max=r_max, N=N)


# ----------------------------------------------------------------------------
# Spectral cutoff
# ----------------------------------------------------------------------------


def test_cutoff_plateau_support_and_range():
    cut = SpectralCutoff(lam=100.0, delta=2.0)
    assert cut.support_halfwidth == 6.0
    E = np.linspace(90.0, 110.0, 501)
    vals = cut.values(E)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert cut.values(np.array([100.0, 103.9, 96.1]))[0] == 1.0
    assert np.all(cut.values(np.array([96.5, 103.5])) == 1.0)
    assert np.all(cut.values(np.array([93.9, 106.1])) == 0.0)


def test_cutoff_derivative_scaling():
    cut1 = SpectralCutoff(lam=0.0, delta=1.0)
    cut2 = SpectralCutoff(lam=0.0, delta=0.5)
    E = np.array([2.4])
    assert cut2.values(0.5 * E, 1)[0] == pytest.approx(
        2.0 * cut1.values(E, 1)[0], rel=1e-12)


# ----------------------------------------------------------------------------
# Commutator matrices
# ----------------------------------------------------------------------------


def test_commutator_hermitian():
    g = _grid()
    C = commutator_matrix(PARAMS, 2.0, g).dense()
    scale = np.max(np.abs(C))
    assert np.max(np.abs(C - C.conj().T)) <= 1e-12 * scale
    D = double_commutator_matrix(PARAMS, 2.0, g).second.dense()
    scale = np.max(np.abs(D))
    assert np.max(np.abs(D - D.conj().T)) <= 1e-12 * scale


def test_commutator_grid_too_coarse():
    g = RadialGrid(r0=0.25, r_max=20.0, N=20)
    with pytest.raises(ConfigError):
        commutator_matrix(PARAMS, 1.0, g)


def test_commutator_plateau_closed_form():
    nu = 2.0
    mu = nu**2 - 1.0
    g = _grid(N=2000, r_max=24.0)
    r = g.points()
    C = commutator_matrix(PARAMS, nu, g)
    # plateau: both cutoffs equal 1, a' = 1, higher derivatives vanish
    plateau = ((r >= 2.0 * PARAMS.R + 0.5)
               & (r <= g.r_max - 1.0))
    idx = np.flatnonzero(plateau)[5:-5]
    h2 = g.h**2
    a0 = a_k_eval(PARAMS, nu, r[idx])
    assert C.diagonals[0][idx] == pytest.approx(
        4.0 / h2 + 2.0 * a0 * mu * np.exp(-2.0 * r[idx]), abs=1e-10 / h2 * h2)
    assert C.diagonals[1][idx] == pytest.approx(np.full(idx.size, -2.0 / h2),
                                                rel=1e-12)


def test_commutator_zero_rows_left_of_R():
    g = _grid()
    r = g.points()
    C = commutator_matrix(PARAMS, 1.0, g)
    left = r < PARAMS.R - 0.1
    assert np.max(np.abs(C.diagonals[0][left])) == 0.0


def test_commutator_matches_matrix_commutator_order_two():
    nu = 2.0
    errs, hs = [], []
    for N in (1500, 3000, 6000):
        g = RadialGrid(r0=0.25, r_max=24.0, N=N)
        r = g.points()
        H = discretize(mode_operator_spec(CONFIG, 2), g)
        A = generator_matrix(PARAMS, nu, g)
        C = commutator_matrix(PARAMS, nu, g)
        phi = np.exp(-((r - 2.2 * PARAMS.R) ** 2)).astype(complex)
        direct = 1j * (H.matvec(A.matvec(phi)) - A.matvec(H.matvec(phi)))
        errs.append(np.max(np.abs(direct - C.matvec(phi))))
        hs.append(g.h)
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate >= 1.7


def test_double_commutator_plateau_coefficients():
    nu = 2.0
    mu = nu**2 - 1.0
    g = _grid(N=2000, r_max=24.0)
    r = g.points()
    cm = double_commutator_matrix(PARAMS, nu, g)
    plateau = (r >= 2.0 * PARAMS.R + 0.5) & (r <= g.r_max - 1.0)
    idx = np.flatnonzero(plateau)[5:-5]
    a0 = a_k_eval(PARAMS, nu, r[idx])
    assert cm.b_k[idx] == pytest.approx(np.full(idx.size, -4.0), abs=1e-10)
    assert np.max(np.abs(cm.c_k[idx])) <= 1e-10
    expected_d = 2.0 * a0 * mu * np.exp(-2.0 * r[idx]) * (1.0 - 2.0 * a0)
    assert cm.d_k[idx] == pytest.approx(expected_d, rel=1e-10)


def test_double_commutator_matches_nested_commutator():
    nu = 2.0
    errs, hs = [], []
    for N in (1500, 3000, 6000):
        g = RadialGrid(r0=0.25, r_max=24.0, N=N)
        r = g.points()
        A = generator_matrix(PARAMS, nu, g)
        C1 = commutator_matrix(PARAMS, nu, g)
        cm = double_commutator_matrix(PARAMS, nu, g)
        phi = np.exp(-((r - 2.2 * PARAMS.R) ** 2)).astype(complex)
        # [[H,A],A] = -i (C1 A - A C1) with C1 = i[H,A]
        direct = -1j * (C1.matvec(A.matvec(phi)) - A.matvec(C1.matvec(phi)))
        errs.append(np.max(np.abs(direct - cm.second.matvec(phi))))
        hs.append(g.h)
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate >= 1.7


# ----------------------------------------------------------------------------
# Localization operators
# ----------------------------------------------------------------------------


def test_xi_partition_identity():
    g = _grid()
    r = g.points()
    xi_op, xi_tilde, _, _ = xi_build(PARAMS, 2.0, g)
    assert xi_op + xi_tilde == pytest.approx(chi_sqrt_eval(r / PARAMS.R),
                                             abs=1e-14)
    assert np.max(np.abs(xi_op[r <= PARAMS.R])) == 0.0


def test_xi_plateau_region():
    g = _grid(N=2000, r_max=26.0)
    r = g.points()
    nu = 1.0
    xi_op, xi_tilde, _, _ = xi_build(PARAMS, nu, g)
    plateau = (r >= 2.0 * PARAMS.R) & (r - math.log(nu) >= -PARAMS.S / 2.0)
    assert np.max(np.abs(xi_op[plateau])) == 0.0
    assert xi_tilde[plateau] == pytest.approx(np.ones(plateau.sum()), abs=0.0)


# ----------------------------------------------------------------------------
# Semiclassical bound
# ----------------------------------------------------------------------------


def test_semiclassical_bound_frozen_value_and_formula():
    g = default_positivity_grid(100.0, n_points=400)
    lhs, rhs, ok = semiclassical_bound_check(100.0, 1j, [1.0, 10.0], g)
    assert ok and lhs <= rhs
    gap = 400.0 - math.exp(-2.0 * PARAMS.R) - 100.0
    expected = gap ** -0.5 * (xi_profile_constant() / PARAMS.S + 10.0)
    assert rhs == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("z", [1j, 2.0 + 1j, -2.0 + 0.5j])
def test_semiclassical_bound_holds_where_xi_is_live(z):
    # With log nu >= 9.2 the support of Xi_k, r - log nu <= -S/2 and r >= R,
    # lies inside the grid, so lhs is a real resolvent norm and not the
    # empty sup 0 (measured lhs 0.0040-0.0045 against rhs 0.64-1.10).
    lhs, rhs, ok = semiclassical_bound_check(100.0, z, [1e4, 1e5, 1e6],
                                             _grid())
    assert lhs > 1e-3
    assert ok and lhs <= rhs


def test_semiclassical_gap_arithmetic():
    gap = semiclassical_gap(100.0, 2.0 + 1j, 0.01, PARAMS)
    assert gap == pytest.approx(400.0 - math.exp(-2.0 * PARAMS.R) - 300.0,
                                rel=1e-12)


def test_semiclassical_regime_errors():
    g = default_positivity_grid(100.0, n_points=400)
    with pytest.raises(RegimeError):
        semiclassical_bound_check(100.0, 2.0 + 0.0j, [1.0], g)
    # tau so small that Re z / tau destroys the gap
    with pytest.raises(RegimeError):
        semiclassical_bound_check(100.0, 2.0 + 1j, [1.0], g, tau=1e-3)


# ----------------------------------------------------------------------------
# Functional calculus
# ----------------------------------------------------------------------------


def test_hs_diagonal_two_by_two():
    f = WIDE_BUMP
    op = np.diag([0.0, 1.5, -1.2, 0.4])
    out = hs_calculus(f, op, u_range=f.support)
    expected = np.diag(f(np.array([0.0, 1.5, -1.2, 0.4])))
    assert np.max(np.abs(out - expected)) <= 1e-6


def test_hs_zero_function():
    class Zero:
        support = (-1.0, 1.0)

        def __call__(self, E, j=0):
            return np.zeros_like(np.asarray(E, dtype=float))

    op = np.diag([5.0, 6.0, 7.0])
    out = hs_calculus(Zero(), op, u_range=(-1.0, 1.0))
    assert np.max(np.abs(out)) <= 1e-12


def test_hs_matches_spectral_calculus_random_hermitian():
    f = WIDE_BUMP
    rng = np.random.default_rng(11)
    for _ in range(3):
        raw = rng.standard_normal((30, 30))
        H = (raw + raw.T) / np.sqrt(2 * 30)
        out = hs_calculus(f, H, u_range=f.support)
        ref = spectral_calculus(f, H)
        assert np.linalg.norm(out - ref, 2) <= 1e-6


def test_hs_matches_spectral_calculus_mode_operator():
    f = WIDE_BUMP
    g = RadialGrid(r0=0.25, r_max=12.0, N=120)
    op = discretize(mode_operator_spec(CONFIG, 1), g)
    # rescale into the bump's support window
    evals, _ = hermitian_eig(op)
    scale = 2.5 / float(np.max(np.abs(evals)))
    out = hs_calculus(f, op.scaled_shifted(scale=scale),
                      u_range=f.support)
    ref = spectral_calculus(f, op.scaled_shifted(scale=scale))
    assert np.linalg.norm(out - ref, 2) <= 1e-6


def test_hs_matches_spectral_calculus_complex_generator():
    # The generator A_k is complex Hermitian, so it takes the dense branch
    # of hermitian_eig
    f = WIDE_BUMP
    g = RadialGrid(r0=0.25, r_max=12.0, N=120)
    op = generator_matrix(PARAMS, 2.0, g)
    assert np.max(np.abs(np.imag(op.diagonals[1]))) > 0.0
    evals, _ = hermitian_eig(op)
    op = op.scaled_shifted(scale=2.5 / float(np.max(np.abs(evals))))
    out = hs_calculus(f, op, u_range=f.support)
    assert np.linalg.norm(out - spectral_calculus(f, op), 2) <= 1e-6


def test_calculus_refuses_a_pencil():
    # Below threshold the outgoing closure is real, so Numerov's stiffness A
    # of the constant-potential mode is symmetric; but the pencil stands for
    # M^{-1} A, whose spectrum A's is not.
    g = RadialGrid(r0=0.25, r_max=30.0, N=400)
    op = discretize(mode_operator_spec(CONFIG, 0), g, outgoing=0.1)
    assert op.is_hermitian()
    for call in (lambda: hermitian_eig(op),
                 lambda: hs_calculus(WIDE_BUMP, op, u_range=WIDE_BUMP.support),
                 lambda: spectral_calculus(WIDE_BUMP, op)):
        with pytest.raises(ConfigError):
            call()


_POLY_BUMP_DERIVS = [
    (np.polynomial.Polynomial([1.0, 0.0, -1.0 / 9.0]) ** 8).deriv(j)
    for j in range(8)
]


class _PolyBump:
    """c (1 - E^2/9)^8 on [-3, 3], 0 outside: one support, a different
    function for each c, and cheap to certify (small seventh derivative)."""

    __slots__ = ("c",)
    support = (-3.0, 3.0)

    def __init__(self, c):
        self.c = c

    def __call__(self, E, j=0):
        E = np.asarray(E, dtype=float)
        return np.where(np.abs(E) < 3.0, self.c * _POLY_BUMP_DERIVS[j](E), 0.0)


def test_hs_cache_survives_a_reused_id():
    # CPython gives a new object the address, and so the id, of a freed one
    # once its memory pool comes round again; among a thousand new bumps,
    # take the one that got the first bump's id if there is one.  Its f(H)
    # must still be its own.
    H = np.diag([-2.0, -0.5, 0.0, 1.0, 2.5])
    first = _PolyBump(1.0)
    stale_id = id(first)
    hs_calculus(first, H, u_range=first.support)
    del first
    fresh = [_PolyBump(0.5) for _ in range(1000)]
    second = next((f for f in fresh if id(f) == stale_id), fresh[0])
    out = hs_calculus(second, H, u_range=second.support)
    assert np.linalg.norm(out - spectral_calculus(second, H), 2) <= 1e-6


def test_hs_repeat_calls_reuse_one_cache_entry(monkeypatch):
    # After the first call, the matrices of acceptance criterion 8 are each
    # one cache hit plus one check at the spectrum: no rung is built again.
    builds = []
    build = mourre._hs_rung

    def counted(*args):
        builds.append(args[3])
        return build(*args)

    monkeypatch.setattr(mourre, "_hs_rung", counted)
    f = WideBump()
    rng = np.random.default_rng(2024)
    matrices = []
    for _ in range(20):
        raw = rng.standard_normal((30, 30))
        matrices.append((raw + raw.T) / math.sqrt(2 * 30))
    hs_calculus(f, matrices[0], u_range=f.support)
    key = (f, -3.0, 3.0, 1e-6)
    _, z, c = mourre._HS_CACHE[key]
    for H in matrices:
        out = hs_calculus(f, H, u_range=f.support)
        assert np.linalg.norm(out - spectral_calculus(f, H), 2) <= 1e-6
        _, z_now, c_now = mourre._HS_CACHE[key]
        assert z_now is z and c_now is c
    assert len(builds) == 1


def test_hs_cache_keeps_the_recently_used_function(monkeypatch):
    # With room for two entries, A, B, A again, then C: the hit on A makes B
    # the least recently used, so C evicts B and A stays certified.
    builds = []
    build = mourre._hs_rung

    def counted(*args):
        builds.append(args[0])
        return build(*args)

    monkeypatch.setattr(mourre, "_hs_rung", counted)
    monkeypatch.setattr(mourre, "_HS_CACHE", {})
    monkeypatch.setattr(mourre, "_HS_CACHE_CAP", 2)
    H = np.diag([-2.0, -0.5, 0.0, 1.0, 2.5])
    a, b, c = _PolyBump(1.0), _PolyBump(0.5), _PolyBump(0.25)
    for f in (a, b, a, c):
        hs_calculus(f, H, u_range=f.support)
    assert builds == [a, b, c]
    assert (b, -3.0, 3.0, 1e-6) not in mourre._HS_CACHE
    out = hs_calculus(a, H, u_range=a.support)
    assert builds == [a, b, c]
    assert np.linalg.norm(out - spectral_calculus(a, H), 2) <= 1e-6


def test_hs_refuses_a_complex_function():
    class ComplexBump(WideBump):
        def __call__(self, E, j=0):
            return (1.0 + 0.5j) * super().__call__(E, j)

    f = ComplexBump()
    with pytest.raises(ConfigError):
        hs_calculus(f, np.diag([-1.0, 0.0, 1.0]), u_range=f.support)


def test_hs_half_plane_sum_matches_both_half_planes():
    # The cached nodes are the upper half of the both-sign set kept by the
    # threshold tol 1e-4 / (both-sign node count).  The lower half, built
    # here from dbar F~ at -v, completes the sum (2 pi)^{-1} sum_z c/(E - z)
    # over both half-planes, which must equal the half-plane Q(E).
    f = WideBump()
    tol = 1e-6
    hs_calculus(f, np.diag([-2.0, 0.0, 2.0]), u_range=f.support)
    rung, z, c = mourre._HS_CACHE[(f, -3.0, 3.0, tol)]
    assert np.all(z.imag > 0.0)
    depth, base = mourre._HS_LADDER[rung]
    v_max = 1.5
    upper = mourre._hs_node_set(-3.0, 3.0, v_max, depth, n_u_base=base)
    lower = [(-v, wv, u, uw) for v, wv, u, uw in upper]
    z_all, c_all = mourre._hs_nodes(f, upper + lower, v_max)
    keep = np.abs(c_all) / np.abs(z_all.imag) > tol * 1e-4 / len(z_all)
    z_all, c_all = z_all[keep], c_all[keep]
    assert len(z_all) == 2 * len(z)
    assert np.array_equal(z_all[:len(z)], z)
    assert np.array_equal(c_all[:len(z)], c)
    E = np.linspace(-3.5, 3.5, 201)
    full = np.concatenate([
        c_all @ (1.0 / (E[start:start + 10, None] - z_all)).T
        for start in range(0, len(E), 10)
    ]) / (2.0 * math.pi)
    q = mourre._resolvent_quadrature(z, c, E)
    assert np.max(np.abs(full - q)) <= 1e-13 * np.max(np.abs(q))


def _per_group_dbar(f, u, v, v_max):
    """dbar F~ at u + iv with f^{(j)} evaluated afresh for the group, written
    out as the quadrature built it before groups shared their u nodes."""
    av = abs(v)
    cut = profile_eval("q", 2.0 - 2.0 * av / v_max)
    cutp = -(2.0 / v_max) * profile_eval("q", 2.0 - 2.0 * av / v_max, 1) \
        * np.sign(v)
    iv = 1j * v
    res = cut * f(u, 7) * iv**6 / math.factorial(6)
    series = sum(f(u, j) * iv**j / math.factorial(j) for j in range(7))
    return res + 1j * cutp * series


def test_hs_cached_nodes_match_per_group_evaluation():
    # sharing f^{(j)} between the groups of one u set changes no bit of the
    # cached (z, c)
    f = WideBump()
    tol = 1e-6
    hs_calculus(f, np.diag([-2.0, -0.5, 0.0, 1.0, 2.5]), u_range=f.support)
    rung, z, c = mourre._HS_CACHE[(f, -3.0, 3.0, tol)]
    depth, base = mourre._HS_LADDER[rung]
    v_max = 1.5
    groups = mourre._hs_node_set(-3.0, 3.0, v_max, depth, n_u_base=base)
    z_ref = np.concatenate([u + 1j * v for v, _, u, _ in groups])
    c_ref = np.concatenate([_per_group_dbar(f, u, v, v_max) * uw * wv
                            for v, wv, u, uw in groups])
    keep = np.abs(c_ref) / z_ref.imag > tol * 1e-4 / (2 * len(z_ref))
    assert np.array_equal(z, z_ref[keep])
    assert np.array_equal(c, c_ref[keep])


@pytest.mark.parametrize("depth, base", [(4, 16), (5, 80)])
def test_hs_nodes_evaluate_each_order_once_per_u_set(depth, base):
    # (5, 80) is WideBump's rung: all 72 groups share one 960-point u set;
    # (4, 16) refines u below the outer band, so its groups use several
    calls = []

    class Counted(WideBump):
        def __call__(self, E, j=0):
            calls.append((j, np.asarray(E).tobytes()))
            return super().__call__(E, j)

    groups = mourre._hs_node_set(-3.0, 3.0, 1.5, depth, n_u_base=base)
    u_sets = {u.tobytes() for _, _, u, _ in groups}
    if base == 80:
        assert len(groups) == 72 and len(u_sets) == 1
    else:
        assert len(u_sets) > 1
    mourre._hs_nodes(Counted(), groups, 1.5)
    assert sorted(calls) == sorted((j, u) for j in range(8) for u in u_sets)


# ----------------------------------------------------------------------------
# Positivity check preconditions
# ----------------------------------------------------------------------------


def test_positivity_scale_ordering_enforced():
    # S <= r0 + 1 violates the cutoff-scale ordering
    g = _grid(N=600)
    with pytest.raises(ConfigError):
        mourre_positivity_check(0.8, 1.0, g, 4, config=CONFIG)


def test_hs_certifies_the_result_at_the_spectrum():
    # Coefficients 0.1 % off leave f(H) about 1e-3 off where f = 1; the
    # check at the eigenvalues must refuse them and climb to a rung that
    # passes, never return the wrong f(H).
    H = np.diag([-2.0, -0.5, 0.0, 1.0, 2.5])
    bump = _PolyBump(1.0)
    good = hs_calculus(bump, H, u_range=bump.support)
    assert np.linalg.norm(good - spectral_calculus(bump, H), 2) <= 1e-6
    key = (bump, -3.0, 3.0, 1e-6)
    rung, z, c = mourre._HS_CACHE[key]
    mourre._HS_CACHE[key] = (rung, z, c * (1.0 + 1e-3))
    out = hs_calculus(bump, H, u_range=bump.support)
    assert np.linalg.norm(out - spectral_calculus(bump, H), 2) <= 1e-6
    assert mourre._HS_CACHE[key][0] > rung


def test_hs_ladder_that_cannot_meet_tol_raises(monkeypatch):
    # The rung (5, 64) misses this bump at these eigenvalues by 1.7e-6.
    monkeypatch.setattr(mourre, "_HS_LADDER", [(5, 64)])
    f = WideBump()
    H = np.diag([-2.0, -0.5, 0.0, 1.0, 2.5])
    with pytest.raises(NumericalFailure):
        hs_calculus(f, H, u_range=f.support)
