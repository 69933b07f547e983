"""Commutator matrices, localization operators, semiclassical bound,
functional calculus."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from hyplab import linops, mourre
from hyplab.conjugate import ConjugateParams, a_k_derivs
from hyplab.errors import ConfigError, NumericalFailure, RegimeError
from hyplab.linops import RadialGrid, discretize, hermitian_eig
from hyplab.model import ModelConfig, mode_operator_spec
from hyplab.mourre import (hs_calculus, mode_commutators,
                           mourre_positivity_check)
from hyplab.weights import SpectralCutoff, profile_eval

from conftest import (WIDE_BUMP, WideBump, chi_sqrt_eval, counted_checks,
                      dense_matrix, generator_matrix, semiclassical_bound_check,
                      semiclassical_gap, spec_of_nu, spectral_calculus,
                      xi_build, xi_profile_constant)


PARAMS = ConjugateParams.from_lambda(100.0)
CONFIG = ModelConfig(n=2, r0=0.25,
                     cross_section={"kind": "circle", "radius": 1.0})


def _grid(N=1200, r_max=20.0):
    return RadialGrid(r0=0.25, r_max=r_max, N=N)


# 400 points on the positivity check's box at lambda = 100
_BOX_400 = RadialGrid(r0=0.25,
                      r_max=max(2.0 * PARAMS.R + 5.0, 0.5 * PARAMS.R**2),
                      N=400)


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
    for op in mode_commutators(PARAMS, spec_of_nu(2.0), 2.0, g):
        M = dense_matrix(op)
        assert np.max(np.abs(M - M.conj().T)) <= 1e-12 * np.max(np.abs(M))


def test_commutator_grid_too_coarse():
    g = RadialGrid(r0=0.25, r_max=20.0, N=20)
    with pytest.raises(ConfigError):
        mode_commutators(PARAMS, spec_of_nu(1.0), 1.0, g)


def test_commutator_plateau_closed_form():
    nu = 2.0
    mu = nu**2 - 1.0
    g = _grid(N=2000, r_max=24.0)
    r = g.points()
    C, _ = mode_commutators(PARAMS, spec_of_nu(nu), nu, g)
    # plateau: both cutoffs equal 1, a' = 1, higher derivatives vanish
    plateau = ((r >= 2.0 * PARAMS.R + 0.5)
               & (r <= g.r_max - 1.0))
    idx = np.flatnonzero(plateau)[5:-5]
    h2 = g.h**2
    a0 = a_k_derivs(PARAMS, nu, r[idx], 0)[0]
    assert C.diagonals[0][idx] == pytest.approx(
        4.0 / h2 + 2.0 * a0 * mu * np.exp(-2.0 * r[idx]), abs=1e-10 / h2 * h2)
    assert C.diagonals[1][idx] == pytest.approx(np.full(idx.size, -2.0 / h2),
                                                rel=1e-12)


def test_commutator_zero_rows_left_of_R():
    g = _grid()
    r = g.points()
    C, _ = mode_commutators(PARAMS, spec_of_nu(1.0), 1.0, g)
    left = r < PARAMS.R - 0.1
    assert np.max(np.abs(C.diagonals[0][left])) == 0.0


def test_commutator_matches_matrix_commutator_order_two():
    # mode 2, whose mu e^{-2r} is about 5e-12 at r = 2.2 R, and nu = 1e6,
    # where it is about 1.3, so that a wrong V' shows
    for spec, nu in ((mode_operator_spec(CONFIG, 2), 2.0),
                     (spec_of_nu(1e6), 1e6)):
        errs, hs = [], []
        for N in (1500, 3000, 6000):
            g = RadialGrid(r0=0.25, r_max=24.0, N=N)
            r = g.points()
            H = discretize(spec, g)
            A = generator_matrix(PARAMS, nu, g)
            C, _ = mode_commutators(PARAMS, spec, nu, g)
            phi = np.exp(-((r - 2.2 * PARAMS.R) ** 2)).astype(complex)
            direct = 1j * (H.matvec(A.matvec(phi)) - A.matvec(H.matvec(phi)))
            errs.append(np.max(np.abs(direct - C.matvec(phi))))
            hs.append(g.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate >= 1.7, nu


def test_double_commutator_plateau_coefficients():
    # D b D + d on the plateau, with b = -4: off-diagonal -b/h^2 = 4/h^2,
    # diagonal 2b/h^2 + d = -8/h^2 + d.  At nu = 2 the diagonal's rounding
    # hides d (|d| <= 4e-8 against 8/h^2 = 5.7e4); at nu = 1e6, |d| reaches
    # 2.4e3, so there a wrong d fails the diagonal check.
    g = _grid(N=2000, r_max=24.0)
    r = g.points()
    h2 = g.h**2
    plateau = (r >= 2.0 * PARAMS.R + 0.5) & (r <= g.r_max - 1.0)
    idx = np.flatnonzero(plateau)[5:-5]
    for nu in (2.0, 1e6):
        mu = nu**2 - 1.0
        _, D = mode_commutators(PARAMS, spec_of_nu(nu), nu, g)
        a0 = a_k_derivs(PARAMS, nu, r[idx], 0)[0]
        off = D.diagonals[1]
        assert off[idx] * h2 == pytest.approx(np.full(idx.size, 4.0),
                                              abs=1e-10)
        # constant b: the first-order term of the expanded form vanishes
        assert np.max(np.abs(np.diff(off[idx]))) * h2 <= 1e-10
        expected_d = 2.0 * a0 * mu * np.exp(-2.0 * r[idx]) * (1.0 - 2.0 * a0)
        assert D.diagonals[0][idx] == pytest.approx(-8.0 / h2 + expected_d,
                                                    rel=1e-10)


def test_double_commutator_matches_nested_commutator():
    # nu = 2 and nu = 1e6, where mu e^{-2r} is about 1.3 at r = 2.2 R, so
    # that a wrong V' or V'' in either commutator shows
    for nu in (2.0, 1e6):
        errs, hs = [], []
        for N in (1500, 3000, 6000):
            g = RadialGrid(r0=0.25, r_max=24.0, N=N)
            r = g.points()
            A = generator_matrix(PARAMS, nu, g)
            C1, D = mode_commutators(PARAMS, spec_of_nu(nu), nu, g)
            phi = np.exp(-((r - 2.2 * PARAMS.R) ** 2)).astype(complex)
            # [[H,A],A] = -i (C1 A - A C1) with C1 = i[H,A]
            direct = -1j * (C1.matvec(A.matvec(phi))
                            - A.matvec(C1.matvec(phi)))
            errs.append(np.max(np.abs(direct - D.matvec(phi))))
            hs.append(g.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate >= 1.7, nu


# ----------------------------------------------------------------------------
# Localization operators
# ----------------------------------------------------------------------------


def test_xi_partition_identity():
    g = _grid()
    r = g.points()
    xi_op, xi_tilde = xi_build(PARAMS, 2.0, g)
    assert xi_op + xi_tilde == pytest.approx(chi_sqrt_eval(r / PARAMS.R),
                                             abs=1e-14)
    assert np.max(np.abs(xi_op[r <= PARAMS.R])) == 0.0


def test_xi_plateau_region():
    g = _grid(N=2000, r_max=26.0)
    r = g.points()
    nu = 1.0
    xi_op, xi_tilde = xi_build(PARAMS, nu, g)
    plateau = (r >= 2.0 * PARAMS.R) & (r - math.log(nu) >= -PARAMS.S / 2.0)
    assert np.max(np.abs(xi_op[plateau])) == 0.0
    assert xi_tilde[plateau] == pytest.approx(np.ones(plateau.sum()), abs=0.0)


# ----------------------------------------------------------------------------
# Semiclassical bound
# ----------------------------------------------------------------------------


def test_semiclassical_bound_frozen_value_and_formula():
    g = _BOX_400
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
    g = _BOX_400
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
    f = Zero()
    out = hs_calculus(f, op, u_range=(-1.0, 1.0))
    assert np.max(np.abs(out)) <= 1e-12
    # every node is pruned, so no group is summed, there is no panel, and
    # the first rung passes
    entry = mourre._HS_CACHE[(f, -1.0, 1.0)]
    assert entry.rung == mourre._hs_start_rung(f, -1.0, 1.0) == 0
    assert len(entry.z) == len(entry.c) == 0
    assert entry.panels is None


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


def _calculus_mode_operator():
    """Mode 1 on 120 points, scaled so its spectrum fills [0, 2.5]."""
    g = RadialGrid(r0=0.25, r_max=12.0, N=120)
    op = discretize(mode_operator_spec(CONFIG, 1), g)
    evals, _ = hermitian_eig(op)
    return op.scaled_shifted(scale=2.5 / float(np.max(np.abs(evals))))


def test_hs_repeat_calls_on_one_operator_give_the_same_bits():
    # the repeat call and an equal, new operator reuse the decomposition
    # that the calculus keeps
    f = WIDE_BUMP
    op = _calculus_mode_operator()
    first = hs_calculus(f, op, u_range=f.support)
    assert np.array_equal(hs_calculus(f, op, u_range=f.support), first)
    assert np.array_equal(
        hs_calculus(f, _calculus_mode_operator(), u_range=f.support), first)


def test_hs_follows_an_operator_changed_in_place():
    f = WIDE_BUMP
    op = _calculus_mode_operator()
    before = hs_calculus(f, op, u_range=f.support)
    op.main[30:70] -= 0.5
    after = hs_calculus(f, op, u_range=f.support)
    # the reference goes through numpy's dense eigh, not the operator
    assert np.linalg.norm(after - spectral_calculus(f, dense_matrix(op)),
                          2) <= 1e-6
    assert np.linalg.norm(after - before, 2) > 0.1


def test_hs_repeat_call_runs_one_eigensolve_and_one_check(monkeypatch):
    # repeat calls on one operator reuse the kept pair without its checks,
    # and neither a dense call nor a windowed eigensolve displaces it
    checks = counted_checks(monkeypatch)
    calls = _counted_eigensolves(monkeypatch)
    monkeypatch.setattr(mourre, "_EIG_CACHE", {})
    f = WIDE_BUMP
    op = _calculus_mode_operator()
    checks.clear()
    calls.clear()
    first = hs_calculus(f, op, u_range=f.support)
    assert len(checks) == 1 and calls == ["tridiagonal"]
    for _ in range(3):
        assert np.array_equal(hs_calculus(f, op, u_range=f.support), first)
    hs_calculus(f, np.diag([-1.0, 0.0, 1.0]), u_range=f.support)
    hermitian_eig(op, select_range=(0.5, 1.0))
    assert np.array_equal(hs_calculus(f, op, u_range=f.support), first)
    assert len(checks) == 2
    assert calls == ["tridiagonal", "dense", "tridiagonal"]


def test_hs_reuses_the_decomposition_of_an_equal_operator(monkeypatch):
    # an equal, new operator has the same content key: no check and no
    # eigensolve, and the same bits as the first operator's f(H)
    checks = counted_checks(monkeypatch)
    calls = _counted_eigensolves(monkeypatch)
    monkeypatch.setattr(mourre, "_EIG_CACHE", {})
    f = WIDE_BUMP
    op, equal = _calculus_mode_operator(), _calculus_mode_operator()
    checks.clear()
    calls.clear()
    first = hs_calculus(f, op, u_range=f.support)
    assert np.array_equal(hs_calculus(f, equal, u_range=f.support), first)
    assert len(checks) == 1 and calls == ["tridiagonal"]
    # another operator takes the one slot, and the first is solved again
    other = op.scaled_shifted(shift=0.25)
    hs_calculus(f, other, u_range=f.support)
    assert np.array_equal(hs_calculus(f, op, u_range=f.support), first)
    assert len(checks) == 3 and calls == ["tridiagonal"] * 3


@pytest.mark.parametrize("changed", ["lower", "main", "upper", "mass"])
def test_hs_rechecks_a_changed_diagonal_or_mass(changed, monkeypatch):
    # A change in place to any one of the three diagonals, or to the mass,
    # misses the kept pair: a lone off-diagonal change or a pencil's mass is
    # refused, and a changed main diagonal is checked and solved again,
    # with the bits of a cold call on an equal operator.
    checks = counted_checks(monkeypatch)
    calls = _counted_eigensolves(monkeypatch)
    monkeypatch.setattr(mourre, "_EIG_CACHE", {})
    f = WIDE_BUMP
    op = _calculus_mode_operator()
    checks.clear()
    calls.clear()
    before = hs_calculus(f, op, u_range=f.support)
    if changed == "mass":
        op.mass = linops._NUMEROV_MASS
    else:
        getattr(op, changed)[57] += 0.5
    if changed == "main":
        after = hs_calculus(f, op, u_range=f.support)
        assert len(checks) == 2 and calls == ["tridiagonal"] * 2
        assert np.linalg.norm(after - before, 2) > 1e-3
        equal = linops.DiscreteOperator(
            op.grid, {k: np.array(v, copy=True)
                      for k, v in op.diagonals.items()})
        monkeypatch.setattr(mourre, "_EIG_CACHE", {})
        assert np.array_equal(hs_calculus(f, equal, u_range=f.support),
                              after)
    else:
        with pytest.raises(ConfigError):
            hs_calculus(f, op, u_range=f.support)
        # the mass check comes before is_hermitian
        assert len(checks) == (1 if changed == "mass" else 2)
        assert calls == ["tridiagonal"]


def test_hs_matches_spectral_calculus_complex_generator():
    # The generator A_k is complex Hermitian; hermitian_eig takes real
    # operators only, so its dense matrix goes to hs_calculus's ndarray path
    f = WIDE_BUMP
    g = RadialGrid(r0=0.25, r_max=12.0, N=120)
    op = generator_matrix(PARAMS, 2.0, g)
    assert np.max(np.abs(np.imag(op.diagonals[1]))) > 0.0
    H = dense_matrix(op)
    H = H * (2.5 / float(np.max(np.abs(np.linalg.eigvalsh(H)))))
    out = hs_calculus(f, H, u_range=f.support)
    assert np.linalg.norm(out - spectral_calculus(f, H), 2) <= 1e-6


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
    key = (f, -3.0, 3.0)
    entry = mourre._HS_CACHE[key]
    for H in matrices:
        out = hs_calculus(f, H, u_range=f.support)
        assert np.linalg.norm(out - spectral_calculus(f, H), 2) <= 1e-6
        now = mourre._HS_CACHE[key]
        assert now.z is entry.z and now.c is entry.c
        assert now.panels is entry.panels
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
    assert (b, -3.0, 3.0) not in mourre._HS_CACHE
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


def _counted_eigensolves(monkeypatch):
    """Count the dense and the tridiagonal eigensolves of hs_calculus."""
    calls = []
    eigh = np.linalg.eigh

    def dense(*args, **kwargs):
        calls.append("dense")
        return eigh(*args, **kwargs)

    class CountingLinalg:
        @staticmethod
        def eigh_tridiagonal(*args, **kwargs):
            calls.append("tridiagonal")
            return sla.eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", dense)
    monkeypatch.setattr(linops, "sla", CountingLinalg)
    return calls


@pytest.mark.parametrize("shape", [(0, 0), (3, 4), (5,), (2, 2, 2)])
def test_hs_refuses_an_empty_or_non_square_matrix(shape, monkeypatch):
    calls = _counted_eigensolves(monkeypatch)
    with pytest.raises(ConfigError, match="square"):
        hs_calculus(WIDE_BUMP, np.zeros(shape), u_range=WIDE_BUMP.support)
    assert calls == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_hs_refuses_non_finite_entries(value, monkeypatch):
    # before any eigensolve, for a dense matrix and for an operator
    H = np.diag([-1.0, 0.0, 1.0])
    H[1, 1] = value
    op = _calculus_mode_operator()
    op.main[7] = value
    calls = _counted_eigensolves(monkeypatch)
    sums = []
    monkeypatch.setattr(mourre, "_resolvent_quadrature",
                        lambda z, c, E: sums.append(E))
    for matrix in (H, op):
        with pytest.raises(ConfigError, match="finite"):
            hs_calculus(WIDE_BUMP, matrix, u_range=WIDE_BUMP.support)
    assert calls == [] and sums == []


@pytest.mark.parametrize("u_range", [(3.0, -3.0), (1.0, 1.0),
                                     (np.nan, 3.0), (-np.inf, 3.0)])
def test_hs_refuses_an_empty_or_unbounded_u_range(u_range, monkeypatch):
    calls = _counted_eigensolves(monkeypatch)
    with pytest.raises(ConfigError, match="finite lo < hi"):
        hs_calculus(WIDE_BUMP, np.diag([-1.0, 0.0, 1.0]), u_range=u_range)
    assert calls == []


def test_hs_result_has_the_eigenvectors_dtype():
    # a real symmetric operator, banded or dense, gives a real f(H); a
    # complex Hermitian matrix gives a complex one
    f = WIDE_BUMP
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((30, 30))
    for op in (_calculus_mode_operator(), (raw + raw.T) / math.sqrt(60)):
        out = hs_calculus(f, op, u_range=f.support)
        assert out.dtype == np.float64
        assert np.linalg.norm(out - spectral_calculus(f, op), 2) <= 1e-6
    grid = RadialGrid(r0=0.25, r_max=12.0, N=120)
    H = dense_matrix(generator_matrix(PARAMS, 2.0, grid))
    H = H * (2.5 / float(np.max(np.abs(np.linalg.eigvalsh(H)))))
    out = hs_calculus(f, H, u_range=f.support)
    assert out.dtype == np.complex128 and np.any(np.imag(out))


def test_hs_half_plane_sum_matches_both_half_planes():
    # The kept nodes of the certified rung, built and pruned here as
    # _hs_rung prunes them, are the upper half of the both-sign set kept by
    # the threshold tol 1e-4 / (both-sign node count).  The lower half, built
    # here from dbar F~ at -v, completes the sum (2 pi)^{-1} sum_z c/(E - z)
    # over both half-planes, which must equal the half-plane Q(E).
    f = WideBump()
    tol = 1e-6
    hs_calculus(f, np.diag([-2.0, 0.0, 2.0]), u_range=f.support)
    rung = mourre._HS_CACHE[(f, -3.0, 3.0)].rung
    depth, base = mourre._HS_LADDER[rung]
    v_max = 1.5
    upper = mourre._hs_node_set(-3.0, 3.0, v_max, depth, n_u_base=base)
    z, c = mourre._hs_nodes(f, upper, v_max)
    keep = np.abs(c) / z.imag > tol * 1e-4 / (2 * len(z))
    z, c = z[keep], c[keep]
    assert np.all(z.imag > 0.0)
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


def _rung_nodes(f, rung):
    """The groups of a rung on (-3, 3), its nodes and coefficients before
    pruning and its pruning mask, as _hs_rung builds them before it
    collapses the far groups."""
    depth, base = mourre._HS_LADDER[rung]
    groups = mourre._hs_node_set(-3.0, 3.0, 1.5, depth, n_u_base=base)
    z, c = mourre._hs_nodes(f, groups, 1.5)
    keep = np.abs(c) / z.imag > mourre._HS_TOL * 1e-4 / (2 * len(z))
    return groups, z, c, keep


@pytest.mark.parametrize("f", [WideBump(), _PolyBump(1.0)],
                         ids=["WideBump", "PolyBump"])
def test_hs_near_and_far_groups_match_the_direct_sum(f):
    # The summed nodes, the near groups' kept nodes and the far groups'
    # Chebyshev points, must reproduce the direct sum over every kept node,
    # at energies inside, at the ends of and far beyond the u range: at
    # rungs 0, 3 and 5 and at the rung certified for f.
    hs_calculus(f, np.diag([-2.0, -0.5, 0.0, 1.0, 2.5]), u_range=f.support)
    certified = mourre._HS_CACHE[(f, -3.0, 3.0)].rung
    E = np.concatenate([np.linspace(-10.0, 10.0, 401), [-3.0, 3.0, 0.0],
                        np.linspace(-3.5, 3.5, 1401)])
    for rung in sorted({0, 3, 5, certified}):
        _, z, c, keep = _rung_nodes(f, rung)
        entry = mourre._hs_rung(f, -3.0, 3.0, rung)
        assert len(entry.z) < np.count_nonzero(keep)
        q = mourre._resolvent_quadrature(z[keep], c[keep], E)
        summed = mourre._resolvent_quadrature(entry.z, entry.c, E)
        assert np.max(np.abs(summed - q)) <= 1e-13 * np.max(np.abs(q))


@pytest.fixture(scope="module")
def wide_rung_5():
    """WideBump's rung 5, the benchmark bump's certified rung, as built:
    57,950 kept nodes summed as 16,338, and no panel yet."""
    return mourre._hs_rung(WideBump(), -3.0, 3.0, 5)


def test_hs_far_groups_are_those_shorter_than_their_kept_nodes(wide_rung_5):
    # At WideBump's rung 5 a group whose Chebyshev length M is below its
    # kept node count appears as exactly the M + 1 points 3 cos(pi k / M) at
    # its own height v.  Every other group appears as its kept nodes and
    # their coefficients, bit for bit.  That makes 7,444 near nodes and
    # 8,894 collapsed ones from 58 far groups.
    entry = wide_rung_5
    groups, z, c, keep = _rung_nodes(WideBump(), 5)
    near, far, collapsed, start = 0, 0, 0, 0
    for v, _, u_nodes, _ in groups:
        end = start + len(u_nodes)
        kept = keep[start:end]
        at_v = entry.z.imag == v
        length = mourre._chebyshev_length(v / 3.0)
        if length < np.count_nonzero(kept):
            x = 3.0 * np.cos(np.pi * np.arange(length + 1) / length)
            assert np.array_equal(entry.z[at_v], x + 1j * v)
            far += 1
            collapsed += length + 1
        else:
            assert np.array_equal(entry.z[at_v], z[start:end][kept])
            assert np.array_equal(entry.c[at_v], c[start:end][kept])
            near += np.count_nonzero(kept)
        start = end
    assert (near, far, collapsed) == (7444, 58, 8894)
    assert len(entry.z) == len(entry.c) == near + collapsed == 16338


def test_hs_quadrature_temporaries_stay_flat_in_the_energy_count(
        wide_rung_5):
    # At 12,000 energies the quadrature sum over all 16,338 summed nodes
    # allocates at most 2 MiB at a time: it holds one 512-node chunk's
    # arrays at a time.  It agrees with the same sum taken 100 energies at a
    # time (a single block of _HS_E_BLOCK = 128), on every tenth such slice.
    entry = wide_rung_5
    E = np.linspace(-3.5, 3.5, 12000)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        q = mourre._resolvent_quadrature(entry.z, entry.c, E)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
    for i in range(0, len(E), 1000):
        sliced = mourre._resolvent_quadrature(entry.z, entry.c, E[i:i + 100])
        assert np.max(np.abs(q[i:i + 100] - sliced)) <= 1e-14 * np.max(
            np.abs(q))


def test_hs_panel_rule():
    # A panel's half-width p is at most v_min / 8, so the Bernstein ellipse
    # rho = 4 + sqrt 17, whose semi-minor axis (rho - 1/rho) p / 2 is 4 p,
    # keeps every node at least v/2 away.  M is the smallest degree whose
    # interpolation bound 4 B rho^-M / (rho - 1), B = (2/pi) sum|c|/v, is
    # below 2^-53 sum|c|/v; _chebyshev_transform inverts T_m(x_k).
    rho = 4.0 + math.sqrt(17.0)
    assert mourre._PANEL_RHO == rho
    assert math.isclose(rho - 1.0 / rho, 8.0, rel_tol=1e-15)

    def bound(M):
        return 4.0 * (2.0 / math.pi) * rho**-M / (rho - 1.0)

    M = mourre._PANEL_M
    assert M == 18
    assert bound(M) <= 2.0**-53 < bound(M - 1)
    k = np.arange(M + 1)
    assert np.allclose(mourre._PANEL_X, np.cos(np.pi * k / M), rtol=0.0,
                       atol=1e-16)
    T = np.polynomial.chebyshev.chebvander(mourre._PANEL_X, M)
    coef = np.array([mourre._chebyshev_transform(T[:, m])[1].real
                     for m in range(M + 1)]).T
    assert np.max(np.abs(coef - np.eye(M + 1))) <= 1e-14


@pytest.mark.parametrize("M", [1, 80, 596])
def test_chebyshev_transform_keeps_the_moments(M):
    # Weights from complex moments mu_0..mu_M at the M + 1 second-kind
    # points have exactly those moments, at the shortest and longest far
    # groups of WideBump's rung 5 (test_hs_panel_rule covers the panel
    # degree).  T_m(x_k) is read as cos(pi (mk mod 2M) / M), exact to
    # rounding at every m.
    rng = np.random.default_rng(M)
    mu = rng.standard_normal(M + 1) + 1j * rng.standard_normal(M + 1)
    x, weights = mourre._chebyshev_transform(mu)
    k = np.arange(M + 1)
    assert np.array_equal(x, np.cos(np.pi * k / M))
    T = np.cos(np.pi * (np.outer(k, k) % (2 * M)) / M)
    assert np.max(np.abs(weights @ T - mu)) <= 1e-14 * np.max(np.abs(mu))


@pytest.mark.parametrize("which", ["WideBump", "PolyBump"])
def test_hs_table_matches_the_direct_sums(which, wide_rung_5):
    # On [u_lo, u_hi) the panels reproduce the quadrature sum: on a fine
    # grid, at every panel edge and at u_lo.  Outside it, u_hi included, the
    # table returns the sum itself.  Each panel's half-width is at
    # most v_min / 8, v_min the smallest kept node height.
    if which == "WideBump":
        entry = wide_rung_5
    else:
        f = _PolyBump(1.0)
        hs_calculus(f, np.diag([-2.0, -0.5, 0.0, 1.0, 2.5]),
                    u_range=f.support)
        entry = mourre._HS_CACHE[(f, -3.0, 3.0)]
    panels = entry.panels
    n_pan = len(panels.built)
    width = (panels.hi - panels.lo) / n_pan
    assert (panels.lo, panels.hi) == (-3.0, 3.0)
    assert n_pan == math.ceil(4 * 6.0 / np.min(entry.z.imag))
    assert width <= np.min(entry.z.imag) / 4
    E = np.concatenate([np.linspace(-3.0, 3.0, 4001),
                        panels.lo + width * np.arange(n_pan + 1),
                        [-3.0, 3.0, -3.5, -10.0, 3.0 + 1e-12, 10.0]])
    q = mourre._tabulated_quadrature(entry, E)
    assert panels.built.all()
    direct = mourre._resolvent_quadrature(entry.z, entry.c, E)
    inside = (E >= -3.0) & (E < 3.0)
    assert np.max(np.abs(q - direct)) <= 1e-13 * np.max(np.abs(direct))
    assert np.array_equal(q[~inside], mourre._resolvent_quadrature(
        entry.z, entry.c, E[~inside]))


def test_hs_output_does_not_depend_on_who_built_the_panels():
    # f(H1) from panels that H1's own call built, again after calls on
    # other operators built more panels, and for an equal function whose
    # panels other operators built first: the same bits.
    H1 = np.diag([-2.6, -1.3, -0.2, 0.45, 1.7, 2.95])
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((30, 30))
    others = [(raw + raw.T) / math.sqrt(60),
              np.diag([-2.6 + 0.01, 0.45 - 0.02, 2.95 - 0.01])]
    f, g = _PolyBump(1.0), _PolyBump(1.0)
    first = hs_calculus(f, H1, u_range=f.support)
    built = mourre._HS_CACHE[(f, -3.0, 3.0)].panels.built.copy()
    for H in others:
        hs_calculus(f, H, u_range=f.support)
        hs_calculus(g, H, u_range=g.support)
    assert mourre._HS_CACHE[(f, -3.0, 3.0)].panels.built.sum() > built.sum()
    again = hs_calculus(f, H1, u_range=f.support)
    other_order = hs_calculus(g, H1, u_range=g.support)
    assert (mourre._HS_CACHE[(f, -3.0, 3.0)].rung
            == mourre._HS_CACHE[(g, -3.0, 3.0)].rung)
    assert np.array_equal(again, first)
    assert np.array_equal(other_order, first)


def test_hs_repeat_call_on_the_same_spectrum_builds_no_panel(monkeypatch):
    # Every eigenvalue lies in [u_lo, u_hi), so after the first call the
    # panels answer alone: no quadrature sum runs and no panel is built.
    f = _PolyBump(1.0)
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((30, 30))
    H = (raw + raw.T) / math.sqrt(60)
    first = hs_calculus(f, H, u_range=f.support)
    entry = mourre._HS_CACHE[(f, -3.0, 3.0)]
    built = entry.panels.built.copy()
    sums = []
    quadrature = mourre._resolvent_quadrature

    def counted(z, c, E):
        sums.append(len(E))
        return quadrature(z, c, E)

    monkeypatch.setattr(mourre, "_resolvent_quadrature", counted)
    again = hs_calculus(f, H, u_range=f.support)
    assert sums == []
    assert np.array_equal(entry.panels.built, built)
    assert np.array_equal(again, first)


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
    # certified rung's (z, c), before and after pruning
    f = WideBump()
    tol = 1e-6
    hs_calculus(f, np.diag([-2.0, -0.5, 0.0, 1.0, 2.5]), u_range=f.support)
    groups, z, c, keep = _rung_nodes(f, mourre._HS_CACHE[(f, -3.0, 3.0)].rung)
    v_max = 1.5
    z_ref = np.concatenate([u + 1j * v for v, _, u, _ in groups])
    c_ref = np.concatenate([_per_group_dbar(f, u, v, v_max) * uw * wv
                            for v, wv, u, uw in groups])
    keep_ref = np.abs(c_ref) / z_ref.imag > tol * 1e-4 / (2 * len(z_ref))
    assert np.array_equal(z, z_ref) and np.array_equal(c, c_ref)
    assert np.array_equal(keep, keep_ref)


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
    with pytest.raises(ConfigError):
        mourre_positivity_check(0.8, 1.0, 4, config=CONFIG)


@pytest.mark.parametrize("K_max, C", [(48, 10.0), (16, 0.5)],
                         ids=["defaults", "wide-window"])
def test_double_commutator_norm_matches_dense_window(K_max, C):
    # Each contributing mode's ||f U*[[H,A],A]U f||_2 / lam, recomputed from
    # the dense eigendecomposition of H_k on the report's grid, the same
    # window floor and the dense second commutator.  At the defaults each
    # window holds one state with f = 1; the wide window holds up to two,
    # with f < 1.
    lam = 100.0
    rep = mourre_positivity_check(lam, 1.0, K_max, config=CONFIG, C=C)
    grid = rep.grid
    spectrum = CONFIG.spectrum(K_max)
    cutoff = SpectralCutoff(lam=lam, delta=rep.delta_lambda)
    values = []
    for m in rep.per_mode:
        if m.window_size == 0:
            assert m.double_commutator is None
            continue
        spec = mode_operator_spec(CONFIG, m.k, spectrum=spectrum)
        H = dense_matrix(discretize(spec, grid))
        evals, evecs = np.linalg.eigh(H)
        f = cutoff.values(evals)
        window = f >= mourre._WINDOW_FLOOR
        U, f_w = evecs[:, window], f[window]
        assert U.shape[1] == m.window_size
        _, D = mode_commutators(PARAMS, spec, spectrum.nu(m.k), grid)
        D = dense_matrix(D)
        form = f_w[:, None] * (U.conj().T @ D @ U) * f_w[None, :]
        expected = np.linalg.norm(form, 2) / lam
        assert m.double_commutator == pytest.approx(expected, rel=1e-8)
        values.append(expected)
    assert len(values) == rep.contributing_modes >= 1
    assert rep.double_commutator_ratio == max(
        m.double_commutator for m in rep.per_mode if m.window_size)


# Largest relative gap measured between each commutator's form on a window
# state and the integral of its symbol, first and second, on the check's
# grid: 5.9e-6 and 1.4e-4 at lambda = 1e2 (764 points), where |psi|^2 is not
# yet flat across the cutoff transitions, 1.0e-13 and 4.7e-11 at 1e3 (4,560
# points), and 3.6e-15 for both at 1e4 (23,316 points).  The tolerances are
# ten times the gaps at 1e2, and 1e-9 where the gap is rounding.
@pytest.mark.parametrize("lam, rtol_first, rtol_second",
                         [(1e2, 6e-5, 1.5e-3), (1e3, 1e-9, 1e-9),
                          (1e4, 1e-9, 1e-9)], ids=["1e2", "1e3", "1e4"])
def test_commutators_match_their_symbols_on_window_states(lam, rtol_first,
                                                          rtol_second):
    # For an eigenstate psi of H_k at energy E, <psi, D c D psi> is close to
    # the integral of |psi|^2 c (E - (n-1)^2/4 - V)_+, V = mu_k e^{-2r}, so
    # each form is close to the integral of |psi|^2 times the symbol
    #   s1 = 2a'(E - (n-1)^2/4 - V)_+ + 2aV - a'''/2,
    #   s2 = 2(a a'' - 2a'^2)(E - (n-1)^2/4 - V)_+ + 2aV(a' - 2a)
    #        + a'a''' + a''^2 - a a''''/2,
    # built here from a_k_derivs alone, not from the flux form.
    K_max = 48
    rep = mourre_positivity_check(lam, 1.0, K_max, config=CONFIG)
    grid, r = rep.grid, rep.grid.points()
    params = ConjugateParams.from_lambda(lam)
    spectrum = CONFIG.spectrum(K_max)
    cutoff = SpectralCutoff(lam=lam, delta=rep.delta_lambda)
    window = (lam - cutoff.support_halfwidth, lam + cutoff.support_halfwidth)
    states = 0
    for m in rep.per_mode:
        if m.window_size == 0:
            continue
        spec = mode_operator_spec(CONFIG, m.k, spectrum=spectrum)
        evals, evecs = hermitian_eig(discretize(spec, grid),
                                     select_range=window)
        keep = cutoff.values(evals) >= mourre._WINDOW_FLOOR
        assert np.count_nonzero(keep) == m.window_size
        nu = spectrum.nu(m.k)
        a = a_k_derivs(params, nu, r, 4)
        V = (nu**2 - 1.0) * np.exp(-2.0 * r)
        first, second = mode_commutators(params, spec, nu, grid)
        for E, psi in zip(evals[keep], evecs[:, keep].T):
            kinetic = np.maximum(E - CONFIG.shift - V, 0.0)
            s1 = 2.0 * a[1] * kinetic + 2.0 * a[0] * V - 0.5 * a[3]
            s2 = (2.0 * (a[0] * a[2] - 2.0 * a[1] ** 2) * kinetic
                  + 2.0 * a[0] * V * (a[1] - 2.0 * a[0])
                  + a[1] * a[3] + a[2] ** 2 - 0.5 * a[0] * a[4])
            density = np.abs(psi) ** 2
            assert np.vdot(psi, first.matvec(psi)).real == pytest.approx(
                density @ s1, rel=rtol_first)
            assert np.vdot(psi, second.matvec(psi)).real == pytest.approx(
                density @ s2, rel=rtol_second)
            states += 1
    assert states >= rep.contributing_modes >= 3


def test_hs_certifies_the_result_at_the_spectrum():
    # Coefficients 0.1 % off leave f(H) about 1e-3 off where f = 1; the
    # check at the eigenvalues must refuse them and climb to a rung that
    # passes, never return the wrong f(H).
    H = np.diag([-2.0, -0.5, 0.0, 1.0, 2.5])
    bump = _PolyBump(1.0)
    good = hs_calculus(bump, H, u_range=bump.support)
    assert np.linalg.norm(good - spectral_calculus(bump, H), 2) <= 1e-6
    # What is evaluated is the built panels' coefficients, and a new panel
    # is built from c, which holds the near groups' coefficients and the far
    # groups' collapsed weights, so both carry the error.
    key = (bump, -3.0, 3.0)
    entry = mourre._HS_CACHE[key]
    assert entry.panels.built.any()
    panels = entry.panels._replace(coef=np.where(
        entry.panels.built[:, None], entry.panels.coef * (1.0 + 1e-3),
        entry.panels.coef))
    mourre._HS_CACHE[key] = entry._replace(c=entry.c * (1.0 + 1e-3),
                                           panels=panels)
    out = hs_calculus(bump, H, u_range=bump.support)
    assert np.linalg.norm(out - spectral_calculus(bump, H), 2) <= 1e-6
    assert mourre._HS_CACHE[key].rung > entry.rung


def test_hs_ladder_that_cannot_meet_tol_raises(monkeypatch):
    # The rung (5, 64) misses this bump at these eigenvalues by 1.7e-6.
    monkeypatch.setattr(mourre, "_HS_LADDER", [(5, 64)])
    f = WideBump()
    H = np.diag([-2.0, -0.5, 0.0, 1.0, 2.5])
    with pytest.raises(NumericalFailure):
        hs_calculus(f, H, u_range=f.support)
