"""Conjugate-operator construction: a_k, flow, unitary group, generator,
mollifier commutator."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, quad_vec, solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from hyplab import conjugate
from hyplab.cli import load_config
from hyplab.conjugate import (A_MAX_DERIVATIVE, ConjugateParams, a_k_derivs,
                              a_k_eval, a_k_field, flow_integrate, g_rs_eval,
                              generator_matrix, j_eps_matrix, t0_for_mollifier,
                              theta_bump, theta_bump_prime,
                              theta_schur_constant,
                              transported_mollifier_matrix, unitary_apply)
from hyplab.errors import ConfigError, NumericalFailure
from hyplab.linops import RadialGrid, schur_bound
from hyplab.model import build_spectrum


PARAMS_100 = ConjugateParams.from_lambda(100.0)


def test_params_from_lambda():
    assert PARAMS_100.R == pytest.approx(math.log(500.0))
    assert PARAMS_100.S == pytest.approx(math.log(400.0))
    PARAMS_100.validate(0.25)
    with pytest.raises(ConfigError):
        ConjugateParams(R=2.0, S=3.0).validate(0.25)  # needs R > S
    with pytest.raises(ConfigError):
        ConjugateParams(R=3.0, S=1.0).validate(0.25)  # needs S > r0 + 1


# ----------------------------------------------------------------------------
# a_k
# ----------------------------------------------------------------------------


def test_a_k_left_plateau_zero():
    p = ConjugateParams(R=math.log(500.0), S=math.log(400.0))
    assert a_k_eval(p, 1.0, 5.0) == 0.0


def test_a_k_full_plateau_value():
    # r = 15 >= 2R and r - log nu0 >= -S/2: both cutoffs equal 1
    val = a_k_eval(PARAMS_100, 1.0, 15.0)
    assert val == pytest.approx(15.0 + 2.0 * PARAMS_100.S, rel=1e-12)
    assert a_k_eval(PARAMS_100, 1.0, 15.0, 1) == pytest.approx(1.0, abs=1e-12)
    for j in (2, 3, 4):
        assert a_k_eval(PARAMS_100, 1.0, 15.0, j) == pytest.approx(0.0,
                                                                   abs=1e-12)


def test_a_k_derivative_order_limit():
    # order 5 is supported (for products a * a^{(j+1)}), order 6 is not
    a_k_eval(PARAMS_100, 1.0, 15.0, 5)
    with pytest.raises(ConfigError):
        a_k_eval(PARAMS_100, 1.0, 15.0, 6)


def test_a_k_derivative_finite_difference_oracle():
    r = np.linspace(8.0, 14.0, 31)
    d = 1e-6
    for j in range(4):
        fd = (a_k_eval(PARAMS_100, 2.0, r + d, j)
              - a_k_eval(PARAMS_100, 2.0, r - d, j)) / (2 * d)
        exact = a_k_eval(PARAMS_100, 2.0, r, j + 1)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(fd - exact)) <= 1e-4 * scale


def _a_k_oracle(params, nu, r, j):
    """a_k^{(j)}(r) from mpmath at 50 digits, differentiating the closed form
    (r + 2S - log nu) q(r/R - 1)^2 q(2((r - log nu)/S + 1))^2 directly."""
    def q(x):
        if x <= 0:
            return mp.mpf(0)
        if x >= 1:
            return mp.mpf(1)
        return 1 / (1 + mp.exp(1 / x - 1 / (1 - x)))

    with mp.workdps(50):
        R, S, lognu = mp.mpf(params.R), mp.mpf(params.S), mp.log(nu)
        return float(mp.diff(
            lambda x: ((x + 2 * S - lognu) * q(x / R - 1) ** 2
                       * q(2 * ((x - lognu) / S + 1)) ** 2),
            mp.mpf(float(r)), j))


@pytest.mark.parametrize("nu", [2.0, math.exp(10.0)])
def test_a_k_derivs_match_high_precision_oracle(nu):
    # For nu = e^10 the xi transition (log nu - S, log nu - S/2) overlaps
    # the chi transition (R, 2R); the points cross both.
    lo = min(PARAMS_100.R, math.log(nu) - PARAMS_100.S)
    r = np.linspace(lo + 0.05, 2.0 * PARAMS_100.R - 0.05, 23)
    got = a_k_derivs(PARAMS_100, nu, r, A_MAX_DERIVATIVE)
    for j in range(A_MAX_DERIVATIVE + 1):
        ref = np.array([_a_k_oracle(PARAMS_100, nu, x, j) for x in r])
        # measured: at most 9.2e-15 of the largest sampled value
        assert np.max(np.abs(got[j] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(a_k_eval(PARAMS_100, nu, r, j), got[j])


def test_a_k_derivative_bounds_scale_with_S():
    # sup |a_k^{(j)}| / S^{1-j} fitted constants stable across the lambda
    # ladder, j = 1..4, and sup |a_k a_k^{(j+1)}| bounded by the same shape
    fits = {j: [] for j in range(1, 5)}
    for lam in (1e2, 1e3, 1e4):
        p = ConjugateParams.from_lambda(lam)
        r = np.linspace(0.25, 4.0 * p.R, 20001)
        for k_nu in (1.0, 2.0, 5.0, 25.0):
            a = {j: a_k_eval(p, k_nu, r, j) for j in range(5)}
            for j in range(1, 5):
                fits[j].append(np.max(np.abs(a[j])) / p.S ** (1 - j))
    for j in range(1, 5):
        per_lam = np.array(fits[j]).reshape(3, 4).max(axis=1)
        assert per_lam.max() <= 1.2 * per_lam.min()


# ----------------------------------------------------------------------------
# Flow
# ----------------------------------------------------------------------------


def test_flow_zero_field_identity():
    r = np.linspace(0.0, 5.0, 11)
    res = flow_integrate(lambda x: (np.zeros_like(x), np.zeros_like(x)), 0.7,
                         r)
    assert res.gamma == pytest.approx(r, abs=1e-12)
    assert res.dgamma == pytest.approx(np.ones_like(r), abs=1e-12)


def test_flow_linear_region_exact():
    # on the plateau a(r) = r + c with c = 2S, so gamma = (r+c)e^t - c
    c = 2.0 * PARAMS_100.S
    field = a_k_field(PARAMS_100, 1.0)
    r = np.array([15.0, 15.5])
    res = flow_integrate(field, 0.1, r)
    expected = (r + c) * math.exp(0.1) - c
    assert res.gamma == pytest.approx(expected, abs=1e-8)
    assert res.dgamma == pytest.approx(np.full(2, math.exp(0.1)), rel=1e-8)


def test_flow_gronwall_bound():
    field = a_k_field(PARAMS_100, 2.0)
    rr = np.linspace(0.25, 40.0, 30001)
    ap_sup = float(np.max(np.abs(field(rr)[1])))
    r = np.linspace(0.25, 20.0, 101)
    for t in (0.05, 0.2, 0.5):
        res = flow_integrate(field, t, r)
        assert res.gronwall_ok(ap_sup)
        assert np.all(res.dgamma > 0.0)
        assert np.max(res.dgamma) <= math.exp(ap_sup * t) * (1.0 + 1e-8)


def test_flow_identity_where_field_vanishes():
    field = a_k_field(PARAMS_100, 1.0)
    r = np.linspace(0.25, 5.0, 41)  # entirely left of R
    res = flow_integrate(field, 0.4, r)
    assert res.gamma == pytest.approx(r, abs=1e-12)


def test_flow_matches_quadrature_oracle_on_default_grid():
    # gamma_t(r) solves int_r^{gamma_t(r)} dx / a_k(x) = t.  On the chi
    # transition (R, 2R), where a_k is not linear, it is checked against
    # scipy's adaptive quadrature on the default `hyplab flow` grid, all
    # starting points at once through the substitution
    # x = r + u (gamma_t(r) - r), u in [0, 1].  d_r gamma_t = a_k(gamma_t)
    # / a_k(r) holds by construction, so it is checked against the
    # variational equation integrated jointly with the flow by SciPy.
    cfg = load_config("flow", None, [])
    params = ConjugateParams.from_lambda(cfg["lambda"])
    nu = build_spectrum(cfg["cross_section"], cfg["k"]).nu(cfg["k"])
    field = a_k_field(params, nu)
    r = np.linspace(cfg["r0"], cfg["r_max"], cfg["n_points"])
    a_r = a_k_eval(params, nu, r)
    sel = (r > params.R) & (r < 2.0 * params.R) & (a_r > 1e-3)
    assert sel.sum() >= 100
    for t in cfg["t_values"]:
        res = flow_integrate(field, float(t), r)
        start, span = r[sel], res.gamma[sel] - r[sel]
        elapsed, _ = quad_vec(
            lambda u: span / a_k_eval(params, nu, start + u * span), 0.0, 1.0,
            epsabs=1e-13, epsrel=1e-13, norm="max", limit=2000)
        # measured: at most 2.3e-12
        assert np.max(np.abs(elapsed - t)) <= 1e-9
        _, joint = _joint_solve_ivp_oracle(field, float(t), r)
        # measured: at most 2.5e-10
        assert res.dgamma[sel] == pytest.approx(joint[sel], rel=1e-8)


def _default_flow_grid():
    cfg = load_config("flow", None, [])
    params = ConjugateParams.from_lambda(cfg["lambda"])
    nu = build_spectrum(cfg["cross_section"], cfg["k"]).nu(cfg["k"])
    r = np.linspace(cfg["r0"], cfg["r_max"], cfg["n_points"])
    return params, a_k_field(params, nu), r


def test_flow_is_as_accurate_as_the_joint_solve():
    # Integrating the positions alone, with d_r gamma in closed form, must
    # not cost accuracy: against the joint system at rtol 1e-13, atol 1e-15
    # the worst relative error over gamma and d_r gamma stays below the
    # 2.25e-10 that the joint solve at the flow's own tolerances reaches
    # (in d_r gamma at t = 1).  Measured: 1.45e-10 (gamma at t = 1).
    _, field, r = _default_flow_grid()
    worst = 0.0
    for t in (0.25, 0.5, 1.0, -0.25, -1.0):
        res = flow_integrate(field, t, r)
        gamma, dgamma = _joint_solve_ivp_oracle(field, t, r, rtol=1e-13,
                                                atol=1e-15)
        worst = max(worst, np.max(np.abs(res.gamma / gamma - 1.0)),
                    np.max(np.abs(res.dgamma / dgamma - 1.0)))
    assert worst <= 2e-10


@pytest.mark.parametrize("t1, t2", [(0.25, 1.0), (-0.25, -1.0)])
def test_flow_chained_matches_unchained(t1, t2):
    # gamma_{t2} = gamma_{t2 - t1} o gamma_{t1}: continuing from the result
    # at t1 must land where one solve from t = 0 lands.
    _, field, r = _default_flow_grid()
    chained = flow_integrate(field, t2, r, start=flow_integrate(field, t1, r))
    direct = flow_integrate(field, t2, r)
    assert chained.t == t2
    assert chained.gamma == pytest.approx(direct.gamma, rel=1e-9)
    assert chained.dgamma == pytest.approx(direct.dgamma, rel=1e-9)


def test_flow_steps_on_a_k_alone():
    # The stepper evaluates a_k through AkField.value, never the (a, a')
    # pair, and lands exactly where the pair's first component takes it.
    _, field, r = _default_flow_grid()
    calls = {"pair": 0, "value": 0}

    class Counted:
        def __call__(self, x):
            calls["pair"] += 1
            return field(x)

        def value(self, x):
            calls["value"] += 1
            return field.value(x)

    res = flow_integrate(Counted(), 1.0, r)
    assert calls == {"pair": 1, "value": res.n_evals - 1}
    generic = flow_integrate(lambda x: field(x), 1.0, r)
    assert np.array_equal(res.gamma, generic.gamma)
    assert np.array_equal(res.dgamma, generic.dgamma)
    assert (res.n_steps, res.n_evals) == (generic.n_steps, generic.n_evals)


def test_flow_holds_the_zeros_of_a_k_exactly():
    # a_k vanishes identically on r <= R, so those points never move and
    # their d_r gamma stays exactly one, whether or not the solve is chained.
    params, field, r = _default_flow_grid()
    left = r <= params.R
    assert left.sum() >= 100
    first = flow_integrate(field, 0.5, r)
    for res in (first, flow_integrate(field, -0.5, r),
                flow_integrate(field, 1.0, r, start=first)):
        assert np.array_equal(res.gamma[left], r[left])
        assert np.all(res.dgamma[left] == 1.0)


def test_flow_at_a_simple_zero_grows_like_exp_of_the_slope():
    # a(x) = c sin(x - x0): x0 is a fixed point with a'(x0) = c, so
    # d_r gamma_t(x0) = e^{c t}; elsewhere tan((gamma - x0)/2) grows like
    # e^{c t} and d_r gamma_t(r) = a(gamma_t(r)) / a(r).
    c, x0, t = 0.7, 1.5, 0.8
    field = lambda x: (c * np.sin(x - x0), c * np.cos(x - x0))
    r = np.linspace(x0 - 1.0, x0 + 1.0, 21)
    res = flow_integrate(field, t, r)
    at = np.flatnonzero(r == x0)
    assert at.size == 1
    assert res.gamma[at] == x0
    assert res.dgamma[at] == pytest.approx(math.exp(c * t), rel=1e-12)
    expected = x0 + 2.0 * np.arctan(np.tan((r - x0) / 2.0) * math.exp(c * t))
    assert res.gamma == pytest.approx(expected, rel=1e-9, abs=1e-12)
    moved = r != x0
    assert res.dgamma[moved] == pytest.approx(
        np.sin(res.gamma[moved] - x0) / np.sin(r[moved] - x0), rel=1e-8)


def test_dop853_tableau_is_scipys():
    # the 12 stepping stages, the 8th-order weights and both error
    # estimators, equal as doubles to SciPy's DOP853 coefficients
    d = dop853_coefficients
    n = d.N_STAGES
    assert np.array_equal(conjugate._DOP_A, d.A[:n, :n])
    assert np.array_equal(conjugate._DOP_B, d.B)
    assert np.array_equal(conjugate._DOP_E3, d.E3)
    assert np.array_equal(conjugate._DOP_E5, d.E5)


def _solve_ivp_oracle(field, t, r):
    """The points of r where a != 0, integrated by SciPy's DOP853 at
    flow_integrate's tolerances: (moving mask, solution)."""
    moving = field(r)[0] != 0.0
    sol = solve_ivp(lambda _, y: field(y)[0], (0.0, t), r[moving],
                    method="DOP853", rtol=conjugate._DOP_RTOL,
                    atol=conjugate._DOP_ATOL)
    assert sol.success
    return moving, sol


def _joint_solve_ivp_oracle(field, t, r, rtol=conjugate._DOP_RTOL,
                            atol=conjugate._DOP_ATOL):
    """gamma_t and d_r gamma_t on r from SciPy's DOP853 on the joint system
    of the flow and its variational equation d/dt dgamma = a'(gamma) dgamma;
    the points where a = 0 are held at r with dgamma = e^{a' t}."""
    a, a_prime = field(r)
    moving = a != 0.0
    n = int(np.count_nonzero(moving))

    def rhs(_, y):
        a, a_prime = field(y[:n])
        return np.concatenate([a, a_prime * y[n:]])

    sol = solve_ivp(rhs, (0.0, t), np.concatenate([r[moving], np.ones(n)]),
                    method="DOP853", rtol=rtol, atol=atol)
    assert sol.success
    gamma, dgamma = r.copy(), np.exp(a_prime * t)
    gamma[moving], dgamma[moving] = sol.y[:n, -1], sol.y[n:, -1]
    return gamma, dgamma


def _sine_field(x):
    return 0.7 * np.sin(x - 1.5), 0.7 * np.cos(x - 1.5)


@pytest.mark.parametrize("case, t", [("default", 0.25), ("default", -0.25),
                                     ("default", 1.0), ("default", -1.0),
                                     ("sine", 0.8), ("sine", 3.0),
                                     ("slow", 1.0), ("still", 1.0)])
def test_flow_stepper_matches_solve_ivp_dop853(case, t):
    # the same steps, the same evaluations (plus the one that finds the
    # zeros of a) and the same positions as solve_ivp(method="DOP853") on
    # the positions alone.  The sine flow settles onto its fixed points by
    # t = 3, where the step grows by the largest factor.  Scaled below the
    # tolerances ("slow", 1e-18) and below 1e-15 of them ("still", 1e-30)
    # it takes the initial-step rule's two small-derivative branches.
    if case == "default":
        _, field, r = _default_flow_grid()
    else:
        scale = {"sine": 1.0, "slow": 1e-18, "still": 1e-30}[case]
        field = lambda x: tuple(scale * v for v in _sine_field(x))
        r = np.linspace(0.5, 2.5, 21)
    res = flow_integrate(field, t, r)
    moving, sol = _solve_ivp_oracle(field, t, r)
    assert res.n_steps == sol.t.size - 1
    assert res.n_evals == sol.nfev + 1
    assert np.array_equal(res.gamma[~moving], r[~moving])
    assert res.gamma[moving] == pytest.approx(sol.y[:, -1], rel=1e-13)
    # the closed form d_r gamma = a(gamma_t) / a(r) against the variational
    # equation; measured: at most 2.5e-10 (default grid, t = 1)
    _, joint = _joint_solve_ivp_oracle(field, t, r)
    assert res.dgamma == pytest.approx(joint, rel=1e-9)


def test_flow_that_blows_up_raises():
    # a(x) = x^2 sends x to infinity at t = 1/x, inside (0, 1] for x >= 1:
    # the step shrinks to the minimum, where solve_ivp also gives up.
    r = np.linspace(1.0, 2.0, 5)
    field = lambda x: (x * x, 2.0 * x)
    sol = solve_ivp(lambda _, y: y ** 2, (0.0, 1.0), r, method="DOP853",
                    rtol=conjugate._DOP_RTOL, atol=conjugate._DOP_ATOL)
    assert sol.status == -1
    # it stops at the same time as solve_ivp, just short of t = 1/2
    with pytest.raises(NumericalFailure,
                       match="minimum .* at t = %.17g$" % sol.t[-1]):
        flow_integrate(field, 1.0, r)


# ----------------------------------------------------------------------------
# Unitary group
# ----------------------------------------------------------------------------


def _bump_field(r):
    """Smooth compactly supported synthetic velocity field on (1, 3), with
    its derivative."""
    from hyplab.weights import profile_eval
    a = 0.5 * profile_eval("chi", r) * profile_eval("chi", 4.0 - r)
    a_prime = 0.5 * (profile_eval("chi", r, 1) * profile_eval("chi", 4.0 - r)
                     - profile_eval("chi", r) * profile_eval("chi", 4.0 - r, 1))
    return a, a_prime


def test_unitary_t_zero_identity():
    r = np.linspace(0.0, 4.0, 2001)
    phi = np.exp(-((r - 2.0) ** 2) * 4.0)
    out = unitary_apply(_bump_field, 0.0, phi, r)
    assert out == pytest.approx(phi, abs=1e-10)


def test_unitary_identity_left_of_support():
    field = a_k_field(PARAMS_100, 1.0)
    r = np.linspace(0.25, 12.0, 4001)
    phi = np.exp(-((r - 3.0) ** 2) * 2.0)  # supported left of R ~ 6.2
    phi = np.where(r < PARAMS_100.R - 1.0, phi, 0.0)
    out = unitary_apply(field, 0.3, phi, r)
    assert out == pytest.approx(phi, abs=1e-9)


def test_unitary_norm_preservation_order_two():
    defects = []
    hs = []
    for n in (1000, 2000, 4000):
        r = np.linspace(0.0, 4.0, n + 1)
        h = r[1] - r[0]
        phi = np.exp(-((r - 2.0) ** 2) * 4.0)
        out = unitary_apply(_bump_field, 0.1, phi, r)
        defects.append(abs(np.linalg.norm(out) * math.sqrt(h)
                           - np.linalg.norm(phi) * math.sqrt(h)))
        hs.append(h)
    rate = np.polyfit(np.log(hs), np.log(defects), 1)[0]
    assert rate >= 1.7


def test_unitary_group_law():
    r = np.linspace(0.0, 4.0, 4001)  # h = 1e-3
    phi = np.exp(-((r - 2.0) ** 2) * 4.0)
    t = s = 0.05
    one = unitary_apply(_bump_field, t + s, phi, r)
    two = unitary_apply(_bump_field, t,
                        unitary_apply(_bump_field, s, phi, r), r)
    assert np.linalg.norm(one - two) <= 1e-6 * np.linalg.norm(phi)


# ----------------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------------


def test_generator_zero_field():
    g = RadialGrid(r0=0.25, r_max=5.0, N=100)
    A = generator_matrix(PARAMS_100, 1.0, g,
                         a_values=np.zeros(g.N))
    assert np.max(np.abs(A.dense())) == 0.0


def test_generator_hermitian():
    g = RadialGrid(r0=0.25, r_max=20.0, N=800)
    A = generator_matrix(PARAMS_100, 2.0, g)
    dense = A.dense()
    assert np.max(np.abs(dense - dense.conj().T)) <= 1e-12 * np.max(
        np.abs(dense))


def test_generator_constant_field_is_centered_derivative():
    g = RadialGrid(r0=0.25, r_max=5.0, N=100)
    A = generator_matrix(PARAMS_100, 1.0, g, a_values=np.ones(g.N))
    dense = A.dense()
    expected = -1j / (2.0 * g.h)
    assert dense[5, 6] == pytest.approx(expected)
    assert dense[6, 5] == pytest.approx(-expected)
    assert dense[5, 5] == pytest.approx(0.0, abs=1e-14)


def test_generator_consistency_with_unitary_group():
    # (U_t phi - phi)/(it) -> A phi as t -> 0, up to O(t) + O(h^2)
    g = RadialGrid(r0=0.25, r_max=18.0, N=6000)
    r = g.points()
    field = a_k_field(PARAMS_100, 1.0)
    A = generator_matrix(PARAMS_100, 1.0, g)
    phi = np.exp(-((r - 14.0) ** 2) * 2.0)
    errs = []
    for t in (2e-3, 1e-3):
        ut = unitary_apply(field, t, phi, r)
        approx = (ut - phi) / (1j * t)
        errs.append(np.max(np.abs(approx - A.matvec(phi.astype(complex)))))
    assert errs[1] <= 0.75 * errs[0] + 1e-6
    assert errs[1] <= 0.05 * np.max(np.abs(A.matvec(phi.astype(complex))))


def test_cutoff_commutation_order_two():
    # ||A(zeta phi) - zeta A phi + i a zeta' phi|| = O(h^2)
    errs, hs = [], []
    for N in (1500, 3000, 6000):
        g = RadialGrid(r0=0.25, r_max=18.0, N=N)
        r = g.points()
        A = generator_matrix(PARAMS_100, 1.0, g)
        a_vals = a_k_eval(PARAMS_100, 1.0, r)
        zeta = np.exp(-((r - 14.0) ** 2) * 0.5)
        zeta_p = -1.0 * (r - 14.0) * zeta
        phi = np.exp(-((r - 13.0) ** 2) * 0.8).astype(complex)
        lhs = (A.matvec(zeta * phi) - zeta * A.matvec(phi)
               + 1j * a_vals * zeta_p * phi)
        errs.append(np.max(np.abs(lhs)))
        hs.append(g.h)
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate >= 1.7


# ----------------------------------------------------------------------------
# Spectral decomposition g_{R,S}
# ----------------------------------------------------------------------------


def test_g_rs_zero_left_of_R():
    g, gt = g_rs_eval(PARAMS_100, 4.0, 3.0)
    assert g == 0.0 and gt == 0.0


def test_g_rs_defining_identity():
    rng = np.random.default_rng(1)
    rs = rng.uniform(0.3, 25.0, 1000)
    mus = rng.uniform(0.0, 50.0, 1000)
    for r, mu in zip(rs, mus):
        g, _ = g_rs_eval(PARAMS_100, r, mu)
        nu = math.sqrt(1.0 + mu)
        assert r * g == pytest.approx(a_k_eval(PARAMS_100, nu, r),
                                      abs=1e-12 * max(1.0, abs(r * g)))


def test_g_rs_plateau_closed_form():
    mu = 3.0
    r = 16.0
    g, _ = g_rs_eval(PARAMS_100, r, mu)
    assert g == pytest.approx(
        1.0 + (2.0 * PARAMS_100.S - 0.5 * math.log(1.0 + mu)) / r, rel=1e-12)


def test_g_tilde_bounded_over_lambda_ladder():
    # r d/dr g_{R,S} stays bounded along the ladder (order-zero symbol claim)
    sups = []
    for lam in (1e2, 1e3, 1e4):
        p = ConjugateParams.from_lambda(lam)
        r = np.linspace(0.3, 6.0 * p.R, 8001)
        d = 1e-5
        for mu in (0.0, 10.0):
            gp = np.array([(g_rs_eval(p, ri + d, mu)[0]
                            - g_rs_eval(p, ri - d, mu)[0]) / (2 * d)
                           for ri in r[:: 40]])
            sups.append(np.max(np.abs(r[::40] * gp)))
    assert max(sups) <= 10.0


# ----------------------------------------------------------------------------
# Mollifier commutator
# ----------------------------------------------------------------------------


def test_theta_bump_normalization():
    x = np.linspace(-1.5, 1.5, 3001)
    vals = theta_bump(x)
    assert np.all(vals >= 0.0)
    assert np.trapezoid(vals, x) == pytest.approx(1.0, rel=1e-6)
    d = 1e-6
    fd = (theta_bump(x) - theta_bump(x - 2 * d)) / (2 * d)
    assert np.max(np.abs(fd - theta_bump_prime(x - d))) <= 1e-3


def test_t0_rule_matches_flow():
    field = a_k_field(PARAMS_100, 1.0)
    rr = np.linspace(0.25, 40.0, 30001)
    ap_sup = float(np.max(np.abs(field(rr)[1])))
    t0 = t0_for_mollifier(ap_sup)
    r = np.linspace(0.25, 30.0, 301)
    res = flow_integrate(field, t0, r)
    assert np.max(np.abs(res.dgamma - 1.0)) <= 0.5 + 1e-6


def test_mollifier_commutator_quadratic_in_t():
    g = RadialGrid(r0=5.0, r_max=16.0, N=1100)
    r = g.points()
    field = a_k_field(PARAMS_100, 1.0)
    eps = 0.25
    K0 = transported_mollifier_matrix(field, 0.0, eps, r, g.h)
    J = j_eps_matrix(field, eps, r, g.h)
    resids, ts = [], (0.04, 0.02, 0.01)
    for t in ts:
        Kt = transported_mollifier_matrix(field, t, eps, r, g.h)
        resids.append(np.linalg.norm(Kt - K0 - t * J, 2))
    rate = np.polyfit(np.log(ts), np.log(resids), 1)[0]
    assert rate >= 1.7


def test_j_eps_schur_bound():
    g = RadialGrid(r0=5.0, r_max=16.0, N=1100)
    r = g.points()
    field = a_k_field(PARAMS_100, 1.0)
    rr = np.linspace(0.25, 40.0, 30001)
    ap_sup = float(np.max(np.abs(field(rr)[1])))
    for eps in (0.5, 0.25):
        J = j_eps_matrix(field, eps, r, g.h)
        norm = np.linalg.norm(J, 2)
        assert norm <= ap_sup * theta_schur_constant() * (1.0 + 1e-6)
        assert schur_bound(J / g.h, np.full(r.size, g.h)) >= norm - 1e-9


def test_mollifier_constants_match_quadrature():
    # int theta_raw = 3/2 and int |x theta'| + |theta| = 2 in closed form
    from hyplab.weights import profile_eval
    raw, _ = quad(lambda x: profile_eval("q", 2.0 * (x + 1.0))
                  * profile_eval("q", 2.0 * (1.0 - x)), -1.0, 1.0)
    assert abs(raw - conjugate._THETA_NORM) <= 1e-14
    schur, _ = quad(lambda x: abs(x * theta_bump_prime(x)) + abs(theta_bump(x)),
                    -1.0, 1.0, limit=200)
    assert abs(schur - theta_schur_constant()) <= 1e-14
    unit, _ = quad(theta_bump, -1.0, 1.0)
    assert abs(unit - 1.0) <= 1e-14
