"""Conjugate-operator construction: a_k, flow, unitary group, generator."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad_vec, solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from hyplab import conjugate
from hyplab.cli import load_config
from hyplab.conjugate import (A_MAX_DERIVATIVE, ConjugateParams, a_k_derivs,
                              flow_integrate, unitary_apply)
from hyplab.errors import ConfigError, FlowExitsGrid, NumericalFailure
from hyplab.linops import RadialGrid
from hyplab.model import build_spectrum

from conftest import (dense_matrix, generator_matrix, gronwall_ok,
                      synthetic_flow)


PARAMS_100 = ConjugateParams.from_lambda(100.0)


def _a_k_pair(params, nu):
    """x -> (a_k(x), a_k'(x)), for the SciPy oracles."""
    return lambda x: a_k_derivs(params, nu, x, 1)


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
    assert a_k_derivs(p, 1.0, 5.0, 0)[0] == 0.0


def test_a_k_full_plateau_value():
    # r = 15 >= 2R and r - log nu0 >= -S/2: both cutoffs equal 1
    a = a_k_derivs(PARAMS_100, 1.0, 15.0, 4)
    assert a[0] == pytest.approx(15.0 + 2.0 * PARAMS_100.S, rel=1e-12)
    assert a[1] == pytest.approx(1.0, abs=1e-12)
    for j in (2, 3, 4):
        assert a[j] == pytest.approx(0.0, abs=1e-12)


def test_a_k_derivative_order_limit():
    # order 5 is supported (for products a * a^{(j+1)}), order 6 is not
    a_k_derivs(PARAMS_100, 1.0, 15.0, 5)
    with pytest.raises(ConfigError):
        a_k_derivs(PARAMS_100, 1.0, 15.0, 6)


def test_a_k_derivative_finite_difference_oracle():
    r = np.linspace(8.0, 14.0, 31)
    d = 1e-6
    for j in range(4):
        fd = (a_k_derivs(PARAMS_100, 2.0, r + d, j)[j]
              - a_k_derivs(PARAMS_100, 2.0, r - d, j)[j]) / (2 * d)
        exact = a_k_derivs(PARAMS_100, 2.0, r, j + 1)[j + 1]
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
        # measured: at most 1.7e-14 of the largest sampled value (order 4,
        # nu = 2)
        assert np.max(np.abs(got[j] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(a_k_derivs(PARAMS_100, nu, r, j)[j], got[j])


def test_a_k_derivative_bounds_scale_with_S():
    # sup |a_k^{(j)}| / S^{1-j} fitted constants stable across the lambda
    # ladder, j = 1..4, and sup |a_k a_k^{(j+1)}| bounded by the same shape
    fits = {j: [] for j in range(1, 5)}
    for lam in (1e2, 1e3, 1e4):
        p = ConjugateParams.from_lambda(lam)
        r = np.linspace(0.25, 4.0 * p.R, 20001)
        for k_nu in (1.0, 2.0, 5.0, 25.0):
            a = a_k_derivs(p, k_nu, r, 4)
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
    res = synthetic_flow(lambda x: (np.zeros_like(x), np.zeros_like(x)), 0.7,
                         r)
    assert res.gamma == pytest.approx(r, abs=1e-12)
    assert res.dgamma == pytest.approx(np.ones_like(r), abs=1e-12)


def test_flow_linear_region_exact():
    # on the plateau a(r) = r + c with c = 2S, so gamma = (r+c)e^t - c
    c = 2.0 * PARAMS_100.S
    r = np.array([15.0, 15.5])
    res = flow_integrate(PARAMS_100, 1.0, 0.1, r)
    expected = (r + c) * math.exp(0.1) - c
    assert res.gamma == pytest.approx(expected, abs=1e-8)
    assert res.dgamma == pytest.approx(np.full(2, math.exp(0.1)), rel=1e-8)


def test_flow_gronwall_bound():
    rr = np.linspace(0.25, 40.0, 30001)
    ap_sup = float(np.max(np.abs(a_k_derivs(PARAMS_100, 2.0, rr, 1)[1])))
    r = np.linspace(0.25, 20.0, 101)
    for t in (0.05, 0.2, 0.5):
        res = flow_integrate(PARAMS_100, 2.0, t, r)
        assert gronwall_ok(res, ap_sup)
        assert np.all(res.dgamma > 0.0)
        assert np.max(res.dgamma) <= math.exp(ap_sup * t) * (1.0 + 1e-8)


def test_flow_identity_where_field_vanishes():
    r = np.linspace(0.25, 5.0, 41)  # entirely left of R
    res = flow_integrate(PARAMS_100, 1.0, 0.4, r)
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
    r = np.linspace(cfg["r0"], cfg["r_max"], cfg["n_points"])
    a_r = a_k_derivs(params, nu, r, 0)[0]
    sel = (r > params.R) & (r < 2.0 * params.R) & (a_r > 1e-3)
    assert sel.sum() >= 100
    for t in cfg["t_values"]:
        res = flow_integrate(params, nu, float(t), r)
        start, span = r[sel], res.gamma[sel] - r[sel]
        elapsed, _ = quad_vec(
            lambda u: span / a_k_derivs(params, nu, start + u * span, 0)[0],
            0.0, 1.0, epsabs=1e-13, epsrel=1e-13, norm="max", limit=2000)
        # measured: at most 2.3e-12
        assert np.max(np.abs(elapsed - t)) <= 1e-9
        _, joint = _joint_solve_ivp_oracle(_a_k_pair(params, nu), float(t),
                                           r)
        # measured: at most 2.5e-10
        assert res.dgamma[sel] == pytest.approx(joint[sel], rel=1e-8)


def _default_flow_grid():
    cfg = load_config("flow", None, [])
    params = ConjugateParams.from_lambda(cfg["lambda"])
    nu = build_spectrum(cfg["cross_section"], cfg["k"]).nu(cfg["k"])
    r = np.linspace(cfg["r0"], cfg["r_max"], cfg["n_points"])
    return params, nu, r


def test_flow_is_as_accurate_as_the_joint_solve():
    # Integrating the positions alone, with d_r gamma in closed form, must
    # not cost accuracy: against the joint system at rtol 1e-13, atol 1e-15
    # the worst relative error over gamma and d_r gamma stays below the
    # 2.25e-10 that the joint solve at the flow's own tolerances reaches
    # (in d_r gamma at t = 1).  Measured: 1.45e-10 (gamma at t = 1).
    params, nu, r = _default_flow_grid()
    worst = 0.0
    for t in (0.25, 0.5, 1.0, -0.25, -1.0):
        res = flow_integrate(params, nu, t, r)
        gamma, dgamma = _joint_solve_ivp_oracle(_a_k_pair(params, nu), t, r,
                                                rtol=1e-13, atol=1e-15)
        worst = max(worst, np.max(np.abs(res.gamma / gamma - 1.0)),
                    np.max(np.abs(res.dgamma / dgamma - 1.0)))
    assert worst <= 2e-10


@pytest.mark.parametrize("t1, t2", [(0.25, 1.0), (-0.25, -1.0)])
def test_flow_chained_matches_unchained(t1, t2):
    # gamma_{t2} = gamma_{t2 - t1} o gamma_{t1}: continuing from the result
    # at t1 must land where one solve from t = 0 lands.
    params, nu, r = _default_flow_grid()
    chained = flow_integrate(params, nu, t2, r,
                             start=flow_integrate(params, nu, t1, r))
    direct = flow_integrate(params, nu, t2, r)
    assert chained.t == t2
    assert chained.gamma == pytest.approx(direct.gamma, rel=1e-9)
    assert chained.dgamma == pytest.approx(direct.dgamma, rel=1e-9)


def test_flow_steps_on_a_k_alone(monkeypatch):
    # The stepper evaluates a_k alone, never the (a, a') pair, and lands
    # exactly where the pair's first component takes it.
    params, nu, r = _default_flow_grid()
    calls = {"pair": 0, "value": 0}

    def counted(params, nu_k, x, top):
        calls["pair" if top == 1 else "value"] += 1
        return a_k_derivs(params, nu_k, x, top)

    monkeypatch.setattr(conjugate, "a_k_derivs", counted)
    res = flow_integrate(params, nu, 1.0, r)
    assert calls == {"pair": 1, "value": res.n_evals - 1}
    generic = synthetic_flow(_a_k_pair(params, nu), 1.0, r)
    assert np.array_equal(res.gamma, generic.gamma)
    assert np.array_equal(res.dgamma, generic.dgamma)
    assert (res.n_steps, res.n_evals) == (generic.n_steps, generic.n_evals)


def test_flow_holds_the_zeros_of_a_k_exactly():
    # a_k vanishes identically on r <= R, so those points never move and
    # their d_r gamma stays exactly one, whether or not the solve is chained.
    params, nu, r = _default_flow_grid()
    left = r <= params.R
    assert left.sum() >= 100
    first = flow_integrate(params, nu, 0.5, r)
    for res in (first, flow_integrate(params, nu, -0.5, r),
                flow_integrate(params, nu, 1.0, r, start=first)):
        assert np.array_equal(res.gamma[left], r[left])
        assert np.all(res.dgamma[left] == 1.0)


def test_flow_at_a_simple_zero_grows_like_exp_of_the_slope():
    # a(x) = c sin(x - x0): x0 is a fixed point with a'(x0) = c, so
    # d_r gamma_t(x0) = e^{c t}; elsewhere tan((gamma - x0)/2) grows like
    # e^{c t} and d_r gamma_t(r) = a(gamma_t(r)) / a(r).
    c, x0, t = 0.7, 1.5, 0.8
    field = lambda x: (c * np.sin(x - x0), c * np.cos(x - x0))
    r = np.linspace(x0 - 1.0, x0 + 1.0, 21)
    res = synthetic_flow(field, t, r)
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
        params, nu, r = _default_flow_grid()
        field = _a_k_pair(params, nu)
        res = flow_integrate(params, nu, t, r)
    else:
        scale = {"sine": 1.0, "slow": 1e-18, "still": 1e-30}[case]
        field = lambda x: tuple(scale * v for v in _sine_field(x))
        r = np.linspace(0.5, 2.5, 21)
        res = synthetic_flow(field, t, r)
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
        synthetic_flow(field, 1.0, r)


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
    out = unitary_apply(synthetic_flow(_bump_field, 0.0, r), phi, r)
    assert out == pytest.approx(phi, abs=1e-10)


def test_unitary_identity_left_of_support():
    r = np.linspace(0.25, 12.0, 4001)
    phi = np.exp(-((r - 3.0) ** 2) * 2.0)  # supported left of R ~ 6.2
    phi = np.where(r < PARAMS_100.R - 1.0, phi, 0.0)
    out = unitary_apply(flow_integrate(PARAMS_100, 1.0, 0.3, r), phi, r)
    assert out == pytest.approx(phi, abs=1e-9)


def test_unitary_norm_preservation_order_two():
    defects = []
    hs = []
    for n in (1000, 2000, 4000):
        r = np.linspace(0.0, 4.0, n + 1)
        h = r[1] - r[0]
        phi = np.exp(-((r - 2.0) ** 2) * 4.0)
        out = unitary_apply(synthetic_flow(_bump_field, 0.1, r), phi, r)
        defects.append(abs(np.linalg.norm(out) * math.sqrt(h)
                           - np.linalg.norm(phi) * math.sqrt(h)))
        hs.append(h)
    rate = np.polyfit(np.log(hs), np.log(defects), 1)[0]
    assert rate >= 1.7


def test_unitary_group_law():
    r = np.linspace(0.0, 4.0, 4001)  # h = 1e-3
    phi = np.exp(-((r - 2.0) ** 2) * 4.0)
    t = s = 0.05
    one = unitary_apply(synthetic_flow(_bump_field, t + s, r), phi, r)
    two = unitary_apply(synthetic_flow(_bump_field, t, r),
                        unitary_apply(synthetic_flow(_bump_field, s, r), phi,
                                      r), r)
    assert np.linalg.norm(one - two) <= 1e-6 * np.linalg.norm(phi)


def _unit_field(r):
    """The constant field a = 1, which moves every point by t."""
    return np.ones_like(r), np.zeros_like(r)


def test_unitary_raises_when_phi_has_mass_beyond_the_grid():
    # gamma_t(r) = r + t: for t = 0.5 the points r > 3.5 pull phi from
    # beyond r[-1] = 4, where a bump centered at 4 is not negligible.
    r = np.linspace(0.0, 4.0, 401)
    phi = np.exp(-((r - 4.0) ** 2) * 4.0)
    with pytest.raises(FlowExitsGrid):
        unitary_apply(synthetic_flow(_unit_field, 0.5, r), phi, r)


def test_unitary_raises_when_the_flow_carries_phi_past_the_grid():
    # gamma_t(r) = r + t: for t = 0.5 the values of phi on [0, 0.5) land
    # on no point of the grid, and a bump centered at 0.2 has mass there.
    r = np.linspace(0.0, 4.0, 401)
    phi = np.exp(-((r - 0.2) ** 2) * 4.0)
    with pytest.raises(FlowExitsGrid, match="t=0.5 moves phi"):
        unitary_apply(synthetic_flow(_unit_field, 0.5, r), phi, r)


@pytest.mark.parametrize("t, center, width", [(-0.25, 20.0, 2.0),
                                              (-1.0, 15.0, 1.0)])
def test_unitary_raises_when_the_default_flow_drops_phi(t, center, width):
    # On the default `hyplab flow` grid a negative t pulls gamma_t(r_max)
    # below r_max; the part of phi above it lands on no point of the grid:
    # 12.6 % of the norm of the first phi, all of the second.
    params, nu, r = _default_flow_grid()
    phi = np.exp(-((r - center) / width) ** 2)
    with pytest.raises(FlowExitsGrid):
        unitary_apply(flow_integrate(params, nu, t, r), phi, r)


def test_unitary_transports_phi_that_vanishes_where_the_flow_exits():
    # phi vanishes on [0, 0.5], which the flow carries below r[0], and at
    # r[-1], beyond which it pulls the values for r > 3.5.
    r = np.linspace(0.0, 4.0, 401)
    phi = np.where((r > 0.5) & (r < 3.0),
                   np.sin(np.pi * (r - 0.5) / 2.5) ** 2, 0.0)
    out = unitary_apply(synthetic_flow(_unit_field, 0.5, r), phi, r)
    assert out == pytest.approx(np.interp(r + 0.5, r, phi, right=0.0),
                                abs=1e-12)


# ----------------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------------


def test_generator_zero_field():
    g = RadialGrid(r0=0.25, r_max=5.0, N=100)
    A = generator_matrix(PARAMS_100, 1.0, g,
                         a_values=np.zeros(g.N))
    assert np.max(np.abs(dense_matrix(A))) == 0.0


def test_generator_hermitian():
    g = RadialGrid(r0=0.25, r_max=20.0, N=800)
    A = generator_matrix(PARAMS_100, 2.0, g)
    dense = dense_matrix(A)
    assert np.max(np.abs(dense - dense.conj().T)) <= 1e-12 * np.max(
        np.abs(dense))


def test_generator_constant_field_is_centered_derivative():
    g = RadialGrid(r0=0.25, r_max=5.0, N=100)
    A = generator_matrix(PARAMS_100, 1.0, g, a_values=np.ones(g.N))
    dense = dense_matrix(A)
    expected = -1j / (2.0 * g.h)
    assert dense[5, 6] == pytest.approx(expected)
    assert dense[6, 5] == pytest.approx(-expected)
    assert dense[5, 5] == pytest.approx(0.0, abs=1e-14)


def test_generator_consistency_with_unitary_group():
    # (U_t phi - phi)/(it) -> A phi as t -> 0, up to O(t) + O(h^2)
    g = RadialGrid(r0=0.25, r_max=18.0, N=6000)
    r = g.points()
    A = generator_matrix(PARAMS_100, 1.0, g)
    phi = np.exp(-((r - 14.0) ** 2) * 2.0)
    errs = []
    for t in (2e-3, 1e-3):
        ut = unitary_apply(flow_integrate(PARAMS_100, 1.0, t, r), phi, r)
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
        a_vals = a_k_derivs(PARAMS_100, 1.0, r, 0)[0]
        zeta = np.exp(-((r - 14.0) ** 2) * 0.5)
        zeta_p = -1.0 * (r - 14.0) * zeta
        phi = np.exp(-((r - 13.0) ** 2) * 0.8).astype(complex)
        lhs = (A.matvec(zeta * phi) - zeta * A.matvec(phi)
               + 1j * a_vals * zeta_p * phi)
        errs.append(np.max(np.abs(lhs)))
        hs.append(g.h)
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate >= 1.7
