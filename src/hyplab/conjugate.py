"""Escape-function conjugate operator: a_k, its flow, and the generator.

The conjugate operator for mode k is built from the radial vector field

    a_k(r) = (r + 2S - log nu_k) chi_R(r) xi_S(r - log nu_k),

with chi_R(r) = chi(r/R) and xi_S(x) = xi(x/S).  The associated objects are

* the flow gamma_t solving d/dt gamma = a(gamma) together with its spatial
  derivative (variational equation);
* the induced unitary group U_t phi = (d_r gamma_t)^{1/2} phi(gamma_t);
* the Hermitian generator A_k = a_k D_r - i a_k'/2, discretized in the
  symmetric form (a D + D a)/2;
* the spectral-multiplier decomposition g(r, mu) with r g = a_k;
* the mollified commutator kernel used to identify the generator.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from hyplab.errors import ConfigError, FlowExitsGrid, NumericalFailure
from hyplab.linops import DiscreteOperator
from hyplab.weights import cutoff_derivs, profile_eval

A_MAX_DERIVATIVE = 5


@dataclasses.dataclass(frozen=True)
class ConjugateParams:
    """Cutoff scales (R, S), optionally derived from an energy lambda."""

    R: float
    S: float
    derived_from_lambda: float | None = None

    @staticmethod
    def from_lambda(lam):
        if lam <= 0:
            raise ConfigError("lambda must be positive")
        return ConjugateParams(
            R=math.log(5.0 * lam), S=math.log(4.0 * lam), derived_from_lambda=lam
        )

    def validate(self, r0):
        if not (self.R > self.S > r0 + 1.0):
            raise ConfigError(
                f"require R > S > r0+1, got R={self.R}, S={self.S}, r0={r0}"
            )


def a_k_derivs(params, nu_k, r, top):
    """[a_k, a_k', ..., a_k^{(top)}] at r, by the Leibniz rule over the
    factors of a_k, with one profile evaluation per cutoff factor.

    Derivatives are supported to order 5, one beyond the bound table, so that
    products a_k * a_k^{(j+1)} can be formed for j up to 4.
    """
    if not (0 <= top <= A_MAX_DERIVATIVE):
        raise ConfigError(f"derivative order {top} outside [0, {A_MAX_DERIVATIVE}]")
    r = np.asarray(r, dtype=float)
    scal = r.ndim == 0
    r = np.atleast_1d(r)
    R, S = params.R, params.S
    lognu = math.log(nu_k)
    u = r + 2.0 * S - lognu
    orders = range(top + 1)
    chi_d = [c / R**m for m, c in enumerate(cutoff_derivs("chi", r / R, orders))]
    xi_d = [c / S**m
            for m, c in enumerate(cutoff_derivs("xi", (r - lognu) / S, orders))]

    # p = chi * xi by the Leibniz rule; u' = 1 and u'' = 0 give
    # a^{(j)} = u p^{(j)} + j p^{(j-1)}.
    p = []
    for j in orders:
        pj = chi_d[0] * xi_d[j]
        for i in range(1, j + 1):
            pj = pj + math.comb(j, i) * chi_d[i] * xi_d[j - i]
        p.append(pj)
    derivs = [u * p[0]] + [u * p[j] + j * p[j - 1] for j in orders[1:]]
    return [d[0] for d in derivs] if scal else derivs


def a_k_eval(params, nu_k, r, j=0):
    """j-th derivative of a_k at r (0 <= j <= 5); see a_k_derivs."""
    return a_k_derivs(params, nu_k, r, j)[j]


def a_k_field(params, nu_k):
    """The field pair x -> (a_k(x), a_k'(x)) that drives the flow."""
    return lambda x: tuple(a_k_derivs(params, nu_k, x, 1))


@dataclasses.dataclass
class FlowResult:
    """Flow values at the grid points for one time t."""

    t: float
    gamma: np.ndarray
    dgamma: np.ndarray
    n_steps: int
    n_evals: int

    def gronwall_ok(self, a_prime_sup):
        """Check ||d_r gamma||_inf <= e^{||a'||_inf |t|}."""
        bound = math.exp(a_prime_sup * abs(self.t))
        return float(np.max(self.dgamma)) <= bound * (1.0 + 1e-10)


def flow_integrate(field, t, r, start=None, rtol=1e-11, atol=1e-12):
    """Integrate the flow and its variational equation jointly.

    Parameters
    ----------
    field : callable
        The vector field and its derivative, x -> (a(x), a'(x)), vectorized;
        one call per right-hand-side evaluation.
    t : float
        Flow time (either sign).
    r : array_like
        Starting points (typically the radial grid).
    start : FlowResult, optional
        An earlier result on the same r.  The solve then runs from
        (start.t, start.gamma, start.dgamma) to t: by the group law
        gamma_t = gamma_{t - s} o gamma_s, and the variational equation is
        linear, so dgamma continues multiplicatively.

    Points where a(gamma) = 0 exactly are fixed points of the flow: gamma
    stays put and dgamma grows by e^{a'(gamma) (t - s)} in closed form.  Only
    the other points go to the solver.  Leaving out components that carry no
    error can only raise its RMS error norm, so step control is not loosened.
    """
    # scipy.integrate (with scipy.optimize and scipy.special) is imported
    # here, not with the module, so that callers that never integrate a
    # flow do not pay for loading it.
    from scipy.integrate import solve_ivp

    r = np.asarray(r, dtype=float)
    if start is None:
        t_start, gamma, dgamma = 0.0, r.copy(), np.ones(r.size)
    else:
        t_start = start.t
        gamma, dgamma = start.gamma.copy(), start.dgamma.copy()
    if t == t_start:
        return FlowResult(t, gamma, dgamma, 0, 0)
    a, a_prime = field(gamma)
    moving = a != 0.0
    dgamma[~moving] *= np.exp(a_prime[~moving] * (t - t_start))
    n = int(np.count_nonzero(moving))
    n_steps, n_evals = 0, 1
    if n:
        def rhs(_, y):
            a, a_prime = field(y[:n])
            return np.concatenate([a, a_prime * y[n:]])

        sol = solve_ivp(
            rhs, (t_start, t), np.concatenate([gamma[moving], dgamma[moving]]),
            method="DOP853", rtol=rtol, atol=atol, dense_output=False,
        )
        if not sol.success:
            raise NumericalFailure(f"flow integration failed: {sol.message}")
        gamma[moving], dgamma[moving] = sol.y[:n, -1], sol.y[n:, -1]
        n_steps, n_evals = sol.t.size - 1, sol.nfev + 1
    if np.any(dgamma <= 0.0):
        raise NumericalFailure("flow lost positivity of d_r gamma")
    return FlowResult(t, gamma, dgamma, n_steps, n_evals)


def unitary_apply(field, t, phi, r, flow=None):
    """Transported function U_t phi = (d_r gamma_t)^{1/2} phi(gamma_t).

    phi is sampled at the points r; values of phi at gamma_t(r) are obtained
    by piecewise-linear interpolation, whose O(h^2) error scale matches the
    discretization order used everywhere else.  Raises FlowExitsGrid when a
    non-negligible part of phi would be transported from beyond the grid.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi)
    if flow is None:
        flow = flow_integrate(field, t, r)
    gamma = flow.gamma
    out_of_range = (gamma < r[0]) | (gamma > r[-1])
    if np.any(out_of_range):
        # Transport only exits the grid where phi has no mass to move.
        probe = np.clip(gamma[out_of_range], r[0], r[-1])
        vals = np.interp(probe, r, np.abs(phi))
        if np.any(vals > 1e-8 * max(float(np.max(np.abs(phi))), 1e-300)):
            raise FlowExitsGrid(
                f"flow at t={t} needs phi values outside [{r[0]}, {r[-1]}]"
            )
    re = np.interp(gamma, r, np.real(phi), left=0.0, right=0.0)
    if np.iscomplexobj(phi):
        im = np.interp(gamma, r, np.imag(phi), left=0.0, right=0.0)
        vals = re + 1j * im
    else:
        vals = re
    return np.sqrt(flow.dgamma) * vals


def generator_matrix(params, nu_k, grid, a_values=None):
    """Hermitian discretization of A_k = a_k D_r - i a_k'/2.

    Uses the symmetric form (a D + D a)/2 with the centered first difference
    D = -i d_r, which is Hermitian on the grid by construction.  Passing
    ``a_values`` overrides the field (synthetic tests).
    """
    r = grid.points()
    h = grid.h
    a = np.asarray(a_values, dtype=float) if a_values is not None \
        else a_k_eval(params, nu_k, r)
    upper = -1j * (a[:-1] + a[1:]) / (4.0 * h)
    lower = 1j * (a[:-1] + a[1:]) / (4.0 * h)
    diags = {0: np.zeros(grid.N, dtype=complex), 1: upper, -1: lower}
    return DiscreteOperator(grid, diags)


def g_rs_eval(params, r, mu):
    """Spectral multiplier g(r, mu) with r g(r, mu_k) = a_k(r), and the
    zeroth-order companion g~ = g + r d_r g (= a_k')."""
    if np.any(np.asarray(mu) < 0):
        raise ConfigError("mu must be nonnegative")
    nu = math.sqrt(1.0 + mu)
    r_arr = np.asarray(r, dtype=float)
    lognu = 0.5 * math.log1p(mu)
    chi_r = profile_eval("chi", r_arr / params.R)
    xi_r = profile_eval("xi", (r_arr - lognu) / params.S)
    safe_r = np.where(r_arr == 0.0, 1.0, r_arr)  # chi kills r <= R anyway
    g = chi_r * (1.0 + (2.0 * params.S - lognu) / safe_r) * xi_r
    gtilde = a_k_eval(params, nu, r, j=1)
    return g, gtilde


# ----------------------------------------------------------------------------
# Mollified commutator kernel (generator identification)
# ----------------------------------------------------------------------------


def theta_bump(x):
    """Fixed smooth even bump supported in [-1, 1] with unit integral."""
    x = np.asarray(x, dtype=float)
    raw = profile_eval("q", 2.0 * (x + 1.0)) * profile_eval("q", 2.0 * (1.0 - x))
    return raw / _theta_norm()


def theta_bump_prime(x):
    x = np.asarray(x, dtype=float)
    raw = 2.0 * profile_eval("q", 2.0 * (x + 1.0), 1) * profile_eval(
        "q", 2.0 * (1.0 - x)
    ) - 2.0 * profile_eval("q", 2.0 * (x + 1.0)) * profile_eval(
        "q", 2.0 * (1.0 - x), 1
    )
    return raw / _theta_norm()


@functools.cache
def _theta_norm():
    from scipy.integrate import quad

    val, _ = quad(
        lambda x: profile_eval("q", 2.0 * (x + 1.0))
        * profile_eval("q", 2.0 * (1.0 - x)),
        -1.0,
        1.0,
    )
    return val


def theta_schur_constant():
    """integral of |x theta'(x)| + |theta(x)|, the Schur bound scale for J."""
    from scipy.integrate import quad

    val, _ = quad(lambda x: abs(x * theta_bump_prime(x)) + abs(theta_bump(x)),
                  -1.0, 1.0, limit=200)
    return val


def j_eps_matrix(field, eps, r, h):
    """Grid kernel of the first-order commutator term:

        j(r, r') = (a'(r) + a'(r'))/2 theta_eps(r-r') + (a(r)-a(r')) theta_eps'(r-r')

    with theta_eps(x) = theta(x/eps)/eps, returned as a dense matrix including
    the grid measure h.
    """
    rr = r[:, None] - r[None, :]
    av, apv = field(r)
    kern = 0.5 * (apv[:, None] + apv[None, :]) * theta_bump(rr / eps) / eps
    kern += (av[:, None] - av[None, :]) * theta_bump_prime(rr / eps) / eps**2
    return kern * h


def transported_mollifier_matrix(field, t, eps, r, h):
    """Matrix of U_t^* J_eps^0 U_t where J_eps^0 has kernel theta_eps(r-r'),
    i.e. kernel (d_r gamma(r) d_r gamma(r'))^{1/2} theta_eps(gamma(r)-gamma(r'))."""
    flow = flow_integrate(field, t, r)
    g, dg = flow.gamma, flow.dgamma
    kern = np.sqrt(dg[:, None] * dg[None, :]) * theta_bump(
        (g[:, None] - g[None, :]) / eps
    ) / eps
    return kern * h


def t0_for_mollifier(a_prime_sup, bound=0.5):
    """Largest t with e^{||a'|| t} - 1 <= bound, the validity window for the
    first-order expansion of the transported mollifier."""
    return math.log1p(bound) / max(a_prime_sup, 1e-300)
