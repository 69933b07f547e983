"""Shared fixtures and common builders."""

import math

import numpy as np
import pytest

from hyplab import weights
from hyplab import conjugate
from hyplab.conjugate import ConjugateParams, a_k_derivs
from hyplab.errors import RegimeError
from hyplab.laplab import limiting_absorption, sweep_grid
from hyplab.linops import (DiscreteOperator, discretize, hermitian_eig,
                           resolved_grid, weighted_operator_norm)
from hyplab.model import ModelConfig, RadialOperatorSpec, mode_operator_spec

# One verdict line per acceptance criterion, echoed after the run so the
# lines survive output capture (tests/test_acceptance.py appends to this).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def circle_config():
    return ModelConfig(n=2, r0=0.25,
                       cross_section={"kind": "circle", "radius": 1.0})


def dense_matrix(op, shift=0.0):
    """Dense complex A - shift M of the pencil (A, M) of a DiscreteOperator."""
    lower, diag, upper = op.pencil(shift)
    out = np.zeros((op.n, op.n), dtype=complex)
    i = np.arange(op.n)
    out[i, i] = diag
    out[i[1:], i[:-1]] = lower
    out[i[:-1], i[1:]] = upper
    return out


def gronwall_ok(flow, a_prime_sup):
    """Whether ||d_r gamma_t||_inf <= e^{||a'||_inf |t|} for a FlowResult."""
    bound = math.exp(a_prime_sup * abs(flow.t))
    return float(np.max(flow.dgamma)) <= bound * (1.0 + 1e-10)


def make_mode_operator(config, k, grid, lam=4.0):
    """Discretized H_k closed by the outgoing wave at energy lam."""
    return discretize(mode_operator_spec(config, k), grid, outgoing=lam)


class WideBump:
    """Smooth even bump: 1 on [-1,1], supported in [-3,3], derivatives to
    order 7 via the canonical step q((3-|x|)/2).  Usable as the f_derivs
    argument of the functional-calculus routines."""

    support = (-3.0, 3.0)

    def __call__(self, E, j=0):
        E = np.asarray(E, dtype=float)
        u = (3.0 - np.abs(E)) / 2.0
        vals = weights.profile_eval("q", u, j, extended=True)
        if j == 0:
            return vals
        # chain rule: du/dE = -sign(E)/2; every derivative vanishes at E = 0
        # because q is at its plateau there.
        return vals * np.where(E >= 0.0, -0.5, 0.5) ** j


WIDE_BUMP = WideBump()


def schur_bound(kernel, measure):
    """Schur bound max(sup row integral, sup column integral) of |kernel|.

    Guaranteed to dominate the operator norm of the integral operator with
    this kernel under the given grid measure.
    """
    kernel = np.abs(np.asarray(kernel))
    measure = np.asarray(measure, dtype=float)
    row_sums = kernel @ measure
    col_sums = measure @ kernel
    return float(max(row_sums.max(), col_sums.max()))


def synthetic_flow(field, t, r, start=None):
    """The flow of a synthetic field x -> (a(x), a'(x)), by the integrator
    behind conjugate.flow_integrate."""
    return conjugate._flow(lambda x, top: field(x)[:top + 1], t, r, start)


def generator_matrix(params, nu_k, grid, a_values=None):
    """Hermitian discretization of A_k = a_k D_r - i a_k'/2.

    Uses the symmetric form (a D + D a)/2 with the centered first difference
    D = -i d_r, which is Hermitian on the grid by construction.  Passing
    ``a_values`` overrides the field (synthetic tests).  The direct [H, A]
    oracle for the divergence-form commutators of hyplab.mourre.
    """
    r = grid.points()
    h = grid.h
    a = np.asarray(a_values, dtype=float) if a_values is not None \
        else a_k_derivs(params, nu_k, r, 0)[0]
    upper = -1j * (a[:-1] + a[1:]) / (4.0 * h)
    lower = 1j * (a[:-1] + a[1:]) / (4.0 * h)
    diags = {0: np.zeros(grid.N, dtype=complex), 1: upper, -1: lower}
    return DiscreteOperator(grid, diags)


def spec_of_nu(nu_k):
    """The spec of the mode with frequency scale nu_k: mu_k = nu_k^2 - 1,
    the wall r0 = 0.25 and the shift 1/4 of n = 2."""
    return RadialOperatorSpec(mu_k=nu_k**2 - 1.0, shift=0.25, r0=0.25)


def counted_checks(monkeypatch):
    """Count DiscreteOperator.is_hermitian calls; returns the count list."""
    checks = []
    is_hermitian = DiscreteOperator.is_hermitian

    def counted(self):
        checks.append(1)
        return is_hermitian(self)

    monkeypatch.setattr(DiscreteOperator, "is_hermitian", counted)
    return checks


def spectral_calculus(f_derivs, op):
    """Reference spectral calculus via full eigendecomposition."""
    evals, evecs = hermitian_eig(op) if hasattr(op, "diagonals") else np.linalg.eigh(
        np.asarray(op)
    )
    fv = f_derivs(evals, 0)
    return (evecs * fv) @ np.conj(evecs.T)


def mode_norm(cfg, lam, k, grid, start=None):
    """||W (H_k - lam - i0)^{-1} W|| for mode k of the sweep config ``cfg``
    on the given grid, its power iteration started from ``start``: the cell
    that hyplab.laplab.lambda_sweep computes, built from the public pieces.
    Returns (norm, diagnostics) of limiting_absorption."""
    model = cfg.model()
    spectrum = model.spectrum(cfg.K_max)
    op = discretize(mode_operator_spec(model, k, spectrum=spectrum), grid,
                    outgoing=lam)
    r = grid.points()
    if cfg.weight_kind == "mode":
        w = weights.mode_weight_vector(r, spectrum.nu(k), cfg.s)
    else:
        w = weights.polynomial_weight_vector(r, cfg.s)
    return limiting_absorption(op, lam, w, norm_tol=cfg.norm_tol, start=start)


def cell_norms(result):
    """{(lambda, k): norm} of the rows of a sweep result."""
    return {(row["lambda"], row["k"]): row["norm"] for row in result.rows}


def mode_chain(cfg, lam, refine=1.0):
    """{k: norm} of every mode k <= K_max at lam, on the sweep's grid at
    refine: one chain, each power iteration started from the previous
    mode's vector (mode 0 cold), as hyplab's sweep ran before the
    semiclassical formula named its cells.  The oracle that no mode is
    missed."""
    grid = sweep_grid(lam, r0=cfg.r0, refine=refine)
    norms = {}
    start = None
    for k in range(len(cfg.model().spectrum(cfg.K_max))):
        norms[k], diag = mode_norm(cfg, lam, k, grid, start=start)
        start = diag["vector"]
    return norms


def limit_norm(cfg, lam, grid):
    """The limit cell of the sweep config ``cfg`` on a grid of one's own:
    D_x^2 + e^{-2x} + (n-1)^2/4 with the Dirichlet wall at grid.r0, the
    outgoing closure at grid.r_max and the weight w^{-s}(x), built from the
    public pieces.  Returns (norm, diagnostics) of limiting_absorption."""
    spec = RadialOperatorSpec(mu_k=1.0, shift=cfg.model().shift, r0=grid.r0)
    op = discretize(spec, grid, outgoing=lam)
    w = weights.mode_weight_vector(grid.points(), 1.0, cfg.s)
    return limiting_absorption(op, lam, w, norm_tol=cfg.norm_tol)


def limit_grid(lam, refine=1.0):
    """The limit cell's grid: from x0 = -(1/2) log lam - 6 to the sweep's
    r_max at the sweep's step rule, refine times as many points."""
    return resolved_grid(lam, sweep_grid(lam).r_max,
                         r0=-0.5 * math.log(lam) - 6.0, refine=refine)


def chi_sqrt_eval(x, j=0):
    """chi^{1/2}(x) = q(x-1) and derivatives (smooth by construction)."""
    return weights.profile_eval("q", np.asarray(x, dtype=float) - 1.0, j)


def xi_sqrt_eval(x, j=0):
    """xi^{1/2}(x) = q(2(x+1)) and derivatives (chain rule in the factor 2)."""
    return weights.profile_eval(
        "q", 2.0 * (np.asarray(x, dtype=float) + 1.0), j) * (2.0 ** j)


def xi_build(params, nu_k, grid):
    """Diagonal localization operators (Xi, Xi~) of the semiclassical bound.

    Xi = chi_R^{1/2}(r) (1 - xi_S^{1/2})(r - log nu_k) selects the region
    where the mode potential dominates the energy; Xi~ = chi_R^{1/2} - Xi.
    """
    r = grid.points()
    chi = chi_sqrt_eval(r / params.R)
    xi_op = chi * (1.0 - xi_sqrt_eval((r - math.log(nu_k)) / params.S))
    return xi_op, chi - xi_op


def xi_profile_constant():
    """sup|d/dx chi^{1/2}| + sup|d/dx xi^{1/2}| of the canonical profiles;
    S times the grid sup of |Xi'| never exceeds this (R > S)."""
    x = np.linspace(0.0, 3.0, 20001)
    c1 = float(np.max(np.abs(chi_sqrt_eval(x, 1))))
    y = np.linspace(-1.5, 0.5, 20001)
    c2 = float(np.max(np.abs(xi_sqrt_eval(y, 1))))
    return c1 + c2


def semiclassical_gap(lam, z, tau, params):
    """The positivity margin e^S - e^{-2R} - lam - Re z / tau."""
    return (
        math.exp(params.S) - math.exp(-2.0 * params.R) - lam - z.real / tau
    )


def semiclassical_bound_check(lam, z, nu_list, grid, tau=None, params=None,
                              shift=0.25, tol=1e-6):
    """Check the localized resolvent bound for tau (H0_k - lam).

    lhs = sup over the supplied modes of || Xi_k (tau(H0_k - lam) - z)^{-1} ||
    on the Dirichlet box of the grid;
    rhs = |Im z|^{-1} gap^{-1/2} (C_profile/S + |Im z|^{1/2}/tau^{1/2}).

    Returns (lhs, rhs, pass).  Raises RegimeError when the gap is not
    positive (the bound is vacuous there).
    """
    z = complex(z)
    if z.imag == 0.0:
        raise RegimeError("Im z must be nonzero")
    if params is None:
        params = ConjugateParams.from_lambda(lam)
    if tau is None:
        tau = 1.0 / lam
    if tau <= 0:
        raise RegimeError("tau must be positive")
    gap = semiclassical_gap(lam, z, tau, params)
    if gap <= 0.0:
        raise RegimeError(f"gap {gap:.3e} not positive; bound not evaluable")
    c_profile = xi_profile_constant()
    lhs = 0.0
    for nu in nu_list:
        xi_op, _ = xi_build(params, nu, grid)
        if not np.any(xi_op > 0.0):
            continue
        spec = RadialOperatorSpec(mu_k=nu**2 - 1.0, shift=shift, r0=grid.r0)
        op = discretize(spec, grid).scaled_shifted(scale=tau, shift=-tau * lam)
        val, _, _ = weighted_operator_norm(op, z, xi_op, np.ones(grid.N),
                                           tol=tol)
        lhs = max(lhs, val)
    rhs = (
        (1.0 / abs(z.imag))
        / math.sqrt(gap)
        * (c_profile / params.S + math.sqrt(abs(z.imag) / tau))
    )
    return lhs, rhs, lhs <= rhs
