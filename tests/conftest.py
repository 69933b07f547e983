"""Shared fixtures and common builders."""

import numpy as np
import pytest

from hyplab import weights
from hyplab.conjugate import a_k_eval
from hyplab.linops import DiscreteOperator, discretize, hermitian_eig
from hyplab.model import ModelConfig, mode_operator_spec

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
        else a_k_eval(params, nu_k, r)
    upper = -1j * (a[:-1] + a[1:]) / (4.0 * h)
    lower = 1j * (a[:-1] + a[1:]) / (4.0 * h)
    diags = {0: np.zeros(grid.N, dtype=complex), 1: upper, -1: lower}
    return DiscreteOperator(grid, diags)


def spectral_calculus(f_derivs, op):
    """Reference spectral calculus via full eigendecomposition."""
    evals, evecs = hermitian_eig(op) if hasattr(op, "diagonals") else np.linalg.eigh(
        np.asarray(op)
    )
    fv = f_derivs(evals, 0)
    return (evecs * fv) @ np.conj(evecs.T)
