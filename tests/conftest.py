"""Shared fixtures and common builders."""

import numpy as np
import pytest

from hyplab import weights
from hyplab.linops import discretize
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
