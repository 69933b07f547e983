"""Tests for the finite-dimensional commutator testbed."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hyplab import abstract
from hyplab.abstract import (
    ConstantsInput,
    TestbedInstance as _TestbedInstance,
    algebre_identity_check,
    commutator_identity_residuals,
    constants_eval,
    diffineq_check,
    eps_weight,
    eps_weight_derivative,
    recurrence_iterate,
    recurrence_step_bound,
    resolvent_g,
    scalar_weight_check,
)
from hyplab.errors import ConfigError, RegimeError
from hyplab.weights import SpectralCutoff, profile_eval


def _instance(seed=0):
    return _TestbedInstance.generate(seed)


def _probe_z(inst):
    return inst.lam + 0.3 * inst.delta + 1e-6j


# ---------------------------------------------------------------------------
# Testbed generation
# ---------------------------------------------------------------------------


def test_generation_is_deterministic_and_hermitian():
    a = _instance(3)
    b = _instance(3)
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.A, b.A)
    assert a.n == 20
    assert np.allclose(a.H, a.H.conj().T)
    assert np.allclose(a.A, a.A.conj().T)
    assert np.all(np.diff(a.evals) >= 0)


def test_generation_varies_with_seed():
    assert not np.array_equal(_instance(0).H, _instance(1).H)


@pytest.mark.parametrize("window_count", [0, 1, 21])
def test_generation_refuses_a_window_outside_two_to_dim(window_count):
    with pytest.raises(ConfigError):
        _TestbedInstance.generate(0, window_count=window_count)


@pytest.mark.parametrize("alpha_factor", [0.0, -1.0])
def test_generation_refuses_a_nonpositive_alpha_factor(alpha_factor):
    with pytest.raises(ConfigError):
        _TestbedInstance.generate(0, alpha_factor=alpha_factor)


def test_generation_window_holds_every_selected_eigenvalue():
    # window_count = dim selects the whole spectrum, and f = 1 on all of it
    inst = _TestbedInstance.generate(0, dim=6, window_count=6)
    cutoff = SpectralCutoff(lam=inst.lam, delta=inst.delta)
    assert np.all(cutoff.values(inst.evals) == 1.0)


def test_stack_puts_a_seed_axis_on_every_field():
    insts = [_instance(seed) for seed in (4, 5, 6)]
    stacked = _TestbedInstance.stack(insts)
    assert stacked.n == 20
    assert stacked.H.shape == (3, 20, 20) and stacked.evals.shape == (3, 20)
    assert stacked.lam.shape == stacked.rejects.shape == (3,)
    for i, inst in enumerate(insts):
        for field in ("H", "A", "lam", "delta", "evals", "evecs", "alpha",
                      "K", "fH", "B", "rejects"):
            assert np.array_equal(getattr(stacked, field)[i],
                                  getattr(inst, field))


def test_stack_refuses_instances_of_different_dimensions():
    with pytest.raises(ValueError):
        _TestbedInstance.stack([_instance(0),
                                _TestbedInstance.generate(0, dim=12)])


# ---------------------------------------------------------------------------
# Regularized resolvents
# ---------------------------------------------------------------------------


def test_resolvent_g_solves_the_shifted_system():
    inst = _instance(0)
    z, eps = _probe_z(inst), 0.05
    G = resolvent_g(inst, z, eps)
    BB = inst.B @ inst.B
    M = inst.H - z * np.eye(inst.n) - 1j * eps * BB
    assert np.linalg.norm(M @ G - np.eye(inst.n), 2) <= 1e-10


def test_resolvent_g_regime_errors():
    inst = _instance(0)
    with pytest.raises(RegimeError):
        resolvent_g(inst, 1.0 + 1.0j, -0.1)
    with pytest.raises(RegimeError):
        resolvent_g(inst, 1.0, 0.0)


def test_resolvent_algebra_identities():
    for seed in range(5):
        inst = _instance(seed)
        res = algebre_identity_check(inst, _probe_z(inst), 0.05, 0.2,
                                     seed=seed)
        assert res["residual_difference"] <= 1e-10
        assert res["residual_adjoint"] <= 1e-10
        assert res["norm_bound_ok"]
        assert res["quadratic_violations"] == 0
        assert res["quadratic_margin"] > 0


def test_quadratic_estimate_is_checked_only_where_im_z_eps_is_positive():
    # at eps = 0 the estimate says nothing: no violation, an infinite
    # margin and no division by zero, also beside a checked seed of a stack
    insts = [_instance(0), _instance(1)]
    stacked = _TestbedInstance.stack(insts)
    z = _probe_z(stacked)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = algebre_identity_check(stacked, z, np.array([0.0, 0.05]), 0.2,
                                     seed=[0, 1])
    assert rep["quadratic_violations"].tolist() == [0, 0]
    assert rep["quadratic_margin"][0] == math.inf
    one = algebre_identity_check(insts[1], _probe_z(insts[1]), 0.05, 0.2,
                                 seed=1)
    assert 0 < one["quadratic_margin"] < math.inf
    assert rep["quadratic_margin"][1] == one["quadratic_margin"]


def test_commutator_resolvent_identities():
    inst = _instance(7)
    z = _probe_z(inst)
    r1, r2 = commutator_identity_residuals(inst, z, z + 0.5j)
    assert r1 <= 1e-10
    assert r2 <= 1e-10


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


def test_constants_eval_hand_value():
    ci = ConstantsInput(lam=100.0, delta=1.0, alpha=10.0, N_comm=2.0,
                        S=4.0, Delta_f=1.0, C_HA=1.0)
    C0, _Chalf, _C1 = constants_eval(ci)
    assert C0 == pytest.approx(5150.0, rel=1e-12)


def test_constants_shrink_as_window_widens():
    def c0(delta):
        return constants_eval(ConstantsInput(
            lam=100.0, delta=delta, alpha=10.0, N_comm=2.0, S=4.0,
            Delta_f=1.0, C_HA=1.0))[0]
    assert c0(0.5) > c0(1.0) > c0(2.0)


# ---------------------------------------------------------------------------
# Scalar weight inequality
# ---------------------------------------------------------------------------


def test_eps_weight_closed_form_matches_finite_differences():
    E, s = 3.7, 0.75
    h = 1e-6
    for eps in (0.3, -0.3):
        fd = abs(eps_weight(E, eps + h, s) - eps_weight(E, eps - h, s)) / (2 * h)
        assert eps_weight_derivative(E, eps, s) == pytest.approx(fd, rel=1e-6)


def test_scalar_weight_inequality_has_no_violations():
    for s in (0.55, 0.75, 1.0):
        out = scalar_weight_check(s, n_eps=50, n_E=50)
        assert out["violations"] == 0
        # At s = 1 both sides vanish identically, so the margin is 0 exactly.
        assert out["worst_margin"] <= 0
        assert out["samples"] >= 1e4


def test_scalar_weight_rejects_exponent_outside_range():
    with pytest.raises(ConfigError):
        scalar_weight_check(0.5)
    with pytest.raises(ConfigError):
        scalar_weight_check(1.2)


# ---------------------------------------------------------------------------
# Bound recurrence
# ---------------------------------------------------------------------------


def test_recurrence_hand_traces():
    trace, steps = recurrence_iterate(0.75)
    assert [c for c, _ in trace] == ["power", "flat"]
    assert trace[0][1] == pytest.approx(0.25)
    assert steps == 2

    trace, steps = recurrence_iterate(1.0)
    assert trace == [("flat", 0.0)]
    assert steps == 1

    trace, steps = recurrence_iterate(0.6)
    assert [c for c, _ in trace] == ["power", "power", "flat"]
    assert steps == 3


def test_recurrence_step_bound():
    for s in (0.55, 0.6, 0.75, 1.0):
        _trace, steps = recurrence_iterate(s)
        assert steps <= math.ceil(math.log2(1.0 / (2.0 * s - 1.0))) + 1
        assert steps <= recurrence_step_bound(s)
    assert [recurrence_step_bound(s) for s in (0.55, 0.6, 0.75, 1.0)] == [
        5, 4, 2, 1]
    for s in (0.5, 1.2):
        with pytest.raises(ConfigError):
            recurrence_step_bound(s)


# ---------------------------------------------------------------------------
# Differential inequality along the offset schedule
# ---------------------------------------------------------------------------


def _schedule(inst):
    eps_nu = inst.delta / inst.alpha
    return sorted(0.9 * eps_nu * 1.1 ** -i for i in range(20))


def test_differential_inequality_holds_on_sample_seeds():
    for seed in (0, 1, 2):
        inst = _instance(seed)
        out = diffineq_check(inst, 0.75, _probe_z(inst), _schedule(inst))
        assert out["holds"]
        assert all(pt["ok"] for pt in out["points"])
        assert out["endpoint"]["ok"]


def test_differential_inequality_norms_match_per_eps_reference():
    # F(eps) = ||<A>_eps^{-s} G_z(eps) <A>_eps^{-s}|| built one offset at a
    # time from resolvent_g and the weight of A by its eigendecomposition
    inst = _instance(1)
    z = _probe_z(inst)
    schedule = _schedule(inst)
    ae, av = np.linalg.eigh(inst.A)
    ref = []
    for eps in schedule:
        wA = (av * eps_weight(ae, eps, 0.75)) @ av.conj().T
        G = resolvent_g(inst, z, eps)
        ref.append(float(np.linalg.norm(wA @ G @ wA, 2)))
    out = diffineq_check(inst, 0.75, z, schedule)
    assert [pt["eps"] for pt in out["points"]] == schedule[1:-1]
    assert [pt["F"] for pt in out["points"]] == pytest.approx(ref[1:-1],
                                                              rel=1e-13)
    assert out["endpoint"]["F"] == pytest.approx(ref[-1], rel=1e-13)


def test_differential_inequality_schedule_validation():
    inst = _instance(0)
    z = _probe_z(inst)
    with pytest.raises(ConfigError):
        diffineq_check(inst, 0.75, z, [0.1, 0.05, 0.2])
    with pytest.raises(ConfigError):
        diffineq_check(inst, 0.75, z, [0.01, 0.1, 0.2])
    with pytest.raises(ConfigError):
        diffineq_check(inst, 0.75, z, [0.1, 0.11])


# ---------------------------------------------------------------------------
# The window constant
# ---------------------------------------------------------------------------


def _delta_f_fft(n_grid, box):
    """(2 pi)^{-1} integral |t fhat(t)| dt for the unit-scale canonical bump,
    by FFT on a periodic box of n_grid points and length box."""
    x = -box / 2.0 + box * np.arange(n_grid) / n_grid
    fx = profile_eval("f", x)
    # continuous transform via FFT, up to the phase e^{-i t x_0} that
    # |fhat| does not see: fhat(t_k) = h sum f(x_j) e^{-i (x_j - x_0) t_k}
    t = 2.0 * np.pi * np.fft.fftfreq(n_grid, d=box / n_grid)
    fhat = (box / n_grid) * np.fft.fft(fx)
    dt = 2.0 * np.pi / box
    return float(np.sum(np.abs(t * fhat)) * dt / (2.0 * np.pi))


def test_window_constant_value_and_stability():
    # The constant is the FFT value on 2^16 points of a box of length 256,
    # bit for bit; half the points on half the box agree to 1e-3.  An
    # instance scales it by its window width.
    assert abstract._DELTA_F == _delta_f_fft(2**16, 256.0)
    assert _delta_f_fft(2**15, 128.0) == pytest.approx(abstract._DELTA_F,
                                                       rel=1e-3)
    inst = _instance()
    assert inst.constants_input().Delta_f == abstract._DELTA_F / inst.delta


# ---------------------------------------------------------------------------
# Spectral norms and stacked instances
# ---------------------------------------------------------------------------


def _two_norms(stack):
    return np.array([np.linalg.norm(x, 2)
                     for x in stack.reshape((-1,) + stack.shape[-2:])]
                    ).reshape(stack.shape[:-2])


def test_spectral_norms_match_the_two_norm():
    rng = np.random.default_rng(11)
    cases = [
        rng.standard_normal((3, 4, 20, 20))
        + 1j * rng.standard_normal((3, 4, 20, 20)),
        rng.standard_normal((5, 7, 4)) + 1j * rng.standard_normal((5, 7, 4)),
        # rank one, with a spread of singular values of zero below the top
        np.outer(rng.standard_normal(20) + 1j, rng.standard_normal(20) - 2j),
        # the size of an identity residual
        1e-15 * (rng.standard_normal((6, 20, 20))
                 + 1j * rng.standard_normal((6, 20, 20))),
    ]
    for stack in cases:
        norms = abstract._spectral_norms(stack)
        assert norms.shape == stack.shape[:-2]
        np.testing.assert_allclose(norms, _two_norms(stack), rtol=1e-13,
                                   atol=0)
    zero = abstract._spectral_norms(np.zeros((2, 20, 20), dtype=complex))
    assert zero.tolist() == [0.0, 0.0]


def _assert_bitwise_equal(stacked, single, where):
    assert np.array_equal(np.asarray(stacked)[where], np.asarray(single))


def test_stacked_checks_equal_the_single_instance_calls():
    # every check of hyplab testbed, on a stack of seeds 0-22 and on each
    # instance alone, bit for bit
    seeds = list(range(23))
    insts = [_instance(seed) for seed in seeds]
    stacked = _TestbedInstance.stack(insts)
    z = _probe_z(stacked)
    eps_nu = stacked.delta / stacked.alpha
    rep = algebre_identity_check(stacked, z, 0.5 * eps_nu, 0.25 * eps_nu,
                                 seed=seeds)
    comm = commutator_identity_residuals(stacked, 0.3 + 0.5j, 0.2 + 0.1j)
    ci = stacked.constants_input()
    schedule = [0.9 * eps_nu * 1.1 ** (-i) for i in range(20)]
    diff = diffineq_check(stacked, 0.75, z, schedule, slack=0.2)
    for i, inst in enumerate(insts):
        z_i = _probe_z(inst)
        nu = inst.delta / inst.alpha
        one = algebre_identity_check(inst, z_i, 0.5 * nu, 0.25 * nu,
                                     seed=seeds[i])
        for key, value in one.items():
            _assert_bitwise_equal(rep[key], value, i)
        for got, want in zip(comm, commutator_identity_residuals(
                inst, 0.3 + 0.5j, 0.2 + 0.1j)):
            _assert_bitwise_equal(got, want, i)
        for field in dataclasses.fields(ci):
            _assert_bitwise_equal(getattr(ci, field.name),
                                  getattr(inst.constants_input(), field.name),
                                  i)
        out = diffineq_check(inst, 0.75, z_i,
                             [0.9 * nu * 1.1 ** (-j) for j in range(20)],
                             slack=0.2)
        _assert_bitwise_equal(diff["holds"], out["holds"], i)
        for got, want in zip(diff["constants"], out["constants"]):
            _assert_bitwise_equal(got, want, i)
        for key in ("F", "rhs", "ok"):
            _assert_bitwise_equal(diff["endpoint"][key],
                                  out["endpoint"][key], i)
        assert len(diff["points"]) == len(out["points"]) == 18
        for got, want in zip(diff["points"], out["points"]):
            for key in ("eps", "F", "dF", "rhs", "ok"):
                _assert_bitwise_equal(got[key], want[key], i)
