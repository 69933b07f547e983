"""Tests for the finite-dimensional commutator testbed."""

import math

import numpy as np
import pytest

from hyplab.abstract import (
    BoundProfile,
    ConstantsInput,
    TestbedInstance as _TestbedInstance,
    algebre_identity_check,
    apriori_bounds_check,
    commutator_identity_residuals,
    constants_eval,
    delta_f_constant,
    diffineq_check,
    easytrick_check,
    eps_weight,
    eps_weight_derivative,
    high_energy_ladder,
    recurrence_iterate,
    resolvent_g,
    scalar_weight_check,
    virial_approximation_decay,
)
from hyplab.errors import ConfigError, RegimeError
from hyplab.linops import RadialGrid, d2_operator
from hyplab.mourre import SpectralCutoff
from hyplab.weights import profile_eval


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


def test_commutator_resolvent_identities():
    inst = _instance(7)
    z = _probe_z(inst)
    r1, r2 = commutator_identity_residuals(inst, z, z + 0.5j)
    assert r1 <= 1e-10
    assert r2 <= 1e-10


def test_virial_approximation_decays_like_inverse_scale():
    inst = _instance(0)
    norms, slope = virial_approximation_decay(inst, [2.0, 4.0, 8.0, 16.0])
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert slope == pytest.approx(-1.0, abs=0.2)


def test_apriori_bounds_hold_with_margin():
    for seed in (0, 1, 2):
        inst = _instance(seed)
        out = apriori_bounds_check(inst, _probe_z(inst), 0.05)
        assert out["holds"]
        for m in out["margins"]:
            assert m["lhs"] <= m["rhs"]


# ---------------------------------------------------------------------------
# Constants and the high-energy ladder
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


def test_high_energy_ladder_ratios_are_stable():
    rows, summary = high_energy_ladder([1e2, 1e3, 1e4])
    assert len(rows) == 3
    for key in ("C0_ratio", "Chalf_ratio", "C1_ratio"):
        vals = [row[key] for row in rows]
        assert max(vals) / min(vals) <= 1.02
        assert all(math.isfinite(v) and v > 0 for v in vals)
    assert summary["C"] == pytest.approx(
        max(summary["C0_ratio"], summary["Chalf_ratio"],
            summary["C1_ratio"]))


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
# Bound-profile recurrence
# ---------------------------------------------------------------------------


def test_recurrence_hand_traces():
    start = BoundProfile(c_flat=1.0, c_log=1.0, c_pow=1.0, sigma=1.0)
    trace, final, steps = recurrence_iterate(0.75, start)
    assert [c for c, _ in trace] == ["power", "flat"]
    assert trace[0][1] == pytest.approx(0.25)
    assert steps == 2
    assert final.c_pow == 0.0

    trace, final, steps = recurrence_iterate(1.0, start)
    assert trace == [("flat", 0.0)]
    assert steps == 1
    assert final.c_log == 1.0

    trace, _final, steps = recurrence_iterate(0.6, start)
    assert [c for c, _ in trace] == ["power", "power", "flat"]
    assert steps == 3


def test_recurrence_step_bound():
    start = BoundProfile(c_flat=1.0, c_log=1.0, c_pow=1.0, sigma=1.0)
    for s in (0.55, 0.6, 0.75, 1.0):
        _trace, _final, steps = recurrence_iterate(s, start)
        assert steps <= math.ceil(math.log2(1.0 / (2.0 * s - 1.0))) + 1


def test_profile_exponent_validation():
    with pytest.raises(ConfigError):
        BoundProfile(1.0, 1.0, 1.0, 1.5)
    with pytest.raises(ConfigError):
        BoundProfile(1.0, 1.0, 1.0, -0.1)


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
    # time from resolvent_g and weight_of_A
    inst = _instance(1)
    z = _probe_z(inst)
    schedule = _schedule(inst)
    ref = []
    for eps in schedule:
        wA = inst.weight_of_A(lambda a: eps_weight(a, eps, 0.75))
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
# Interval-trick bound and the window constant
# ---------------------------------------------------------------------------


def test_interval_trick_bound():
    out = easytrick_check()
    assert out["ok"]
    assert out["lhs"] <= out["rhs"]
    assert out["identity_rate"] == pytest.approx(0.9, abs=0.05)
    assert out["eps_min"] > 0


def _interval_trick_rhs_exhaustive(n, J=(0.5, 1.5), n_lam=25, n_eps=8):
    """easytrick_check's rhs with the top Gram eigenvalue of every (lam, eps)
    taken, in the same arithmetic as the library."""
    grid = RadialGrid(0.0, math.pi, n)
    x = grid.points()
    evals, evecs = np.linalg.eigh(d2_operator(grid).dense().real)
    evals = evals / evals[n // 2]
    a, b = J
    fvals = SpectralCutoff(lam=0.5 * (a + b), delta=(b - a) / 8.0).values(evals)
    kdiag = profile_eval("q", 4.0 * x / math.pi) * profile_eval(
        "q", 4.0 * (math.pi - x) / math.pi)
    Kv = evecs.T * kdiag[None, :]
    spacing = float(np.median(np.diff(evals[(evals > a) & (evals < b)])))
    sup = 0.0
    for lam in np.linspace(a, b, n_lam):
        for eps in np.geomspace(3.0 * spacing, 1.0, n_eps):
            g = 1.0 / (evals - lam - 1j * eps)
            KGK = (Kv.T * g.real) @ Kv + 1j * ((Kv.T * g.imag) @ Kv)
            gram = KGK.conj().T @ KGK
            sup = max(sup, math.sqrt(np.linalg.eigvalsh(gram)[-1]))
    return (math.sqrt((b - a) / math.pi) * float(np.max(np.abs(fvals)))
            * math.sqrt(sup))


def test_interval_trick_sup_equals_the_exhaustive_sup(monkeypatch):
    # a (lam, eps) certified below the running sup cannot change it, so rhs
    # must equal the exhaustive one to the bit, with most of the 200 Gram
    # matrices never diagonalized
    expected = _interval_trick_rhs_exhaustive(120)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda g: calls.append(len(g)) or eigvalsh(g))
    assert easytrick_check(n=120)["rhs"] == expected
    assert 1 <= len(calls) <= 20


def test_window_constant_value_and_stability():
    coarse = delta_f_constant(n_grid=2**15, box=128.0)
    fine = delta_f_constant()
    assert fine == pytest.approx(3.0568, abs=2e-3)
    assert coarse == pytest.approx(fine, rel=1e-3)
