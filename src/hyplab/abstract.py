"""Finite-dimensional matrix testbed for the regularized-resolvent method.

The differential-inequality route to limiting absorption works with the
regularized resolvent

    G_z(eps) = (H - z - i eps B*B)^{-1},      B*B = f(H) K f(H),

where K plays the role of the closed commutator i[H,A] and is positive on
the spectral window of f.  Everything here is dense linear algebra on small
Hermitian matrices: the algebraic identities of the regularized resolvent,
the explicit constants C0, C_{1/2}, C1 and the numerical differential
inequality itself, checked per seeded instance by ``hyplab testbed``, which
also runs the two scalar checks at its weight exponent s: the weight
inequality in eps and the case iteration of the bound recurrence.

Every check broadcasts over stacked instances (TestbedInstance.stack): each
array field then carries a leading seed axis and each scalar field becomes
an array over the seeds, and the checks return arrays over the seeds where
a single instance gives scalars.  A single instance is the stack with no
seed axis, so both take the same route through numpy.

A structural fact of finite dimensions: in the eigenbasis of H the matrix
i[H,A] has zero diagonal, so its compression to any spectral window is
traceless and a strictly positive window minimum is impossible for the raw
commutator.  Instances therefore install positivity through an explicit
rank-one-per-window-vector shift: K = i[H,A] + shift * P_window.
All resolvent estimates consume the commutator only through K and B*B, so
the proofs apply verbatim to the shifted operator; the identities that are
specific to the true commutator are checked against i[H,A] itself.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from hyplab.errors import ConfigError, NumericalFailure, RegimeError
from hyplab.weights import SpectralCutoff


# (2 pi)^{-1} integral |t fhat(t)| dt for the unit-scale canonical bump f;
# for the cutoff f((E - lam)/delta) the constant is this value over delta
_DELTA_F = 3.05677354852152


# ----------------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------------


# seeds generate may discard before it gives up
_MAX_REJECTS = 64


@dataclasses.dataclass
class TestbedInstance:
    """One seeded (H, A) pair with an installed window-positive commutator,
    or a stack of them (see stack)."""

    n: int
    H: np.ndarray
    A: np.ndarray
    lam: float
    delta: float               # f is the SpectralCutoff(lam, delta)
    evals: np.ndarray
    evecs: np.ndarray
    alpha: float                # window minimum of K, positive by construction
    K: np.ndarray               # effective commutator i[H,A] + shift * P_win
    fH: np.ndarray              # f(H)
    B: np.ndarray               # Hermitian PSD square root of f(H) K f(H)
    rejects: int                # seeds discarded before this instance

    @classmethod
    def generate(cls, seed, dim=20, window_count=5, alpha_factor=2.0):
        """Random real-symmetric H and A with a spectral window of about
        window_count eigenvalues, 2 <= window_count <= dim; the effective
        commutator is shifted on the window so that its minimum there equals
        alpha_factor * delta, alpha_factor > 0 (ConfigError otherwise).

        Seeds whose window collapses to one energy or whose installed
        positive part is not numerically exact are rejected (count reported
        on the instance), at most _MAX_REJECTS of them.  The window holds
        every selected eigenvalue: each lies within 1.5 delta of lam, where
        f = 1.
        """
        if not 2 <= window_count <= dim:
            raise ConfigError(
                f"window_count {window_count} outside [2, dim = {dim}]")
        if not alpha_factor > 0:
            raise ConfigError(f"alpha_factor {alpha_factor} is not positive")
        rng = np.random.default_rng(seed)
        for rejects in range(_MAX_REJECTS + 1):
            X = rng.standard_normal((dim, dim))
            H = (X + X.T) / math.sqrt(8.0 * dim)
            Y = rng.standard_normal((dim, dim))
            A = (Y + Y.T) / math.sqrt(8.0 * dim)
            evals, evecs = np.linalg.eigh(H)
            mid = dim // 2
            half = window_count // 2
            sel = slice(mid - half, mid - half + window_count)
            lam = float(np.mean(evals[sel]))
            delta = float(np.max(np.abs(evals[sel] - lam))) / 1.5
            if delta <= 1e-8:
                continue
            cutoff = SpectralCutoff(lam=lam, delta=delta)
            fvals = cutoff.values(evals)
            window = np.nonzero(fvals > 0.0)[0]
            # commutator in the H eigenbasis: i[H,A]_{ij} = i (E_i - E_j) A_{ij}
            Ae = evecs.T @ A @ evecs
            Ke = 1j * (evals[:, None] - evals[None, :]) * Ae
            Kwin = Ke[np.ix_(window, window)]
            alpha_raw = float(np.min(np.linalg.eigvalsh(Kwin)))
            alpha = alpha_factor * delta
            shift = alpha - alpha_raw
            P = evecs[:, window] @ evecs[:, window].T
            K = evecs @ Ke @ evecs.conj().T + shift * P
            K = 0.5 * (K + K.conj().T)
            fH = (evecs * fvals) @ evecs.T
            M = fH @ K @ fH
            M = 0.5 * (M + M.conj().T)
            me, mv = np.linalg.eigh(M)
            negative = np.minimum(me, 0.0)
            neg = math.sqrt(negative @ negative)
            if neg > 1e-10 * max(float(np.max(np.abs(me))), 1e-300):
                continue
            B = (mv * np.sqrt(np.maximum(me, 0.0))) @ mv.conj().T
            return cls(n=dim, H=H, A=A, lam=lam, delta=delta,
                       evals=evals, evecs=evecs, alpha=alpha,
                       K=K, fH=fH, B=B, rejects=rejects)
        raise NumericalFailure("instance generation kept rejecting")

    @classmethod
    def stack(cls, instances):
        """The instances as one, each field stacked along a new leading seed
        axis; they must share the dimension n, which stays an int."""
        (n,) = {inst.n for inst in instances}
        fields = {f.name: np.stack([getattr(inst, f.name)
                                    for inst in instances])
                  for f in dataclasses.fields(cls) if f.name != "n"}
        return cls(n=n, **fields)

    def constants_input(self):
        """Measured constants of the instance, feeding constants_eval."""
        Hi = resolvent_g(self, -1j, 0.0)
        KA = self.K @ self.A - self.A @ self.K
        N, C_HA, KfH = _spectral_norms(
            np.stack([self.K @ Hi, KA @ Hi, self.K @ self.fH]))
        return ConstantsInput(
            lam=self.lam, delta=self.delta, alpha=self.alpha,
            N_comm=N, S=(1.0 + KfH / self.alpha) ** 2,
            Delta_f=_DELTA_F / self.delta,
            C_HA=C_HA,
        )


# ----------------------------------------------------------------------------
# Regularized resolvent and its identities
# ----------------------------------------------------------------------------


def _spectral_norms(stack):
    """The spectral norm of each matrix of a stack: the square root of the
    largest eigenvalue of its Gram matrix X* X, formed from a C-contiguous
    copy of X*."""
    gram = np.conjugate(np.swapaxes(stack, -1, -2), order="C") @ stack
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def _per_matrix(x):
    """An array over the instances (and offsets) as a factor of a stack of
    their matrices."""
    return np.asarray(x)[..., None, None]


def resolvent_g(instance, z, eps):
    """G_z(eps) = (H - z - i eps B*B)^{-1}; exists when Im z * eps >= 0 and
    (Im z, eps) != (0, 0).  z and eps broadcast against the instance's seed
    axis; an eps with one more leading axis than the instance, an offset
    schedule, gives the stack of G_z(eps) over its entries."""
    z = np.asarray(z, dtype=complex)
    eps = np.asarray(eps, dtype=float)
    if np.any(z.imag * eps < 0):
        raise RegimeError("resolvent_g needs Im z * eps >= 0")
    if np.any((z.imag == 0) & (eps == 0)):
        raise RegimeError("resolvent_g needs Im z != 0 or eps != 0")
    BB = instance.B @ instance.B
    return np.linalg.inv(instance.H - _per_matrix(z) * np.eye(instance.n)
                         - 1j * _per_matrix(eps) * BB)


# random C of the quadratic estimate in algebre_identity_check
_N_QUADRATIC = 10


def algebre_identity_check(instance, z, eps, eps0, seed):
    """Residuals of the regularized-resolvent algebra.

    Checks the difference identity G(eps) - G(eps0) = i (eps - eps0)
    G(eps) B*B G(eps0), the adjoint relation G_z(eps)* = G_zbar(-eps), the
    bound ||G_z(eps)|| <= |Im z|^{-1}, and the quadratic estimate
    ||B G C|| <= |eps|^{-1/2} ||C G C||^{1/2} for _N_QUADRATIC random
    Hermitian C drawn from seed, one seed per instance of a stack.  On B
    itself the estimate is at least as strict as on any contraction Q B,
    ||Q|| <= 1, since ||Q B G C|| <= ||B G C||.  The estimate is checked
    where Im z * eps > 0; elsewhere it reports no violation and an infinite
    margin.
    """
    z = np.asarray(z, dtype=complex)
    eps = np.asarray(eps, dtype=float)
    G = resolvent_g(instance, z, eps)
    G0 = resolvent_g(instance, z, eps0)
    BB = instance.B @ instance.B
    diff = G - G0 - 1j * _per_matrix(eps - eps0) * (G @ BB @ G0)
    G_adj = resolvent_g(instance, np.conj(z), -eps)
    norm_G, norm_G0, norm_diff, norm_adj = _spectral_norms(
        np.stack([G, G0, diff, np.swapaxes(G.conj(), -1, -2) - G_adj]))
    scale = np.maximum(norm_G, norm_G0)
    norm_ok = norm_G <= (1.0 + 1e-12) / abs(z.imag)
    seeds = np.asarray(seed)
    draws = np.array([
        np.random.default_rng(s).standard_normal(
            (_N_QUADRATIC, instance.n, instance.n)) for s in seeds.flat
    ]).reshape(seeds.shape + (_N_QUADRATIC, instance.n, instance.n))
    C = (draws + np.swapaxes(draws, -1, -2)) / 2.0
    BG = (instance.B @ G)[..., None, :, :]
    CG = C @ G[..., None, :, :]
    lhs, CGC = _spectral_norms(np.stack([BG @ C, CG @ C]))
    quadratic = z.imag * eps > 0
    rhs = (np.where(quadratic, abs(eps), 1.0)[..., None] ** -0.5
           * CGC ** 0.5)
    checked = quadratic[..., None]
    return {
        "residual_difference": norm_diff / scale,
        "residual_adjoint": norm_adj / scale,
        "norm_bound_ok": norm_ok,
        "quadratic_violations": np.count_nonzero(
            (lhs > rhs * (1.0 + 1e-10)) & checked, axis=-1),
        "quadratic_margin": np.min(rhs - lhs, axis=-1, initial=math.inf,
                                   where=checked),
    }


def commutator_identity_residuals(instance, z, Z):
    """Exact matrix identities relating resolvents and the raw commutator:

    [(H-z)^{-1}, A] = -(H-z)^{-1} [H,A] (H-z)^{-1}
    [(H-z)^{-1}, (A-Z)^{-1}]
        = (A-Z)^{-1} (H-z)^{-1} [H,A] (H-z)^{-1} (A-Z)^{-1}
    """
    Rz = resolvent_g(instance, z, 0.0)
    HA = instance.H @ instance.A - instance.A @ instance.H
    lhs1 = Rz @ instance.A - instance.A @ Rz
    rhs1 = -Rz @ HA @ Rz
    RZ = np.linalg.inv(instance.A - _per_matrix(Z) * np.eye(instance.n))
    lhs2 = Rz @ RZ - RZ @ Rz
    rhs2 = RZ @ Rz @ HA @ Rz @ RZ
    d1, n1, d2, n2 = _spectral_norms(
        np.stack([lhs1 - rhs1, rhs1, lhs2 - rhs2, rhs2]))
    return d1 / np.maximum(n1, 1e-300), d2 / np.maximum(n2, 1e-300)


# ----------------------------------------------------------------------------
# Explicit constants
# ----------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConstantsInput:
    """Measured ingredients of the explicit constants: floats, or arrays
    over the seeds of a stacked instance."""

    lam: float
    delta: float
    alpha: float
    N_comm: float    # norm of K (H+i)^{-1}
    S: float         # (1 + alpha^{-1} norm of K f(H))^2
    Delta_f: float   # (2 pi)^{-1} integral |t fhat(t)| dt
    C_HA: float      # double-commutator bound, norm of [K, A](H+i)^{-1}

    def __post_init__(self):
        for name in ("delta", "alpha", "N_comm", "S", "Delta_f", "C_HA"):
            if np.any(getattr(self, name) <= 0):
                raise ConfigError(f"constants input {name} must be positive")


def constants_eval(ci):
    """The explicit constants of the differential inequality:

    C0   = delta^{-2} (1+|lam|+2 delta) (1+S)^2 N
    C1/2 = 2 alpha^{-1/2} delta^{-1} (1+|lam|+3 delta) S N
           (1 + delta alpha^{-1} Delta_f N (1+|lam|+3 delta))
    C1   = alpha^{-1} (1+|lam|+3 delta) (C_HA + 2 Delta_f N^2 (1+|lam|+3 delta))
    """
    b2 = 1.0 + abs(ci.lam) + 2.0 * ci.delta
    b3 = 1.0 + abs(ci.lam) + 3.0 * ci.delta
    C0 = ci.delta ** -2 * b2 * (1.0 + ci.S) ** 2 * ci.N_comm
    Chalf = (2.0 * ci.alpha ** -0.5 / ci.delta * b3 * ci.S * ci.N_comm
             * (1.0 + ci.delta / ci.alpha * ci.Delta_f * ci.N_comm * b3))
    C1 = (ci.C_HA + 2.0 * ci.Delta_f * ci.N_comm ** 2 * b3) * b3 / ci.alpha
    return C0, Chalf, C1


# ----------------------------------------------------------------------------
# Scalar weight inequality
# ----------------------------------------------------------------------------


def eps_weight(E, eps, s):
    """<E>_eps^{-s} = <E>^{-s} <eps E>^{s-1}."""
    E = np.asarray(E, dtype=float)
    return (1.0 + E**2) ** (-s / 2.0) * (1.0 + (eps * E) ** 2) ** ((s - 1.0) / 2.0)


def eps_weight_derivative(E, eps, s):
    """Closed form of |d/d eps <E>_eps^{-s}|:
    (1-s) <E>_eps^{-s} |eps| E^2 / (1 + eps^2 E^2)."""
    E = np.asarray(E, dtype=float)
    return (1.0 - s) * eps_weight(E, eps, s) * abs(eps) * E**2 / (1.0 + (eps * E) ** 2)


def scalar_weight_check(s, n_eps=100, n_E=100):
    """Zero-violation scan of |d/d eps <E>_eps^{-s}| <= (1-s) |eps|^{s-1}
    over log-spaced eps in [1e-6, 1] and E in [1e-6, 1e6], in both signs,
    plus the E = 0 line."""
    if not 0.5 < s <= 1.0:
        raise ConfigError("weight exponent must lie in (1/2, 1]")
    eps_grid = np.geomspace(1e-6, 1.0, n_eps)
    E_grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, n_E)])
    violations = 0
    worst = -math.inf
    for sign_e in (1.0, -1.0):
        for sign_E in (1.0, -1.0):
            lhs = eps_weight_derivative(sign_E * E_grid[None, :],
                                        sign_e * eps_grid[:, None], s)
            rhs = (1.0 - s) * eps_grid[:, None] ** (s - 1.0)
            margin = lhs - rhs
            worst = max(worst, float(np.max(margin)))
            violations += int(np.count_nonzero(margin > 1e-14 * (1.0 + rhs)))
    return {"violations": violations, "worst_margin": worst,
            "samples": 4 * eps_grid.size * E_grid.size}


# ----------------------------------------------------------------------------
# Bound recurrence
# ----------------------------------------------------------------------------


def recurrence_step_bound(s):
    """The most steps recurrence_iterate may take at s in (1/2, 1]:
    ceil(log2(1/(2s-1))) + 1, and 1 at s = 1."""
    if not 0.5 < s <= 1.0:
        raise ConfigError("recurrence needs s in (1/2, 1]")
    return math.ceil(math.log2(1.0 / (2.0 * s - 1.0))) + 1 if s < 1.0 else 1


def recurrence_iterate(s):
    """Case iteration of the bound recurrence from the power exponent
    sigma = 1: while s - 1/2 < sigma/2 the power exponent maps to
    sigma/2 + 1/2 - s; the iteration ends in the flat case
    (s - 1/2 > sigma/2) or the borderline log case.  At s = 1 the borderline
    power term is a log absorbed into the flat-plus-log shape.

    Returns (case trace, step count); the step count never exceeds
    recurrence_step_bound(s).
    """
    bound = recurrence_step_bound(s)
    sigma = 1.0
    trace = []
    steps = 0
    tol = 1e-12
    while True:
        steps += 1
        gap = (s - 0.5) - sigma / 2.0
        if gap < -tol:
            sigma = sigma / 2.0 + 0.5 - s
            trace.append(("power", sigma))
            continue
        if gap <= tol:
            # at s = 1 the borderline term is exactly the log already present
            trace.append(("flat", 0.0) if s == 1.0 else ("log", sigma))
        else:
            trace.append(("flat", sigma))
        break
    if steps > bound:
        raise NumericalFailure(
            f"recurrence took {steps} steps, exceeding the bound {bound}"
        )
    return trace, steps


# ----------------------------------------------------------------------------
# Differential inequality
# ----------------------------------------------------------------------------


def _check_regime(instance, z, eps):
    if np.any(eps * z.imag <= 0):
        raise RegimeError("regime needs eps * Im z > 0")
    if np.any(abs(z.real - instance.lam) > instance.delta):
        raise RegimeError("regime needs |Re z - lam| <= delta")
    if np.any(instance.delta > instance.alpha):
        raise RegimeError("regime needs delta <= alpha")
    if np.any(abs(eps) > instance.delta / instance.alpha):
        raise RegimeError("regime needs |eps| <= delta / alpha")


def diffineq_check(instance, s, z, eps_schedule, slack=0.2):
    """Numerical check of the differential inequality

    |d/d eps ||F_z(eps)|| | <= C1 ||F|| + C1/2 |eps|^{-1/2} ||F||^{1/2} + C0
        + 2 (2-s) |eps|^{s-1} (2 alpha^{-1/2} |eps|^{-1/2} ||F||^{1/2}
                               + delta^{-1} (1 + S))

    with F_z(eps) = <A>_eps^{-s} G_z(eps) <A>_eps^{-s}, by central
    differences along a fine geometric schedule, plus the endpoint bound
    ||F(eps_nu)|| <= alpha^{-1} eps_nu^{-1} (2 + S).  For a stack, each
    entry of eps_schedule is an array over the seeds, and z may be one.
    """
    eps = np.sort(np.asarray(eps_schedule, dtype=float), axis=0)
    if len(eps) < 3:
        raise ConfigError("differential check needs at least 3 offsets")
    if np.max(eps[1:] / eps[:-1]) > 1.2:
        raise ConfigError("schedule too coarse for stable differentiation "
                          "(step ratio > 1.2)")
    z = np.asarray(z, dtype=complex)
    _check_regime(instance, z, eps)
    ci = instance.constants_input()
    C0, Chalf, C1 = constants_eval(ci)
    # F(eps) for the whole schedule at once: one eigendecomposition of A,
    # then the weights, resolvents and norms on (eps, seed, n, n) stacks
    ae, av = np.linalg.eigh(instance.A)
    wA = ((av * eps_weight(ae, eps[..., None], s)[..., None, :])
          @ np.swapaxes(av.conj(), -1, -2))
    norms = _spectral_norms(wA @ resolvent_g(instance, z, eps) @ wA)
    e, F = eps[1:-1], norms[1:-1]
    dF = (norms[2:] - norms[:-2]) / (eps[2:] - eps[:-2])
    rhs = (C1 * F + Chalf * e ** -0.5 * F ** 0.5 + C0
           + 2.0 * (2.0 - s) * e ** (s - 1.0)
           * (2.0 * ci.alpha ** -0.5 * e ** -0.5 * F ** 0.5
              + (1.0 + ci.S) / ci.delta))
    ok = abs(dF) <= rhs * (1.0 + slack)
    end_rhs = (2.0 + ci.S) / (ci.alpha * eps[-1])
    end_ok = norms[-1] <= end_rhs * (1.0 + 1e-10)
    return {
        "holds": np.all(ok, axis=0) & end_ok,
        "points": [{"eps": e[i], "F": F[i], "dF": dF[i], "rhs": rhs[i],
                    "ok": ok[i]} for i in range(len(e))],
        "constants": (C0, Chalf, C1),
        "endpoint": {"F": norms[-1], "rhs": end_rhs, "ok": end_ok},
    }
