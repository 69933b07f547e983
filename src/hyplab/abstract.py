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
from hyplab.mourre import SpectralCutoff
from hyplab.weights import profile_eval


# ----------------------------------------------------------------------------
# The smoothing constant of the canonical bump
# ----------------------------------------------------------------------------

_DELTA_F_CACHE = {}


def delta_f_constant(n_grid=2**16, box=256.0):
    """(2 pi)^{-1} integral |t fhat(t)| dt for the unit-scale canonical bump,
    by FFT on a long periodic box.  For the cutoff f((E - lam)/delta) the
    constant is this value divided by delta."""
    key = (n_grid, box)
    if key not in _DELTA_F_CACHE:
        x = -box / 2.0 + box * np.arange(n_grid) / n_grid
        fx = profile_eval("f", x)
        # continuous transform via FFT, up to the phase e^{-i t x_0} that
        # |fhat| does not see: fhat(t_k) = h sum f(x_j) e^{-i (x_j - x_0) t_k}
        t = 2.0 * np.pi * np.fft.fftfreq(n_grid, d=box / n_grid)
        fhat = (box / n_grid) * np.fft.fft(fx)
        dt = 2.0 * np.pi / box
        _DELTA_F_CACHE[key] = float(np.sum(np.abs(t * fhat)) * dt / (2.0 * np.pi))
    return _DELTA_F_CACHE[key]


# ----------------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------------


@dataclasses.dataclass
class TestbedInstance:
    """One seeded (H, A) pair with an installed window-positive commutator."""

    n: int
    H: np.ndarray
    A: np.ndarray
    lam: float
    delta: float
    cutoff: SpectralCutoff
    evals: np.ndarray
    evecs: np.ndarray
    alpha: float                # window minimum of K, positive by construction
    K: np.ndarray               # effective commutator i[H,A] + shift * P_win
    B: np.ndarray               # Hermitian PSD square root of f(H) K f(H)
    rejects: int                # seeds discarded before this instance

    @classmethod
    def generate(cls, seed, dim=20, window_count=5, alpha_factor=2.0,
                 max_rejects=64):
        """Random real-symmetric H and A with a spectral window of about
        window_count eigenvalues; the effective commutator is shifted on the
        window so that its minimum there equals alpha_factor * delta.

        Seeds whose window is too small or whose installed positive part is
        not numerically exact are rejected (count reported on the instance).
        """
        rng = np.random.default_rng(seed)
        rejects = 0
        while True:
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
                rejects += 1
                if rejects > max_rejects:
                    raise NumericalFailure("instance generation kept rejecting")
                continue
            cutoff = SpectralCutoff(lam=lam, delta=delta)
            fvals = cutoff.values(evals)
            window = np.nonzero(fvals > 0.0)[0]
            if window.size < 2:
                rejects += 1
                continue
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
            neg = float(np.linalg.norm(np.minimum(me, 0.0)))
            if neg > 1e-10 * max(float(np.max(np.abs(me))), 1e-300):
                rejects += 1
                if rejects > max_rejects:
                    raise NumericalFailure("instance generation kept rejecting")
                continue
            B = (mv * np.sqrt(np.maximum(me, 0.0))) @ mv.conj().T
            return cls(n=dim, H=H, A=A, lam=lam, delta=delta,
                       cutoff=cutoff, evals=evals, evecs=evecs, alpha=alpha,
                       K=K, B=B, rejects=rejects)

    # -- spectral helpers ---------------------------------------------------

    def f_of_H(self):
        fvals = self.cutoff.values(self.evals)
        return (self.evecs * fvals) @ self.evecs.T

    def constants_input(self):
        """Measured constants of the instance, feeding constants_eval."""
        Hi = np.linalg.inv(self.H + 1j * np.eye(self.n))
        N = float(np.linalg.norm(self.K @ Hi, 2))
        KA = self.K @ self.A - self.A @ self.K
        C_HA = float(np.linalg.norm(KA @ Hi, 2))
        S = (1.0 + float(np.linalg.norm(self.K @ self.f_of_H(), 2)) / self.alpha) ** 2
        return ConstantsInput(
            lam=self.lam, delta=self.delta, alpha=self.alpha,
            N_comm=N, S=S,
            Delta_f=delta_f_constant() / self.delta,
            C_HA=C_HA,
        )


# ----------------------------------------------------------------------------
# Regularized resolvent and its identities
# ----------------------------------------------------------------------------


def resolvent_g(instance, z, eps):
    """G_z(eps) = (H - z - i eps B*B)^{-1}; exists when Im z * eps >= 0 and
    (Im z, eps) != (0, 0)."""
    z = complex(z)
    if z.imag * eps < 0:
        raise RegimeError("resolvent_g needs Im z * eps >= 0")
    if z.imag == 0 and eps == 0:
        raise RegimeError("resolvent_g needs Im z != 0 or eps != 0")
    n = instance.n
    BB = instance.B @ instance.B
    return np.linalg.inv(instance.H - z * np.eye(n) - 1j * eps * BB)


def algebre_identity_check(instance, z, eps, eps0, n_quadratic=10, seed=0):
    """Residuals of the regularized-resolvent algebra.

    Checks the difference identity G(eps) - G(eps0) = i (eps - eps0)
    G(eps) B*B G(eps0), the adjoint relation G_z(eps)* = G_zbar(-eps), the
    bound ||G_z(eps)|| <= |Im z|^{-1}, and the quadratic estimate
    ||B' G C|| <= |eps|^{-1/2} ||C G C||^{1/2} for contractions B' of B and
    random Hermitian C.
    """
    G = resolvent_g(instance, z, eps)
    G0 = resolvent_g(instance, z, eps0)
    BB = instance.B @ instance.B
    diff = G - G0 - 1j * (eps - eps0) * (G @ BB @ G0)
    G_adj = resolvent_g(instance, np.conj(z), -eps)
    # spectral norms of a stack: the largest singular value of each matrix
    norm_G, norm_G0, norm_diff, norm_adj = np.linalg.svd(
        np.stack([G, G0, diff, G.conj().T - G_adj]), compute_uv=False)[:, 0]
    scale = max(norm_G, norm_G0)
    res_diff = float(norm_diff / scale)
    res_adj = float(norm_adj / scale)
    norm_ok = norm_G <= (1.0 + 1e-12) / abs(complex(z).imag)
    quad_violations = 0
    quad_margin = math.inf
    if complex(z).imag * eps > 0:
        rng = np.random.default_rng(seed)
        draws = rng.standard_normal((n_quadratic, 2, instance.n, instance.n))
        Q, Yc = draws[:, 0], draws[:, 1]
        q_norms = np.linalg.svd(Q, compute_uv=False)[:, 0]
        Bp = (Q / np.maximum(q_norms, 1e-300)[:, None, None]) @ instance.B
        C = (Yc + Yc.transpose(0, 2, 1)) / 2.0
        norms = np.linalg.svd(np.concatenate([Bp @ G @ C, C @ G @ C]),
                              compute_uv=False)[:, 0]
        lhs = norms[:n_quadratic]
        rhs = abs(eps) ** -0.5 * norms[n_quadratic:] ** 0.5
        quad_margin = float(np.min(rhs - lhs, initial=math.inf))
        quad_violations = int(np.count_nonzero(lhs > rhs * (1.0 + 1e-10)))
    return {
        "residual_difference": res_diff,
        "residual_adjoint": res_adj,
        "norm_bound_ok": bool(norm_ok),
        "quadratic_violations": quad_violations,
        "quadratic_margin": quad_margin,
    }


def commutator_identity_residuals(instance, z, Z):
    """Exact matrix identities relating resolvents and the raw commutator:

    [(H-z)^{-1}, A] = -(H-z)^{-1} [H,A] (H-z)^{-1}
    [(H-z)^{-1}, (A-Z)^{-1}]
        = (A-Z)^{-1} (H-z)^{-1} [H,A] (H-z)^{-1} (A-Z)^{-1}
    """
    n = instance.n
    Rz = np.linalg.inv(instance.H - z * np.eye(n))
    HA = instance.H @ instance.A - instance.A @ instance.H
    lhs1 = Rz @ instance.A - instance.A @ Rz
    rhs1 = -Rz @ HA @ Rz
    RZ = np.linalg.inv(instance.A - Z * np.eye(n))
    lhs2 = Rz @ RZ - RZ @ Rz
    rhs2 = RZ @ Rz @ HA @ Rz @ RZ
    d1, n1, d2, n2 = np.linalg.svd(
        np.stack([lhs1 - rhs1, rhs1, lhs2 - rhs2, rhs2]),
        compute_uv=False)[:, 0]
    return float(d1 / max(n1, 1e-300)), float(d2 / max(n2, 1e-300))


# ----------------------------------------------------------------------------
# Explicit constants
# ----------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConstantsInput:
    """Measured ingredients of the explicit constants."""

    lam: float
    delta: float
    alpha: float
    N_comm: float    # norm of K (H+i)^{-1}
    S: float         # (1 + alpha^{-1} norm of K f(H))^2
    Delta_f: float   # (2 pi)^{-1} integral |t fhat(t)| dt
    C_HA: float      # double-commutator bound, norm of [K, A](H+i)^{-1}

    def __post_init__(self):
        for name in ("delta", "alpha", "N_comm", "S", "Delta_f", "C_HA"):
            if getattr(self, name) <= 0:
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


def scalar_weight_check(s, n_eps=100, n_E=100, eps_range=(1e-6, 1.0),
                        E_range=(1e-6, 1e6)):
    """Zero-violation scan of |d/d eps <E>_eps^{-s}| <= (1-s) |eps|^{s-1}
    over log-spaced (eps, E) in both signs, plus the E = 0 line."""
    if not 0.5 < s <= 1.0:
        raise ConfigError("weight exponent must lie in (1/2, 1]")
    eps_grid = np.geomspace(*eps_range, n_eps)
    E_grid = np.concatenate([[0.0], np.geomspace(*E_range, n_E)])
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
# Bound-profile recurrence
# ----------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BoundProfile:
    """Shape of a bound c_flat delta^{-1} + c_log delta^{-1} log(eps_nu/eps)
    + c_pow alpha^{-1} eps^{-sigma}."""

    c_flat: float
    c_log: float
    c_pow: float
    sigma: float

    def __post_init__(self):
        if min(self.c_flat, self.c_log, self.c_pow) < 0:
            raise ConfigError("profile coefficients must be nonnegative")
        if not 0.0 <= self.sigma <= 1.0:
            raise ConfigError("profile exponent must lie in [0, 1]")


def recurrence_step_bound(s):
    """The most steps recurrence_iterate may take at s in (1/2, 1]:
    ceil(log2(1/(2s-1))) + 1, and 1 at s = 1."""
    if not 0.5 < s <= 1.0:
        raise ConfigError("recurrence needs s in (1/2, 1]")
    return math.ceil(math.log2(1.0 / (2.0 * s - 1.0))) + 1 if s < 1.0 else 1


def recurrence_iterate(s, initial):
    """Case iteration of the bound recurrence: while s - 1/2 < sigma/2 the
    power exponent maps to sigma/2 + 1/2 - s; the iteration ends in the flat
    case (s - 1/2 > sigma/2) or the borderline log case.  At s = 1 the
    borderline power term is a log absorbed into the flat-plus-log shape.

    Returns (case trace, final profile, step count); the step count never
    exceeds recurrence_step_bound(s).
    """
    bound = recurrence_step_bound(s)
    sigma = initial.sigma
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
            final = BoundProfile(c_flat=1.0, c_log=1.0, c_pow=0.0, sigma=0.0)
            break
        trace.append(("flat", sigma))
        final = BoundProfile(c_flat=1.0, c_log=0.0, c_pow=0.0, sigma=0.0)
        break
    if steps > bound:
        raise NumericalFailure(
            f"recurrence took {steps} steps, exceeding the bound {bound}"
        )
    return trace, final, steps


# ----------------------------------------------------------------------------
# Differential inequality
# ----------------------------------------------------------------------------


def _check_regime(instance, z, eps):
    z = complex(z)
    if eps * z.imag <= 0:
        raise RegimeError("regime needs eps * Im z > 0")
    if abs(z.real - instance.lam) > instance.delta:
        raise RegimeError("regime needs |Re z - lam| <= delta")
    if instance.delta > instance.alpha:
        raise RegimeError("regime needs delta <= alpha")
    if abs(eps) > instance.delta / instance.alpha:
        raise RegimeError("regime needs |eps| <= delta / alpha")


def diffineq_check(instance, s, z, eps_schedule, slack=0.2):
    """Numerical check of the differential inequality

    |d/d eps ||F_z(eps)|| | <= C1 ||F|| + C1/2 |eps|^{-1/2} ||F||^{1/2} + C0
        + 2 (2-s) |eps|^{s-1} (2 alpha^{-1/2} |eps|^{-1/2} ||F||^{1/2}
                               + delta^{-1} (1 + S))

    with F_z(eps) = <A>_eps^{-s} G_z(eps) <A>_eps^{-s}, by central
    differences along a fine geometric schedule, plus the endpoint bound
    ||F(eps_nu)|| <= alpha^{-1} eps_nu^{-1} (2 + S).
    """
    eps_schedule = sorted(float(e) for e in eps_schedule)
    if len(eps_schedule) < 3:
        raise ConfigError("differential check needs at least 3 offsets")
    ratios = [b / a for a, b in zip(eps_schedule, eps_schedule[1:])]
    if max(ratios) > 1.2:
        raise ConfigError("schedule too coarse for stable differentiation "
                          "(step ratio > 1.2)")
    for eps in eps_schedule:
        _check_regime(instance, z, eps)
    ci = instance.constants_input()
    C0, Chalf, C1 = constants_eval(ci)
    # F(eps) for the whole schedule at once: one eigendecomposition of A,
    # then the weights, resolvents and norms on stacked (eps, n, n) arrays
    eps = np.array(eps_schedule)
    ae, av = np.linalg.eigh(instance.A)
    wA = (av * eps_weight(ae, eps[:, None], s)[:, None, :]) @ av.conj().T
    n = instance.n
    BB = instance.B @ instance.B
    G = np.linalg.inv(instance.H - complex(z) * np.eye(n)
                      - 1j * eps[:, None, None] * BB)
    norms = np.linalg.svd(wA @ G @ wA, compute_uv=False)[:, 0].tolist()
    report = {"holds": True, "points": [], "constants": (C0, Chalf, C1)}
    for i in range(1, len(eps_schedule) - 1):
        e = eps_schedule[i]
        dF = (norms[i + 1] - norms[i - 1]) / (eps_schedule[i + 1]
                                              - eps_schedule[i - 1])
        F = norms[i]
        rhs = (C1 * F + Chalf * e ** -0.5 * F ** 0.5 + C0
               + 2.0 * (2.0 - s) * e ** (s - 1.0)
               * (2.0 * ci.alpha ** -0.5 * e ** -0.5 * F ** 0.5
                  + (1.0 + ci.S) / ci.delta))
        ok = abs(dF) <= rhs * (1.0 + slack)
        report["points"].append({"eps": e, "F": F, "dF": dF, "rhs": rhs,
                                 "ok": ok})
        if not ok:
            report["holds"] = False
    eps_nu = eps_schedule[-1]
    end_rhs = (2.0 + ci.S) / (ci.alpha * eps_nu)
    report["endpoint"] = {"F": norms[-1], "rhs": end_rhs,
                          "ok": norms[-1] <= end_rhs * (1.0 + 1e-10)}
    if not report["endpoint"]["ok"]:
        report["holds"] = False
    return report
