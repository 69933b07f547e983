"""Smooth weight scale, cutoff profiles, and weight-operator checks.

The building block is the canonical smooth step

    q(x) = e^{-1/x} / (e^{-1/x} + e^{-1/(1-x)}) = sigma(g(x))   on (0,1),

with sigma(t) = 1/(1 + e^{-t}) and g(x) = 1/(1-x) - 1/x, extended by 0 below
and 1 above.  From q we derive

* the weight function  w(x) = 1 for x <= 0, x for x >= 1, blended as
  1 + q(x)(x-1) on (0,1);
* the right cutoff     chi(r) = q(r-1)^2  (0 for r <= 1, 1 for r >= 2);
* the left cutoff      xi(r)  = q(2(r+1))^2  (0 for r <= -1, 1 for r >= -1/2);
* the spectral bump    f(E) = q(3-|E|)  (1 on [-2,2], 0 outside [-3,3]).

chi and xi are squares so that their square roots are themselves smooth.
Derivatives up to order 7 are carried as Taylor jets, the lists of
coefficients f^{(j)}(x)/j!: the jet of q comes from one series recurrence on
sigma' = sigma(1 - sigma) (step_jet), and the other profiles follow from it
by one rule for the jet of a product (jet_product) and by scaling
coefficient j by the j-th power of an affine argument's slope.

On top of the profiles this module provides the scaled spectral cutoff
f((E - lam)/delta), the mode-shifted weight vectors
w^{-s}(r - log nu_k), the symbol weights w^s(r - log<eta>), the temperate
weight inequality sampler, an exact boundedness check for the weighted
quantization factorization, and the demonstration that the mode-shifted
weight is strictly weaker than the polynomial one.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from hyplab.errors import ConfigError

# Derivatives are advertised to order 6; one extra order is kept internally
# for the almost-analytic extension of the functional calculus.
MAX_DERIVATIVE = 7

_PROFILE_NAMES = ("q", "w", "chi", "xi", "f")


# Within this distance of a plateau, q and every derivative to order 7 are
# below 1e-260 (sigma < e^{-699}); they are set to their exact plateau values
# there.  The series is therefore never formed where 1/x could overflow, so
# 0 * inf and inf - inf cannot arise, nor where exp would take its slow
# subnormal path.
_PLATEAU_GAP = 1.0 / 700.0


def jet_product(f, g):
    """The jet of a product: coefficient k is sum_{i <= k} f_i g_{k-i}."""
    return [sum((f[i] * g[k - i] for i in range(1, k + 1)), f[0] * g[k])
            for k in range(len(f))]


def step_jet(x, top):
    """The jet [q(x), q'(x), ..., q^{(top)}(x)/top!] of the step, for x
    anywhere on the real line.

    The series is formed at y = min(x, 1-x) <= 1/2 only, where
    s = sigma(g(y)) <= 1/2, and reflected by q(x) = 1 - q(1-x): coefficient
    k >= 1 changes sign at even k.  Near x = 1 the direct series would lose
    every digit at orders 6 and 7.  From s' = s(1 - s) g', with p the series
    of s - s^2 and g_i = g^{(i)}(y)/i! = a^{i+1} + (-b)^{i+1}, a = 1/(1-y),
    b = 1/y,

        k s_k = sum_{i<k} (k - i) p_i g_{k-i}.

    On the plateaus, and within _PLATEAU_GAP of them, the coefficients are
    the exact plateau ones.
    """
    x = np.asarray(x, dtype=float)
    y = np.minimum(x, 1.0 - x)
    flip = x > 0.5
    jet = [np.array(flip, dtype=float)]
    jet += [np.zeros(x.shape) for _ in range(top)]
    live = y > _PLATEAU_GAP
    if not live.any():
        return jet
    y, flip = y[live], flip[live]
    a = 1.0 / (1.0 - y)
    b = 1.0 / y
    e = np.exp(a - b)
    s = [e / (1.0 + e)]
    jet[0][live] = np.where(flip, 1.0 - s[0], s[0])
    if top:
        # dg[i] = i g_i, coefficient i - 1 of the series of g'
        nb = -b
        dg, ap, bp = [None], a, nb
        for i in range(1, top + 1):
            ap, bp = ap * a, bp * nb
            dg.append(i * (ap + bp))
        p, c = [s[0] * (1.0 - s[0])], 1.0 - 2.0 * s[0]
        for k in range(1, top + 1):
            s.append(sum((p[i] * dg[k - i] for i in range(1, k)),
                         p[0] * dg[k]) / k)
            if k < top:
                # p_k = s_k (1 - 2 s_0) - sum_{0<i<k} s_i s_{k-i}
                pk = s[k] * c
                for i in range(1, k):
                    pk = pk - s[i] * s[k - i]
                p.append(pk)
            jet[k][live] = np.where(flip, -s[k], s[k]) if k % 2 == 0 else s[k]
    return jet


def cutoff_jet(which, x, top):
    """The jet of the cutoff c = ``"chi"`` or ``"xi"`` at x to order top:
    chi = q(x-1)^2 and xi = q(2(x+1))^2, the square of one step jet, whose
    coefficient k scales by scale^k."""
    shift, scale = (1.0, 1.0) if which == "chi" else (-1.0, 2.0)
    q = step_jet(scale * (np.asarray(x, dtype=float) - shift), top)
    return [c * scale**k for k, c in enumerate(jet_product(q, q))]


def profile_eval(which, x, j=0, extended=False):
    """Evaluate a smooth profile or one of its derivatives.

    Parameters
    ----------
    which : str
        One of ``"q"``, ``"w"``, ``"chi"``, ``"xi"``, ``"f"``.
    x : float or array_like
        Evaluation points.
    j : int
        Derivative order, 0 <= j <= 6 (order 7 with ``extended=True``, used
        by the almost-analytic extension internally).
    """
    if which not in _PROFILE_NAMES:
        raise ConfigError(f"unknown profile {which!r}; choose from {_PROFILE_NAMES}")
    limit = MAX_DERIVATIVE if extended else MAX_DERIVATIVE - 1
    if not (0 <= j <= limit):
        raise ConfigError(f"derivative order {j} outside [0, {limit}]")
    x = np.asarray(x, dtype=float)
    if which == "q":
        out = step_jet(x, j)[j]
    elif which == "w":
        # w = 1 + q(x)(x-1), so w_j = q_j (x-1) + q_{j-1} (+1 at j = 0);
        # x - 1 is clipped to [-1, 0], where it only meets plateau values
        # of q, so the plateaus come out exact and finite.
        t = np.clip(x, 0.0, 1.0) - 1.0
        q = step_jet(x, j)
        if j == 0:
            out = np.where(x >= 1.0, x, 1.0 + q[0] * t)
        else:
            out = q[j] * t + q[j - 1]
    elif which in ("chi", "xi"):
        out = cutoff_jet(which, x, j)[j]
    else:
        # f(E) = q(3-|E|): plateau 1 on [-2,2], support [-3,3].  Smooth
        # because the |E| kink sits inside the plateau of q.
        out = step_jet(3.0 - np.abs(x), j)[j]
        if j % 2 == 1:
            out = out * np.where(x >= 0, -1.0, 1.0)
    out = math.factorial(j) * out
    return np.asarray(out)[()]


@dataclasses.dataclass(frozen=True)
class SpectralCutoff:
    """Scaled spectral bump f_lam(E) = f((E - lam)/delta).

    f is the canonical profile: 1 on [-2, 2], supported in [-3, 3].
    """

    lam: float
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ConfigError("delta must be positive")

    def values(self, E, j=0):
        scaled = (np.asarray(E, dtype=float) - self.lam) / self.delta
        return profile_eval("f", scaled, j, extended=True) / self.delta**j

    @property
    def support_halfwidth(self):
        return 3.0 * self.delta


def mode_weight_vector(r, nu_k, s):
    """Diagonal of the mode-shifted weight w^{-s}(r_i - log nu_k).

    Parameters
    ----------
    r : array_like
        Radial grid points.
    nu_k : float
        Mode frequency scale, nu_k >= 1.
    s : float
        Weight exponent; negative s yields the unbounded inverse weight.
    """
    r = np.asarray(r, dtype=float)
    if nu_k < 1.0:
        raise ConfigError(f"nu_k = {nu_k} < 1")
    return profile_eval("w", r - math.log(nu_k)) ** (-s)


def polynomial_weight_vector(r, s):
    """Diagonal of the polynomial weight <r>^{-s}."""
    r = np.asarray(r, dtype=float)
    return (1.0 + r**2) ** (-s / 2.0)


def symbol_weight(r, eta, s, sigma=0.0):
    """Symbol weight w^{s + i sigma}(r - log<eta>); complex when sigma != 0."""
    r = np.asarray(r, dtype=float)
    eta = np.asarray(eta, dtype=float)
    base = profile_eval("w", r - 0.5 * np.log1p(eta**2))
    expo = s + (1j * sigma if sigma else 0.0)
    return base**expo


# samples per chunk of temperate_check: the profile evaluations' temporaries
# scale with the chunk, not with the sample count
_TEMPERATE_CHUNK = 8192


def temperate_check(sample_count, C, M, seed, box=50.0):
    """Sample the temperate-weight inequality for w(r - log<eta>).

    Draws (r, r1, eta, eta1) uniformly from [-box, box] and collects every
    violation of

        w(r - log<eta>) <= C w(r1 - log<eta1>) (1 + |r-r1| + |eta-eta1|)^M.

    Returns a list of violating tuples (r, r1, eta, eta1, lhs, rhs).
    """
    if C <= 0 or M < 0:
        raise ConfigError("C must be positive and M nonnegative")
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-box, box, size=(4, sample_count))
    violations = []
    for start in range(0, sample_count, _TEMPERATE_CHUNK):
        r, r1, eta, eta1 = samples[:, start:start + _TEMPERATE_CHUNK]
        lhs = profile_eval("w", r - 0.5 * np.log1p(eta**2))
        rhs = C * profile_eval("w", r1 - 0.5 * np.log1p(eta1**2)) * (
            1.0 + np.abs(r - r1) + np.abs(eta - eta1)
        ) ** M
        violations.extend(
            (r[i], r1[i], eta[i], eta1[i], lhs[i], rhs[i])
            for i in np.nonzero(lhs > rhs)[0]
        )
    return violations


# ----------------------------------------------------------------------------
# Quantization on the circle cross-section
# ----------------------------------------------------------------------------


def gram_below(gram, floor):
    """True only if lambda_max(gram) < floor is proven for the Hermitian
    positive semidefinite Gram matrix gram, without diagonalizing it.

    Two certificates, cheapest first: the Gershgorin bound (every absolute
    row sum below floor), then a Cholesky factorization of floor I - gram,
    which exists exactly when floor I - gram is positive definite.  Both are
    exact up to rounding of order size * eps * floor, so a caller that wants
    a strict bound passes a floor lowered by a relative margin far above
    that (1e-9 here).  False means no certificate, not that the bound fails.
    """
    if np.abs(gram).sum(axis=1).max() < floor:
        return True
    shifted = -gram
    shifted.flat[::len(gram) + 1] += floor
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _reflection_halves(n_theta):
    """The unitary DFT on the two halves of C^{n_theta} that the reflection
    J: j -> -j (mod n_theta) leaves invariant, as real orthogonal matrices.

    Returns [(idx, C), (idx, S)] for the J-even and the J-odd half.  idx
    lists the representative indices, 0..n//2 and 1..(n-1)//2, which serve
    both as grid points theta_j and as mode numbers m.  In the orthonormal
    bases delta_0, (delta_j + delta_{-j})/sqrt2 (and delta_{n/2} for even n)
    of the even half, the DFT is C[m, j] = c_m c_j cos(2 pi m j/n)/sqrt(n),
    with c = 1 at 0 and n/2 and sqrt2 otherwise.  On the odd half, in the
    bases (delta_j - delta_{-j})/sqrt2, it is -i S with
    S[m, j] = 2 sin(2 pi m j/n)/sqrt(n).  Odd n has no Nyquist index.
    """
    n = n_theta
    halves = []
    for idx, trig in ((np.arange(n // 2 + 1), np.cos),
                      (np.arange(1, (n + 1) // 2), np.sin)):
        # reduce m j mod n in integers, so the phase stays in [0, 2 pi)
        phase = 2.0 * np.pi * (np.outer(idx, idx) % n) / n
        c = np.where((idx == 0) | (2 * idx == n), 1.0, math.sqrt(2.0))
        halves.append((idx, c[:, None] * trig(phase) * c / math.sqrt(n)))
    return halves


def _plateau_cutoff(x, lo, hi):
    """Smooth plateau equal to 1 on [lo+1, hi-1] and 0 outside (lo, hi)."""
    x = np.asarray(x, dtype=float)
    return profile_eval("q", x - lo) * profile_eval("q", hi - x)


# radial points and box of the ladder's first level; both grow with the level
_QUANTIZE_N_R0 = 48
_QUANTIZE_R_MAX0 = 12.0


def quantize_and_factor_check(s, sigma, levels=3, n_theta0=32):
    """Boundedness ladder for the weighted quantization factorization.

    For the circle cross-section, quantizes a = w^{-s+i sigma}(r - log<eta>)
    and measures the exact norm

        ||W_s  kappa Op(a) kappa~||

    across a ladder of grids that doubles both resolutions and extends the
    radial box.  No factor mixes radii, so the operator is block-diagonal in
    r and its norm is the largest spectral norm of the n_theta x n_theta
    blocks B_i = kappa(r_i) kappa~(r_i) Op(w_s) kappa_t Op(a) kappa~_t.
    Blocks with kappa(r_i) = 0 are zero and are skipped.

    Each block commutes with the reflection J: theta -> 2 pi - theta on the
    grid theta_j = 2 pi j/n_theta: the theta-diagonals kappa_t and kappa~_t
    are symmetric under it, and the mode diagonals a and w_s depend on |m|
    only.  So ||B_i|| is the larger of its norms on the J-even and the J-odd
    vectors, where the DFT is a real orthogonal matrix M
    (:func:`_reflection_halves`), and on each half

        ||B_i|| = kappa(r_i) kappa~(r_i) ||D_{w_s} K D_a R||,
        K = M D_{kappa_t} M^T,  R = M D_{kappa~_t},

    with every diagonal taken at the representative indices.  The ladder
    needs only the largest of these norms, so each block is first certified
    against the running maximum best: when :func:`gram_below` proves that
    the top eigenvalue of its Gram matrix lies below best^2 (1 - 1e-9), the
    block cannot raise the maximum and is not diagonalized.  The other
    blocks give their norm as the square root of the top eigenvalue of the
    Gram matrix, so every value is the one that diagonalizing each block
    gives, to the bit.  Returns the list of norms (one per level).  The
    composition is expected to stay bounded for s >= 0 and to grow along the
    ladder when the weight sign is wrong (s < 0 composes to ~ w^{2|s|}).
    """
    if levels < 3:
        raise ConfigError("resolution ladder needs at least 3 levels")
    norms = []
    for lev in range(levels):
        n_r = _QUANTIZE_N_R0 * 2**lev
        n_theta = n_theta0 * 2**lev
        r_max = _QUANTIZE_R_MAX0 * 1.5**lev
        r = np.linspace(0.0, r_max, n_r)
        theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
        kappa_r = _plateau_cutoff(r, 1.0, r_max - 1.0)
        kappa_t = _plateau_cutoff(theta, 0.5, 2 * np.pi - 0.5)
        # kappa~ = 1 on a neighborhood of supp kappa
        kt_r = _plateau_cutoff(r, 0.5, r_max - 0.5)
        kt_t = _plateau_cutoff(theta, 0.25, 2 * np.pi - 0.25)
        live = np.nonzero(kappa_r)[0]
        scale = kappa_r[live] * kt_r[live]
        best = 0.0
        for idx, M in _reflection_halves(n_theta):
            a = symbol_weight(r[live, None], idx[None, :], -s, sigma)
            # Left factor: always the positive-exponent weight, so the
            # wrong-sign symbol (s < 0) composes to ~ w^{2|s|} instead of
            # cancelling.
            w_s = symbol_weight(r[live, None], idx[None, :], abs(s))
            K = (M * kappa_t[idx]) @ M.T
            R = M * kt_t[idx]
            for c, a_i, w_i in zip(scale, a, w_s):
                X = (c * w_i)[:, None] * (K @ (a_i[:, None] * R))
                gram = X.conj().T @ X
                if gram_below(gram, best * best * (1.0 - 1e-9)):
                    continue
                best = max(best, math.sqrt(np.linalg.eigvalsh(gram)[-1]))
        norms.append(best)
    return norms


def unboundedness_demo(s, nu_ladder):
    """Ratios ||W_{-s} <r>^s phi_j|| for unit bumps at r = log nu_j, on 2001
    points of [0, max_j log nu_j + 3].

    Demonstrates that the composition of the inverse mode weight with the
    polynomial weight grows like <log nu>^s along a geometric nu ladder.
    """
    if s < 0:
        raise ConfigError("s must be nonnegative")
    nu_ladder = [float(v) for v in nu_ladder]
    if not nu_ladder:
        raise ConfigError("nu_ladder is empty")
    r = np.linspace(0.0, max(math.log(v) for v in nu_ladder) + 3.0, 2001)
    h = r[1] - r[0]
    out = []
    for nu in nu_ladder:
        c = math.log(nu)
        bump = profile_eval("q", 1.0 + (r - c)) * profile_eval("q", 1.0 - (r - c))
        bump = bump / math.sqrt(np.sum(bump**2) * h)
        vec = mode_weight_vector(r, nu, s) * (1.0 + r**2) ** (s / 2.0) * bump
        out.append(math.sqrt(np.sum(np.abs(vec) ** 2) * h))
    return out
