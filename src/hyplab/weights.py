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
Derivatives up to order 7 are evaluated in closed form: sigma^{(k)} is a
polynomial P_k in sigma, the derivatives of g are explicit, and Faa di Bruno's
formula combines the two.  The other profiles follow from q by the product
and chain rules.

On top of the profiles this module provides the mode-shifted weight vectors
w^{-s}(r - log nu_k), the symbol weights w^s(r - log<eta>), the temperate
weight inequality sampler, an exact boundedness check for the weighted
quantization factorization, and the demonstration that the mode-shifted
weight is strictly weaker than the polynomial one.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from hyplab.errors import ConfigError

# Derivatives are advertised to order 6; one extra order is kept internally
# for the almost-analytic extension of the functional calculus.
MAX_DERIVATIVE = 7

_PROFILE_NAMES = ("q", "w", "chi", "xi", "f")


def _sigma_polys(n):
    """Coefficients (ascending powers of s) of P_0..P_n, where
    sigma^{(k)}(t) = P_k(sigma(t)): P_0(s) = s and, from sigma' = sigma(1 -
    sigma), P_{k+1}(s) = P_k'(s) s(1 - s)."""
    polys = [np.array([0.0, 1.0])]
    for _ in range(n):
        polys.append(npoly.polymul(npoly.polyder(polys[-1]), [0.0, 1.0, -1.0]))
    return polys


def _faa_di_bruno_terms(n):
    """Faa di Bruno's formula for (sigma o g)^{(n)} as a list of (k, c, parts).

    There is one entry per partition of n into k parts, and
    (sigma o g)^{(n)} = sum c P_k(sigma) prod_{i in parts} g^{(i)}/i!, with
    c = n! / prod_i m_i! over the multiplicities m_i of the parts.
    """
    terms = []

    def walk(rest, largest, parts):
        if rest == 0:
            c = math.factorial(n)
            for i in set(parts):
                c //= math.factorial(parts.count(i))
            terms.append((len(parts), float(c), tuple(parts)))
            return
        for i in range(min(rest, largest), 0, -1):
            walk(rest - i, i, parts + [i])

    walk(n, n, [])
    return terms


_SIGMA_POLYS = _sigma_polys(MAX_DERIVATIVE)
_FDB_TERMS = [_faa_di_bruno_terms(n) for n in range(MAX_DERIVATIVE + 1)]

# Within this distance of a plateau, q and every derivative to order 7 are
# below 1e-260 (sigma < e^{-699}); they are set to their exact plateau values
# there.  The closed forms are therefore never evaluated where 1/x could
# overflow, so 0 * inf and inf - inf cannot arise, nor where exp would take
# its slow subnormal path.
_PLATEAU_GAP = 1.0 / 700.0


def _step_derivs(x, orders):
    """[q^{(j)}(x) for j in orders], for x anywhere on the real line.

    The closed forms are evaluated at y = min(x, 1-x) <= 1/2 only, where
    sigma(g(y)) <= 1/2, and reflected by q(x) = 1 - q(1-x), that is
    q^{(j)}(x) = (-1)^{j+1} q^{(j)}(1-x) for j >= 1.  Near x = 1 the direct
    evaluation would lose every digit at orders 6 and 7.  On the plateaus,
    and within _PLATEAU_GAP of them, the values are the exact plateau ones.
    """
    x = np.asarray(x, dtype=float)
    y = np.minimum(x, 1.0 - x)
    flip = x > 0.5
    out = [np.array(flip, dtype=float) if j == 0 else np.zeros(x.shape)
           for j in orders]
    live = y > _PLATEAU_GAP
    if not live.any():
        return out
    y, flip = y[live], flip[live]
    a = 1.0 / (1.0 - y)
    b = 1.0 / y
    e = np.exp(a - b)
    s = e / (1.0 + e)  # sigma(g(y))
    top = max(orders)
    if top >= 1:
        p = s * (1.0 - s)  # P_1(s)
        g1 = a * a + b * b  # g'(y)
    if top >= 3:
        # h[i] = g^{(i)}(y)/i! = a^{i+1} + (-b)^{i+1}
        apow, bpow = [a * a], [b * b]
        for _ in range(top - 1):
            apow.append(apow[-1] * a)
            bpow.append(bpow[-1] * -b)
        h = [None] + [u + v for u, v in zip(apow, bpow)]
        sig = [s, p] + [npoly.polyval(s, _SIGMA_POLYS[k])
                        for k in range(2, top + 1)]
    # Orders 1 and 2 are written out: most calls stop there (the flow ODE,
    # the cutoffs), many of them on a handful of points.
    for j, dest in zip(orders, out):
        if j == 0:
            v = np.where(flip, 1.0 - s, s)
        elif j == 1:
            v = p * g1
        elif j == 2:
            v = p * ((1.0 - 2.0 * s) * g1 * g1 + 2.0 * (a * a * a - b * b * b))
        else:
            v = 0.0
            for k, c, parts in _FDB_TERMS[j]:
                term = c * sig[k]
                for i in parts:
                    term = term * h[i]
                v = v + term
        dest[live] = np.where(flip, -v, v) if j and j % 2 == 0 else v
    return out


def cutoff_derivs(which, x, orders):
    """[c^{(j)}(x) for j in orders] for the cutoff c = ``"chi"`` or ``"xi"``,
    from one evaluation of the step q and its derivatives to max(orders).

    chi = q(x-1)^2 and xi = q(2(x+1))^2, by the Leibniz rule on q * q.
    """
    shift, scale = (1.0, 1.0) if which == "chi" else (-1.0, 2.0)
    g = _step_derivs(scale * (np.asarray(x, dtype=float) - shift),
                     range(max(orders) + 1))
    out = []
    for j in orders:
        c = g[0] * g[j]
        for i in range(1, j + 1):
            c = c + math.comb(j, i) * g[i] * g[j - i]
        out.append(c * scale**j)
    return out


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
        (out,) = _step_derivs(x, (j,))
    elif which == "w":
        # w^{(j)} = q^{(j)}(x)(x-1) + j q^{(j-1)}(x) (+1 at j = 0); x - 1 is
        # clipped to [-1, 0], where it only meets plateau values of q, so the
        # plateaus come out exact and finite.
        t = np.clip(x, 0.0, 1.0) - 1.0
        if j == 0:
            (qx,) = _step_derivs(x, (0,))
            out = np.where(x >= 1.0, x, 1.0 + qx * t)
        else:
            qj, qprev = _step_derivs(x, (j, j - 1))
            out = qj * t + j * qprev
    elif which in ("chi", "xi"):
        (out,) = cutoff_derivs(which, x, (j,))
    else:
        # f(E) = q(3-|E|): plateau 1 on [-2,2], support [-3,3].  Smooth
        # because the |E| kink sits inside the plateau of q.
        (out,) = _step_derivs(3.0 - np.abs(x), (j,))
        if j % 2 == 1:
            out = out * np.where(x >= 0, -1.0, 1.0)
    return np.asarray(out)[()]


def chi_sqrt_eval(x, j=0):
    """chi^{1/2}(x) = q(x-1) and derivatives (smooth by construction)."""
    return profile_eval("q", np.asarray(x, dtype=float) - 1.0, j)


def xi_sqrt_eval(x, j=0):
    """xi^{1/2}(x) = q(2(x+1)) and derivatives (chain rule in the factor 2)."""
    return profile_eval("q", 2.0 * (np.asarray(x, dtype=float) + 1.0), j) * (2.0 ** j)


def nu_from_mu(mu):
    """nu = (1 + mu)^{1/2}, the frequency scale attached to a mode."""
    return np.sqrt(1.0 + np.asarray(mu, dtype=float))


def mode_weight_vector(r, nu_k, s):
    """Diagonal of the mode-shifted weight w^{-s}(r_i - log nu_k).

    Parameters
    ----------
    r : array_like
        Radial grid points (a :class:`~hyplab.linops.RadialGrid` is also
        accepted and its points are used).
    nu_k : float
        Mode frequency scale, nu_k >= 1.
    s : float
        Weight exponent; negative s yields the unbounded inverse weight.
    """
    if hasattr(r, "points"):
        r = r.points()
    r = np.asarray(r, dtype=float)
    if nu_k < 1.0:
        raise ConfigError(f"nu_k = {nu_k} < 1")
    return profile_eval("w", r - math.log(nu_k)) ** (-s)


def polynomial_weight_vector(r, s):
    """Diagonal of the polynomial weight <r>^{-s}."""
    if hasattr(r, "points"):
        r = r.points()
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


def temperate_check(sample_count, C, M, seed=0, box=50.0):
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


def quantize_and_factor_check(s, sigma, levels=3,
                              n_r0=48, n_theta0=32, r_max0=12.0):
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
        n_r = n_r0 * 2**lev
        n_theta = n_theta0 * 2**lev
        r_max = r_max0 * 1.5**lev
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


def unboundedness_demo(s, nu_ladder, r_max=None, n=2001):
    """Ratios ||W_{-s} <r>^s phi_j|| for unit bumps at r = log nu_j.

    Demonstrates that the composition of the inverse mode weight with the
    polynomial weight grows like <log nu>^s along a geometric nu ladder.
    """
    if s < 0:
        raise ConfigError("s must be nonnegative")
    nu_ladder = [float(v) for v in nu_ladder]
    top = max(math.log(v) for v in nu_ladder) + 3.0
    if r_max is None:
        r_max = top
    elif r_max < top:
        raise ConfigError("bump support exceeds grid")
    r = np.linspace(0.0, r_max, n)
    h = r[1] - r[0]
    out = []
    for nu in nu_ladder:
        c = math.log(nu)
        bump = profile_eval("q", 1.0 + (r - c)) * profile_eval("q", 1.0 - (r - c))
        bump = bump / math.sqrt(np.sum(bump**2) * h)
        vec = mode_weight_vector(r, nu, s) * (1.0 + r**2) ** (s / 2.0) * bump
        out.append(math.sqrt(np.sum(np.abs(vec) ** 2) * h))
    return out
