"""Commutator assembly, functional calculus, and the high-energy
positive-commutator verification.

For H_k = D_r^2 + V, with the mode's potential V and its derivatives from
model.RadialOperatorSpec.potential, the first commutator with the mode
generator A_k has the exact divergence form

    i[H_k, A_k] = 2 D_r a_k' D_r - a_k V' - a_k'''/2,

which is Hermitian by construction and agrees with the expanded form
2 a' D^2 - a V' - 2 a'' d_r - a'''/2 at the O(h^2) discretization order.
The second commutator is assembled in the analogous divergence form

    [[H_k, A_k], A_k] = D_r b_k D_r + d_k^div,
    b_k     = 2 (a a'' - 2 a'^2),
    d_k^div = -a a' V' - a^2 V'' + a' a''' + a''^2 - a a''''/2,

whose expansion reproduces the first-order coefficient exactly.  On
derivative plateaus (a' = 1, higher derivatives 0) b_k = -4 is constant, so
the first-order term vanishes, and d_k^div = -a V' - a^2 V''.  On the exact
end, V' = -2 mu_k e^{-2r} and V'' = 4 mu_k e^{-2r}.  mode_commutators builds
both operators from one table of a_k and its derivatives.

The positivity check applies both commutators to the states of its spectral
window: the first for the Mourre estimate, the second for the size of
f(H) [[H, A], A] f(H) / lam, which the C^2(A) regularity of H keeps bounded.
It makes one pass, on the window that the configured C fixes in advance, and
reports that pass's verdict.

The Helffer-Sjostrand calculus applies f(H) = V diag(Q(E)) V* with
Q(E) = pi^{-1} Re sum_z c_z / (E - z) over the summed nodes z = u + iv.
The certified nodes come in v-groups: the nodes of one height v on the u
range mid +- h.  A group's kernel 1/(E - u - iv) is analytic in u on the
Bernstein ellipse of parameter rho = e^{asinh beta}, beta = v/h, so its sum
is a Chebyshev series in the moments mu_m = sum_u c_u T_m((u - mid)/h).  At
every real E the tail past M terms is at most
2 sum|c| rho^{-(M+1)} / ((1 - 1/rho) sqrt(2 beta) h), and the group's length
M is the smallest whose tail is below its rounding scale 2^{-53} sum|c| / v.
A group goes far when M is below its kept node count: the wide bands.  A far
group is summed as the M + 1 second-kind Chebyshev points
x_k = cos(pi k / M) at its height, with the weights
(2/M) ''sum''_m mu_m T_m(x_k), the end terms of k and of m halved, whose
moments are exactly mu_0..mu_M.  At these points T_m(x_k) = T_{m'}(x_k) for
the m' <= M with m' = +-m mod 2M, so each moment past M is off by at most
2 sum|c|, and the collapsed group errs by at most twice the tail, 2^{-52}
sum|c| / v.  The near groups keep their kept nodes, so a rung has one node
set and one sum.

That sum is one fixed real function of E, analytic in the strip
|Im E| < v_min below the smallest summed node height, the smallest kept one,
so each rung also keeps a table of it on [u_lo, u_hi):
P = ceil(4 (u_hi - u_lo) / v_min) equal panels of half-width p <= v_min / 8.
On a panel's Bernstein ellipse of parameter rho = 4 + sqrt 17 the semi-minor
axis is 4 p <= v_min / 2, so every node z and its mirror conj z lie at least
v_z / 2 away and |Q| <= B = (2/pi) sum|c|/v there.  Interpolation at the
M + 1 second-kind Chebyshev points then errs by at most 4 B rho^{-M} /
(rho - 1) (Trefethen, Approximation Theory and Approximation Practice,
ch. 8), and M = 18 is the smallest degree that puts this below the rounding
scale 2^{-53} sum|c|/v.  A panel is built the first time an energy falls in
it, from the sum at its own points, one panel per evaluation, so its
coefficients have the same bits whichever call built it.  Energies outside
[u_lo, u_hi) keep the sum.
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np

from hyplab.conjugate import ConjugateParams, a_k_derivs
from hyplab.errors import ConfigError, NumericalFailure
from hyplab.linops import (DiscreteOperator, RadialGrid, discretize,
                           hermitian_eig, resolved_grid)
from hyplab.model import mode_operator_spec
from hyplab.weights import SpectralCutoff, profile_eval


def _flux_form(grid, coeff_mid):
    """Diagonals of D c D = -d(c d.)/dr for midpoint coefficient samples.

    coeff_mid[i] is c at r_{i+1/2} for i = 0..N (including both boundary
    half-points); Dirichlet conditions are natural for this stencil.
    """
    h2 = grid.h**2
    diag = (coeff_mid[:-1] + coeff_mid[1:]) / h2
    off = -coeff_mid[1:-1] / h2
    return diag, off


def mode_commutators(params, spec, nu_k, grid):
    """i[H_k, A_k] and [[H_k, A_k], A_k] in divergence form, a pair of
    Hermitian DiscreteOperators: V' and V'' from spec, a_k from nu_k, to
    order 4 at the grid points and to order 2 at the midpoints r_{i+1/2}.
    The shift commutes with A_k and drops out.  ConfigError unless h <= S/50.
    """
    if grid.h > params.S / 50.0:
        raise ConfigError("grid too coarse to resolve a_k (need h <= S/50)")
    r = grid.points()
    mid = grid.r0 + grid.h * (np.arange(grid.N + 1) + 0.5)
    a = a_k_derivs(params, nu_k, r, 4)
    am = a_k_derivs(params, nu_k, mid, 2)
    dV, ddV = spec.potential(r, 1), spec.potential(r, 2)
    diag, off = _flux_form(grid, 2.0 * am[1])
    first = DiscreteOperator(grid, {0: diag - a[0] * dV - 0.5 * a[3],
                                    1: off, -1: off})
    diag, off = _flux_form(grid, 2.0 * (am[0] * am[2] - 2.0 * am[1] ** 2))
    diag = diag + (-a[0] * a[1] * dV - a[0] ** 2 * ddV + a[1] * a[3]
                   + a[2] ** 2 - 0.5 * a[0] * a[4])
    second = DiscreteOperator(grid, {0: diag, 1: off, -1: off})
    return first, second


# ----------------------------------------------------------------------------
# Helffer-Sjostrand functional calculus
# ----------------------------------------------------------------------------

_AA_ORDER = 6


def _dbar_values(derivs, v, v_max):
    """dbar of the almost-analytic extension at the points u + iv, from
    derivs = [f(u), f'(u), ..., f^{(7)}(u)].

    F~(u+iv) = cutoff(v) sum_{j<=6} f^{(j)}(u) (iv)^j / j!, with a smooth
    cutoff equal to 1 for |v| <= v_max/2 and 0 beyond v_max.  The telescoped
    dbar = d_u + i d_v has the residual f^{(7)} term plus the cutoff term.
    """
    av = np.abs(v)
    cut = profile_eval("q", 2.0 - 2.0 * av / v_max)
    cutp = -(2.0 / v_max) * profile_eval("q", 2.0 - 2.0 * av / v_max, 1) * np.sign(v)
    iv = 1j * v
    res = cut * derivs[_AA_ORDER + 1] * iv**_AA_ORDER / math.factorial(_AA_ORDER)
    series = sum(
        derivs[j] * iv**j / math.factorial(j) for j in range(_AA_ORDER + 1)
    )
    return res + 1j * cutp * series


def _gauss_panels(edges, rule):
    """Nodes and weights of a Gauss-Legendre rule, (nodes, weights) on
    [-1, 1], on each panel of a sequence, panel by panel."""
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * rule[0]).ravel(),
            (half[:, None] * rule[1]).ravel())


# Gauss-Legendre rules in u and in v, and the v panels of the outermost band
_GL_U = np.polynomial.legendre.leggauss(12)
_GL_V = np.polynomial.legendre.leggauss(6)
_N_V_PAN = 8


def _hs_node_set(u_lo, u_hi, v_max, depth, n_u_base):
    """Scale-adapted quadrature nodes on the strip around supp f.

    v runs over geometric bands v_max 2^{-j-1}..v_max 2^{-j}, j = 0..depth-1,
    in the upper half-plane only: for a real f the lower half-plane mirrors
    it (see _resolvent_quadrature).  At each v node the u-integral is done on
    Gauss panels of width ~2v, which resolves the resolvent's analyticity
    scale.  Returns a list of (v, v_weight, u_nodes, u_weights) groups.
    """
    width = u_hi - u_lo
    groups = []
    for j in range(depth):
        hi, lo = v_max * 0.5**j, v_max * 0.5 ** (j + 1)
        # the cutoff's v-derivative lives only in the outermost band
        # (v > v_max/2); that band gets v-refinement and the full u base
        v_edges = np.linspace(lo, hi, (_N_V_PAN if j == 0 else 1) + 1)
        v_nodes, v_w = _gauss_panels(v_edges, _GL_V)
        for v, wv in zip(v_nodes, v_w):
            # panels must resolve both the resolvent scale v and the
            # profile's high derivatives (uniform n_u_base floor)
            n_pan = max(n_u_base, math.ceil(width / (2.0 * v)))
            u_edges = np.linspace(u_lo, u_hi, n_pan + 1)
            u_nodes, u_w = _gauss_panels(u_edges, _GL_U)
            groups.append((v, wv, u_nodes, u_w))
    return groups


# nodes per chunk and energies per block of a quadrature sum: the chunk's two
# real (node x energy) arrays take 512 KiB each, whatever the energy count
_HS_CHUNK = 512
_HS_E_BLOCK = 128
# Q(E) panels per smallest kept node height v_min: half-width p <= v_min / 8.
# A larger split lowers the degree M but builds more panels, each paid once
# per rung; ROADMAP's dead ends hold the measured trade-off.
_PANEL_SPLIT = 4


def _hs_nodes(f_derivs, groups, v_max):
    """Flattened quadrature nodes z = u + iv and coefficients
    c = dbar F~(z) du dv of the node groups, all with v > 0.  The mirrored
    node conj z would carry exactly conj c (f real), so it is never built.

    Groups share their u nodes (most use the base panels), so f^{(j)} is
    evaluated once per distinct u set, keyed on its values."""
    derivs = {}
    c = []
    for v, vw, u_nodes, u_w in groups:
        key = u_nodes.tobytes()
        if key not in derivs:
            derivs[key] = [f_derivs(u_nodes, j) for j in range(_AA_ORDER + 2)]
        c.append(_dbar_values(derivs[key], v, v_max) * u_w * vw)
    z = np.concatenate([u_nodes + 1j * v for v, _, u_nodes, _ in groups])
    return z, np.concatenate(c)


def _resolvent_quadrature(z, c, E):
    """Q(E) = pi^{-1} Re sum_{Im z > 0} c_z / (E - z): the quadrature applied
    to the scalar resolvent at the real energies E.

    For a real f, F~(conj z) = conj F~(z), so the node conj z carries the
    coefficient conj c_z and the pair adds c_z/(E - z) + its conjugate,
    2 Re(c_z/(E - z)): the full sum (2 pi)^{-1} sum_z over both half-planes
    is pi^{-1} times the real part of the upper half's sum.
    """
    acc = np.zeros(len(E))
    for e0 in range(0, len(E), _HS_E_BLOCK):
        block = slice(e0, e0 + _HS_E_BLOCK)
        for start in range(0, len(z), _HS_CHUNK):
            zc, cc = z[start:start + _HS_CHUNK], c[start:start + _HS_CHUNK]
            # with z = u + iv and d = u - E: Re c/(E - z) =
            # -(Re c d + Im c v) / (d^2 + v^2), in real arithmetic
            d = np.subtract.outer(zc.real, E[block])
            w = d * d
            w += (zc.imag**2)[:, None]
            np.reciprocal(w, out=w)
            d *= w
            acc[block] -= cc.real @ d + (cc.imag * zc.imag) @ w
    return acc / math.pi


def _chebyshev_length(beta):
    """Chebyshev length M of a v-group at beta = v/h: the smallest M whose
    tail bound (module docstring) is below 2^{-53} sum|c| / v."""
    alpha = math.asinh(beta)
    digits = 53.0 * math.log(2.0) + math.log(
        math.sqrt(2.0 * beta) / -math.expm1(-alpha))
    return math.ceil(digits / alpha) - 1


def _chebyshev_transform(values):
    """The second-kind Chebyshev points x_k = cos(pi k / M), k = 0..M, and
    the DCT-I (2/M) ''sum''_m values_m T_m(x_k), the end terms of k and of m
    halved, M + 1 = len(values).  It inverts the matrix T_m(x_k), which is
    symmetric in k and m, so it maps the moments mu_0..mu_M of a far group
    to weights at x_k with those moments, and a panel's values at x_k to the
    Chebyshev coefficients of their interpolant (module docstring).

    With m = B l + j and B = floor(sqrt M) + 1, T_m(x_k) = cos(pi k m / M)
    is cos(pi k B l / M) cos(pi k j / M) - sin(pi k B l / M) sin(pi k j / M),
    so two real (M + 1) x B products and an (M + 1) x (M + 1) / B sum take
    O(M^{3/2}) work where the whole matrix takes (M + 1)^2.  Each angle is
    read from tables of cos and sin(pi i / M), i < 2M, at i = k m mod 2M: a
    rounded pi k m / M would err by up to 2^{-53} pi M."""
    M = len(values) - 1
    B = math.isqrt(M) + 1
    L = -(-(M + 1) // B)
    parts = np.zeros((2, L * B))
    parts[0, :M + 1], parts[1, :M + 1] = values.real, values.imag
    parts[:, [0, M]] *= 0.5
    # column p L + l holds the terms l B .. l B + B - 1 of part p
    parts = parts.reshape(2 * L, B).T
    angle = np.pi * np.arange(2 * M) / M
    cos, sin = np.cos(angle), np.sin(angle)
    k = np.arange(M + 1)[:, None]
    inner = k * np.arange(B) % (2 * M)
    outer = (k * (B * np.arange(L)) % (2 * M))[:, None, :]
    sums = (cos[outer] * (cos[inner] @ parts).reshape(M + 1, 2, L)
            - sin[outer] * (sin[inner] @ parts).reshape(M + 1, 2, L)).sum(2)
    out = (2.0 / M) * (sums[:, 0] + 1j * sums[:, 1])
    out[[0, M]] *= 0.5
    return cos[:M + 1], out


def _collapse_far(groups, z, c, keep, u_lo, u_hi):
    """The summed nodes and coefficients of a rung, from its kept nodes z and
    coefficients c and the pruning mask keep.  A near group keeps its kept
    nodes, which come first.  A far group, one whose Chebyshev length M is
    below its kept node count, becomes the M + 1 points mid + h x_k + iv,
    with the weights _chebyshev_transform gives from its moments mu_0..mu_M
    (module docstring).  The moments come from the three-term recurrence,
    one matrix-vector product per m for all far groups.  These share the
    base u panels: a group with finer ones has 12 ceil(h/v) nodes, fewer
    than its M of about 37 h/v."""
    mid, h = 0.5 * (u_lo + u_hi), 0.5 * (u_hi - u_lo)
    bounds = np.cumsum([0] + [len(u_nodes) for _, _, u_nodes, _ in groups])
    kept = np.concatenate([[0], np.cumsum(keep)])[bounds]
    lengths = [_chebyshev_length(v / h) for v, *_ in groups]
    is_far = np.array(lengths) < np.diff(kept)
    if not is_far.any():
        return z, c
    # longest first, so the groups still summing at m lead the rows
    far = sorted(np.flatnonzero(is_far), key=lambda g: -lengths[g])
    x = (groups[far[0]][2] - mid) / h
    rows = np.zeros((len(far), len(x)), dtype=complex)
    for i, g in enumerate(far):
        rows[i, keep[bounds[g]:bounds[g + 1]]] = c[kept[g]:kept[g + 1]]
    mu = np.zeros((len(far), lengths[far[0]] + 1), dtype=complex)
    mu[:, 0] = rows.sum(axis=1)
    t_prev, t = np.ones_like(x), x
    active = len(far)
    for m in range(1, mu.shape[1]):
        while lengths[far[active - 1]] < m:
            active -= 1
        mu[:active, m] = rows[:active] @ t
        t_prev, t = t, 2.0 * x * t - t_prev
    # alive with the collapsed nodes, the rows would set a cold build's peak
    del rows
    near = np.repeat(~is_far, np.diff(kept))
    z_parts, c_parts = [z[near]], [c[near]]
    for g, row in zip(far, mu):
        x_k, weights = _chebyshev_transform(row[:lengths[g] + 1])
        z_parts.append(mid + h * x_k + 1j * groups[g][0])
        c_parts.append(weights)
    return np.concatenate(z_parts), np.concatenate(c_parts)


def _panel_length():
    """Degree M of a panel's interpolant: the smallest M whose bound
    4 B rho^{-M} / (rho - 1), B = (2/pi) sum|c|/v, is below the rounding
    scale 2^{-53} sum|c|/v (module docstring)."""
    rho = _PANEL_RHO
    digits = 53.0 * math.log(2.0) + math.log(8.0 / (math.pi * (rho - 1.0)))
    return math.ceil(digits / math.log(rho))


# the Bernstein ellipse whose semi-minor axis, _PANEL_SPLIT p, is v_min / 2
_PANEL_RHO = _PANEL_SPLIT + math.sqrt(_PANEL_SPLIT**2 + 1.0)
_PANEL_M = _panel_length()
_PANEL_X = np.cos(np.pi * np.arange(_PANEL_M + 1) / _PANEL_M)


class _Panels(typing.NamedTuple):
    """Q(E) of a rung on [lo, hi), cut into len(built) equal panels: coef[i]
    holds panel i's Chebyshev coefficients once built[i] is set."""

    lo: float
    hi: float
    coef: np.ndarray
    built: np.ndarray


class _HSRung(typing.NamedTuple):
    """A rung's summed nodes z and coefficients c, its far groups collapsed
    (_collapse_far), and its _Panels (None without a node)."""

    rung: int
    z: np.ndarray
    c: np.ndarray
    panels: _Panels | None


def _tabulated_quadrature(entry, E):
    """Q(E) of a rung from its panels on [lo, hi), each built from the
    quadrature sum at its own M + 1 points the first time an energy falls in
    it; outside [lo, hi), and without panels, the quadrature sum."""
    panels = entry.panels
    if panels is None:
        return _resolvent_quadrature(entry.z, entry.c, E)
    inside = (E >= panels.lo) & (E < panels.hi)
    q = np.empty(len(E))
    if not inside.all():
        q[~inside] = _resolvent_quadrature(entry.z, entry.c, E[~inside])
    n_pan = len(panels.built)
    width = (panels.hi - panels.lo) / n_pan
    t = (E[inside] - panels.lo) / width
    index = np.minimum(t.astype(int), n_pan - 1)
    # one panel per evaluation, so a panel's bits do not depend on the call
    # that built it
    for i in np.unique(index[~panels.built[index]]):
        points = panels.lo + width * (i + 0.5 + 0.5 * _PANEL_X)
        panels.coef[i] = _chebyshev_transform(
            _resolvent_quadrature(entry.z, entry.c, points))[1].real
        panels.built[i] = True
    q[inside] = np.polynomial.chebyshev.chebval(
        2.0 * (t - index) - 1.0, panels.coef[index].T, tensor=False)
    return q


# (f_derivs, u_lo, u_hi) -> _HSRung; the key holds the function
# itself, so an entry can never be reached by another function.  Kept in
# least-recently-used order: a hit moves its entry to the end, and the front
# entry goes once there are more than _HS_CACHE_CAP.
_HS_CACHE = {}
_HS_CACHE_CAP = 32

# The eigendecomposition of the last DiscreteOperator that hs_calculus was
# given, as {key: (evals, evecs)}, one entry at most.  The key is the
# operator's content: its mass and each diagonal's dtype and bytes, the only
# values that hermitian_eig's checks and eigensolve read.
_EIG_CACHE = {}

# operator-norm tolerance of hs_calculus at the spectrum
_HS_TOL = 1e-6

_HS_LADDER = [(4, 16), (5, 24), (5, 32), (5, 48), (5, 64), (5, 80), (5, 96),
              (6, 128), (6, 192), (7, 256), (7, 384), (8, 512)]


def _hs_start_rung(f_derivs, u_lo, u_hi):
    """Ladder rung guessed from the seventh derivative's size (the
    almost-analytic residual term)."""
    width = u_hi - u_lo
    sup7 = float(
        np.max(np.abs(f_derivs(np.linspace(u_lo, u_hi, 2001), _AA_ORDER + 1)))
    )
    # empirical resolution heuristic: needed panels scale like the residual
    # amplitude to the 1/7 (one power per quadrature-relevant derivative)
    guess = 9.0 * (max(sup7, 1.0) * (width / 6.0) ** 7) ** (1.0 / 7.0)
    rung = 0
    while rung < len(_HS_LADDER) - 1 and _HS_LADDER[rung][1] < guess:
        rung += 1
    return rung


def _hs_rung(f_derivs, u_lo, u_hi, rung):
    """The _HSRung of one ladder rung, without the nodes whose term stays
    negligible at every energy."""
    depth, base = _HS_LADDER[rung]
    v_max = 0.25 * (u_hi - u_lo)
    groups = _hs_node_set(u_lo, u_hi, v_max, depth, n_u_base=base)
    z, c = _hs_nodes(f_derivs, groups, v_max)
    # the threshold counts the mirrored lower-half nodes too: 2 len(z) terms
    keep = np.abs(c) / z.imag > _HS_TOL * 1e-4 / (2 * len(z))
    z, c = z[keep], c[keep]
    z, c = _collapse_far(groups, z, c, keep, u_lo, u_hi)
    panels = None
    if len(z):
        # half-width at most v_min / (2 _PANEL_SPLIT)
        v_min = float(np.min(z.imag))
        n_pan = math.ceil(_PANEL_SPLIT * (u_hi - u_lo) / v_min)
        panels = _Panels(u_lo, u_hi, np.zeros((n_pan, _PANEL_M + 1)),
                         np.zeros(n_pan, dtype=bool))
    return _HSRung(rung, z, c, panels)


def hs_calculus(f_derivs, op, u_range):
    """f(op) by Helffer-Sjostrand quadrature against the resolvent.

    Parameters
    ----------
    f_derivs : callable
        (E, j) -> j-th derivative of the target function, j <= 7; f real,
        smooth and compactly supported (ConfigError if f is complex at the
        spectrum).  It must be hashable: the certified nodes are cached per
        function.
    op : DiscreteOperator or Hermitian ndarray
        ConfigError, before any eigensolve, for an ndarray that is empty,
        not square or not Hermitian, and for a non-finite entry.
    u_range : (lo, hi)
        Interval containing supp f; ConfigError unless lo < hi, both
        finite.

    Returns f(op) in the eigenvectors' dtype: float64 for a real symmetric
    operator, banded or dense, and complex for a complex Hermitian matrix.

    The nodes are applied in the eigenbasis, where the resolvent is
    diagonal: (op - z)^{-1} = V (E - z)^{-1} V*.  For a DiscreteOperator the
    eigenbasis is linops.hermitian_eig's; _EIG_CACHE keeps the last one,
    keyed on content, so an operator equal to the last one skips
    hermitian_eig and its checks, and one changed in place is checked and
    solved again.  A dense op is decomposed on every call and never kept.
    Either way the check at the spectrum below runs on every call.  The
    quadrature gives
    V diag(Q(E)) V* with Q(E) = (2 pi)^{-1} sum_z c_z / (E - z).  The nodes
    of the lower half-plane are the conjugates of the upper ones, with
    conjugate coefficients, so only the upper half is built and Q(E) =
    pi^{-1} Re sum_{Im z > 0} c_z / (E - z).  For a Hermitian operator
    max_i |Q(E_i) - f(E_i)| over the spectrum is exactly the operator-norm
    error, and every result passes that check at _HS_TOL = 1e-6.
    The node ladder is climbed against the spectrum itself: from the cached
    rung of this function (or a rung guessed from its seventh derivative)
    up to the first rung that passes, which then becomes the cached one.
    NumericalFailure if no rung passes.

    Q(E) is summed by v-groups (module docstring).  A group at height v
    has the Chebyshev length M whose tail bound is below 2^{-53} sum|c| / v;
    when M is below its kept node count the group is far and is summed as
    M + 1 second-kind Chebyshev points at height v, weighted to keep its
    moments up to M, which errs by at most twice that bound.  The other
    groups keep their kept nodes.  On [u_lo, u_hi) Q is read from the rung's
    table instead: ceil(4 (u_hi - u_lo) / v_min) equal panels, each a
    Chebyshev interpolant of degree 18 at second-kind points (the module
    docstring derives both from rho = 4 + sqrt 17 and the rounding scale),
    built from the sum the first time an eigenvalue falls in it.  The check
    at the spectrum runs on these tabulated values, and a rung that fails it
    is dropped with its panels.
    """
    u_lo, u_hi = float(u_range[0]), float(u_range[1])
    if not (math.isfinite(u_lo) and math.isfinite(u_hi) and u_lo < u_hi):
        raise ConfigError(f"u_range ({u_lo}, {u_hi}) needs finite lo < hi")
    if hasattr(op, "diagonals"):
        eig_key = (op.mass, *((d.dtype.str, d.tobytes())
                              for d in (op.lower, op.main, op.upper)))
        if eig_key not in _EIG_CACHE:
            _EIG_CACHE.clear()
            _EIG_CACHE[eig_key] = hermitian_eig(op)
        evals, evecs = _EIG_CACHE[eig_key]
    else:
        dense = np.asarray(op)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1] or (
                not dense.size):
            raise ConfigError("hs_calculus needs a nonempty square matrix, "
                              f"not shape {dense.shape}")
        scale = float(np.max(np.abs(dense)))
        if not math.isfinite(scale):
            raise ConfigError("hs_calculus requires finite entries")
        if np.max(np.abs(dense - dense.conj().T)) > 1e-10 * max(scale,
                                                                 1e-300):
            raise ConfigError("hs_calculus requires a Hermitian operator")
        evals, evecs = np.linalg.eigh(dense)
    f_vals = f_derivs(evals, 0)
    if np.any(np.imag(f_vals)):
        raise ConfigError("hs_calculus requires a real-valued f")
    key = (f_derivs, u_lo, u_hi)
    entry = _HS_CACHE.get(key) or _hs_rung(
        f_derivs, u_lo, u_hi, _hs_start_rung(f_derivs, u_lo, u_hi))
    while True:
        q = _tabulated_quadrature(entry, evals)
        err = float(np.max(np.abs(q - f_vals)))
        if err <= _HS_TOL:
            break
        if entry.rung + 1 == len(_HS_LADDER):
            raise NumericalFailure(
                f"Helffer-Sjostrand quadrature misses f at the spectrum by "
                f"{err:.3e} on its finest nodes (tolerance {_HS_TOL:.1e})"
            )
        entry = _hs_rung(f_derivs, u_lo, u_hi, entry.rung + 1)
    _HS_CACHE.pop(key, None)
    _HS_CACHE[key] = entry
    if len(_HS_CACHE) > _HS_CACHE_CAP:
        _HS_CACHE.pop(next(iter(_HS_CACHE)))
    # conj() of real eigenvectors is the array itself, so no copy is made
    return (evecs * q) @ evecs.conj().T


# ----------------------------------------------------------------------------
# Mourre positivity at high energy
# ----------------------------------------------------------------------------


@dataclasses.dataclass
class ModePositivity:
    k: int
    mu: float
    window_size: int
    min_eig: float | None
    # ||f U*[[H, A], A]U f||_2 / lam over the window states U
    double_commutator: float | None


@dataclasses.dataclass
class PositivityReport:
    lam: float
    C: float
    grid: RadialGrid
    delta_lambda: float
    min_eig_ratio: float | None
    per_mode: list
    deficits: dict
    contributing_modes: int

    def to_dict(self):
        return {
            "lambda": self.lam,
            "C": self.C,
            "n_points": self.grid.N,
            "r_max": self.grid.r_max,
            "h": self.grid.h,
            "delta_lambda": self.delta_lambda,
            "min_eig_ratio": self.min_eig_ratio,
            "double_commutator_ratio": self.double_commutator_ratio,
            "contributing_modes": self.contributing_modes,
            "per_mode": [dataclasses.asdict(m) for m in self.per_mode],
            "deficits": self.deficits,
            # the compact-core contribution of the continuum estimate has no
            # grid counterpart; flagged for report readers
            "compact_core_modeled": False,
        }

    @property
    def double_commutator_ratio(self):
        """The largest per-mode double_commutator (None without one)."""
        return max((m.double_commutator for m in self.per_mode
                    if m.double_commutator is not None), default=None)

    @property
    def passed(self):
        """The acceptance policy of the check: min-eig / lam >= -_RATIO_TOL."""
        ratio = self.min_eig_ratio
        return ratio is not None and ratio >= -_RATIO_TOL


# PositivityReport.passed accepts min-eig / lam >= -_RATIO_TOL
_RATIO_TOL = 0.1
# window eigenpairs with f_lam(E) below this floor do not contribute
_WINDOW_FLOOR = 1e-3
# The check's grid has _REFINE times the points of linops.resolved_grid,
# h sqrt(lam) <= 1/4: the order-2 Dirichlet stencil of the box needs a finer
# step than Numerov's pencil of the sweep.
_REFINE = 4.0


def _window_form(op, U):
    """U* op U for the window states, the columns of U."""
    return np.conj(U.T) @ np.column_stack(
        [op.matvec(U[:, i]) for i in range(U.shape[1])]
    )


def mourre_positivity_check(lam, s0, K_max, config, C=10.0):
    """Verify the localized positive-commutator estimate at energy lam, in
    one pass on the window of width delta = (log lam)^{-2 s0} lam^{1/2} / C.

    The grid is linops.resolved_grid with _REFINE times its points, on the
    box max(2R + 5, R^2/2) from config.r0: the box grows a bit faster than
    the cutoff scale R, so the transition region loses relative weight along
    the lambda ladder.  Per mode k: windowed eigenpairs of the Hermitian
    truncation H_k, the weighted commutator form f(H) i[H,A] f(H) - lam f(H)^2
    restricted to the spectral window, and its minimum eigenvalue; and the
    norm of f(H) [[H,A],A] f(H) on the same window, over lam.  Returns a
    PositivityReport with the grid, min_k min-eig / lam, the largest of those
    norms and the deficit terms of the continuum estimate; its ``passed`` is
    the verdict.  The resolvent-weight scale is the non-trapping lam^{-1/2}.
    ConfigError unless C > 0.
    """
    if not C > 0:
        raise ConfigError(f"C = {C} must be positive")
    params = ConjugateParams.from_lambda(lam)
    params.validate(config.r0)
    R = params.R
    grid = resolved_grid(lam, max(2.0 * R + 5.0, 0.5 * R**2), r0=config.r0,
                         refine=_REFINE)
    spectrum = config.spectrum(K_max)
    # a_k switches on with xi_S(r - log nu_k), which is 1 from
    # r = log nu_k - S/2 on.  K_max comes from the config: refuse a top mode
    # whose log nu_K lies within 2 of the last tenth of the box, where its
    # generator would still be taking shape against the wall at r_max.
    if math.log(spectrum.nu(len(spectrum) - 1)) > (
            grid.r_max - 0.1 * (grid.r_max - grid.r0) - 2.0):
        raise ConfigError("K_max too large for the grid (log nu_K exceeds "
                          "r_max - (r_max - r0)/10 - 2)")
    rho = lam ** -0.5
    delta = (math.log(lam)) ** (-2.0 * s0) / (rho * C)
    cutoff = SpectralCutoff(lam=lam, delta=delta)
    r = grid.points()
    lo, hi = lam - cutoff.support_halfwidth, lam + cutoff.support_halfwidth
    per_mode = []
    min_ratio = None
    deficit_r = 0.0
    deficit_chi = 0.0
    contributing = 0
    chi_r = profile_eval("chi", r / R)
    inv_bracket_r = 1.0 / np.sqrt(1.0 + r**2)
    for k in range(len(spectrum)):
        spec_k = mode_operator_spec(config, k, spectrum=spectrum)
        op = discretize(spec_k, grid)
        evals, evecs = hermitian_eig(op, select_range=(lo, hi))
        fvals = cutoff.values(evals)
        keep = fvals >= _WINDOW_FLOOR
        if not keep.any():
            per_mode.append(ModePositivity(k, spectrum.mu(k), 0, None, None))
            continue
        contributing += 1
        U = evecs[:, keep]
        f_w = fvals[keep]
        first, second = mode_commutators(params, spec_k, spectrum.nu(k), grid)
        comm_win = _window_form(first, U)
        comm_win = 0.5 * (comm_win + np.conj(comm_win.T))
        M = (f_w[:, None] * comm_win * f_w[None, :]) - lam * np.diag(f_w**2)
        m_k = float(np.min(np.linalg.eigvalsh(np.real(M))))
        d_norm = float(np.linalg.norm(
            f_w[:, None] * _window_form(second, U) * f_w[None, :], 2)) / lam
        per_mode.append(
            ModePositivity(k, spectrum.mu(k), int(keep.sum()), m_k, d_norm)
        )
        if min_ratio is None or m_k / lam < min_ratio:
            min_ratio = m_k / lam
        # deficit norms ||f(H) g|| computed from the windowed spectral data
        fU = f_w[:, None] * np.conj(U.T)
        deficit_r = max(
            deficit_r, float(np.linalg.norm(fU * inv_bracket_r[None, :], 2))
        )
        deficit_chi = max(
            deficit_chi, float(np.linalg.norm(fU * (chi_r - 1.0)[None, :], 2))
        )
    if contributing == 0:
        raise NumericalFailure(
            "no mode produced a nonempty spectral window; delta is below "
            "the level spacing of every mode's box"
        )
    deficits = {
        "f_inv_bracket_r": deficit_r,
        "f_chi_minus_one": deficit_chi,
        "inv_S": 1.0 / params.S,
        "inv_lambda": 1.0 / lam,
    }
    return PositivityReport(
        lam=lam,
        C=C,
        grid=grid,
        delta_lambda=delta,
        min_eig_ratio=min_ratio,
        per_mode=per_mode,
        deficits=deficits,
        contributing_modes=contributing,
    )
