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
Q(E) = pi^{-1} Re sum_z c_z / (E - z) over the certified nodes z = u + iv,
which come in v-groups: the nodes of one height v on the u range mid +- h.
A group's kernel 1/(E - u - iv) is analytic in u on the Bernstein ellipse of
parameter rho = e^{asinh beta}, beta = v/h, so its sum is a Chebyshev series
in the moments mu_m = sum_u c_u T_m((u - mid)/h).  At every real E the tail
past M terms is at most 2 sum|c| rho^{-(M+1)} / ((1 - 1/rho) sqrt(2 beta) h),
and the group's length M is the smallest whose tail is below its rounding
scale 2^{-53} sum|c| / v.  A group goes far when M is below its kept node
count: the wide bands, summed through moments formed once per rung.  The
others, the near groups, keep the direct sum.

Near plus far is one fixed real function of E, analytic in the strip
|Im E| < v_min below the smallest kept node height, so each rung also keeps
a table of it on [u_lo, u_hi): P = ceil(4 (u_hi - u_lo) / v_min) equal
panels of half-width p <= v_min / 8.  On a panel's Bernstein ellipse of
parameter rho = 4 + sqrt 17 the semi-minor axis is 4 p <= v_min / 2, so every
node z and its mirror conj z lie at least v_z / 2 away and
|Q| <= B = (2/pi) sum|c|/v there.  Interpolation at the M + 1 second-kind
Chebyshev points then errs by at most 4 B rho^{-M} / (rho - 1) (Trefethen,
Approximation Theory and Approximation Practice, ch. 8), and M = 18 is the
smallest degree that puts this below the rounding scale 2^{-53} sum|c|/v.
A panel is built the first time an energy falls in it, from the near and
far sums at its own points, one panel per evaluation, so its coefficients
have the same bits whichever call built it.  Energies outside
[u_lo, u_hi) keep the near and far sums.
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


def _gauss_panels(edges, order):
    """Gauss-Legendre nodes/weights on a sequence of panels."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x0)
        weights.append(half * w0)
    return np.concatenate(nodes), np.concatenate(weights)


# Gauss-Legendre orders in u and in v, and the v panels of the outermost band
_GL_U = 12
_GL_V = 6
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
        v_nodes, v_w = _gauss_panels(v_edges, order=_GL_V)
        for v, wv in zip(v_nodes, v_w):
            # panels must resolve both the resolvent scale v and the
            # profile's high derivatives (uniform n_u_base floor)
            n_pan = max(n_u_base, math.ceil(width / (2.0 * v)))
            u_edges = np.linspace(u_lo, u_hi, n_pan + 1)
            u_nodes, u_w = _gauss_panels(u_edges, order=_GL_U)
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


# moments per block of the far sum
_FAR_POW = 16


class _FarTable(typing.NamedTuple):
    """The far v-groups of a rung on the u range mid +- h, in buckets of
    similar length.  A bucket is (beta, coef): beta = v/h per group, and
    coef[g, k, b] the coefficient of w^m, m = _FAR_POW b + k, which is
    2 mu_m / h (mu_0 / h at m = 0)."""

    mid: float
    h: float
    buckets: list


def _split_far(groups, c, keep, u_lo, u_hi):
    """(near, far) of a rung's groups, from the pruning mask keep and the
    kept coefficients c: near lists the slices of the kept nodes that hold
    the near groups, far is the _FarTable of the groups whose M is below
    their kept node count.  The moments come from the three-term recurrence,
    one matrix-vector product per m for all far groups.  These share the
    base u panels: a group with finer ones has 12 ceil(h/v) nodes, fewer
    than its M of about 37 h/v."""
    mid, h = 0.5 * (u_lo + u_hi), 0.5 * (u_hi - u_lo)
    ends = np.cumsum([len(u_nodes) for _, _, u_nodes, _ in groups])
    kept = np.concatenate([[0], np.cumsum(keep)])
    near, far = [], []
    for (v, _, u_nodes, _), end in zip(groups, ends):
        start = end - len(u_nodes)
        lo, hi = int(kept[start]), int(kept[end])
        length = _chebyshev_length(v / h)
        if length < hi - lo:
            far.append((length, v, start, end, u_nodes))
        elif near and near[-1].stop == lo:
            near[-1] = slice(near[-1].start, hi)
        elif hi > lo:
            near.append(slice(lo, hi))
    if not far:
        return near, _FarTable(mid, h, [])
    # longest first, so the groups still summing at m lead the rows
    far.sort(key=lambda group: -group[0])
    x = (far[0][4] - mid) / h
    rows = np.zeros((len(far), len(x)), dtype=complex)
    for row, (_, _, start, end, _) in zip(rows, far):
        row[keep[start:end]] = c[kept[start]:kept[end]]
    mu = np.zeros((len(far), far[0][0] + 1), dtype=complex)
    mu[:, 0] = rows.sum(axis=1)
    t_prev, t = np.ones_like(x), x
    active = len(far)
    for m in range(1, far[0][0] + 1):
        while far[active - 1][0] < m:
            active -= 1
        mu[:active, m] = rows[:active] @ t
        t_prev, t = t, 2.0 * x * t - t_prev
    buckets = {}
    for (length, v, *_), row in zip(far, mu):
        size = max(_FAR_POW, 1 << length.bit_length())
        buckets.setdefault(size, []).append((v, row[:length + 1]))
    tables = []
    for members in buckets.values():
        # a bucket's first group is its longest
        n_blocks = -(-len(members[0][1]) // _FAR_POW)
        coef = np.zeros((len(members), n_blocks * _FAR_POW), dtype=complex)
        for i, (_, row) in enumerate(members):
            coef[i, :len(row)] = (2.0 / h) * row
        coef[:, 0] *= 0.5
        coef = coef.reshape(len(members), n_blocks, _FAR_POW)
        tables.append((np.array([v for v, _ in members]) / h,
                       np.ascontiguousarray(coef.transpose(0, 2, 1))))
    return near, _FarTable(mid, h, tables)


def _far_quadrature(far, E):
    """pi^{-1} Re of the far groups' sum at the real energies E.

    With a = (E - iv - mid)/h, s = sqrt(a - 1) sqrt(a + 1) (principal
    roots) and w = 1/(a + s), a group's sum is sum_u c_u / (E - z_u) =
    (1/(h s)) [mu_0 + 2 sum_{m>=1} mu_m w^m]: one batched matmul of the
    powers w^0..w^15 against the moment blocks, then Horner in w^16."""
    acc = np.zeros(len(E))
    for e0 in range(0, len(E), _HS_E_BLOCK):
        block = slice(e0, e0 + _HS_E_BLOCK)
        t = (E[block] - far.mid) / far.h
        for beta, coef in far.buckets:
            # no temporary outgrows the direct sum's chunk arrays
            step = max(1, _HS_CHUNK // (2 * max(_FAR_POW, coef.shape[2])))
            for g0 in range(0, len(beta), step):
                a = t - 1j * beta[g0:g0 + step, None]
                s = np.sqrt(a - 1.0) * np.sqrt(a + 1.0)
                w = 1.0 / (a + s)
                powers = np.empty(a.shape + (_FAR_POW,), dtype=complex)
                powers[..., 0] = 1.0
                powers[..., 1:] = w[..., None]
                np.cumprod(powers, axis=-1, out=powers)
                blocks = powers @ coef[g0:g0 + step]
                w_step = powers[..., -1] * w
                p = blocks[..., -1].copy()
                for b in range(blocks.shape[-1] - 2, -1, -1):
                    p *= w_step
                    p += blocks[..., b]
                acc[block] += (p / s).real.sum(axis=0)
    return acc / math.pi


def _panel_length():
    """Degree M of a panel's interpolant: the smallest M whose bound
    4 B rho^{-M} / (rho - 1), B = (2/pi) sum|c|/v, is below the rounding
    scale 2^{-53} sum|c|/v (module docstring)."""
    rho = _PANEL_RHO
    digits = 53.0 * math.log(2.0) + math.log(8.0 / (math.pi * (rho - 1.0)))
    return math.ceil(digits / math.log(rho))


def _panel_basis(M):
    """The second-kind Chebyshev points x_k = cos(pi k / M), k = 0..M, and
    the inverse of the matrix T_m(x_k), which by the discrete orthogonality
    of the cosines is 2/M T_m(x_k) with the end rows and columns halved.
    T_m(x_k) = cos(pi (mk mod 2M) / M) is read from one table of cosines, so
    no angle is rounded beyond 2 pi (a rounded pi mk / M leaves coefficients
    of 2e-15 where Q is flat)."""
    cosines = np.cos(np.pi * np.arange(2 * M) / M)
    k = np.arange(M + 1)
    inverse = (2.0 / M) * cosines[np.outer(k, k) % (2 * M)]
    inverse[:, [0, -1]] *= 0.5
    inverse[[0, -1]] *= 0.5
    return cosines[:M + 1], inverse


# the Bernstein ellipse whose semi-minor axis, _PANEL_SPLIT p, is v_min / 2
_PANEL_RHO = _PANEL_SPLIT + math.sqrt(_PANEL_SPLIT**2 + 1.0)
_PANEL_M = _panel_length()
_PANEL_X, _PANEL_COEF = _panel_basis(_PANEL_M)


class _Panels(typing.NamedTuple):
    """Q(E) of a rung on [lo, hi), cut into len(built) equal panels: coef[i]
    holds panel i's Chebyshev coefficients once built[i] is set."""

    lo: float
    hi: float
    coef: np.ndarray
    built: np.ndarray


class _HSRung(typing.NamedTuple):
    """A rung's kept nodes z and coefficients c, the near groups' slices of
    them, the far groups' _FarTable, and its _Panels (None without a kept
    node)."""

    rung: int
    z: np.ndarray
    c: np.ndarray
    near: list
    far: _FarTable
    panels: _Panels | None


def _rung_quadrature(entry, E):
    """Q(E) of a rung: near groups summed directly, far ones by moments."""
    q = _far_quadrature(entry.far, E)
    for part in entry.near:
        q += _resolvent_quadrature(entry.z[part], entry.c[part], E)
    return q


def _tabulated_quadrature(entry, E):
    """Q(E) of a rung from its panels on [lo, hi), each built from
    _rung_quadrature at its own M + 1 points the first time an energy falls
    in it; outside [lo, hi), and without panels, the direct sums."""
    panels = entry.panels
    if panels is None:
        return _rung_quadrature(entry, E)
    inside = (E >= panels.lo) & (E < panels.hi)
    q = np.empty(len(E))
    if not inside.all():
        q[~inside] = _rung_quadrature(entry, E[~inside])
    n_pan = len(panels.built)
    width = (panels.hi - panels.lo) / n_pan
    t = (E[inside] - panels.lo) / width
    index = np.minimum(t.astype(int), n_pan - 1)
    # one panel per evaluation, so a panel's bits do not depend on the call
    # that built it
    for i in np.unique(index[~panels.built[index]]):
        points = panels.lo + width * (i + 0.5 + 0.5 * _PANEL_X)
        panels.coef[i] = _PANEL_COEF @ _rung_quadrature(entry, points)
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
    near, far = _split_far(groups, c, keep, u_lo, u_hi)
    panels = None
    if len(z):
        # half-width at most v_min / (2 _PANEL_SPLIT)
        v_min = float(np.min(z.imag))
        n_pan = math.ceil(_PANEL_SPLIT * (u_hi - u_lo) / v_min)
        panels = _Panels(u_lo, u_hi, np.zeros((n_pan, _PANEL_M + 1)),
                         np.zeros(n_pan, dtype=bool))
    return _HSRung(rung, z, c, near, far, panels)


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
    it goes far, summed through its moments, when M is below its kept node
    count, and stays near, summed directly, otherwise.  On [u_lo, u_hi) Q is
    read from the rung's table instead: ceil(4 (u_hi - u_lo) / v_min) equal
    panels, each a Chebyshev interpolant of degree 18 at second-kind points
    (the module docstring derives both from rho = 4 + sqrt 17 and the
    rounding scale), built from the near and far sums the first time an
    eigenvalue falls in it.  The check at the spectrum runs on these
    tabulated values, and a rung that fails it is dropped with its panels.
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
