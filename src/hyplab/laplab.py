"""Limiting-absorption sweeps and the high-energy scaling study.

This module measures the weighted resolvent norms

    N_k(lam) = || W (H_k - lam - i0)^{-1} W ||

of the boundary values of the resolvent on the real axis, takes the sup over
the whole family of cross-section modes, and fits the decay of
N(lam) = sup_k N_k(lam) in the energy lam against the model

    log N(lam) = p log lam + q log log lam + log C.

Each mode operator is closed at the end of the box by the discrete outgoing
wave at energy lam (see linops.discretize), so R(lam + i0) is a single solve
at real lam: no imaginary offset is taken to zero and no absorbing layer
stands in for the outgoing condition.

The sup is not taken cell by cell over k <= K_max.  The semiclassical
formula N_k^sc (semiclassical_norm) names the modes that need a cell: those
near its maximum and the glancing ones, where it is not trusted.  For the
mode-shifted weight the modes past K_max are covered by the limit cell, the
operator that mode k tends to as k -> infinity.  Every cell, the limit cell
included, is one entry (k, mu, nu, wall): the mode operator
D_r^2 + mu e^{-2r} + (n-1)^2/4 on (wall, r_max) with the weight of
frequency scale nu, measured by _cell.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from hyplab.errors import ConfigError, NumericalFailure
from hyplab.linops import resolved_grid, weighted_operator_norm
from hyplab.model import ModelConfig, RadialOperatorSpec
from hyplab.pool import parallel_map
from hyplab.weights import mode_weight_vector, polynomial_weight_vector


# ----------------------------------------------------------------------------
# Boundary value of the resolvent for a single operator
# ----------------------------------------------------------------------------


def limiting_absorption(op, lam, w, norm_tol=1e-6, start=None):
    """Weighted norm ||W (op - lam - i0)^{-1} W|| from one factorization,
    with the weight vector w on both sides.

    ``op`` must carry the outgoing closure at lam (linops.discretize with
    outgoing=lam); the boundary value R(lam + i0) is then the inverse of
    op - lam itself.  ``start`` is passed to weighted_operator_norm.
    Returns (norm, diagnostics); diagnostics["eps"] lists the imaginary
    offsets used, which is none, "iterations" the Gram steps of the power
    iteration and "vector" its last unit vector (None for a zero map).
    """
    if op.outgoing_energy != lam:
        raise ConfigError(
            "limiting absorption needs the outgoing closure at the energy"
        )
    norm, vector, steps = weighted_operator_norm(op, lam, w, w, tol=norm_tol,
                                                 start=start)
    return norm, {"eps": [], "iterations": steps, "vector": vector}


# ----------------------------------------------------------------------------
# Sweep configuration and result
# ----------------------------------------------------------------------------


def sweep_grid(lam, r0=0.25, refine=1.0):
    """Grid for the sweep at energy lam: the box 2R + 5 on linops'
    resolved_grid.  At the rule's step Numerov's pencil reads N within about
    1 % of its converged value, where the order-2 stencil read about 3 % high
    at half the step."""
    r_max = 2.0 * math.log(5.0 * lam) + 5.0
    return resolved_grid(lam, r_max, r0=r0, refine=refine)


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Parameters of the lambda sweep.

    weight_kind selects the mode-shifted weight w^{-s}(r - log nu_k)
    ("mode") or the polynomial weight <r>^{-s} ("polynomial").
    """

    lambdas: tuple
    s: float = 1.0
    s0: float = 1.0
    K_max: int = 24
    r0: float = 0.25
    weight_kind: str = "mode"
    norm_tol: float = 1e-6
    cross_section: dict | None = None
    n: int = 2

    def __post_init__(self):
        if self.s <= 0.5:
            raise ConfigError("weight exponent s must exceed 1/2")
        if self.weight_kind not in ("mode", "polynomial"):
            raise ConfigError(f"unknown weight kind {self.weight_kind!r}")
        if not self.lambdas:
            raise ConfigError("lambda list is empty")
        if any(l <= 1.0 for l in self.lambdas):
            raise ConfigError("sweep energies must exceed 1")
        if not 0.0 < self.norm_tol < 1.0:
            raise ConfigError(
                f"norm_tol {self.norm_tol} must lie in (0, 1)")

    def model(self):
        cs = self.cross_section or {"kind": "circle", "radius": 1.0}
        return ModelConfig(n=self.n, r0=self.r0, cross_section=cs)


@dataclasses.dataclass
class SweepResult:
    """Rows, one per measured cell, and per-lambda suprema."""

    config: SweepConfig
    rows: list
    N_of_lambda: dict
    diagnostics: dict

    def lambdas(self):
        return sorted(self.N_of_lambda)


# ----------------------------------------------------------------------------
# The semiclassical formula and the cells it names
# ----------------------------------------------------------------------------


# Gauss-Legendre rule of the formula's panels on [0, 1], and the panels per
# stretch of the weight between its kinks: the formula agrees with adaptive
# quadrature to 4e-10 relative for every mode from lam = 1e2 to 1e6
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS
_SC_PANELS = 4

# A mode is glancing, and its formula not trusted, where
# |r_t - r0| kappa^{2/3} < _GLANCING: there the cells of the default sweep
# read up to 17.5 % below the formula.
_GLANCING = 2.0

# Trusted modes whose formula lies within this share of the largest trusted
# one get a cell: at the default energies the ratio cell / formula of the
# trusted modes spreads by at most 0.83 % at one energy, for both weights.
_NEAR_MAX = 1e-2

# Largest |norm / N_sc - 1| of a trusted cell, the limit cell included, under
# hyplab sweep --check, the step tolerance of the sweep's cells: at the
# default energies every trusted mode k <= 24 reads 0.2 % to 1.45 % above its
# formula at refine 1, for both weights, and the named cells at most 1.12 %.
SC_TOL = 1.5e-2

# The k of the limit cell, the mode family's k -> infinity
LIMIT = "limit"


def turning_point(lam, mus, shift):
    """kappa = (lam - shift)^{1/2} and the turning point
    r_t = (1/2) log(mu_k / kappa^2) of each mode, where mu_k e^{-2r} + shift
    = lam (-inf for mu_k = 0).

    These are the closed forms of the exact end V = mu_k e^{-2r} + shift,
    not read from model.RadialOperatorSpec.potential: an end with another
    potential needs its own turning point and p_k in semiclassical_norm.
    """
    kappa = math.sqrt(lam - shift)
    with np.errstate(divide="ignore"):
        return kappa, 0.5 * np.log(np.asarray(mus, dtype=float) / kappa**2)


def semiclassical_norm(kappa, r_t, r0, r_max, s, log_nu):
    """The Liouville-Green norm of each mode (Olver, Asymptotics and
    Special Functions, ch. 6):

        N_k^sc = (2/pi) int_a^{r_max} W_k(r)^2 / p_k(r) dr,

    p_k = (kappa^2 - mu_k e^{-2r})^{1/2} over the allowed part of the box,
    a = max(r0, r_t), with kappa and the turning point r_t of turning_point.
    In the variable F = int W^2/p the weighted outgoing kernel is the free
    Dirichlet kernel, a Volterra operator of norm 2/pi times its length.
    W_k is the mode weight w^{-s}(r - log_nu[k]) or, for log_nu None, the
    polynomial weight <r>^{-s}.  The wall r0 is a number or one per mode.

    The substitution r = r_t + t^2 (r = r0 + t^2 for mu_k = 0) removes the
    1/p singularity; the t-range is cut at the mode weight's kinks
    r = log_nu[k] and log_nu[k] + 1, and each piece is summed on
    _SC_PANELS Gauss-Legendre panels.  All modes are one array operation.
    Returns an array with one norm per entry of r_t, 0 for a mode whose
    turning point lies past r_max.
    """
    out = np.zeros(len(r_t))
    live = r_t < r_max
    r_t = r_t[live]
    r0 = np.broadcast_to(r0, live.shape)[live]
    anchor = np.where(r_t > -np.inf, r_t, r0)
    a = np.maximum(r_t, r0)
    kinks = ([] if log_nu is None else
             [np.asarray(log_nu, dtype=float)[live] + c for c in (0.0, 1.0)])
    edges = np.stack([a, *(np.clip(b, a, r_max) for b in kinks),
                      np.full_like(a, r_max)], axis=1)
    t_edges = np.sqrt(edges - anchor[:, None])
    # (mode, piece, panel, node): each piece cut in _SC_PANELS equal panels
    width = (np.diff(t_edges) / _SC_PANELS)[:, :, None, None]
    lo = t_edges[:, :-1, None, None] + width * np.arange(_SC_PANELS)[:, None]
    t = (lo + width * _GL_NODES).reshape(len(a), -1)
    dt = np.broadcast_to(width * _GL_WEIGHTS, lo.shape[:3] + (_GL_NODES.size,)
                         ).reshape(len(a), -1)
    r = anchor[:, None] + t * t
    # p = kappa (1 - e^{-2 (r - r_t)})^{1/2}, which is kappa for mu = 0
    p = kappa * np.sqrt(-np.expm1(-2.0 * (r - r_t[:, None])))
    if log_nu is None:
        w = polynomial_weight_vector(r, s)
    else:
        w = mode_weight_vector(r - kinks[0][:, None], 1.0, s)
    out[live] = (2.0 / math.pi) * np.sum(w * w * 2.0 * t / p * dt, axis=1)
    return out


def _glancing(kappa, r_t, r0):
    """Whether each mode's turning point lies within 2 kappa^{-2/3} of its
    wall r0, where the formula is not trusted (a mode with mu = 0 has
    none)."""
    return np.abs(r_t - r0) * kappa ** (2.0 / 3.0) < _GLANCING


def _named_modes(n_sc, glancing):
    """The modes that get a cell: every glancing mode, and every trusted
    mode whose formula lies within _NEAR_MAX of the largest trusted one."""
    top = np.max(n_sc[~glancing], initial=0.0)
    return np.flatnonzero(
        glancing | (n_sc >= (1.0 - _NEAR_MAX) * top)).tolist()


def _limit_wall(lam):
    """The wall x0 = -(1/2) log lam - 6 of the limit cell, where its
    potential e^{-2 x0} is e^{12} lam."""
    return -0.5 * math.log(lam) - 6.0


def _has_limit(cfg):
    """Whether the sweep adds the limit cell: for the mode weight on a
    circle or a torus, whose spectra grow without bound.  The polynomial
    weight's limit tends to 0, and a custom list is finite."""
    return (cfg.weight_kind == "mode"
            and cfg.model().cross_section.get("kind") in ("circle", "torus"))


def _cell(cfg, lam, mu, nu, wall, r_max, refine, start):
    """limiting_absorption at lam for D_r^2 + mu e^{-2r} + (n-1)^2/4 on
    (wall, r_max), closed by the outgoing wave, on linops.resolved_grid at
    refine, with the weight of the config (the mode weight at frequency
    scale nu) and the power iteration started from ``start``."""
    from hyplab.linops import discretize

    grid = resolved_grid(lam, r_max, r0=wall, refine=refine)
    spec = RadialOperatorSpec(mu_k=mu, shift=cfg.model().shift, r0=wall)
    r = grid.points()
    if cfg.weight_kind == "mode":
        w = mode_weight_vector(r, nu, cfg.s)
    else:
        w = polynomial_weight_vector(r, cfg.s)
    return limiting_absorption(discretize(spec, grid, outgoing=lam), lam, w,
                               norm_tol=cfg.norm_tol, start=start)


def _measured(row, *args):
    """(row with the norm and Gram steps of _cell(*args), the cell's last
    vector), or, when it raises NumericalFailure, (row with norm None and
    the message under "error", None)."""
    try:
        norm, diag = _cell(*args)
    except NumericalFailure as exc:
        return {**row, "norm": None, "error": str(exc)}, None
    row = {**row, "norm": norm, "iterations": diag["iterations"]}
    return row, diag["vector"]


def _energy_task(args):
    """The cells of one energy; top-level for pickling.

    Each candidate cell is an entry (k, mu, nu, wall): mode k is
    (mu_k, nu_k, r0), and the limit cell, where the sweep has one
    (_has_limit), is (1, 1, x0): mode k in the variable x = r - log nu_k,
    which has the potential mu_k/nu_k^2 e^{-2x}, its wall at r0 - log nu_k
    and the weight w^{-s}(x), tends to it as mu_k -> infinity, up to the box
    end r_max - log nu_k < r_max.  The formula and the glancing test are
    evaluated for every entry at once.  Cells run at the modes the formula
    names (_named_modes), in increasing k, and then at the limit, each
    through _cell on the sweep's r_max.  A power iteration starts from the
    last vector on its wall: the first cell on a wall, and one after a
    NumericalFailure, start cold.  Returns one row dict per cell, with the
    formula's N_sc and the glancing flag, and mu = inf for the limit; a
    failed cell has norm None and its message under "error".
    """
    (cfg, lam, refine) = args
    model = cfg.model()
    spectrum = model.spectrum(cfg.K_max)
    modes = len(spectrum)
    entries = [(k, spectrum.mu(k), spectrum.nu(k), cfg.r0)
               for k in range(modes)]
    if _has_limit(cfg):
        entries.append((LIMIT, 1.0, 1.0, _limit_wall(lam)))
    mus = np.array([mu for _, mu, _, _ in entries])
    walls = np.array([wall for _, _, _, wall in entries])
    log_nu = None
    if cfg.weight_kind == "mode":
        # the shifts of the weights: 0 for the limit, whose weight is w(x)
        log_nu = 0.5 * np.log1p(mus)
        log_nu[modes:] = 0.0
    r_max = sweep_grid(lam).r_max
    kappa, r_t = turning_point(lam, mus, model.shift)
    n_sc = semiclassical_norm(kappa, r_t, walls, r_max, cfg.s, log_nu=log_nu)
    glancing = _glancing(kappa, r_t, walls)
    named = _named_modes(n_sc[:modes], glancing[:modes])
    cells = []
    starts = {}
    for i in named + list(range(modes, len(entries))):
        k, mu, nu, wall = entries[i]
        row, starts[wall] = _measured(
            {"lambda": lam, "k": k, "mu": math.inf if k == LIMIT else mu,
             "N_sc": float(n_sc[i]), "glancing": bool(glancing[i])},
            cfg, lam, mu, nu, wall, r_max, refine, starts.get(wall))
        cells.append(row)
    return cells


def lambda_sweep(config, workers=1, refine=1.0):
    """N(lam) = sup_k ||W (H_k - lam - i0)^{-1} W|| over the whole mode
    family, per energy, from the cells the semiclassical formula names.

    Each energy is one task (_energy_task).  It evaluates the formula
    N_k^sc for every mode k <= K_max and, for the mode weight on a circle
    or a torus, for the limit cell that stands for every mode past K_max.
    It runs cells at the glancing modes and at the trusted modes near the
    formula's maximum, chained by warm starts, and at the limit, all through
    one cell function (_cell).  N(lam) is the largest of these norms, and diagnostics["argmax_k"] names the mode or
    LIMIT that reaches it.  The sup runs over distinct mode eigenvalues;
    multiplicity is metadata (block-diagonal norms do not see it).  Without
    a limit cell, as for the polynomial weight, K_max bounds the sup, and
    diagnostics["sup_at_K_max"] tells whether it sits at the last mode.

    The tasks go through parallel_map largest grid, i.e. highest energy,
    first, and their rows come back in (lambda, k) order, the limit last.
    A task depends on the config alone, and the reductions are pure, so
    any worker count yields identical results.  Each row carries the
    cell's Gram steps as "iterations", its formula value "N_sc" and its
    "glancing" flag.
    """
    spectrum = config.model().spectrum(config.K_max)
    lams = sorted({float(lam) for lam in config.lambdas}, reverse=True)
    per_energy = parallel_map(_energy_task, [(config, lam, refine)
                                             for lam in lams], workers)
    rows = []
    failures = []
    N_of_lambda = {}
    argmax_k = {}
    for lam, cells in sorted(zip(lams, per_energy),
                             key=lambda pair: pair[0]):
        for cell in cells:
            if cell["norm"] is None:
                failures.append({"lambda": lam, "k": cell["k"],
                                 "error": cell["error"]})
                continue
            rows.append(cell)
            if cell["norm"] > N_of_lambda.get(lam, -math.inf):
                N_of_lambda[lam] = cell["norm"]
                argmax_k[lam] = cell["k"]
    last = len(spectrum) - 1
    diagnostics = {
        "failures": failures,
        "argmax_k": argmax_k,
        "sup_at_K_max": any(k == last for k in argmax_k.values()),
    }
    return SweepResult(config=config, rows=rows, N_of_lambda=N_of_lambda,
                       diagnostics=diagnostics)


# ----------------------------------------------------------------------------
# Scaling fit and the bound's constant
# ----------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ScalingFit:
    p: float
    q: float
    C: float
    residual: float
    p_err: float
    q_err: float
    cond: float
    C_prime: float


def log_fit(lams, norms):
    """Least squares of log N(lam) against p log lam + q log log lam + log C.

    Returns (p, q, C, rms residual, p_err, q_err, cond): the standard errors
    of p and q come from s^2 (X^T X)^{-1}, s^2 = RSS/(n - 3) (NaN for
    n <= 3), and cond is the 2-norm condition number of the design
    X = [log lam, log log lam, 1].
    """
    ll = np.log(np.asarray(lams, dtype=float))
    design = np.column_stack([ll, np.log(ll), np.ones_like(ll)])
    y = np.log(np.asarray(norms, dtype=float))
    coef, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    p, q, logC = (float(c) for c in coef)
    rss = float(np.sum((design @ coef - y) ** 2))
    dof = len(ll) - 3
    cov = np.linalg.pinv(design.T @ design) * (rss / dof if dof else math.nan)
    return (p, q, math.exp(logC), math.sqrt(rss / len(ll)),
            math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1]), float(sv[0] / sv[-1]))


def fit_scaling(result):
    """log_fit of the sweep's N(lam), plus the smallest constant C' with
    N(lam) <= C' (log lam)^{2 s0 + 2 s} rho(lam) across the sweep, at the
    non-trapping scale rho(lam) = lam^{-1/2}.  C' is a number to report, not
    a check: it exists for every positive finite N."""
    lams = result.lambdas()
    if len(lams) < 4:
        raise ConfigError("scaling fit needs at least 4 energies")
    if max(lams) / min(lams) < 100.0:
        raise ConfigError("scaling fit needs >= 2 decades of energy")
    N = np.array([result.N_of_lambda[l] for l in lams])
    if np.any(N <= 0):
        raise NumericalFailure("nonpositive sweep norm; cannot fit logs")
    fit = log_fit(lams, N)
    cfg = result.config
    envelope = np.array([
        (math.log(l)) ** (2.0 * cfg.s0 + 2.0 * cfg.s) * l ** -0.5
        for l in lams
    ])
    C_prime = float(np.max(N / envelope))
    return ScalingFit(*fit, C_prime=C_prime)
