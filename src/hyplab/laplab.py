"""Limiting-absorption sweeps and the high-energy scaling study.

This module measures the weighted resolvent norms

    N_k(lam) = || W (H_k - lam - i0)^{-1} W ||

of the boundary values of the resolvent on the real axis, takes the sup over
cross-section modes, and fits the decay of N(lam) = sup_k N_k(lam) in the
energy lam against the model

    log N(lam) = p log lam + q log log lam + log C.

Each mode operator is closed at the end of the box by the discrete outgoing
wave at energy lam (see linops.discretize), so R(lam + i0) is a single solve
at real lam: no imaginary offset is taken to zero and no absorbing layer
stands in for the outgoing condition.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from hyplab.conjugate import ConjugateParams, a_k_eval
from hyplab.errors import ConfigError, NumericalFailure
from hyplab.linops import RadialGrid, ShiftedSolver, weighted_operator_norm
from hyplab.model import ModelConfig, mode_operator_spec
from hyplab.pool import parallel_map
from hyplab.weights import (
    mode_weight_vector,
    polynomial_weight_vector,
    profile_eval,
)


# ----------------------------------------------------------------------------
# Boundary value of the resolvent for a single operator
# ----------------------------------------------------------------------------


def limiting_absorption(op, lam, w_left, w_right, norm_tol=1e-6, start=None):
    """Weighted norm ||W_l (op - lam - i0)^{-1} W_r|| from one factorization.

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
    norm, vector, steps = weighted_operator_norm(op, lam, w_left, w_right,
                                                 tol=norm_tol, start=start)
    return norm, {"eps": [], "iterations": steps, "vector": vector}


# ----------------------------------------------------------------------------
# Sweep configuration and result
# ----------------------------------------------------------------------------


def sweep_grid(lam, r0=0.25, n_points=None, refine=1.0):
    """Grid for the sweep at energy lam: box 2R + 5 with resolution tied to
    the local wavelength (h <= 0.5 / sqrt(lam))."""
    r_max = 2.0 * math.log(5.0 * lam) + 5.0
    if n_points is None:
        h = min(0.05, 0.5 / math.sqrt(lam))
        n_points = int(math.ceil((r_max - r0) / h))
    n_points = int(round(n_points * refine))
    return RadialGrid(r0=r0, r_max=r_max, N=n_points)


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
    n_points: int | None = None
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

    def model(self):
        cs = self.cross_section or {"kind": "circle", "radius": 1.0}
        return ModelConfig(n=self.n, r0=self.r0, cross_section=cs)


@dataclasses.dataclass
class SweepResult:
    """Rows, per-mode norms, and per-lambda suprema."""

    config: SweepConfig
    rows: list
    mode_norms: dict
    N_of_lambda: dict
    diagnostics: dict

    def lambdas(self):
        return sorted(self.N_of_lambda)


def _weight_vector(kind, r, nu_k, s):
    if kind == "mode":
        return mode_weight_vector(r, nu_k, s)
    return polynomial_weight_vector(r, s)


def _cell(cfg, model, spectrum, lam, k, grid, r, start):
    """limiting_absorption for mode k at lam on the grid with points r."""
    from hyplab.linops import discretize

    spec_k = mode_operator_spec(model, k, spectrum=spectrum)
    op = discretize(spec_k, grid, outgoing=lam)
    w = _weight_vector(cfg.weight_kind, r, spectrum.nu(k), cfg.s)
    return limiting_absorption(op, lam, w, w, norm_tol=cfg.norm_tol,
                               start=start)


def mode_norm(cfg, lam, k, grid, start=None):
    """||W (H_k - lam - i0)^{-1} W|| for mode k of the sweep config on the
    given grid, its power iteration started from ``start`` (see
    weighted_operator_norm); returns (norm, diagnostics)."""
    model = cfg.model()
    spectrum = model.spectrum(cfg.K_max)
    return _cell(cfg, model, spectrum, lam, k, grid, grid.points(), start)


def _energy_task(args):
    """Norms of every mode at one energy, as one chain; top-level for
    pickling.

    Model, spectrum and grid are built once.  Mode k's power iteration
    starts from mode k-1's vector: the top singular vectors of neighbouring
    modes differ little.  Mode 0, and a mode after a NumericalFailure,
    start cold.  Returns [(lam, k, norm, Gram steps)], with (lam, k, None,
    message) for a failed cell.
    """
    (cfg, lam, refine) = args
    model = cfg.model()
    spectrum = model.spectrum(cfg.K_max)
    grid = sweep_grid(lam, r0=cfg.r0, n_points=cfg.n_points, refine=refine)
    r = grid.points()
    cells = []
    start = None
    for k in range(len(spectrum)):
        try:
            norm, diag = _cell(cfg, model, spectrum, lam, k, grid, r, start)
        except NumericalFailure as exc:
            cells.append((lam, k, None, str(exc)))
            start = None
            continue
        cells.append((lam, k, norm, diag["iterations"]))
        start = diag["vector"]
    return cells


def lambda_sweep(config, workers=1, refine=1.0):
    """Sup over cross-section modes of the boundary-value norm, per energy.
    The sup runs over distinct mode eigenvalues; multiplicity is metadata
    (block-diagonal norms do not see it).

    Each energy is one task (_energy_task): its modes run in order, each
    power iteration started from the previous mode's vector.  The tasks go
    through parallel_map largest grid, i.e. highest energy, first, and their
    cells are sorted back to (lambda, k) order.  A chain depends on the
    config alone, and the reductions are pure, so any worker count yields
    identical results.  Each row carries the cell's Gram steps as
    "iterations".
    """
    model = config.model()
    spectrum = model.spectrum(config.K_max)
    tasks = [(config, float(lam), refine)
             for lam in sorted(config.lambdas, reverse=True)]
    chains = parallel_map(_energy_task, tasks, workers)
    outcomes = sorted((cell for chain in chains for cell in chain),
                      key=lambda cell: cell[:2])

    rows = []
    mode_norms = {}
    failures = []
    for lam, k, norm, steps in outcomes:
        if norm is None:
            failures.append({"lambda": lam, "k": k, "error": steps})
            continue
        rows.append({"lambda": lam, "k": k, "mu": spectrum.mu(k),
                     "norm": norm, "iterations": steps})
        mode_norms[(lam, k)] = norm
    N_of_lambda = {}
    argmax_k = {}
    for (lam, k), norm in mode_norms.items():
        if norm > N_of_lambda.get(lam, -math.inf):
            N_of_lambda[lam] = norm
            argmax_k[lam] = k
    last = len(spectrum) - 1
    diagnostics = {
        "failures": failures,
        "argmax_k": argmax_k,
        "sup_at_K_max": any(k == last for k in argmax_k.values()),
        "refine": refine,
    }
    return SweepResult(config=config, rows=rows, mode_norms=mode_norms,
                       N_of_lambda=N_of_lambda, diagnostics=diagnostics)


# ----------------------------------------------------------------------------
# Scaling fit and bound satisfaction
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
    bound_pass: bool

    def to_dict(self):
        return dataclasses.asdict(self)


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
    non-trapping scale rho(lam) = lam^{-1/2}."""
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
    return ScalingFit(*fit, C_prime=C_prime, bound_pass=math.isfinite(C_prime))


# ----------------------------------------------------------------------------
# Auxiliary estimates
# ----------------------------------------------------------------------------


def conjugate_weight_sup(lam, K_max=48, n_r=4000, r_span=4.0):
    """Grid sup over modes and r >= R of 1 + a_k(r) / w(r - log nu_k),
    normalized by log lam.  The sup stays O(log lam) because a_k grows like
    r + 2S only past log nu_k, exactly where the weight has started to grow
    linearly as well."""
    params = ConjugateParams.from_lambda(lam)
    from hyplab.model import build_spectrum

    spectrum = build_spectrum({"kind": "circle", "radius": 1.0}, K_max)
    sup = 0.0
    for k in range(len(spectrum)):
        nu = spectrum.nu(k)
        r_hi = math.log(nu) + params.S * r_span + params.R
        r = np.linspace(params.R, max(r_hi, params.R + 1.0), n_r)
        a = a_k_eval(params, nu, r)
        w = profile_eval("w", r - math.log(nu))
        sup = max(sup, float(np.max(1.0 + a / w)))
    return sup, sup / math.log(lam)


def resolvent_expansion_check(op, z, Z, probe=None):
    """Relative residual of the iterated second-resolvent identity

    (H-z)^{-1} = (H-Z)^{-1} + (z-Z)(H-Z)^{-2}
                 + (z-Z)^2 (H-Z)^{-1}(H-z)^{-1}(H-Z)^{-1}

    on a probe vector."""
    if probe is None:
        n = op.n
        probe = np.cos(0.3 * np.arange(n)) + 0.2j * np.sin(np.arange(n) * 0.7)
    sz = ShiftedSolver(op, z)
    sZ = ShiftedSolver(op, Z)
    lhs = sz.solve(probe)
    rZ = sZ.solve(probe)
    rhs = rZ + (z - Z) * sZ.solve(rZ) + (z - Z) ** 2 * sZ.solve(sz.solve(rZ))
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
