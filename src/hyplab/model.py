"""Model manifold: cross-section spectra and per-mode radial operators.

The end of the model manifold is [r0, infinity) x Y with metric
dr^2 + e^{2r} h.  Separation of variables over an eigenbasis of the
cross-section Laplacian turns the (shifted) Laplacian into the family of
radial operators

    H_k = D_r^2 + mu_k e^{-2r} + (n-1)^2/4 + V_k(r),

indexed by the cross-section eigenvalues mu_k.  Only cross-sections with
exactly known spectra are supported (circle, flat torus, custom list), and
perturbations are restricted to mode-diagonal potentials V_k so the family
stays block-diagonal.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from hyplab.errors import ConfigError
from hyplab.weights import nu_from_mu


@dataclasses.dataclass(frozen=True)
class ModeSpectrum:
    """Distinct cross-section eigenvalues with multiplicities.

    entries[i] = (mu_k, multiplicity, nu_k) with nu_k = (1+mu_k)^{1/2}.
    """

    entries: tuple
    cross_section_tag: str

    def __post_init__(self):
        mus = [e[0] for e in self.entries]
        if any(m < 0 for m in mus):
            raise ConfigError("negative cross-section eigenvalue")
        if any(b <= a for a, b in zip(mus, mus[1:])):
            raise ConfigError("eigenvalues must be strictly ascending")
        if any(e[1] < 1 for e in self.entries):
            raise ConfigError("multiplicities must be >= 1")
        for mu, _, nu in self.entries:
            if abs(nu - math.sqrt(1.0 + mu)) > 1e-12 * (1.0 + nu):
                raise ConfigError("nu_k must equal (1+mu_k)^{1/2}")

    def __len__(self):
        return len(self.entries)

    def mu(self, k):
        return self.entries[k][0]

    def nu(self, k):
        return self.entries[k][2]

    def multiplicity(self, k):
        return self.entries[k][1]


def _circle_entries(radius, k_max):
    out = []
    for k in range(k_max + 1):
        mu = (k / radius) ** 2
        out.append((mu, 1 if k == 0 else 2))
    return out


def _torus_entries(radii, k_max):
    # Enumerate lattice eigenvalues sum (k_i / rho_i)^2 with a growing cutoff
    # until at least k_max+1 distinct values are certified complete.
    radii = [float(p) for p in radii]
    if not radii or any(p <= 0 for p in radii):
        raise ConfigError("torus radii must be positive")
    bound_idx = 1
    while True:
        counts: dict[float, int] = {}
        max_each = [int(math.ceil(bound_idx * p)) for p in radii]
        grids = np.meshgrid(
            *[np.arange(-m, m + 1) for m in max_each], indexing="ij"
        )
        mu = sum((g / p) ** 2 for g, p in zip(grids, radii)).ravel()
        # Values <= bound_idx^2 are complete at this cutoff.
        complete = np.sort(mu[mu <= bound_idx**2 + 1e-9])
        vals, mult = np.unique(np.round(complete, 12), return_counts=True)
        if len(vals) >= k_max + 1:
            return [(float(v), int(c)) for v, c in zip(vals, mult)][: k_max + 1]
        bound_idx *= 2


def build_spectrum(cross_section, K_max):
    """Distinct eigenvalues 0 = mu_0 < ... <= mu_{K_max} with multiplicities.

    ``cross_section`` is a mapping with a ``kind`` key:
    {"kind": "circle", "radius": rho}, {"kind": "torus", "radii": [...]},
    or {"kind": "custom", "mu": [...]} (multiplicity 1 each).
    """
    if K_max < 0:
        raise ConfigError("K_max must be nonnegative")
    kind = cross_section.get("kind")
    if kind == "circle":
        radius = float(cross_section.get("radius", 1.0))
        if radius <= 0:
            raise ConfigError("circle radius must be positive")
        raw = _circle_entries(radius, K_max)
        tag = f"circle(radius={radius})"
    elif kind == "torus":
        raw = _torus_entries(cross_section["radii"], K_max)
        tag = f"torus(radii={list(cross_section['radii'])})"
    elif kind == "custom":
        mus = [float(m) for m in cross_section.get("mu", [])]
        if not mus:
            raise ConfigError("custom spectrum list is empty")
        if any(m < 0 for m in mus):
            raise ConfigError("custom spectrum has negative entries")
        raw = [(m, 1) for m in sorted(mus)][: K_max + 1]
        tag = "custom"
    else:
        raise ConfigError(f"unknown cross-section kind {kind!r}")
    entries = tuple(
        (float(mu), int(mult), float(nu_from_mu(mu))) for mu, mult in raw
    )
    return ModeSpectrum(entries=entries, cross_section_tag=tag)


_PROFILE_KINDS = ("gaussian", "sech2", "power_decay")


@dataclasses.dataclass(frozen=True)
class DiagonalPotential:
    """Mode-diagonal perturbation V_k(r).

    The radial profile is one of a few named families; ``coupling`` is either
    "scalar" (V_k = V for every mode) or "mode_scaled"
    (V_k(r) = V(r) (1 + mu_k e^{-2r})).
    """

    profile: str
    amplitude: float
    center: float
    width: float
    coupling: str = "scalar"

    def __post_init__(self):
        if self.profile not in _PROFILE_KINDS:
            raise ConfigError(f"unknown potential profile {self.profile!r}")
        if self.width <= 0:
            raise ConfigError("potential width must be positive")
        if self.coupling not in ("scalar", "mode_scaled"):
            raise ConfigError(f"unknown coupling {self.coupling!r}")

    def radial(self, r):
        x = (np.asarray(r, dtype=float) - self.center) / self.width
        if self.profile == "gaussian":
            return self.amplitude * np.exp(-(x**2))
        if self.profile == "sech2":
            return self.amplitude / np.cosh(x) ** 2
        return self.amplitude / (1.0 + x**2)

    def values(self, r, mu_k):
        base = self.radial(r)
        if self.coupling == "scalar":
            return base
        return base * (1.0 + mu_k * np.exp(-2.0 * np.asarray(r, dtype=float)))


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Full model description: dimension, boundary, cross-section, potential."""

    n: int
    r0: float
    cross_section: dict
    potential: DiagonalPotential | None = None
    boundary_condition: str = "dirichlet"

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("dimension n must be >= 2")
        if self.r0 <= 0:
            raise ConfigError("r0 must be positive")
        if self.boundary_condition not in ("dirichlet", "neumann"):
            raise ConfigError(
                f"unknown boundary condition {self.boundary_condition!r}"
            )

    @property
    def shift(self):
        """The spectral shift (n-1)^2/4 of the normal form."""
        return (self.n - 1) ** 2 / 4.0

    def spectrum(self, K_max):
        return build_spectrum(self.cross_section, K_max)


@dataclasses.dataclass(frozen=True)
class RadialOperatorSpec:
    """Pure data describing one radial mode operator."""

    k: int
    mu_k: float
    shift: float
    r0: float
    boundary_condition: str
    perturbation: DiagonalPotential | None = None

    @property
    def nu_k(self):
        return float(nu_from_mu(self.mu_k))

    def potential(self, r):
        """Full diagonal potential mu_k e^{-2r} + shift + V_k(r)."""
        r = np.asarray(r, dtype=float)
        v = self.mu_k * np.exp(-2.0 * r) + self.shift
        if self.perturbation is not None:
            v = v + self.perturbation.values(r, self.mu_k)
        return v


def mode_operator_spec(config, k, spectrum=None):
    """RadialOperatorSpec for mode k of the given model."""
    if spectrum is None:
        spectrum = config.spectrum(k)
    if not (0 <= k < len(spectrum)):
        raise ConfigError(f"mode index {k} out of range")
    return RadialOperatorSpec(
        k=k,
        mu_k=spectrum.mu(k),
        shift=config.shift,
        r0=config.r0,
        boundary_condition=config.boundary_condition,
        perturbation=config.potential,
    )
