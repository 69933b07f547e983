"""Model manifold: cross-section spectra and per-mode radial operators.

The end of the model manifold is [r0, infinity) x Y with metric
dr^2 + e^{2r} h.  Separation of variables over an eigenbasis of the
cross-section Laplacian turns the (shifted) Laplacian into the family of
radial operators

    H_k = D_r^2 + mu_k e^{-2r} + (n-1)^2/4,

indexed by the cross-section eigenvalues mu_k, with a Dirichlet wall at r0.
Only cross-sections with exactly known spectra are supported (circle, flat
torus, custom list).

RadialOperatorSpec.potential is the one place the potential is written: it
returns V = mu_k e^{-2r} + (n-1)^2/4 and its r-derivatives, from which
linops assembles H_k and mourre the commutators with the generator A_k.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from hyplab.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class ModeSpectrum:
    """Distinct cross-section eigenvalues with multiplicities.

    entries[i] = (mu_k, multiplicity).
    """

    entries: tuple

    def __post_init__(self):
        mus = [e[0] for e in self.entries]
        if any(m < 0 for m in mus):
            raise ConfigError("negative cross-section eigenvalue")
        if any(b <= a for a, b in zip(mus, mus[1:])):
            raise ConfigError("eigenvalues must be strictly ascending")
        if any(e[1] < 1 for e in self.entries):
            raise ConfigError("multiplicities must be >= 1")

    def __len__(self):
        return len(self.entries)

    def mu(self, k):
        return self.entries[k][0]

    def nu(self, k):
        """The frequency scale nu_k = (1 + mu_k)^{1/2} of mode k."""
        return math.sqrt(1.0 + self.entries[k][0])

    def multiplicity(self, k):
        return self.entries[k][1]


def _circle_entries(radius, k_max):
    out = []
    for k in range(k_max + 1):
        mu = (k / radius) ** 2
        out.append((mu, 1 if k == 0 else 2))
    return out


def _numbers(cross_section, key):
    """cross_section[key] as floats; ConfigError unless a list of numbers."""
    values = cross_section.get(key)
    if not isinstance(values, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, (int, float))
            for v in values):
        raise ConfigError(f"cross-section {key} = {values!r} is not a list "
                          "of numbers")
    return [float(v) for v in values]


def _torus_entries(radii, k_max):
    # Enumerate lattice eigenvalues sum (k_i / rho_i)^2 with a growing cutoff
    # until at least k_max+1 distinct values are certified complete.
    if not radii or any(p <= 0 for p in radii):
        raise ConfigError("torus radii must be positive")
    bound_idx = 1
    while True:
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
    elif kind == "torus":
        raw = _torus_entries(_numbers(cross_section, "radii"), K_max)
    elif kind == "custom":
        mus = _numbers(cross_section, "mu")
        if not mus:
            raise ConfigError("custom spectrum list is empty")
        if any(m < 0 for m in mus):
            raise ConfigError("custom spectrum has negative entries")
        raw = [(m, 1) for m in sorted(mus)][: K_max + 1]
    else:
        raise ConfigError(f"unknown cross-section kind {kind!r}")
    return ModeSpectrum(entries=tuple((float(mu), int(mult))
                                      for mu, mult in raw))


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Full model description: dimension, Dirichlet wall r0, cross-section."""

    n: int
    r0: float
    cross_section: dict

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("dimension n must be >= 2")
        if self.r0 <= 0:
            raise ConfigError("r0 must be positive")

    @property
    def shift(self):
        """The spectral shift (n-1)^2/4 of the normal form."""
        return (self.n - 1) ** 2 / 4.0

    def spectrum(self, K_max):
        return build_spectrum(self.cross_section, K_max)


@dataclasses.dataclass(frozen=True)
class RadialOperatorSpec:
    """Pure data describing one radial mode operator."""

    mu_k: float
    shift: float
    r0: float

    def potential(self, r, j=0):
        """The j-th r-derivative of the potential V = mu_k e^{-2r} + shift:
        V itself for j = 0, (-2)^j mu_k e^{-2r} for j >= 1."""
        r = np.asarray(r, dtype=float)
        if j == 0:
            return self.mu_k * np.exp(-2.0 * r) + self.shift
        return (-2.0) ** j * self.mu_k * np.exp(-2.0 * r)


def mode_operator_spec(config, k, spectrum=None):
    """RadialOperatorSpec for mode k of the given model."""
    if spectrum is None:
        spectrum = config.spectrum(k)
    if not (0 <= k < len(spectrum)):
        raise ConfigError(f"mode index {k} out of range")
    return RadialOperatorSpec(
        mu_k=spectrum.mu(k),
        shift=config.shift,
        r0=config.r0,
    )
