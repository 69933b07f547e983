"""Mode spectra and per-mode radial operator specifications."""

import numpy as np
import pytest

from hyplab.errors import ConfigError
from hyplab.model import ModelConfig, build_spectrum, mode_operator_spec


def test_circle_spectrum_fourier_modes():
    spec = build_spectrum({"kind": "circle", "radius": 1.0}, 3)
    assert [spec.mu(k) for k in range(4)] == [0.0, 1.0, 4.0, 9.0]
    assert [spec.multiplicity(k) for k in range(4)] == [1, 2, 2, 2]


def test_circle_radius_scales_eigenvalues():
    spec = build_spectrum({"kind": "circle", "radius": 2.0}, 2)
    assert spec.mu(1) == pytest.approx(0.25)
    assert spec.mu(2) == pytest.approx(1.0)


def test_custom_passthrough():
    spec = build_spectrum({"kind": "custom", "mu": [0.0, 2.5, 7.0]}, 2)
    assert [spec.mu(k) for k in range(3)] == [0.0, 2.5, 7.0]
    assert all(spec.multiplicity(k) == 1 for k in range(3))


def test_torus_multiplicities():
    # j^2 + m^2 over integer pairs: 0, 1(x4), 2(x4), 4(x4), 5(x8)
    spec = build_spectrum({"kind": "torus", "radii": [1.0, 1.0]}, 4)
    got = [(spec.mu(k), spec.multiplicity(k)) for k in range(5)]
    assert got == [(0.0, 1), (1.0, 4), (2.0, 4), (4.0, 4), (5.0, 8)]


def test_spectrum_sorted_and_nu_consistent():
    spec = build_spectrum({"kind": "torus", "radii": [1.0, 1.3]}, 12)
    mus = [spec.mu(k) for k in range(13)]
    assert all(a < b for a, b in zip(mus, mus[1:]))
    for k in range(13):
        assert spec.nu(k) == pytest.approx(np.sqrt(1.0 + spec.mu(k)), abs=0)


def test_custom_spectrum_errors():
    with pytest.raises(ConfigError):
        build_spectrum({"kind": "custom", "mu": []}, 0)
    with pytest.raises(ConfigError):
        build_spectrum({"kind": "custom", "mu": [-1.0]}, 0)


def test_mode_operator_potential_values():
    cfg = ModelConfig(n=2, r0=0.25,
                      cross_section={"kind": "circle", "radius": 1.0})
    spec0 = mode_operator_spec(cfg, 0)
    assert spec0.potential(np.array([1.0, 7.0])) == pytest.approx([0.25, 0.25])
    spec1 = mode_operator_spec(cfg, 1)
    assert spec1.potential(np.array([0.0]))[0] == pytest.approx(1.25)
    cfg3 = ModelConfig(n=3, r0=0.25,
                       cross_section={"kind": "circle", "radius": 1.0})
    spec2 = mode_operator_spec(cfg3, 2)
    assert spec2.potential(np.array([1.0]))[0] == pytest.approx(
        4.0 * np.exp(-2.0) + 1.0)


def test_mode_potential_monotone_decreasing():
    cfg = ModelConfig(n=2, r0=0.25,
                      cross_section={"kind": "circle", "radius": 1.0})
    spec = mode_operator_spec(cfg, 3)
    r = np.linspace(0.25, 30.0, 500)
    v = spec.potential(r)
    assert np.all(np.diff(v) <= 0.0)
    # strictly decreasing while the mode term is above rounding level
    assert np.all(np.diff(v[:250]) < 0.0)
    assert v[-1] == pytest.approx(0.25 + 9.0 * np.exp(-60.0), rel=1e-12)


def test_equal_mu_modes_produce_identical_specs():
    # multiplicity is metadata: the same mu yields the same radial operator
    # regardless of which cross-section produced it
    circle = ModelConfig(n=2, r0=0.25,
                         cross_section={"kind": "circle", "radius": 1.0})
    custom = ModelConfig(n=2, r0=0.25,
                         cross_section={"kind": "custom", "mu": [0.0, 1.0]})
    a = mode_operator_spec(circle, 1)
    b = mode_operator_spec(custom, 1)
    r = np.linspace(0.25, 10.0, 64)
    assert np.array_equal(a.potential(r), b.potential(r))
    assert a.mu_k == b.mu_k and a.shift == b.shift


def test_mode_index_out_of_range():
    cfg = ModelConfig(n=2, r0=0.25,
                      cross_section={"kind": "custom", "mu": [0.0, 1.0]})
    with pytest.raises(ConfigError):
        mode_operator_spec(cfg, 5)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(n=1, r0=0.25,
                    cross_section={"kind": "circle", "radius": 1.0})
    with pytest.raises(ConfigError):
        ModelConfig(n=2, r0=-1.0,
                    cross_section={"kind": "circle", "radius": 1.0})

