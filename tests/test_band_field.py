"""Tests for the band-to-lattice transform shared by the noise slabs and the
exact-law samplers.

Oracles: the explicit band sum 2 Re sum_k c_k e^{-i w_k x} at the grid
points, and the full complex FFT of the zero-padded, sign-twisted band
amplitudes that assembled every lattice field before the inverse real FFT.
The samplers are compared with that assembly under the same seed, so both
sides consume the same keyed streams and only the transform differs.
"""

import numpy as np
import pytest
from sampled import gather

from fracspde import regularity
from fracspde.config import SimulationConfig, to_picard_config
from fracspde.noise import keyed_rng, spectral_increments
from fracspde.picard import _band_field, build_geometry, noise_slabs


def full_fft_band_field(geom, coeff):
    """2 Re FFT of the band amplitudes times e^{-i w_k x0} = (-1)^k, padded to n_fft."""
    signs = np.where(np.arange(geom.n_bands) % 2 == 0, 1.0, -1.0)
    full = np.zeros(coeff.shape[:-1] + (geom.n_fft,), dtype=complex)
    full[..., : geom.n_bands] = coeff * signs
    return 2.0 * np.fft.fft(full, axis=-1).real


def assert_within_field_scale(field, reference, rel=1e-13):
    assert field.shape == reference.shape
    scale = float(np.max(np.abs(reference)))
    assert scale > 0.0
    assert float(np.max(np.abs(field - reference))) <= rel * scale


def default_geometry(equation):
    return build_geometry(to_picard_config(SimulationConfig(equation=equation)))


def test_matches_explicit_band_sum():
    geom = regularity._sampler_geometry("wave", 0.3, 0.5, 1.0 / 8, 1.0, seed=0)
    rng = np.random.default_rng(5)
    coeff = rng.normal(size=(3, geom.n_bands)) + 1j * rng.normal(size=(3, geom.n_bands))
    om = geom.omega_r[: geom.n_bands]
    direct = 2.0 * np.real(coeff @ np.exp(-1j * np.outer(om, geom.x_grid)))
    assert_within_field_scale(_band_field(geom, coeff), direct)
    assert_within_field_scale(_band_field(geom, coeff[0]), direct[0])


@pytest.mark.parametrize("equation", ["wave", "heat"])
def test_noise_slabs_match_full_fft(equation):
    geom = default_geometry(equation)
    z = spectral_increments(geom.band_masses, geom.dt, geom.n_steps, keyed_rng(4, 2))
    assert_within_field_scale(noise_slabs(geom, 4, 2), full_fft_band_field(geom, z))


def test_noise_sampler_matches_full_fft(monkeypatch):
    args = dict(h=0.3, t=0.5, dx=1.0 / 64, half_width=1.0, n_realizations=9, seed=3)
    fields = gather(regularity.sample_noise_antiderivative, **args).values
    monkeypatch.setattr(regularity, "_band_field", full_fft_band_field)
    assert_within_field_scale(fields, gather(regularity.sample_noise_antiderivative, **args).values)


@pytest.mark.parametrize("equation", ["wave", "heat"])
def test_additive_sampler_matches_full_fft(monkeypatch, equation):
    args = dict(
        equation=equation, h=0.35, T=0.5, dx=1.0 / 64, half_width=1.0,
        times=np.array([0.1, 0.25, 0.5]), n_realizations=9, seed=2,
    )
    fields = gather(regularity.sample_additive_solution, **args).values
    monkeypatch.setattr(regularity, "_band_field", full_fft_band_field)
    assert_within_field_scale(fields, gather(regularity.sample_additive_solution, **args).values)
