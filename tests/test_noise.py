"""Tests for spectral noise synthesis on the solver's lattice bands and on
the binned grid model.

Oracles: closed-form antiderivatives of the spectral density for band masses,
brute-force quadrature plus asymptotic tails for the truncation integral,
explicit complex band sums for the lattice field and its covariance, and
fixed-seed Monte Carlo (deterministic given the counter-based RNG) for the
distributional checks.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspde.constants import c_H
from fracspde.noise import (
    FORMAT_MAGIC,
    SpectralNoise,
    band_centroid,
    band_mass,
    build_grid,
    default_xi_max,
    discretized_covariance,
    field_value,
    grid_from_edges,
    indicator_transfer,
    load_noise,
    sample_noise,
    save_noise,
    spectral_increments,
    truncation_tail,
    variance_bias_report,
)
from fracspde.picard import AffineSigma, PicardConfig, build_geometry, constant_initial
from fracspde.quadrature import gauss_panels, graded_oscillation_edges, oscillatory_power_tail


def lattice(equation="wave", h=0.3, T=0.25, dx=1.0 / 64, L=1.0):
    return build_geometry(
        PicardConfig(
            equation=equation, h=h, T=T, n_steps=8, dx=dx, L=L,
            sigma=AffineSigma(0.0, 1.0), init=constant_initial(0.0), seed=0,
        )
    )


def transfer(geom, xs):
    """F1_(0,x](omega_k) = (1 - e^(-i omega_k x)) / (i omega_k) per (x, band),
    and x for band 0, as explicit complex arithmetic."""
    xs = np.asarray(xs, dtype=float)[:, None]
    omega = geom.omega_r[: geom.n_bands]
    out = np.empty((xs.shape[0], geom.n_bands), dtype=complex)
    out[:, 1:] = (1.0 - np.exp(-1j * omega[1:] * xs)) / (1j * omega[1:])
    out[:, 0] = xs[:, 0]
    return out


def lattice_covariance(geom, x, y):
    """E[X(1, x) X(1, y)] = sum_k 2 m_k Re F_k(x) conj(F_k(y)) for the field
    2 Re sum_k Z_k F_k(x) with E|Z_k|^2 = m_k."""
    fx = transfer(geom, [x])[0]
    fy = transfer(geom, [y])[0]
    return float(np.sum(2.0 * geom.band_masses * (fx * np.conj(fy)).real))


class TestBandMass:
    def test_unit_band(self):
        # mu([0,1]) = c_H / (2 - 2h)
        assert band_mass(0.3, 0.0, 1.0) == pytest.approx(c_H(0.3) / 1.4, rel=1e-14)

    def test_additivity(self):
        whole = band_mass(0.35, 0.5, 4.0)
        split = band_mass(0.35, 0.5, 2.0) + band_mass(0.35, 2.0, 4.0)
        assert whole == pytest.approx(split, rel=1e-13)

    def test_quadrature_oracle(self):
        # direct panel quadrature of c_H xi^(1-2h) over the band
        lo, hi, h = 0.7, 13.0, 0.28
        edges = np.linspace(lo, hi, 201)
        oracle = gauss_panels(lambda xi: c_H(h) * xi ** (1.0 - 2.0 * h), edges)
        assert band_mass(h, lo, hi) == pytest.approx(oracle, rel=1e-12)

    def test_centroid_inside_band(self):
        c = band_centroid(0.3, 0.0, 1.0)
        # int xi dmu / mass over [0,1]: (c_H/2.4) / (c_H/1.4) = 7/12
        assert c == pytest.approx(7.0 / 12.0, rel=1e-14)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            band_mass(0.3, -1.0, 1.0)
        with pytest.raises(ValueError):
            band_mass(0.3, 2.0, 1.0)


class TestBandLaw:
    def test_band_edges(self):
        # band k covers [max(k - 1/2, 0), k + 1/2) d_omega
        g = lattice(h=0.4)
        for k in (0, 1, 7, g.n_bands - 1):
            lo = max(k - 0.5, 0.0) * g.d_omega
            hi = (k + 0.5) * g.d_omega
            assert g.band_masses[k] == pytest.approx(band_mass(0.4, lo, hi), rel=1e-13)

    def test_bands_evaluated_at_the_lattice_frequencies(self):
        g = lattice()
        k = np.arange(g.n_bands)
        np.testing.assert_allclose(g.omega_r[: g.n_bands], k * g.d_omega, rtol=1e-14)

    @given(
        h=st.floats(0.26, 0.49),
        log2_dx=st.integers(-9, -4),
        L=st.floats(0.25, 2.0),
        equation=st.sampled_from(["wave", "heat"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_masses_telescope_to_the_cutoff(self, h, log2_dx, L, equation):
        g = lattice(equation=equation, h=h, dx=2.0**log2_dx, L=L)
        closed = c_H(h) * g.xi_cut ** (2.0 - 2.0 * h) / (2.0 - 2.0 * h)
        assert g.band_masses.sum() == pytest.approx(closed, rel=1e-10)
        assert np.all(g.band_masses > 0.0)
        assert g.xi_cut * g.dx <= math.pi * (1.0 + 1e-12)


class TestBuildGrid:
    def test_two_bin_example(self):
        g = build_grid(0.3, 1.0, 2)
        expected = c_H(0.3) / 1.4
        assert g.n_bins == 2
        np.testing.assert_allclose(g.masses, [expected, expected], rtol=1e-14)
        np.testing.assert_allclose(g.edges, [-1.0, 0.0, 1.0], atol=0.0)
        np.testing.assert_allclose(g.centroids, [-7.0 / 12.0, 7.0 / 12.0], rtol=1e-14)

    def test_mass_sum_closed_form(self):
        for h in (0.26, 0.3, 0.35, 0.4, 0.45):
            g = build_grid(h, default_xi_max(h), 4096)
            closed = 2.0 * c_H(h) * g.xi_max ** (2.0 - 2.0 * h) / (2.0 - 2.0 * h)
            assert abs(g.total_mass() - closed) <= 1e-10 * closed

    def test_mass_sum_spec_grid(self):
        g = build_grid(0.3, 100.0, 2048)
        closed = 2.0 * c_H(0.3) * 100.0**1.4 / 1.4
        assert g.total_mass() == pytest.approx(closed, rel=1e-12)

    def test_total_mass_doubles_under_cutoff_scaling(self):
        h = 0.3
        g1 = build_grid(h, 50.0, 256)
        g2 = build_grid(h, 50.0 * 2.0 ** (1.0 / (2.0 - 2.0 * h)), 256)
        assert g2.total_mass() == pytest.approx(2.0 * g1.total_mass(), rel=1e-12)

    def test_mirror_symmetry(self):
        g = build_grid(0.4, 30.0, 64)
        for k in range(g.n_bins):
            m = g.mirror(k)
            assert g.masses[k] == g.masses[m]
            assert g.centroids[k] == -g.centroids[m]
        assert 0.0 in g.edges
        assert np.all(np.diff(g.edges) > 0)

    def test_centroids_nonzero(self):
        g = build_grid(0.3, 10.0, 128)
        assert np.all(g.centroids != 0.0)

    def test_positive_slice(self):
        g = build_grid(0.3, 10.0, 8)
        assert np.all(g.centroids[g.positive] > 0)
        assert np.sum(g.masses[g.positive]) == pytest.approx(g.total_mass() / 2.0, rel=1e-14)

    def test_arrays_immutable(self):
        g = build_grid(0.3, 10.0, 8)
        with pytest.raises(ValueError):
            g.masses[0] = 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            build_grid(0.3, 0.0, 4)
        with pytest.raises(ValueError):
            build_grid(0.3, -1.0, 4)
        with pytest.raises(ValueError):
            build_grid(0.3, 1.0, 3)
        with pytest.raises(ValueError):
            build_grid(0.3, 1.0, 0)
        with pytest.raises(ValueError):
            build_grid(0.6, 1.0, 4)

    @given(
        h=st.floats(0.26, 0.49),
        xi_max=st.floats(0.5, 5000.0),
        half_bins=st.integers(1, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_mass_sum_property(self, h, xi_max, half_bins):
        g = build_grid(h, xi_max, 2 * half_bins)
        closed = 2.0 * c_H(h) * xi_max ** (2.0 - 2.0 * h) / (2.0 - 2.0 * h)
        assert g.total_mass() == pytest.approx(closed, rel=1e-10)
        # centroids sit strictly inside their bins
        assert np.all(g.centroids > g.edges[:-1])
        assert np.all(g.centroids < g.edges[1:])


class TestDefaultXiMax:
    def test_tail_fraction_below_one_percent(self):
        # the defining requirement: truncated variance share of Var X(t,1)
        for h in (0.26, 0.3, 0.4, 0.45):
            tail = truncation_tail(h, 1.0, default_xi_max(h))
            assert tail < 0.01

    def test_decreases_with_h(self):
        # heavier spectral tails (smaller h) need larger cutoffs
        vals = [default_xi_max(h) for h in (0.26, 0.3, 0.35, 0.4, 0.45)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rel_tail_domain(self):
        with pytest.raises(ValueError):
            default_xi_max(0.3, rel_tail=0.0)
        with pytest.raises(ValueError):
            default_xi_max(0.3, rel_tail=1.5)


class TestTruncationTail:
    def test_against_panel_quadrature(self):
        # body by graded oscillation panels on [X, 40X], remainder by the
        # two-term asymptotic tail of the cosine piece plus the exact power
        h, x, cutoff = 0.3, 1.0, 50.0
        hi = 40.0 * cutoff
        edges = graded_oscillation_edges(cutoff, hi, 2.0 * math.pi / x)
        body = gauss_panels(
            lambda xi: (1.0 - np.cos(x * xi)) * xi ** (-1.0 - 2.0 * h), edges, order=8
        )
        rest = hi ** (-2.0 * h) / (2.0 * h) - oscillatory_power_tail("cos", x, -1.0 - 2.0 * h, hi)
        oracle = 4.0 * c_H(h) * (body + rest)
        assert truncation_tail(h, x, cutoff) == pytest.approx(oracle, rel=1e-8)

    def test_zero_width_indicator(self):
        assert truncation_tail(0.3, 0.0, 100.0) == 0.0

    def test_decreasing_in_cutoff(self):
        vals = [truncation_tail(0.35, 1.0, xm) for xm in (10.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_even_in_x(self):
        assert truncation_tail(0.3, -1.5, 80.0) == pytest.approx(
            truncation_tail(0.3, 1.5, 80.0), rel=1e-13
        )


class TestSpectralIncrements:
    def test_shape_and_scale(self):
        masses = np.array([1.0, 4.0, 0.25])
        z = spectral_increments(masses, dt=2.0, n_steps=50_000, seed=11)
        assert z.shape == (50_000, 3)
        m2 = np.mean(np.abs(z) ** 2, axis=0)
        se = np.std(np.abs(z) ** 2, axis=0, ddof=1) / math.sqrt(z.shape[0])
        assert np.all(np.abs(m2 - 2.0 * masses) <= 3.0 * se)

    def test_determinism(self):
        a = spectral_increments(np.ones(4), 1.0, 3, seed=9)
        b = spectral_increments(np.ones(4), 1.0, 3, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, spectral_increments(np.ones(4), 1.0, 3, seed=10))

    def test_realization_splits_stream(self):
        a = spectral_increments(np.ones(4), 1.0, 3, seed=9, realization=0)
        b = spectral_increments(np.ones(4), 1.0, 3, seed=9, realization=1)
        assert not np.array_equal(a, b)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spectral_increments(np.ones(2), 0.0, 3, seed=1)
        with pytest.raises(ValueError):
            spectral_increments(np.ones(2), 1.0, 0, seed=1)

    def test_per_band_variance(self):
        # mean |increment|^2 over 1e5 iid draws vs dt * mass on lattice
        # bands, within 3 SE; the fixed seed makes the outcome deterministic
        masses = lattice().band_masses[:16]
        z = spectral_increments(masses, dt=0.7, n_steps=100_000, seed=7)
        m2 = np.mean(np.abs(z) ** 2, axis=0)
        se = np.std(np.abs(z) ** 2, axis=0, ddof=1) / math.sqrt(z.shape[0])
        assert np.all(np.abs(m2 - 0.7 * masses) <= 3.0 * se)

    def test_independence_across_steps(self):
        z = spectral_increments(lattice().band_masses[:8], 1.0, 100_000, seed=13)
        prod = z.real[:-1] * z.real[1:]
        zs = np.abs(prod.mean(axis=0)) / (prod.std(axis=0, ddof=1) / math.sqrt(prod.shape[0]))
        assert np.max(zs) < 3.0

    def test_independence_across_bands(self):
        z = spectral_increments(lattice().band_masses[:8], 1.0, 100_000, seed=29)
        for a, b in ((0, 1), (2, 5), (3, 7)):
            prod = z[:, a].real * z[:, b].real
            zs = abs(prod.mean()) / (prod.std(ddof=1) / math.sqrt(prod.size))
            assert zs < 3.0

    def test_real_imag_parts_balanced(self):
        masses = lattice(h=0.4).band_masses[:8]
        z = spectral_increments(masses, dt=2.0, n_steps=100_000, seed=3)
        np.testing.assert_allclose(z.real.var(axis=0, ddof=1), 0.5 * 2.0 * masses, rtol=0.05)
        np.testing.assert_allclose(z.imag.var(axis=0, ddof=1), 0.5 * 2.0 * masses, rtol=0.05)


class TestSampleNoise:
    def test_hermitian_symmetry(self):
        g = build_grid(0.3, 20.0, 32)
        noise = sample_noise(g, dt=0.5, n_steps=6, seed=4)
        assert np.array_equal(noise.increments, np.conj(noise.increments[:, ::-1]))

    def test_determinism_bitwise(self):
        g = build_grid(0.35, 15.0, 16)
        a = sample_noise(g, 0.25, 5, seed=2024)
        b = sample_noise(g, 0.25, 5, seed=2024)
        assert np.array_equal(a.increments, b.increments)
        c = sample_noise(g, 0.25, 5, seed=2025)
        assert not np.array_equal(a.increments, c.increments)

    def test_per_bin_variance(self):
        # spec check: mean |increment|^2 over 1e5 iid draws vs dt * mass,
        # within 3 SE; fixed seed makes the outcome deterministic
        g = build_grid(0.3, 50.0, 16)
        noise = sample_noise(g, dt=0.7, n_steps=100_000, seed=7)
        m2 = np.mean(np.abs(noise.increments) ** 2, axis=0)
        target = 0.7 * g.masses
        se = np.std(np.abs(noise.increments) ** 2, axis=0, ddof=1) / math.sqrt(noise.n_steps)
        assert np.all(np.abs(m2 - target) <= 3.0 * se)

    def test_independence_across_steps(self):
        g = build_grid(0.3, 50.0, 16)
        noise = sample_noise(g, dt=1.0, n_steps=100_000, seed=13)
        pos = noise.increments[:, g.positive].real
        prod = pos[:-1] * pos[1:]
        z = np.abs(prod.mean(axis=0)) / (prod.std(axis=0, ddof=1) / math.sqrt(prod.shape[0]))
        assert np.max(z) < 3.0

    def test_independence_across_bins(self):
        g = build_grid(0.3, 50.0, 16)
        noise = sample_noise(g, dt=1.0, n_steps=100_000, seed=29)
        pos = noise.increments[:, g.positive]
        for a, b in ((0, 1), (2, 5), (3, 7)):
            prod = pos[:, a].real * pos[:, b].real
            z = abs(prod.mean()) / (prod.std(ddof=1) / math.sqrt(prod.size))
            assert z < 3.0

    def test_real_imag_parts_balanced(self):
        g = build_grid(0.4, 40.0, 8)
        noise = sample_noise(g, dt=2.0, n_steps=100_000, seed=3)
        re_var = noise.increments.real.var(axis=0, ddof=1)
        im_var = noise.increments.imag.var(axis=0, ddof=1)
        np.testing.assert_allclose(re_var, 0.5 * 2.0 * g.masses, rtol=0.05)
        np.testing.assert_allclose(im_var, 0.5 * 2.0 * g.masses, rtol=0.05)

    def test_increments_immutable(self):
        g = build_grid(0.3, 10.0, 4)
        noise = sample_noise(g, 1.0, 2, seed=1)
        with pytest.raises(ValueError):
            noise.increments[0, 0] = 0.0


class TestFieldValue:
    def test_x_zero_is_zero(self):
        g = build_grid(0.3, 30.0, 64)
        noise = sample_noise(g, 0.5, 4, seed=8)
        for t in (0.0, 0.5, 1.0, 2.0):
            assert field_value(noise, t, 0.0) == 0.0

    def test_t_zero_is_zero(self):
        g = build_grid(0.3, 30.0, 64)
        noise = sample_noise(g, 0.5, 4, seed=8)
        assert field_value(noise, 0.0, 1.7) == 0.0

    def test_explicit_complex_oracle(self):
        # hand-rolled double loop over steps and bins
        g = build_grid(0.3, 5.0, 4)
        noise = sample_noise(g, 1.0, 2, seed=21)
        x = 0.8
        acc = 0.0 + 0.0j
        for j in range(2):
            for k in range(4):
                xi = g.centroids[k]
                phi = (1.0 - complex(math.cos(xi * x), -math.sin(xi * x))) / (1j * xi)
                acc += phi * noise.increments[j, k]
        assert abs(acc.imag) < 1e-12 * max(abs(acc.real), 1e-30)
        assert field_value(noise, 2.0, x) == pytest.approx(acc.real, rel=1e-12)

    def test_step_lattice_flooring(self):
        g = build_grid(0.3, 20.0, 16)
        noise = sample_noise(g, 0.5, 4, seed=5)
        # mid-step times see only the completed steps
        assert field_value(noise, 0.74, 1.0) == field_value(noise, 0.5, 1.0)
        assert field_value(noise, 0.49, 1.0) == 0.0

    def test_uses_only_elapsed_steps(self):
        g = build_grid(0.3, 20.0, 16)
        base = sample_noise(g, 1.0, 2, seed=77)
        other = sample_noise(g, 1.0, 2, seed=78)
        hybrid = SpectralNoise(
            g, 1.0, 2, np.vstack([base.increments[:1], other.increments[1:]]), seed=0
        )
        assert field_value(hybrid, 1.0, 1.3) == field_value(base, 1.0, 1.3)
        assert field_value(hybrid, 2.0, 1.3) != field_value(base, 2.0, 1.3)

    def test_additive_over_steps(self):
        g = build_grid(0.35, 25.0, 32)
        noise = sample_noise(g, 0.5, 4, seed=31)
        parts = []
        for j in range(4):
            single = SpectralNoise(g, 0.5, 1, noise.increments[j : j + 1], seed=0)
            parts.append(field_value(single, 0.5, 2.2))
        assert field_value(noise, 2.0, 2.2) == pytest.approx(sum(parts), rel=1e-12)

    def test_array_matches_scalar(self):
        g = build_grid(0.3, 30.0, 64)
        noise = sample_noise(g, 0.5, 3, seed=12)
        xs = np.array([-1.0, 0.4, 2.5])
        arr = field_value(noise, 1.5, xs)
        for x, v in zip(xs, arr):
            assert field_value(noise, 1.5, float(x)) == pytest.approx(v, rel=1e-14)

    def test_horizon_error(self):
        g = build_grid(0.3, 10.0, 8)
        noise = sample_noise(g, 0.5, 4, seed=1)
        with pytest.raises(ValueError):
            field_value(noise, 2.5, 1.0)
        with pytest.raises(ValueError):
            field_value(noise, -0.1, 1.0)


class TestFieldLaw:
    """Distributional checks with fixed seeds (hence deterministic)."""

    H = 0.3
    XI_MAX = 200.0
    N_BINS = 1024

    @classmethod
    def _ensemble(cls, n_real, seed, xs, n_steps=2):
        g = build_grid(cls.H, cls.XI_MAX, cls.N_BINS)
        phi = indicator_transfer(g.centroids, np.asarray(xs, dtype=float)[:, None])
        out = np.empty((n_real, n_steps, len(xs)))
        for r in range(n_real):
            noise = sample_noise(g, 1.0, n_steps, seed=seed, realization=r)
            fields = (noise.increments @ phi.T).real
            out[r] = np.cumsum(fields, axis=0)
        return g, out

    def test_covariance_matches_discretized_target(self):
        # MC mean converges to the discretized covariance exactly; fBm gap
        # is the separately-reported deterministic bias
        xs = [0.5, 1.0, 2.0]
        g, ens = self._ensemble(3000, 424242, xs)
        f1 = ens[:, 0, :]
        prods = f1[:, :, None] * f1[:, None, :]
        emp = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / math.sqrt(ens.shape[0])
        target = discretized_covariance(g, np.asarray(xs)[:, None], np.asarray(xs)[None, :])
        assert np.all(np.abs(emp - target) <= 3.0 * se)

    def test_variance_linear_in_t(self):
        xs = [1.0]
        g, ens = self._ensemble(3000, 99, xs, n_steps=2)
        v1 = ens[:, 0, 0] ** 2
        v2 = ens[:, 1, 0] ** 2
        # E X(2,1)^2 = 2 E X(1,1)^2; compare the difference of estimators
        diff = v2 - 2.0 * v1
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) <= 3.0 * se

    def test_cross_time_covariance(self):
        # E[X(1,x) X(2,y)] = 1 * R_disc(x,y): later steps are independent
        xs = [0.5, 1.5]
        g, ens = self._ensemble(3000, 55, xs, n_steps=2)
        prods = ens[:, 0, 0] * ens[:, 1, 1]
        se = prods.std(ddof=1) / math.sqrt(prods.size)
        target = discretized_covariance(g, xs[0], xs[1])
        assert abs(prods.mean() - target) <= 3.0 * se

    def test_spatial_increment_stationarity_exact(self):
        # phi_{x+d} - phi_x = e^{-i xi x} phi_d makes the discretized
        # increment variance exactly independent of x
        g = build_grid(0.3, 500.0, 2048)
        d = 0.3
        for x in (-2.0, 0.0, 1.0, 10.0):
            var_inc = (
                discretized_covariance(g, x + d, x + d)
                - 2.0 * discretized_covariance(g, x + d, x)
                + discretized_covariance(g, x, x)
            )
            base = discretized_covariance(g, d, d)
            assert var_inc == pytest.approx(base, rel=1e-10)

    def test_spatial_increment_stationarity_mc(self):
        xs = [0.7, 1.0, 3.7, 4.0]
        g, ens = self._ensemble(2000, 1001, xs, n_steps=1)
        inc_a = ens[:, 0, 1] - ens[:, 0, 0]
        inc_b = ens[:, 0, 3] - ens[:, 0, 2]
        diff = inc_a**2 - inc_b**2
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) <= 3.0 * se


class TestLatticeFieldLaw:
    """Distributional checks of the lattice field X(t, x) = 2 Re sum over
    steps and bands of Z F_k(x), with fixed seeds (hence deterministic)."""

    @staticmethod
    def _ensemble(n_real, seed, xs, n_steps=2):
        g = lattice()
        phi = transfer(g, xs)
        out = np.empty((n_real, n_steps, len(xs)))
        for r in range(n_real):
            z = spectral_increments(g.band_masses, 1.0, n_steps, seed, realization=r)
            out[r] = np.cumsum(2.0 * (z @ phi.T).real, axis=0)
        return g, out

    def test_covariance_matches_lattice_target(self):
        # the MC mean converges to the lattice covariance exactly; its gap to
        # the fBm covariance is the deterministic bias of variance_bias_report
        xs = [0.5, 1.0, 2.0]
        g, ens = self._ensemble(3000, 424242, xs)
        f1 = ens[:, 0, :]
        prods = f1[:, :, None] * f1[:, None, :]
        emp = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / math.sqrt(ens.shape[0])
        target = np.array([[lattice_covariance(g, x, y) for y in xs] for x in xs])
        assert np.all(np.abs(emp - target) <= 3.0 * se)

    def test_variance_linear_in_t(self):
        _, ens = self._ensemble(3000, 99, [1.0], n_steps=2)
        # E X(2,1)^2 = 2 E X(1,1)^2; compare the difference of estimators
        diff = ens[:, 1, 0] ** 2 - 2.0 * ens[:, 0, 0] ** 2
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) <= 3.0 * se

    def test_cross_time_covariance(self):
        # E[X(1,x) X(2,y)] = 1 * R(x,y): later steps are independent
        xs = [0.5, 1.5]
        g, ens = self._ensemble(3000, 55, xs, n_steps=2)
        prods = ens[:, 0, 0] * ens[:, 1, 1]
        se = prods.std(ddof=1) / math.sqrt(prods.size)
        assert abs(prods.mean() - lattice_covariance(g, xs[0], xs[1])) <= 3.0 * se

    def test_spatial_increment_stationarity_exact(self):
        # F_k(x + d) - F_k(x) = e^(-i omega_k x) F_k(d) for every band k > 0,
        # but band 0 is the ramp x, whose increment is d at every x too, so the
        # lattice increment variance is exactly independent of x
        g = lattice(L=2.0)
        d = 0.3
        base = lattice_covariance(g, d, d)
        for x in (-2.0, 0.0, 1.0, 10.0):
            var_inc = (
                lattice_covariance(g, x + d, x + d)
                - 2.0 * lattice_covariance(g, x + d, x)
                + lattice_covariance(g, x, x)
            )
            assert var_inc == pytest.approx(base, rel=1e-10)

    def test_spatial_increment_stationarity_mc(self):
        xs = [0.7, 1.0, 3.7, 4.0]
        _, ens = self._ensemble(2000, 1001, xs, n_steps=1)
        inc_a = ens[:, 0, 1] - ens[:, 0, 0]
        inc_b = ens[:, 0, 3] - ens[:, 0, 2]
        diff = inc_a**2 - inc_b**2
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) <= 3.0 * se


class TestBiasReport:
    def test_equals_the_explicit_band_sum(self):
        g = lattice(h=0.35)
        xs = np.array([0.25, 0.5, 1.0, 1.5])
        rep = variance_bias_report(g, xs)
        phi = transfer(g, xs)
        explicit = (2.0 * np.abs(phi) ** 2) @ g.band_masses
        np.testing.assert_allclose(rep["discretized"], explicit, rtol=1e-13)
        np.testing.assert_allclose(rep["exact"], xs**0.7, rtol=1e-14)
        for x, tail in zip(xs, rep["tail"]):
            assert tail == truncation_tail(0.35, x, g.xi_cut)

    def test_matches_monte_carlo(self):
        # X(1, x) from the increments the solver draws, 4000 realizations
        g = lattice()
        xs = [0.25, 1.0]
        phi = transfer(g, xs)
        samples = np.array(
            [
                2.0 * (spectral_increments(g.band_masses, 1.0, 1, 31, realization=r) @ phi.T).real[0]
                for r in range(4000)
            ]
        )
        sq = samples**2
        se = sq.std(axis=0, ddof=1) / math.sqrt(sq.shape[0])
        rep = variance_bias_report(g, xs)
        assert np.all(np.abs(sq.mean(axis=0) - rep["discretized"]) <= 3.0 * se)

    def test_in_band_error_converges(self):
        # discretized + tail reconstructs |x|^(2h) up to the in-band error of
        # evaluating each band at its lattice frequency, which shrinks like
        # d_omega^2: a 4x wider window (d_omega / 4) cuts it about 16x
        errs = []
        for L in (1.0, 4.0, 16.0):
            rep = variance_bias_report(lattice(dx=1.0 / 256, L=L), [0.25, 0.5, 1.0])
            in_band = np.abs(rep["discretized"] + rep["tail"] - rep["exact"])
            assert np.all(in_band <= 1e-2 * rep["exact"])
            errs.append(in_band.max())
        assert errs[1] < 0.1 * errs[0]
        assert errs[2] < 0.1 * errs[1]

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_default_lattice_bias_within_budget(self, equation):
        # the simulate check at the defaults: rel_err <= tail/exact + 0.01
        g = lattice(equation=equation, T=0.5, dx=1.0 / 256)
        rep = variance_bias_report(g, [0.25, 0.5, 1.0])
        assert np.all(rep["rel_err"] <= rep["tail"] / rep["exact"] + 0.01)
        assert rep["max_rel_err"] < 0.035

    def test_rejects_zero_x(self):
        with pytest.raises(ValueError):
            variance_bias_report(lattice(), [0.0, 1.0])

    def test_centroid_rule_in_band_error_converges(self):
        # on the binned grid, discretized + tail reconstructs |x|^(2h) up to
        # the centroid-rule curvature error, which shrinks like the squared
        # bin width
        xs = np.array([0.5, 1.0, 2.0])
        errs = []
        for n_bins in (4096, 8192, 16384):
            g = build_grid(0.3, default_xi_max(0.3), n_bins)
            disc = discretized_covariance(g, xs, xs)
            tail = np.array([truncation_tail(0.3, x, g.xi_max) for x in xs])
            exact = xs**0.6
            in_band = np.abs(disc + tail - exact)
            assert np.all(in_band <= 1e-2 * exact)
            errs.append(in_band.max())
        assert errs[1] < 0.3 * errs[0]
        assert errs[2] < 0.3 * errs[1]

    def test_default_grid_bias_within_budget(self):
        g = build_grid(0.3, default_xi_max(0.3), 4096)
        xs = np.array([0.25, 0.5, 1.0, 1.5, 2.0])
        exact = xs**0.6
        rel_err = np.abs(discretized_covariance(g, xs, xs) - exact) / exact
        assert truncation_tail(0.3, 1.0, g.xi_max) / exact[2] < 0.01
        assert rel_err.max() < 0.025

    def test_discretized_covariance_scalar_and_matrix(self):
        g = build_grid(0.3, 100.0, 256)
        xs = np.array([0.5, 1.0])
        mat = discretized_covariance(g, xs[:, None], xs[None, :])
        assert mat.shape == (2, 2)
        assert mat[0, 1] == pytest.approx(mat[1, 0], rel=1e-14)
        assert discretized_covariance(g, 0.5, 1.0) == pytest.approx(mat[0, 1], rel=1e-14)
        # x = 0 row vanishes identically
        assert discretized_covariance(g, 0.0, 1.0) == 0.0


class TestContainer:
    def test_roundtrip_bitwise(self, tmp_path):
        g = build_grid(0.35, default_xi_max(0.35), 64)
        noise = sample_noise(g, dt=0.125, n_steps=7, seed=777, realization=3)
        path = tmp_path / "noise.fspn"
        save_noise(noise, path)
        back = load_noise(path)
        assert np.array_equal(back.increments, noise.increments)
        assert np.array_equal(back.grid.edges, noise.grid.edges)
        assert np.array_equal(back.grid.masses, noise.grid.masses)
        assert back.grid.h == noise.grid.h
        assert back.dt == noise.dt
        assert back.n_steps == noise.n_steps
        assert back.seed == noise.seed

    def test_file_layout_size(self, tmp_path):
        # 48-byte header, 8 bytes per edge, 16 bytes per complex increment
        g = build_grid(0.3, 10.0, 16)
        noise = sample_noise(g, 1.0, 5, seed=1)
        path = tmp_path / "n.fspn"
        save_noise(noise, path)
        assert os.path.getsize(path) == 48 + 8 * 17 + 16 * 5 * 16

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.fspn"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ValueError, match="magic"):
            load_noise(path)

    def test_rejects_wrong_version(self, tmp_path):
        g = build_grid(0.3, 10.0, 4)
        noise = sample_noise(g, 1.0, 1, seed=1)
        path = tmp_path / "v.fspn"
        save_noise(noise, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_noise(path)

    def test_magic_constant(self):
        assert FORMAT_MAGIC == b"FSPN"

    def test_grid_from_edges_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            grid_from_edges(0.3, np.array([-1.0, 0.0, 2.0]))
        with pytest.raises(ValueError):
            grid_from_edges(0.3, np.array([-1.0, 0.0, 0.5, 1.0]))
