"""Tests for spectral noise synthesis on the solver's lattice bands.

Oracles: closed-form antiderivatives of the spectral density for band masses,
scipy's cosine-weighted QUADPACK routine for the truncation integral,
explicit complex band sums for the lattice field and its covariance, the
band increments themselves for the slab fields the solver integrates
against, and fixed-seed Monte Carlo (deterministic given the counter-based
RNG) for the distributional checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracspde.config import SimulationConfig, to_picard_config
from fracspde.constants import c_H
from fracspde.noise import (
    band_mass,
    keyed_rng,
    spectral_increments,
    truncation_tail,
    variance_bias_report,
)
from fracspde.picard import (
    AffineSigma,
    PicardConfig,
    build_geometry,
    constant_initial,
    noise_slabs,
    sampled_holder_initial,
)
from fracspde.quadrature import gauss_panels


def lattice(equation="wave", h=0.3, T=0.25, dx=1.0 / 64, L=1.0, pad=None):
    return build_geometry(
        PicardConfig(
            equation=equation, h=h, T=T, n_steps=8, dx=dx, L=L,
            sigma=AffineSigma(0.0, 1.0), init=constant_initial(0.0), seed=0, pad=pad,
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


def slab_lattice(n_steps, dt=1.0, h=0.3, dx=1.0 / 8, L=0.5, pad=0.5):
    return build_geometry(
        PicardConfig(
            equation="heat", h=h, T=n_steps * dt, n_steps=n_steps, dx=dx, L=L,
            sigma=AffineSigma(0.0, 1.0), init=constant_initial(0.0), seed=0, pad=pad,
        )
    )


def slab_bands(geom, eta):
    """The band increments Z_k behind slab fields eta = 2 Re sum_k Z_k e^(-i w_k x),
    read back from the forward real FFT: Z_k = (-1)^k conj(rfft_k) for k >= 1;
    band 0 comes back as its real part 2 Re Z_0 only."""
    coeff = np.fft.rfft(eta, axis=-1, norm="forward")[..., : geom.n_bands]
    signs = np.where(np.arange(geom.n_bands) % 2 == 0, 1.0, -1.0)
    return signs * np.conj(coeff)


def lattice_transfer(geom, lo, hi):
    """D_k = dx sum over grid points y in (lo, hi] of e^(-i w_k y), per band:
    the band transform of the lattice indicator of (lo, hi]."""
    y = geom.x_grid[(geom.x_grid > lo + 1e-9) & (geom.x_grid <= hi + 1e-9)]
    omega = geom.omega_r[: geom.n_bands]
    return geom.dx * np.exp(-1j * np.outer(omega, y)).sum(axis=1)


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


class TestTruncationTail:
    # simulate audits the tail at x = L/4, L/2 and L, cut at the lattice's xi_cut
    SIMULATE_XI_CUT = build_geometry(to_picard_config(SimulationConfig())).xi_cut

    @pytest.mark.parametrize("xi_max", [1.0, 50.0, SIMULATE_XI_CUT])
    @pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 30.0])
    @pytest.mark.parametrize("h", [0.26, 0.3, 0.45])
    def test_against_cosine_weighted_quad(self, h, x, xi_max):
        # QUADPACK's Fourier-integral routine (QAWF) for the cosine part
        cos_part, _ = quad(
            lambda xi: xi ** (-1.0 - 2.0 * h), xi_max, np.inf, weight="cos", wvar=x, limit=400
        )
        oracle = 4.0 * c_H(h) * (xi_max ** (-2.0 * h) / (2.0 * h) - cos_part)
        assert truncation_tail(h, x, xi_max) == pytest.approx(oracle, rel=1e-8)

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
        z = spectral_increments(masses, 2.0, 50_000, keyed_rng(11, 0))
        assert z.shape == (50_000, 3)
        m2 = np.mean(np.abs(z) ** 2, axis=0)
        se = np.std(np.abs(z) ** 2, axis=0, ddof=1) / math.sqrt(z.shape[0])
        assert np.all(np.abs(m2 - 2.0 * masses) <= 3.0 * se)

    def test_determinism(self):
        a = spectral_increments(np.ones(4), 1.0, 3, keyed_rng(9, 0))
        b = spectral_increments(np.ones(4), 1.0, 3, keyed_rng(9, 0))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, spectral_increments(np.ones(4), 1.0, 3, keyed_rng(10, 0)))

    def test_realization_splits_stream(self):
        a = spectral_increments(np.ones(4), 1.0, 3, keyed_rng(9, 0))
        b = spectral_increments(np.ones(4), 1.0, 3, keyed_rng(9, 1))
        assert not np.array_equal(a, b)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spectral_increments(np.ones(2), 0.0, 3, keyed_rng(1, 0))
        with pytest.raises(ValueError):
            spectral_increments(np.ones(2), 1.0, 0, keyed_rng(1, 0))

    def test_per_band_variance(self):
        # mean |increment|^2 over 1e5 iid draws vs dt * mass on lattice
        # bands, within 3 SE; the fixed seed makes the outcome deterministic
        masses = lattice().band_masses[:16]
        z = spectral_increments(masses, 0.7, 100_000, keyed_rng(7, 0))
        m2 = np.mean(np.abs(z) ** 2, axis=0)
        se = np.std(np.abs(z) ** 2, axis=0, ddof=1) / math.sqrt(z.shape[0])
        assert np.all(np.abs(m2 - 0.7 * masses) <= 3.0 * se)

    def test_independence_across_steps(self):
        z = spectral_increments(lattice().band_masses[:8], 1.0, 100_000, keyed_rng(13, 0))
        prod = z.real[:-1] * z.real[1:]
        zs = np.abs(prod.mean(axis=0)) / (prod.std(axis=0, ddof=1) / math.sqrt(prod.shape[0]))
        assert np.max(zs) < 3.0

    def test_independence_across_bands(self):
        z = spectral_increments(lattice().band_masses[:8], 1.0, 100_000, keyed_rng(29, 0))
        for a, b in ((0, 1), (2, 5), (3, 7)):
            prod = z[:, a].real * z[:, b].real
            zs = abs(prod.mean()) / (prod.std(ddof=1) / math.sqrt(prod.size))
            assert zs < 3.0

    def test_real_imag_parts_balanced(self):
        masses = lattice(h=0.4).band_masses[:8]
        z = spectral_increments(masses, 2.0, 100_000, keyed_rng(3, 0))
        np.testing.assert_allclose(z.real.var(axis=0, ddof=1), 0.5 * 2.0 * masses, rtol=0.05)
        np.testing.assert_allclose(z.imag.var(axis=0, ddof=1), 0.5 * 2.0 * masses, rtol=0.05)


class TestSampleNoise:
    """The slab fields of picard.noise_slabs, the noise the solver samples,
    read back into their band increments."""

    def test_hermitian_symmetry(self):
        # the full spectrum of every slab is the Hermitian extension of the
        # drawn band increments; the Nyquist bin carries nothing
        g = lattice()
        eta = noise_slabs(g, 4, realization=1)
        z = spectral_increments(g.band_masses, g.dt, g.n_steps, keyed_rng(4, 1))
        full = np.fft.fft(eta, axis=-1, norm="forward")
        k = np.arange(1, g.n_bands)
        signs = np.where(k % 2 == 0, 1.0, -1.0)
        atol = 1e-13 * np.abs(full).max()
        np.testing.assert_allclose(full[:, k], signs * np.conj(z[:, k]), rtol=0.0, atol=atol)
        np.testing.assert_allclose(full[:, g.n_fft - k], signs * z[:, k], rtol=0.0, atol=atol)
        np.testing.assert_allclose(full[:, 0], 2.0 * z[:, 0].real, rtol=0.0, atol=atol)
        assert np.all(np.abs(full[:, g.n_fft // 2]) <= atol)

    def test_determinism_bitwise(self):
        # counter-based: a realization does not depend on what was drawn
        # before it or on which geometry object asks for it
        g = lattice()
        first = noise_slabs(g, 2024, realization=3)
        for r in range(3):
            noise_slabs(g, 2024, realization=r)
        noise_slabs(g, 7, realization=3)
        assert np.array_equal(noise_slabs(lattice(), 2024, realization=3), first)
        assert not np.array_equal(noise_slabs(g, 2025, realization=3), first)

    def test_per_bin_variance(self):
        # mean |Z_k|^2 over 1e5 slabs vs dt * mass, within 3 SE; band 0 comes
        # back as 2 Re Z_0, whose mean square is 2 dt m_0
        g = slab_lattice(100_000, dt=0.7)
        z = slab_bands(g, noise_slabs(g, 7))
        m2 = np.abs(z) ** 2
        target = 0.7 * g.band_masses * np.where(np.arange(g.n_bands) == 0, 2.0, 1.0)
        se = m2.std(axis=0, ddof=1) / math.sqrt(m2.shape[0])
        assert np.all(np.abs(m2.mean(axis=0) - target) <= 3.0 * se)

    def test_independence_across_steps(self):
        g = slab_lattice(100_000)
        re = slab_bands(g, noise_slabs(g, 13)).real
        prod = re[:-1] * re[1:]
        zs = np.abs(prod.mean(axis=0)) / (prod.std(axis=0, ddof=1) / math.sqrt(prod.shape[0]))
        assert np.max(zs) < 3.0

    def test_independence_across_bins(self):
        g = slab_lattice(100_000)
        z = slab_bands(g, noise_slabs(g, 29))
        for a, b in ((0, 1), (2, 5), (3, 7)):
            prod = z[:, a].real * z[:, b].real
            zs = abs(prod.mean()) / (prod.std(ddof=1) / math.sqrt(prod.size))
            assert zs < 3.0

    def test_real_imag_parts_balanced(self):
        g = slab_lattice(100_000, dt=2.0, h=0.4)
        z = slab_bands(g, noise_slabs(g, 3))[:, 1:]
        half = 0.5 * 2.0 * g.band_masses[1:]
        np.testing.assert_allclose(z.real.var(axis=0, ddof=1), half, rtol=0.05)
        np.testing.assert_allclose(z.imag.var(axis=0, ddof=1), half, rtol=0.05)


class TestLatticeFieldLaw:
    """Distributional checks of the lattice field X(t, x) = 2 Re sum over
    steps and bands of Z F_k(x), with fixed seeds (hence deterministic)."""

    @staticmethod
    def _ensemble(n_real, seed, xs, n_steps=2):
        g = lattice()
        phi = transfer(g, xs)
        out = np.empty((n_real, n_steps, len(xs)))
        for r in range(n_real):
            z = spectral_increments(g.band_masses, 1.0, n_steps, keyed_rng(seed, r))
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


class TestFieldValue:
    def test_array_matches_scalar(self):
        # the holder-sample datum is one lattice field value X(1, x) of the
        # band law; it evaluates the same at scalars and on arrays
        u0 = sampled_holder_initial(0.3, seed=12).u0
        xs = np.array([-1.0, 0.4, 2.5, 40.0])
        arr = u0(xs)
        for x, v in zip(xs, arr):
            assert u0(float(x)) == pytest.approx(v, rel=1e-14)


class TestFieldLaw:
    """Distributional checks of the field the solver integrates against:
    X(t_n, (lo, hi]) = sum_(j<n) dx sum over grid points in (lo, hi] of
    eta_j, from picard.noise_slabs, with fixed seeds (hence deterministic).
    Its exact covariance per unit time is sum_k 2 m_k Re D_k(A) conj D_k(B)
    over the lattice transfers D of the two intervals."""

    @staticmethod
    def _geometry():
        return slab_lattice(2, dx=1.0 / 16, L=4.5, pad=1.0)

    @staticmethod
    def _covariance(g, a, b):
        da, db = lattice_transfer(g, *a), lattice_transfer(g, *b)
        return float(np.sum(2.0 * g.band_masses * (da * np.conj(db)).real))

    @classmethod
    def _ensemble(cls, n_real, seed, xs, n_steps=2):
        g = cls._geometry()
        ind = np.array([(g.x_grid > 1e-9) & (g.x_grid <= x + 1e-9) for x in xs], dtype=float)
        out = np.empty((n_real, n_steps, len(xs)))
        for r in range(n_real):
            slabs = g.dx * (noise_slabs(g, seed, r) @ ind.T)
            out[r] = np.cumsum(slabs[:n_steps], axis=0)
        return g, out

    def test_covariance_matches_discretized_target(self):
        xs = [0.5, 1.0, 2.0]
        g, ens = self._ensemble(3000, 424242, xs)
        f1 = ens[:, 0, :]
        prods = f1[:, :, None] * f1[:, None, :]
        emp = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / math.sqrt(ens.shape[0])
        target = g.dt * np.array(
            [[self._covariance(g, (0.0, x), (0.0, y)) for y in xs] for x in xs]
        )
        assert np.all(np.abs(emp - target) <= 3.0 * se)

    def test_variance_linear_in_t(self):
        _, ens = self._ensemble(3000, 99, [1.0], n_steps=2)
        # E X(2,1)^2 = 2 E X(1,1)^2; compare the difference of estimators
        diff = ens[:, 1, 0] ** 2 - 2.0 * ens[:, 0, 0] ** 2
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) <= 3.0 * se

    def test_cross_time_covariance(self):
        # E[X(1,x) X(2,y)] = dt R(x,y): the second slab is independent
        xs = [0.5, 1.5]
        g, ens = self._ensemble(3000, 55, xs, n_steps=2)
        prods = ens[:, 0, 0] * ens[:, 1, 1]
        se = prods.std(ddof=1) / math.sqrt(prods.size)
        target = g.dt * self._covariance(g, (0.0, xs[0]), (0.0, xs[1]))
        assert abs(prods.mean() - target) <= 3.0 * se

    def test_spatial_increment_stationarity_exact(self):
        # a grid shift multiplies every D_k by the phase e^(-i w_k x), so the
        # increment variance over (x, x + d] is exactly that over (0, d]
        g = self._geometry()
        d = 5.0 / 16.0
        base = self._covariance(g, (0.0, d), (0.0, d))
        for x in (-2.0, 0.0, 1.0, 3.0):
            assert self._covariance(g, (x, x + d), (x, x + d)) == pytest.approx(base, rel=1e-10)

    def test_spatial_increment_stationarity_mc(self):
        xs = [0.75, 1.0, 3.75, 4.0]
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
                2.0 * (spectral_increments(g.band_masses, 1.0, 1, keyed_rng(31, r)) @ phi.T)
                .real[0]
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
