"""Tests for stochastic integrals of grid integrands.

Oracles: direct nonuniform DFT for the slice transforms, the analytic
Gaussian seminorm value for I(T), fixed-seed Monte Carlo for the isometry
and moment checks, and exact field-increment arithmetic for the elementary
rectangle identity.
"""

import math

import numpy as np
import pytest
import scipy.special as sp

from fracspde.constants import C_H
from fracspde.integrals import (
    BdgCheck,
    GridIntegrand,
    bdg_bound_check,
    bdg_z_p,
    deterministic_I_T,
    exact_grid_transform,
    grid_sobolev_energy,
    integral_ensemble,
    integrate,
    mollified_rectangle,
    quadratic_variation,
    slice_transform,
    transform_integrand,
)
from fracspde.noise import build_grid, field_value, sample_noise
from fracspde.regularity import gaussian_moment_ratio_check
from fracspde.sobolev import gaussian_bump, sobolev_side, tent

N_SPACE = 1024
DX = 18.0 / N_SPACE
X0 = -9.0


def gaussian_row(n=N_SPACE, dx=DX, x0=X0):
    x = x0 + dx * np.arange(n)
    return np.exp(-(x**2) / 2.0)


def gaussian_analytic(h):
    return sp.gamma(2.0 * h + 1.0) * math.sin(math.pi * h) * sp.gamma(1.0 - h)


class TestGridIntegrand:
    def test_defaults_adapted(self):
        S = GridIntegrand(np.zeros((3, 8)), 0.5, -2.0)
        assert S.adapted.all() and S.adapted.shape == (3,)
        assert S.n_steps == 3 and S.n_space == 8

    def test_x_grid(self):
        S = GridIntegrand(np.zeros((1, 4)), 0.5, -1.0)
        np.testing.assert_allclose(S.x_grid, [-1.0, -0.5, 0.0, 0.5])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GridIntegrand(np.zeros(8), 0.5, 0.0)
        with pytest.raises(ValueError):
            GridIntegrand(np.zeros((2, 4)), 0.0, 0.0)
        with pytest.raises(ValueError):
            GridIntegrand(np.full((2, 4), np.nan), 0.5, 0.0)
        with pytest.raises(ValueError):
            GridIntegrand(np.zeros((2, 4)), 0.5, 0.0, adapted=np.array([True]))


class TestSliceTransform:
    def test_matches_direct_dft(self):
        # the padded-FFT + spline route must reproduce the exact grid DFT;
        # spline interpolation error for a full-window signal is about
        # (5/384) (delta_xi W/2)^4 ~ 5e-7 at the default padding
        rng = np.random.default_rng(3)
        row = rng.standard_normal(200)
        dx, x0 = 0.05, -5.0
        xi = np.linspace(-40.0, 40.0, 173)
        approx = slice_transform(row, dx, x0, xi)
        exact = exact_grid_transform(row, dx, x0, xi)
        scale = np.abs(exact).max()
        assert np.max(np.abs(approx - exact)) < 5e-6 * scale

    def test_matches_continuum_gaussian(self):
        xi = np.linspace(-6.0, 6.0, 41)
        approx = slice_transform(gaussian_row(), DX, X0, xi)
        target = math.sqrt(2.0 * math.pi) * np.exp(-(xi**2) / 2.0)
        assert np.max(np.abs(approx - target)) < 1e-8 * target.max()
        assert np.max(np.abs(approx.imag)) < 1e-8 * target.max()

    def test_shift_theorem(self):
        # moving the window must produce the exact modulation phase
        c = 3.25
        x_shift = X0 + c + DX * np.arange(N_SPACE)
        row = np.exp(-((x_shift - c) ** 2) / 2.0)
        xi = np.linspace(-5.0, 5.0, 37)
        shifted = slice_transform(row, DX, X0 + c, xi)
        target = np.exp(-1j * xi * c) * math.sqrt(2.0 * math.pi) * np.exp(-(xi**2) / 2.0)
        assert np.max(np.abs(shifted - target)) < 1e-8 * np.abs(target).max()

    def test_rejects_out_of_band(self):
        with pytest.raises(ValueError):
            slice_transform(np.ones(16), 0.5, 0.0, np.array([100.0]))


class TestIntegrate:
    def test_double_sum_oracle(self):
        # hand-assembled sum with the exact transform
        grid = build_grid(0.3, 12.0, 64)
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((3, 120))
        S = GridIntegrand(vals, 0.1, -6.0)
        noise = sample_noise(grid, 0.5, 3, seed=40)
        acc = 0.0 + 0.0j
        for j in range(3):
            F = exact_grid_transform(vals[j], 0.1, -6.0, grid.centroids)
            acc += np.sum(F * noise.increments[j])
        assert integrate(S, noise) == pytest.approx(acc.real, rel=1e-5)

    def test_zero_integrand(self):
        grid = build_grid(0.3, 12.0, 64)
        noise = sample_noise(grid, 0.5, 2, seed=1)
        S = GridIntegrand(np.zeros((2, 50)), 0.1, -2.5)
        assert integrate(S, noise) == 0.0

    def test_power_of_two_scaling_bitwise(self):
        grid = build_grid(0.3, 12.0, 128)
        noise = sample_noise(grid, 0.5, 2, seed=17)
        row = gaussian_row(400, 0.02, -4.0)
        S1 = GridIntegrand(np.vstack([row, 0.5 * row]), 0.02, -4.0)
        S2 = GridIntegrand(2.0 * np.vstack([row, 0.5 * row]), 0.02, -4.0)
        assert integrate(S2, noise) == 2.0 * integrate(S1, noise)

    def test_linearity(self):
        grid = build_grid(0.3, 12.0, 128)
        noise = sample_noise(grid, 0.5, 2, seed=23)
        rng = np.random.default_rng(5)
        v1 = rng.standard_normal((2, 300))
        v2 = rng.standard_normal((2, 300))
        a, b = 1.7, -0.4
        Sa = GridIntegrand(v1, 0.02, -3.0)
        Sb = GridIntegrand(v2, 0.02, -3.0)
        Sc = GridIntegrand(a * v1 + b * v2, 0.02, -3.0)
        lhs = integrate(Sc, noise)
        rhs = a * integrate(Sa, noise) + b * integrate(Sb, noise)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_shape_mismatch(self):
        grid = build_grid(0.3, 12.0, 64)
        noise = sample_noise(grid, 0.5, 3, seed=1)
        S = GridIntegrand(np.zeros((2, 50)), 0.1, -2.5)
        with pytest.raises(ValueError, match="steps"):
            integrate(S, noise)

    def test_adaptedness_violation(self):
        grid = build_grid(0.3, 12.0, 64)
        noise = sample_noise(grid, 0.5, 2, seed=1)
        flags = np.array([True, False])
        S = GridIntegrand(np.ones((2, 50)), 0.1, -2.5, adapted=flags)
        with pytest.raises(ValueError, match="adapted"):
            integrate(S, noise)

    def test_matches_ensemble_sample(self):
        grid = build_grid(0.3, 12.0, 256)
        S = GridIntegrand(gaussian_row()[None, :], DX, X0)
        samples = integral_ensemble(S, grid, 1.0, 3, seed=91)
        for r in range(3):
            noise = sample_noise(grid, 1.0, 1, seed=91, realization=r)
            assert integrate(S, noise) == pytest.approx(samples[r], rel=1e-12)


class TestQuadraticVariation:
    def test_zero_integrand(self):
        grid = build_grid(0.3, 12.0, 64)
        S = GridIntegrand(np.zeros((4, 50)), 0.1, -2.5)
        np.testing.assert_array_equal(quadratic_variation(S, grid, 0.5), np.zeros(5))

    def test_monotone_and_linear_for_constant_slices(self):
        grid = build_grid(0.3, 12.0, 256)
        S = GridIntegrand(np.tile(gaussian_row(), (4, 1)), DX, X0)
        qv = quadratic_variation(S, grid, 0.25)
        assert qv[0] == 0.0
        assert np.all(np.diff(qv) > 0)
        np.testing.assert_allclose(qv, qv[1] * np.arange(5), rtol=1e-12)

    def test_final_matches_I_T(self):
        # discretized bracket vs the real-space quadrature of I(T)
        grid = build_grid(0.3, 12.0, 1024)
        S = GridIntegrand(gaussian_row()[None, :], DX, X0)
        qv = quadratic_variation(S, grid, 1.0)
        assert qv[-1] == pytest.approx(deterministic_I_T(S, 0.3, 1.0), rel=1e-3)

    def test_space_refinement_stability(self):
        # 2x refinement of the integrand grid moves the bracket < 0.5%
        grid = build_grid(0.3, 12.0, 512)
        coarse = GridIntegrand(gaussian_row(512, 18.0 / 512, X0)[None, :], 18.0 / 512, X0)
        fine = GridIntegrand(gaussian_row(1024, 18.0 / 1024, X0)[None, :], 18.0 / 1024, X0)
        a = quadratic_variation(coarse, grid, 1.0)[-1]
        b = quadratic_variation(fine, grid, 1.0)[-1]
        assert abs(a - b) < 5e-3 * b

    def test_rejects_bad_dt(self):
        grid = build_grid(0.3, 12.0, 64)
        S = GridIntegrand(np.zeros((1, 50)), 0.1, -2.5)
        with pytest.raises(ValueError):
            quadratic_variation(S, grid, 0.0)


class TestGridSobolevEnergy:
    def test_gaussian_analytic(self):
        row = gaussian_row()
        for h in (0.26, 0.3, 0.4, 0.45):
            assert grid_sobolev_energy(row, DX, h) == pytest.approx(
                gaussian_analytic(h), rel=1e-3
            )

    def test_refinement_converges(self):
        errs = []
        for n in (256, 512, 1024):
            dx = 18.0 / n
            errs.append(abs(grid_sobolev_energy(gaussian_row(n, dx, X0), dx, 0.3) - gaussian_analytic(0.3)))
        assert errs[2] < errs[1] < errs[0]

    def test_tent_cross_module(self):
        # tent vertices on the lattice: the grid slice is exactly the tent
        n, dx, x0 = 512, 4.0 / 512, -2.0
        x = x0 + dx * np.arange(n)
        row = np.clip(1.0 - np.abs(x), 0.0, None)
        for h in (0.3, 0.45):
            assert grid_sobolev_energy(row, dx, h) == pytest.approx(
                sobolev_side(tent(), h), rel=1e-3
            )

    def test_zero_row(self):
        assert grid_sobolev_energy(np.zeros(64), 0.1, 0.3) == 0.0

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            grid_sobolev_energy(np.ones(1), 0.1, 0.3)


class TestDeterministicIT:
    def test_single_test_function(self):
        g = gaussian_bump()
        # frozen analytic value (Gamma(1.6) sin(0.3 pi) Gamma(0.7))
        assert deterministic_I_T(g, 0.3, 1.0) == pytest.approx(0.93832409, rel=1e-6)
        assert deterministic_I_T(g, 0.3, 1.0) == pytest.approx(sobolev_side(g, 0.3), rel=1e-14)

    def test_time_scaling(self):
        g = gaussian_bump()
        assert deterministic_I_T(g, 0.3, 2.0) == pytest.approx(
            2.0 * deterministic_I_T(g, 0.3, 1.0), rel=1e-14
        )

    def test_sequence_of_slices(self):
        g = gaussian_bump()
        both = deterministic_I_T([g, g], 0.3, 1.0)
        assert both == pytest.approx(deterministic_I_T(g, 0.3, 1.0), rel=1e-14)

    def test_grid_integrand_path(self):
        S = GridIntegrand(np.tile(gaussian_row(), (3, 1)), DX, X0)
        val = deterministic_I_T(S, 0.3, 1.0)
        assert val == pytest.approx(grid_sobolev_energy(gaussian_row(), DX, 0.3), rel=1e-12)

    def test_zero_grid_integrand(self):
        S = GridIntegrand(np.zeros((2, 64)), 0.1, -3.2)
        assert deterministic_I_T(S, 0.3, 1.0) == 0.0

    def test_domain_errors(self):
        g = gaussian_bump()
        with pytest.raises(ValueError):
            deterministic_I_T(g, 0.3, 0.0)
        with pytest.raises(ValueError):
            deterministic_I_T([], 0.3, 1.0)


class TestIsometry:
    """Fixed-seed Monte Carlo against the deterministic I(T)."""

    def test_second_moment_matches_I_T(self):
        grid = build_grid(0.3, 12.0, 1024)
        S = GridIntegrand(gaussian_row()[None, :], DX, X0)
        samples = integral_ensemble(S, grid, 1.0, 4000, seed=2024)
        est = float(np.mean(samples**2))
        se = float(np.std(samples**2, ddof=1)) / math.sqrt(samples.size)
        assert abs(est - deterministic_I_T(S, 0.3, 1.0)) <= 3.0 * se

    def test_mean_is_zero(self):
        grid = build_grid(0.3, 12.0, 512)
        S = GridIntegrand(gaussian_row()[None, :], DX, X0)
        samples = integral_ensemble(S, grid, 1.0, 4000, seed=11)
        se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
        assert abs(float(samples.mean())) <= 3.0 * se

    def test_first_realization_offset(self):
        grid = build_grid(0.3, 12.0, 256)
        S = GridIntegrand(gaussian_row()[None, :], DX, X0)
        a = integral_ensemble(S, grid, 1.0, 4, seed=5, first_realization=0)
        b = integral_ensemble(S, grid, 1.0, 4, seed=5, first_realization=2)
        np.testing.assert_array_equal(a[2:], b[:2])


class TestBdg:
    GRID = None

    @classmethod
    def grid(cls):
        if cls.GRID is None:
            cls.GRID = build_grid(0.3, 12.0, 1024)
        return cls.GRID

    def integrand(self):
        return GridIntegrand(gaussian_row()[None, :], DX, X0)

    def test_p2_equality(self):
        chk = bdg_bound_check(self.integrand(), 0.3, 2.0, 4000, dt=1.0, seed=7, grid=self.grid())
        assert chk.passed
        assert chk.bound == chk.bracket

    def test_p4_bound(self):
        chk = bdg_bound_check(self.integrand(), 0.3, 4.0, 4000, dt=1.0, seed=7, grid=self.grid())
        assert chk.passed
        # Gaussian: E|Z|^4 = 3 I(T)^2, far below (16)^2 I(T)^2
        assert chk.estimate < 0.05 * chk.bound

    def test_z_p_values(self):
        assert bdg_z_p(2.0) == 1.0
        assert bdg_z_p(4.0) == 256.0

    def test_moment_ratio_is_three(self):
        grid = self.grid()
        samples = integral_ensemble(self.integrand(), grid, 1.0, 4000, seed=2024)
        chk = gaussian_moment_ratio_check(samples)
        assert chk.passed
        assert chk.ratio == pytest.approx(3.0, abs=3.0 * chk.se)

    def test_kurtosis_guard(self):
        with pytest.raises(RuntimeError, match="unstable"):
            bdg_bound_check(self.integrand(), 0.3, 8.0, 150, dt=1.0, seed=3, grid=self.grid())

    def test_zero_integrand_any_p(self):
        S = GridIntegrand(np.zeros((1, 64)), 0.1, -3.2)
        chk = bdg_bound_check(S, 0.3, 4.0, 500, dt=1.0, seed=1, grid=self.grid())
        assert chk.passed and chk.estimate == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bdg_bound_check(self.integrand(), 0.3, 1.5, 500, dt=1.0, grid=self.grid())
        with pytest.raises(ValueError):
            bdg_bound_check(self.integrand(), 0.3, 2.0, 50, dt=1.0, grid=self.grid())


class TestMollifiedRectangle:
    def test_profile_shape(self):
        dx = 1.0 / 64
        prof = mollified_rectangle(-0.5, 0.5, dx, -2.0, 256)
        x = -2.0 + dx * np.arange(256)
        assert np.all(prof >= 0.0) and np.all(prof <= 1.0)
        assert np.all(prof[(x > -0.5 + dx) & (x < 0.5 - dx)] == 1.0)
        assert np.all(prof[(x < -0.5 - dx) | (x > 0.5 + dx)] == 0.0)

    def test_preserves_integral(self):
        dx = 1.0 / 64
        prof = mollified_rectangle(-0.7, 1.1, dx, -2.0, 256)
        assert dx * prof.sum() == pytest.approx(1.8, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mollified_rectangle(1.0, 1.0, 0.1, -2.0, 64)


class TestElementaryIntegral:
    def test_rectangle_identity(self):
        # (g.X)_T for g = 1_(a,b] x 1_(u,v] equals the field increment
        # X_b((u,v]) - X_a((u,v]); rms over realizations within 1e-2
        h = 0.3
        dx = 1.0 / 256
        x0 = -2.0
        n_space = 1024
        grid = build_grid(h, 100.0, 2048)
        dt, n_steps = 0.25, 8
        a, b = 0.5, 1.5
        u, v = -0.7, 1.1
        prof = mollified_rectangle(u, v, dx, x0, n_space)
        vals = np.zeros((n_steps, n_space))
        for j in range(n_steps):
            if a <= j * dt < b:
                vals[j] = prof
        S = GridIntegrand(vals, dx, x0)
        lhs, rhs = [], []
        for r in range(50):
            noise = sample_noise(grid, dt, n_steps, seed=999, realization=r)
            lhs.append(integrate(S, noise))
            rhs.append(
                (field_value(noise, b, v) - field_value(noise, b, u))
                - (field_value(noise, a, v) - field_value(noise, a, u))
            )
        lhs = np.asarray(lhs)
        rhs = np.asarray(rhs)
        rel = math.sqrt(float(np.mean((lhs - rhs) ** 2)) / float(np.mean(rhs**2)))
        assert rel < 1e-2
