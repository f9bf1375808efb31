"""Tests for the stochastic integral against the noise the solver draws.

On the solver's lattice a grid integrand S_j(x), one row per time slab,
integrates against the slab fields of picard.noise_slabs as
I = sum_j dx sum_x S_j(x) eta_j(x), the contraction picard_step applies to
sigma(u) * eta.  With S^_j(w) = dx sum_x S_j(x) e^(-i w x) the integral is
2 Re sum_j sum_k Z_jk S^_j(w_k), so its exact variance is
dt sum_j sum_k 2 m_k |S^_j(w_k)|^2: the isometry E|int S dX|^2 =
int ||S(t)||_H^2 dt, with the band energy of the lattice in place of the
continuum seminorm.

Oracles: the analytic Gaussian seminorm and sobolev.sobolev_side for the
band energy, explicit complex band sums for the integral, the Green-kernel
integral for the solver's stochastic term, and fixed-seed Monte Carlo
(deterministic given the counter-based RNG) for the moments.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special as sp

from fracspde.noise import keyed_rng, spectral_increments
from fracspde.picard import (
    AffineSigma,
    PicardConfig,
    build_geometry,
    constant_initial,
    noise_slabs,
    solve_ensemble,
)
from fracspde.regularity import gaussian_ratio_check
from fracspde.sobolev import gaussian_bump, sobolev_side, tent


def lattice_config(h=0.3, T=0.25, dx=1.0 / 64, L=4.0, pad=None, n_steps=8, seed=0):
    return PicardConfig(
        equation="heat", h=h, T=T, n_steps=n_steps, dx=dx, L=L,
        sigma=AffineSigma(0.0, 1.0), init=constant_initial(0.0), seed=seed,
        pad=16.0 * dx if pad is None else pad,
    )


def lattice(**kwargs):
    return build_geometry(lattice_config(**kwargs))


def band_transform(geom, s):
    """S^(w_k) = dx sum_x s(x) e^(-i w_k x) for every band, along the last
    axis; on the symmetric window e^(-i w_k x0) = (-1)^k."""
    signs = np.where(np.arange(geom.n_bands) % 2 == 0, 1.0, -1.0)
    return geom.dx * signs * np.fft.rfft(s, axis=-1)[..., : geom.n_bands]


def band_energy(geom, s):
    """sum_k 2 m_k |S^(w_k)|^2: the per-unit-time variance of the integral."""
    return float(np.sum(2.0 * geom.band_masses * np.abs(band_transform(geom, s)) ** 2))


def per_slab_integral(geom, s, seed, realization=0):
    """dx sum_x S_j(x) eta_j(x) per slab j; s broadcasts against the slabs."""
    return geom.dx * np.sum(noise_slabs(geom, seed, realization) * s, axis=-1)


def gaussian_analytic(h):
    return sp.gamma(2.0 * h + 1.0) * math.sin(math.pi * h) * sp.gamma(1.0 - h)


ISOMETRY_CASES = [(h, g) for h in (0.3, 0.4) for g in (gaussian_bump, tent)]
N_REAL = 400


@functools.lru_cache(maxsize=None)
def isometry_ensemble(h, g):
    """400 realizations of the per-slab values of int S dX for a
    time-constant S = g on the heat lattice: T 0.25, 8 steps, dx 1/64, L 4,
    pad 16 dx (n_fft 1024)."""
    geom = lattice(h=h)
    s = g().evaluator(geom.x_grid)
    per_slab = np.array([per_slab_integral(geom, s, 3, r) for r in range(N_REAL)])
    return geom, s, per_slab


class TestGridSobolevEnergy:
    """The band energy of a grid-sampled integrand against the continuum
    seminorm it discretizes: the lattice bands under-resolve it only by the
    in-band error of order d_omega^2 and the truncation above xi_cut."""

    def test_gaussian_analytic(self):
        for h in (0.26, 0.3, 0.4, 0.45):
            geom = lattice(h=h, dx=1.0 / 16, L=16.0)
            row = np.exp(-(geom.x_grid**2) / 2.0)
            assert band_energy(geom, row) == pytest.approx(gaussian_analytic(h), rel=1e-3)

    def test_refinement_converges(self):
        # a wider window refines the band spacing d_omega = 2 pi / (n_fft dx)
        errs = []
        for L in (4.0, 8.0, 16.0):
            geom = lattice(dx=1.0 / 16, L=L)
            row = np.exp(-(geom.x_grid**2) / 2.0)
            errs.append(abs(band_energy(geom, row) - gaussian_analytic(0.3)))
        assert errs[2] < errs[1] < errs[0]

    def test_tent_cross_module(self):
        # tent vertices on the lattice: the grid slice is exactly the tent
        for h in (0.3, 0.45):
            geom = lattice(h=h, L=8.0)
            assert geom.x_grid[geom.n_fft // 2] == 0.0
            row = tent().evaluator(geom.x_grid)
            assert band_energy(geom, row) == pytest.approx(sobolev_side(tent(), h), rel=1e-3)

    def test_zero_row(self):
        assert band_energy(lattice(), np.zeros(lattice().n_fft)) == 0.0


class TestDeterministicIT:
    def test_single_test_function(self):
        # I(T) = T sum_k 2 m_k |S^(w_k)|^2 for a time-constant S is the
        # continuum T ||S||_H^2 up to the lattice's discretization
        for h, g in ISOMETRY_CASES:
            geom = lattice(h=h)
            assert geom.n_fft == 1024
            i_t = geom.T * band_energy(geom, g().evaluator(geom.x_grid))
            assert i_t == pytest.approx(geom.T * sobolev_side(g(), h), rel=1e-2)

    def test_time_scaling(self):
        # doubling T at fixed n_steps and pad keeps the bands and doubles dt,
        # so every slab, drawn from the same (seed, realization), scales by
        # sqrt(2) pathwise and the exact I(T) doubles
        short, long = lattice(T=0.25), lattice(T=0.5)
        np.testing.assert_array_equal(short.band_masses, long.band_masses)
        s = gaussian_bump().evaluator(short.x_grid)
        for r in range(3):
            a = per_slab_integral(short, s, 17, r)
            b = per_slab_integral(long, s, 17, r)
            np.testing.assert_allclose(b, math.sqrt(2.0) * a, rtol=1e-12)
        assert long.T * band_energy(long, s) == pytest.approx(
            2.0 * short.T * band_energy(short, s), rel=1e-14
        )


class TestIsometry:
    """Fixed-seed Monte Carlo against the exact I(T) of the lattice."""

    def test_second_moment_matches_I_T(self):
        for h, g in ISOMETRY_CASES:
            geom, s, per_slab = isometry_ensemble(h, g)
            sq = per_slab.sum(axis=1) ** 2
            i_t = geom.T * band_energy(geom, s)
            assert abs(sq.mean() - i_t) <= 3.0 * sq.std(ddof=1) / math.sqrt(sq.size)

    def test_mean_is_zero(self):
        for h, g in ISOMETRY_CASES:
            samples = isometry_ensemble(h, g)[2].sum(axis=1)
            assert abs(samples.mean()) <= 3.0 * samples.std(ddof=1) / math.sqrt(samples.size)

    def test_first_realization_offset(self):
        # the ensemble driver addresses realizations by (seed, realization0 + r),
        # so an ensemble started at realization 2 reproduces the tail of one
        # started at 0 bitwise: splitting an ensemble keeps every number
        cfg = lattice_config(dx=1.0 / 32, L=1.0, pad=2.0, seed=5)
        a, b = [], []
        solve_ensemble(cfg, 4, n_iters=1, on_final=lambda r, f: a.append(f.values))
        solve_ensemble(
            replace(cfg, realization=2), 2, n_iters=1, on_final=lambda r, f: b.append(f.values)
        )
        for x, y in zip(a[2:], b):
            np.testing.assert_array_equal(x, y)
        assert not np.array_equal(a[0], a[1])


class TestIntegrate:
    def test_double_sum_oracle(self):
        # hand-rolled loop over slabs and bands with the direct transform
        geom = lattice(dx=1.0 / 16, L=1.0, pad=1.0)
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((geom.n_steps, geom.n_fft))
        z = spectral_increments(geom.band_masses, geom.dt, geom.n_steps, keyed_rng(40, 2))
        acc = 0.0
        for j in range(geom.n_steps):
            for k in range(geom.n_bands):
                w = k * geom.d_omega
                s_hat = geom.dx * np.sum(vals[j] * np.exp(-1j * w * geom.x_grid))
                acc += 2.0 * (z[j, k] * s_hat).real
        assert per_slab_integral(geom, vals, 40, 2).sum() == pytest.approx(acc, rel=1e-12)

    def test_zero_integrand(self):
        geom = lattice()
        assert per_slab_integral(geom, np.zeros(geom.n_fft), 1).sum() == 0.0

    def test_power_of_two_scaling_bitwise(self):
        geom = lattice()
        row = gaussian_bump().evaluator(geom.x_grid)
        s1 = np.outer(1.0 - np.arange(geom.n_steps) / 16.0, row)
        doubled = per_slab_integral(geom, 2.0 * s1, 17).sum()
        assert doubled == 2.0 * per_slab_integral(geom, s1, 17).sum()

    def test_linearity(self):
        geom = lattice()
        rng = np.random.default_rng(5)
        v1 = rng.standard_normal((geom.n_steps, geom.n_fft))
        v2 = rng.standard_normal((geom.n_steps, geom.n_fft))
        a, b = 1.7, -0.4
        lhs = per_slab_integral(geom, a * v1 + b * v2, 23).sum()
        rhs = a * per_slab_integral(geom, v1, 23).sum() + b * per_slab_integral(geom, v2, 23).sum()
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_matches_ensemble_sample(self):
        # with sigma = 1 and u0 = 0 the solver's first iterate is the mild
        # solution sum_(i<n) int G_(t_n - t_i)(x - y) eta_i(y) dy: at every
        # grid time it must equal the integral of the (periodized) heat
        # kernel against the same realization's slabs
        cfg = lattice_config(dx=1.0 / 32, L=1.0, pad=2.0, seed=91)
        geom = build_geometry(cfg)
        period = geom.n_fft * geom.dx
        finals = []
        solve_ensemble(cfg, 3, n_iters=1, on_final=lambda r, f: finals.append(f.values))
        for r, values in enumerate(finals):
            scale = np.max(np.abs(values))
            for n in (1, 4, geom.n_steps):
                tau = geom.dt * (n - np.arange(n))
                for x in geom.x_grid[geom.core][::16]:
                    d = (x - geom.x_grid + 0.5 * period) % period - 0.5 * period
                    kern = np.exp(-(d[None, :] ** 2) / (2.0 * tau[:, None]))
                    kern /= np.sqrt(2.0 * math.pi * tau[:, None])
                    s = np.zeros((geom.n_steps, geom.n_fft))
                    s[:n] = kern
                    expected = per_slab_integral(geom, s, cfg.seed, r).sum()
                    i = int(round((x - geom.x0) / geom.dx))
                    assert abs(values[n, i] - expected) <= 1e-10 * scale


class TestQuadraticVariation:
    """The bracket <M>_n = sum_(j<n) dt ||S_j||^2 of the partial sums
    M_n = sum_(j<n) int_(slab j) S dX, against Monte Carlo over the same
    fixed-seed realizations as the isometry."""

    def test_monotone_and_linear_for_constant_slices(self):
        geom, s, per_slab = isometry_ensemble(0.3, gaussian_bump)
        bracket = geom.dt * band_energy(geom, s) * np.arange(geom.n_steps + 1)
        assert bracket[0] == 0.0 and np.all(np.diff(bracket) > 0.0)
        partial = np.cumsum(per_slab, axis=1) ** 2
        se = partial.std(axis=0, ddof=1) / math.sqrt(N_REAL)
        assert np.all(np.abs(partial.mean(axis=0) - bracket[1:]) <= 3.0 * se)

    def test_final_matches_I_T(self):
        # time-varying slices c_j S: the slabs are independent, so the
        # bracket weights each slab's energy by c_j^2
        geom, s, per_slab = isometry_ensemble(0.4, gaussian_bump)
        c = 1.0 + np.arange(geom.n_steps) / 4.0
        final = (per_slab @ c) ** 2
        bracket = geom.dt * band_energy(geom, s) * float(np.sum(c**2))
        assert abs(final.mean() - bracket) <= 3.0 * final.std(ddof=1) / math.sqrt(N_REAL)

    def test_space_refinement_stability(self):
        # halving dx on a fixed window moves the bracket < 0.5%
        coarse = lattice(dx=1.0 / 32, pad=0.25)
        fine = lattice(dx=1.0 / 64, pad=0.25)
        a = coarse.T * band_energy(coarse, gaussian_bump().evaluator(coarse.x_grid))
        b = fine.T * band_energy(fine, gaussian_bump().evaluator(fine.x_grid))
        assert abs(a - b) < 5e-3 * b


class TestBdg:
    def test_moment_ratio_is_three(self):
        # a deterministic integrand gives a Gaussian integral: E|I|^4 = 3 I(T)^2
        geom = lattice(dx=1.0 / 16, L=2.0, pad=1.0)
        s = gaussian_bump().evaluator(geom.x_grid)
        samples = np.array([per_slab_integral(geom, s, 2024, r).sum() for r in range(4000)])
        chk = gaussian_ratio_check(lattice_config(dx=1.0 / 16, L=2.0, pad=1.0), samples)
        assert chk.passed
        assert chk.computed == pytest.approx(3.0, abs=3.0 * chk.standard_error)
