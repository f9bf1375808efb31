"""Tests for the solver: the iterate engine's one causal row loop, in its
fixed-point mode (solve) and as Picard iteration.

Oracles: exact noise-free solutions (d'Alembert, spectral heat flow) on
polynomial and lattice-trigonometric data, an O(n^2) per-pair spectral
convolution reimplementation for the stochastic term, bitwise structural
identities of the affine iteration (zero noise, a = 0 stationarity,
scaling, additive shift), the fixed-point sweep as the exact fixed point
of a Picard step and a batch of them as separate solves, recorded bytes
of small solves, the exact Ornstein-Uhlenbeck law of each heat band under
additive noise, and the closed-form variance of the first stochastic
increment, checked both as an exact lattice sum and by Monte Carlo over
solve_ensemble.
"""

import hashlib
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from sampled import FinalIterates
from scipy.integrate import cumulative_trapezoid

from fracspde.constants import c_H
from fracspde.kernels import A_T
from fracspde.config import SimulationConfig, from_mapping, to_picard_config
from fracspde.noise import band_mass, keyed_rng, spectral_increments
from fracspde.picard import (
    AffineSigma,
    InitialData,
    PicardConfig,
    PicardConvergenceError,
    PicardDivergenceError,
    _band_field,
    _core_delta,
    _delta_history,
    _homogeneous_rows,
    _homogeneous_values,
    _noise_rows,
    _picard_levels,
    _slab_sums,
    _stochastic_blocks,
    _trapezoid_antiderivative,
    build_geometry,
    constant_initial,
    homogeneous_term,
    noise_slabs,
    picard_step,
    sampled_holder_initial,
    solve,
    solve_ensemble,
    uniqueness_probe,
)
from fracspde import cli, picard
from fracspde.regularity import (
    FieldSampleCollector,
    FirstIncrementCollector,
    _heat_innovation_var,
)


def small_config(equation="wave", **overrides):
    base = dict(
        equation=equation,
        h=0.3,
        T=0.5,
        n_steps=32,
        dx=1.0 / 64,
        L=1.0,
        sigma=AffineSigma(0.5, 1.0),
        init=constant_initial(0.0),
        seed=7,
    )
    base.update(overrides)
    return PicardConfig(**base)


class TestAffineSigma:
    def test_affine_values(self):
        s = AffineSigma(2.0, -1.0)
        np.testing.assert_array_equal(s(np.array([0.0, 1.0, 3.0])), [-1.0, 1.0, 5.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AffineSigma(math.nan, 0.0)
        with pytest.raises(ValueError):
            AffineSigma(1.0, math.inf)


class TestInitialData:
    def test_constant_factory(self):
        init = constant_initial(2.5)
        np.testing.assert_array_equal(init.u0(np.zeros(4)), np.full(4, 2.5))
        assert init.v0 is None

    def test_constant_with_velocity(self):
        init = constant_initial(0.0, v0_value=1.0)
        np.testing.assert_array_equal(init.v0(np.zeros(3)), np.ones(3))

    def test_sampled_datum_deterministic(self):
        x = np.linspace(-1.0, 1.0, 17)
        a = sampled_holder_initial(0.3, seed=5).u0(x)
        b = sampled_holder_initial(0.3, seed=5).u0(x)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, sampled_holder_initial(0.3, seed=6).u0(x))

    def test_sampled_datum_zero_at_origin(self):
        init = sampled_holder_initial(0.35, seed=1)
        assert init.u0(np.array([0.0]))[0] == 0.0

    def test_sampled_datum_is_the_band_sum(self):
        # u0(x) = 2 Re sum_k Z_k (1 - e^{-ikx}) / (ik) over k = 1..128 on the
        # wave-default d'Alembert points, in bounded memory
        geom = build_geometry(small_config(T=0.5, n_steps=128, dx=1.0 / 256))
        xp = (geom.x_grid[None, :] + geom.t_grid[:, None]).ravel()
        init = sampled_holder_initial(0.3, seed=4)
        tracemalloc.start()
        try:
            values = init.u0(xp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == xp.shape
        assert peak < 50 * 2**20
        k = np.arange(1, 129)
        z = spectral_increments(band_mass(0.3, k - 0.5, k + 0.5), 1.0, 1, keyed_rng(4))[0]
        x = xp[::101]
        direct = 2.0 * (((1.0 - np.exp(-1j * np.outer(x, k))) / (1j * k)) @ z).real
        np.testing.assert_allclose(values[::101], direct, rtol=0.0, atol=1e-13)

    def test_sampled_datum_independent_of_the_noise(self):
        # the datum's standardized draws z_k / sqrt(m_k), read off u0 by an
        # FFT over one period, against the standardized step-0 draws of the
        # noise of realization 0 at the same default settings
        cfg = SimulationConfig(u0="holder-sample")
        picard_cfg = to_picard_config(cfg)
        geom = build_geometry(picard_cfg)
        n = 1024
        coef = np.fft.fft(picard_cfg.init.u0(2.0 * math.pi * np.arange(n) / n)) / n
        k = np.arange(1, 129)
        # u0 = 2 Re sum_k z_k (1 - e^{-ikx}) / (ik): e^{ikx} carries conj(z_k) / (ik)
        z = np.conj(1j * k * coef[k])
        datum = z / np.sqrt(band_mass(cfg.hurst, k - 0.5, k + 0.5))
        noise = spectral_increments(
            geom.band_masses, geom.dt, geom.n_steps, keyed_rng(cfg.seed, 0)
        )[0, :128] / np.sqrt(geom.dt * geom.band_masses[:128])
        # the read-back is exact: the datum is the draw of its own stream
        own = spectral_increments(np.ones(128), 1.0, 1, keyed_rng(cfg.seed))[0]
        np.testing.assert_allclose(datum, own, rtol=0.0, atol=1e-10)
        assert not np.allclose(datum, noise, rtol=0.0, atol=1e-6)
        # independent standard draws: no two coincide anywhere
        assert np.min(np.abs(datum - noise)) > 1e-6

    def test_sampled_datum_bounded_and_periodic(self):
        # no band-0 ramp: the datum is 2 pi-periodic
        init = sampled_holder_initial(0.3, seed=9)
        x = np.linspace(-3.0, 3.0, 61)
        np.testing.assert_allclose(init.u0(x + 2.0 * math.pi), init.u0(x), atol=1e-12)
        assert init.u0(2.0 * math.pi * 40.0) == pytest.approx(0.0, abs=1e-11)


class TestConfigValidation:
    def test_dt(self):
        assert small_config(T=2.0, n_steps=8).dt == 0.25

    @pytest.mark.parametrize(
        "overrides",
        [
            {"equation": "transport"},
            {"h": 0.2},
            {"h": 0.5},
            {"T": 0.0},
            {"n_steps": 0},
            {"dx": 0.0},
            {"L": -1.0},
            {"max_iters": 0},
            {"tol": 0.0},
            {"pad": 0.0},
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)


class TestGeometry:
    def test_lattice_covers_window(self):
        cfg = small_config(pad=0.7)
        geom = build_geometry(cfg)
        assert geom.n_fft & (geom.n_fft - 1) == 0
        assert geom.n_fft * geom.dx >= 2.0 * (cfg.L + cfg.pad)
        assert geom.actual_pad >= cfg.pad - 1e-12

    def test_core_symmetric(self):
        geom = build_geometry(small_config())
        core_x = geom.x_grid[geom.core]
        assert abs(core_x[0] + core_x[-1]) < 1e-12
        assert np.all(np.abs(core_x) <= 1.0 + 1e-9)

    def test_band_masses_closed_form(self):
        geom = build_geometry(small_config(h=0.35))
        p = 2.0 - 2.0 * 0.35
        d = geom.d_omega
        # band 0 is the half band [0, d/2); band k covers (k -+ 1/2) d
        assert geom.band_masses[0] == pytest.approx(
            c_H(0.35) * (0.5 * d) ** p / p, rel=1e-13
        )
        k = 5
        expected = c_H(0.35) * (((k + 0.5) * d) ** p - ((k - 0.5) * d) ** p) / p
        assert geom.band_masses[k] == pytest.approx(expected, rel=1e-13)

    def test_total_mass_telescopes(self):
        geom = build_geometry(small_config(h=0.4))
        p = 2.0 - 2.0 * 0.4
        assert geom.band_masses.sum() == pytest.approx(
            c_H(0.4) * geom.xi_cut**p / p, rel=1e-12
        )

    def test_aliasing_guard_structural(self):
        for cfg in (small_config(), small_config("heat", dx=1.0 / 32)):
            geom = build_geometry(cfg)
            assert geom.xi_cut * geom.dx <= math.pi * (1.0 + 1e-12)


def whole_array_homogeneous(geom, init):
    """The homogeneous term formed on whole (n_steps + 1, n_fft) arrays:
    d'Alembert on the space-time grid for wave, one table of heat decays
    for heat."""
    t_col = geom.t_grid[:, None]
    if geom.equation == "wave":
        xp = geom.x_grid[None, :] + t_col
        xm = geom.x_grid[None, :] - t_col
        w = 0.5 * (init.u0(xp.ravel()) + init.u0(xm.ravel())).reshape(xp.shape)
        if init.v0 is not None:
            step = geom.dx / 4.0
            lo = geom.x0 - geom.T - 2.0 * step
            hi = geom.x_grid[-1] + geom.T + 2.0 * step
            fine = np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1)
            v_anti = np.concatenate([[0.0], cumulative_trapezoid(init.v0(fine), fine)])
            w += 0.5 * (np.interp(xp, fine, v_anti) - np.interp(xm, fine, v_anti))
        return w
    u0 = init.u0(geom.x_grid)
    decay = np.exp(-0.5 * t_col * geom.omega_r[None, :] ** 2)
    w = np.fft.irfft(decay * np.fft.rfft(u0)[None, :], n=geom.n_fft, axis=1)
    w[0] = u0
    return w


HOMOGENEOUS_DATA = {
    "const": constant_initial(0.7),
    "holder-sample": sampled_holder_initial(0.3, 5),
    "v0": InitialData(
        u0=sampled_holder_initial(0.3, 5).u0, v0=lambda x: 0.7 + np.sin(3.0 * x)
    ),
}


class TestHomogeneous:
    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("datum", list(HOMOGENEOUS_DATA))
    @pytest.mark.parametrize("chunk", [1, 16])
    def test_rows_are_the_whole_array_term(self, monkeypatch, equation, datum, chunk):
        # row by row, w is bit for bit the term formed on whole arrays
        monkeypatch.setattr(picard, "NOISE_CHUNK", chunk)
        init = HOMOGENEOUS_DATA[datum]
        geom = build_geometry(small_config(equation, init=init))
        rows = np.stack(list(_homogeneous_rows(geom, init)))
        np.testing.assert_array_equal(rows, whole_array_homogeneous(geom, init))

    def test_constant_datum_is_stationary(self):
        for equation in ("wave", "heat"):
            w = homogeneous_term(small_config(equation, init=constant_initial(3.0)))
            np.testing.assert_allclose(w.values, 3.0, rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(w.values[0], 3.0)

    def test_wave_velocity_ramp(self):
        # u0 = 0, v0 = 1 gives u(t, x) = t
        cfg = small_config(init=constant_initial(0.0, v0_value=1.0))
        w = homogeneous_term(cfg)
        t = w.t_grid[:, None]
        np.testing.assert_allclose(w.core_values, np.broadcast_to(t, w.core_values.shape), atol=1e-10)

    def test_velocity_antiderivative_is_scipys_cumulative_trapezoid(self):
        # the v0 antiderivative is the same expression as scipy's, bit for bit
        x = np.linspace(-2.0, 3.0, 2001)
        x[1::3] += 1e-4
        v = np.sin(3.0 * x) + x * x
        expected = np.concatenate([[0.0], cumulative_trapezoid(v, x)])
        assert np.array_equal(_trapezoid_antiderivative(v, x), expected)

    def test_wave_quadratic_datum(self):
        # u0 = x^2 gives u = x^2 + t^2 (d'Alembert average of quadratics)
        cfg = small_config(init=InitialData(u0=lambda x: x * x))
        w = homogeneous_term(cfg)
        t = w.t_grid[:, None]
        x = w.core_x[None, :]
        np.testing.assert_allclose(w.core_values, x * x + t * t, atol=1e-12)

    def test_heat_lattice_mode_decays(self):
        cfg = small_config("heat", T=0.25)
        geom = build_geometry(cfg)
        k = geom.omega_r[8]
        cfg = replace(cfg, init=InitialData(u0=lambda x, k=k: np.sin(k * x)))
        w = homogeneous_term(cfg)
        t = w.t_grid[:, None]
        expected = np.exp(-0.5 * t * k * k) * np.sin(k * w.x_grid[None, :])
        np.testing.assert_allclose(w.values, expected, atol=1e-12)

    def test_wave_window_too_small(self):
        cfg = small_config(T=2.0, pad=0.5, n_steps=64)
        with pytest.raises(ValueError, match="window too small"):
            homogeneous_term(cfg)

    def test_heat_window_too_small(self):
        cfg = small_config("heat", T=1.0, pad=0.5, n_steps=64)
        with pytest.raises(ValueError, match="window too small"):
            homogeneous_term(cfg)


class TestNoiseSlabs:
    def test_shape_and_determinism(self):
        geom = build_geometry(small_config())
        eta = noise_slabs(geom, seed=3)
        assert eta.shape == (geom.n_steps, geom.n_fft)
        np.testing.assert_array_equal(eta, noise_slabs(geom, seed=3))
        assert not np.array_equal(eta, noise_slabs(geom, seed=3, realization=1))

    def test_spatial_mean_carries_band_zero(self):
        # the lattice mean of each slab is the real band-0 increment,
        # with variance 2 dt m_0
        geom = build_geometry(small_config(n_steps=4))
        means = np.array([
            noise_slabs(geom, seed=50, realization=r).mean(axis=1)
            for r in range(400)
        ])
        var = means.ravel().var()
        target = 2.0 * geom.dt * geom.band_masses[0]
        se = target * math.sqrt(2.0 / means.size)
        assert abs(var - target) <= 4.0 * se


def heat_slab_weight(geom):
    """c_k = sqrt((1 - exp(-dt w_k^2)) / (dt w_k^2)), c_0 = 1, on every rfft
    frequency: slab i reaches t_j with weight c exp(-(t_j - t_{i+1}) w^2 / 2),
    whose square times dt is the exact slab variance int exp(-s w^2) ds."""
    x = geom.dt * geom.omega_r**2
    c = np.ones_like(x)
    c[1:] = np.sqrt((1.0 - np.exp(-x[1:])) / x[1:])
    return c


def direct_stochastic_term(geom, q):
    """O(n^2) reference: sum_i irfft(symbol(t_j - t_i) rfft(q_i)), the heat
    symbol with the exact-variance slab weight."""
    p_hat = np.fft.rfft(q, axis=1)
    om = geom.omega_r
    c = heat_slab_weight(geom)
    out = np.zeros((geom.n_steps, geom.n_fft))
    for j in range(1, geom.n_steps + 1):
        acc = np.zeros(om.size, dtype=complex)
        for i in range(j):
            tau = geom.dt * (j - i)
            if geom.equation == "wave":
                sym = np.empty(om.size)
                sym[1:] = np.sin(tau * om[1:]) / om[1:]
                sym[0] = tau
            else:
                sym = c * np.exp(-0.5 * (tau - geom.dt) * om**2)
            acc += sym * p_hat[i]
        out[j - 1] = np.fft.irfft(acc, n=geom.n_fft)
    return out


class TestPicardStep:
    def test_zero_noise_returns_homogeneous(self):
        cfg = small_config()
        geom = build_geometry(cfg)
        w = homogeneous_term(cfg).values
        eta = np.zeros((geom.n_steps, geom.n_fft))
        rng = np.random.default_rng(0)
        u_prev = rng.normal(size=w.shape)
        np.testing.assert_array_equal(picard_step(geom, cfg.sigma, u_prev, eta, w), w)

    def test_zero_a_ignores_previous_iterate(self):
        cfg = small_config(sigma=AffineSigma(0.0, 1.0))
        geom = build_geometry(cfg)
        w = homogeneous_term(cfg).values
        eta = noise_slabs(geom, cfg.seed)
        rng = np.random.default_rng(1)
        u1 = picard_step(geom, cfg.sigma, w + rng.normal(size=w.shape), eta, w)
        u2 = picard_step(geom, cfg.sigma, w - 5.0, eta, w)
        np.testing.assert_array_equal(u1, u2)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_matches_direct_convolution(self, equation):
        cfg = small_config(equation, n_steps=16, dx=1.0 / 32, T=0.25)
        geom = build_geometry(cfg)
        w = homogeneous_term(cfg).values
        eta = noise_slabs(geom, seed=11)
        u = picard_step(geom, cfg.sigma, w, eta, w)
        q = cfg.sigma(w[: geom.n_steps]) * eta
        expected = w.copy()
        expected[1:] += direct_stochastic_term(geom, q)
        np.testing.assert_allclose(u, expected, rtol=1e-11, atol=1e-13)

    def test_wave_sums_equal_the_slab_update(self):
        # picard_step's whole-array wave sums are the engine's slab-by-slab
        # update, bit for bit; add returns its one buffer, so each row is
        # copied
        cfg = small_config()
        geom = build_geometry(cfg)
        w = homogeneous_term(cfg).values
        eta = noise_slabs(geom, seed=4)
        p_hat = np.fft.rfft(cfg.sigma(w[:-1]) * eta, axis=1)
        add = _slab_sums(geom)
        sym = np.array([add(j, p_hat[j]).copy() for j in range(geom.n_steps)])
        expected = w.copy()
        expected[1:] += np.fft.irfft(sym, n=geom.n_fft, axis=1)
        np.testing.assert_array_equal(picard_step(geom, cfg.sigma, w, eta, w), expected)

    def test_adapted_to_past_slabs(self):
        # zeroing slabs i >= j leaves rows <= j untouched
        cfg = small_config()
        geom = build_geometry(cfg)
        w = homogeneous_term(cfg).values
        eta = noise_slabs(geom, seed=4)
        full = picard_step(geom, cfg.sigma, w, eta, w)
        j = 10
        eta_cut = eta.copy()
        eta_cut[j:] = 0.0
        cut = picard_step(geom, cfg.sigma, w, eta_cut, w)
        np.testing.assert_array_equal(full[: j + 1], cut[: j + 1])
        assert not np.array_equal(full[j + 1], cut[j + 1])

    def test_rejects_wrong_shapes(self):
        cfg = small_config()
        geom = build_geometry(cfg)
        w = homogeneous_term(cfg).values
        eta = noise_slabs(geom, seed=4)
        with pytest.raises(ValueError):
            picard_step(geom, cfg.sigma, w[:-1], eta, w)
        with pytest.raises(ValueError):
            picard_step(geom, cfg.sigma, w, eta[:, :-1], w)


def draw(cfg):
    """The lattice, the homogeneous term and the noise of one solve."""
    geom = build_geometry(cfg)
    return geom, _homogeneous_values(geom, cfg.init), noise_slabs(geom, cfg.seed, cfg.realization)


def iterate(geom, sigma, w, eta, max_iters, tol=None):
    """The Picard iteration of one draw on the iterate engine, stopped by
    _delta_history's rule: (the iterate where it stopped, its deltas, whether
    the rule stopped it).  Levels up to n do not depend on the levels above,
    so the stopping iterate is the final level of an engine run to n."""
    levels = _picard_levels(geom, sigma, iter(w), eta[:, None], max_iters)
    deltas, converged = _delta_history(levels[0], tol)
    field = np.empty_like(w)

    def keep(j, rows):
        field[j] = rows[0, -1]

    _picard_levels(geom, sigma, iter(w), eta[:, None], len(deltas), on_row=keep)
    return field, deltas, converged


def sweep(geom, sigma, w, eta):
    """The engine's fixed-point sweep on the given rows of w and noise
    slabs: every row of its fixed point u."""
    u = np.empty_like(w)

    def keep(j, rows):
        u[j] = rows[0, 1]

    _picard_levels(geom, sigma, iter(w), iter(eta[:, None]), 1, on_row=keep, fixed_point=True)
    return u


def default_config(equation, **settings):
    return to_picard_config(from_mapping({"equation": equation, **settings}))


class TestSolve:
    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("seed", range(5))
    def test_is_the_fixed_point_at_the_defaults(self, equation, seed):
        res = solve(default_config(equation, seed=seed))
        spread = float(np.max(np.abs((res.field.values - res.homogeneous)[:, res.geometry.core])))
        assert spread > 0.0
        assert res.residual <= 1e-12 * spread
        assert res.stopping_threshold == res.config.tol * spread

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_picard_iterate_agrees_with_the_sweep_on_its_first_rows(self, equation):
        # row j + 1 of a Picard step reads rows 0..j, so u^n is exact on rows 0..n
        cfg = small_config(equation)
        geom, w, eta = draw(cfg)
        fixed = sweep(geom, cfg.sigma, w, eta)
        scale = float(np.max(np.abs(fixed)))
        u = w
        for n in range(1, 6):
            u = picard_step(geom, cfg.sigma, u, eta, w)
            np.testing.assert_allclose(u[: n + 1], fixed[: n + 1], rtol=0.0, atol=1e-12 * scale)
        u, deltas, _ = iterate(geom, cfg.sigma, w, eta, cfg.max_iters)
        assert len(deltas) == cfg.max_iters
        gap = float(np.max(np.abs((u - fixed)[:, geom.core])))
        assert gap <= cfg.tol * float(np.max(np.abs((fixed - w)[:, geom.core])))

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_any_split_into_blocks_is_one_block(self, equation):
        # the residual's chunks carry the running sums: bit for bit picard_step
        cfg = small_config(equation)
        geom, w, eta = draw(cfg)
        p_hat = np.fft.rfft(cfg.sigma(w[:-1]) * eta, axis=1)
        whole = _stochastic_blocks(geom)(p_hat)
        term = _stochastic_blocks(geom)
        split = [term(p_hat[a:b]) for a, b in ((0, 1), (1, 17), (17, 20), (20, geom.n_steps))]
        np.testing.assert_array_equal(np.concatenate(split), whole)

    def test_consumers_see_rows_of_w_and_u(self):
        # with consumers, solve keeps no field and hands out the rows it
        # would keep: levels[0] of w and levels[1] of u
        cfg = small_config("heat")
        full = solve(cfg)
        seen = {}

        class Spy:
            t_idx = (0, 5, -1)

            def observe(self, r, k, levels):
                seen[k] = (r, levels.copy())

        res = solve(cfg, consumers=(Spy(),))
        assert res.field is None and res.homogeneous is None
        assert (res.residual, res.stopping_threshold) == (full.residual, full.stopping_threshold)
        for k, j in enumerate((0, 5, cfg.n_steps)):
            r, levels = seen[k]
            assert r == 0
            np.testing.assert_array_equal(levels[0], full.homogeneous[j])
            np.testing.assert_array_equal(levels[1], full.field.values[j])

    def test_reproducible(self):
        a = solve(small_config())
        b = solve(small_config())
        np.testing.assert_array_equal(a.field.values, b.field.values)
        assert not np.array_equal(
            a.field.values, solve(small_config(realization=3)).field.values
        )

    def test_zero_noise_is_homogeneous(self):
        # no stochastic term: residual and threshold are both 0, also at tol = inf
        res = solve(small_config(sigma=AffineSigma(0.0, 0.0), tol=math.inf))
        np.testing.assert_array_equal(res.field.values, res.homogeneous)
        assert res.residual == 0.0 and res.stopping_threshold == 0.0

    def test_overflow_is_divergence(self):
        # a huge a overflows sigma(u) in the sweep; the residual step reports
        # it as a non-finite delta, with no numpy warning
        cfg = small_config(sigma=AffineSigma(1e308, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PicardDivergenceError, match="non-finite delta") as exc:
                solve(cfg)
        assert isinstance(exc.value, PicardConvergenceError)
        assert not math.isfinite(exc.value.deltas[-1])

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_result_carries_homogeneous_term(self, equation):
        cfg = small_config(equation)
        res = solve(cfg)
        np.testing.assert_array_equal(res.homogeneous, homogeneous_term(cfg).values)

    def test_scaling_covariance(self):
        # doubling (u0, b) doubles every float of the iteration and of the
        # sweep exactly
        cfg1 = small_config(
            init=constant_initial(1.0), sigma=AffineSigma(0.5, 1.0), max_iters=3
        )
        cfg2 = small_config(
            init=constant_initial(2.0), sigma=AffineSigma(0.5, 2.0), max_iters=3
        )
        g1, g2 = build_geometry(cfg1), build_geometry(cfg2)
        w1, w2 = homogeneous_term(cfg1).values, homogeneous_term(cfg2).values
        eta = noise_slabs(g1, cfg1.seed)
        u1, u2 = w1, w2
        for _ in range(3):
            u1 = picard_step(g1, cfg1.sigma, u1, eta, w1)
            u2 = picard_step(g2, cfg2.sigma, u2, eta, w2)
        np.testing.assert_array_equal(u2, 2.0 * u1)
        np.testing.assert_array_equal(solve(cfg2).field.values, 2.0 * solve(cfg1).field.values)

    def test_additive_shift_covariance(self):
        # with sigma(u) = u, shifting u0 by c shifts every iterate by c
        c = 1.0
        cfg1 = small_config(
            "heat", init=constant_initial(c), sigma=AffineSigma(1.0, 0.0)
        )
        cfg2 = small_config(
            "heat", init=constant_initial(0.0), sigma=AffineSigma(1.0, c)
        )
        g = build_geometry(cfg1)
        w1 = homogeneous_term(cfg1).values
        w2 = homogeneous_term(cfg2).values
        eta = noise_slabs(g, cfg1.seed)
        u1, u2 = w1, w2
        for _ in range(3):
            u1 = picard_step(g, cfg1.sigma, u1, eta, w1)
            u2 = picard_step(g, cfg2.sigma, u2, eta, w2)
        np.testing.assert_array_equal(u1, u2 + c)

    def test_uniqueness_probe(self):
        out = uniqueness_probe(small_config(tol=1e-8, max_iters=14), 0.5)
        assert out["passed"]

    def test_uniqueness_probe_callable(self):
        out = uniqueness_probe(
            small_config(tol=1e-8, max_iters=14),
            lambda x: np.exp(-(x**2)),
        )
        assert out["passed"]


class TestIterate:
    """Picard iteration, where the iterates are the object: the iterate
    engine under the stopping rule of _delta_history, the probe that raises
    on it, and solve_ensemble."""

    def test_zero_a_converges_in_two_steps(self):
        cfg = small_config(sigma=AffineSigma(0.0, 1.0))
        geom, w, eta = draw(cfg)
        _, deltas, converged = iterate(geom, cfg.sigma, w, eta, cfg.max_iters, cfg.tol)
        assert converged and len(deltas) == 2
        assert deltas[1] == 0.0

    def test_tol_inf_stops_after_one_step(self):
        cfg = small_config()
        geom, w, eta = draw(cfg)
        u, deltas, converged = iterate(geom, cfg.sigma, w, eta, cfg.max_iters, math.inf)
        assert converged and len(deltas) == 1
        np.testing.assert_array_equal(u, picard_step(geom, cfg.sigma, w, eta, w))

    def test_nonconvergence_carries_history(self):
        cfg = small_config(max_iters=2, tol=1e-14)
        with pytest.raises(PicardConvergenceError) as exc:
            uniqueness_probe(cfg, 0.5)
        assert len(exc.value.deltas) == 2
        assert exc.value.deltas[1] < exc.value.deltas[0]

    def test_overflow_is_divergence(self):
        # the iteration stops at the second step, with the non-finite delta
        # last and no numpy warning
        cfg = small_config(sigma=AffineSigma(1e308, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PicardDivergenceError) as exc:
                solve_ensemble(cfg, 2, n_iters=3)
        assert len(exc.value.deltas) == 2
        assert math.isfinite(exc.value.deltas[0])
        assert not math.isfinite(exc.value.deltas[-1])

    def test_deltas_decay_geometrically(self):
        d = solve_ensemble(small_config(), 1, n_iters=7)[0]
        assert np.all(d[1:] < 0.5 * d[:-1])


class TestEnsemble:
    def test_fixed_iteration_count(self):
        cfg = small_config(max_iters=4)
        assert solve_ensemble(cfg, 3).shape == (3, 4)

    def test_collector_sees_every_difference(self):
        seen = []

        class Spy:
            t_idx = (-1,)

            def observe(self, r, k, levels):
                for n, diff in enumerate(levels[1:] - levels[:-1], start=1):
                    seen.append((n, float(np.max(np.abs(diff)))))

        solve_ensemble(small_config(), 2, n_iters=3, collectors=(Spy(),))
        assert [n for n, _ in seen] == [1, 2, 3, 1, 2, 3]

    def test_collectors_receive_each_realization(self):
        seen = []

        class Spy:
            t_idx = (-1,)

            def observe(self, r, k, levels):
                seen.append((r, k, levels.shape))

        cfg = small_config()
        geom = build_geometry(cfg)
        finals = FinalIterates(geom)
        solve_ensemble(cfg, 2, n_iters=2, collectors=(Spy(), finals))
        assert seen == [(0, 0, (3, geom.n_fft)), (1, 0, (3, geom.n_fft))]
        assert [f.shape for f in finals.fields] == [(geom.n_steps + 1, geom.n_fft)] * 2

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            solve_ensemble(small_config(), 0)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_one_realization_reproduces_solve(self, equation):
        # one realization iterated max_iters times is the Picard iteration of
        # that draw, bit for bit, and lies within tol of solve's fixed point
        cfg = small_config(equation, realization=2)
        geom, w, eta = draw(cfg)
        u, deltas, _ = iterate(geom, cfg.sigma, w, eta, cfg.max_iters)
        finals = FinalIterates(geom)
        ens = solve_ensemble(cfg, 1, collectors=(finals,))
        np.testing.assert_array_equal(ens[0], deltas)
        np.testing.assert_array_equal(finals.fields[0], u)
        res = solve(cfg)
        gap = float(np.max(np.abs((finals.fields[0] - res.field.values)[:, geom.core])))
        assert gap <= res.stopping_threshold

    def test_runs_past_exact_fixed_point(self):
        # with a = 0 the second step reproduces the first exactly; the
        # ensemble still records every one of its n_iters deltas
        seen = []

        class Spy:
            t_idx = (-1,)

            def observe(self, r, k, levels):
                seen.extend(range(1, levels.shape[0]))

        cfg = small_config(sigma=AffineSigma(0.0, 1.0))
        deltas = solve_ensemble(cfg, 2, n_iters=4, collectors=(Spy(),))
        assert deltas.shape == (2, 4)
        assert np.all(deltas[:, 0] > 0.0)
        np.testing.assert_array_equal(deltas[:, 1:], 0.0)
        assert seen == [1, 2, 3, 4, 1, 2, 3, 4]


class RowSpy:
    """A collector that keeps the differences u^n - u^{n-1} of every row it
    declares; ``rows`` lists (n, rows t_idx of u^n - u^{n-1}) in
    realization-major order."""

    def __init__(self, t_idx):
        self.t_idx = t_idx
        self._diffs = {}

    def observe(self, r, k, levels):
        self._diffs.setdefault(r, {})[k] = levels[1:] - levels[:-1]

    @property
    def rows(self):
        out = []
        for r in sorted(self._diffs):
            by_row = self._diffs[r]
            stacked = np.stack([by_row[k] for k in range(len(self.t_idx))], axis=1)
            out.extend(enumerate(stacked, start=1))
        return out


def chained_steps(cfg, n_realizations, n_iters, t_idx):
    """The oracle of the iterate engine: n_iters chained picard_step calls per
    realization.  Returns the deltas, the final iterates, (n, rows t_idx of
    u^n - u^{n-1}) in realization-major order, and the first increments at
    the final-time lattice center."""
    geom = build_geometry(cfg)
    w = _homogeneous_values(geom, cfg.init)
    deltas, finals, rows, firsts = [], [], [], []
    for r in range(n_realizations):
        eta = noise_slabs(geom, cfg.seed, cfg.realization + r)
        u, history = w, []
        for n in range(1, n_iters + 1):
            u_next = picard_step(geom, cfg.sigma, u, eta, w)
            diff = u_next - u
            history.append(_core_delta(diff, geom, n, history))
            rows.append((n, diff[list(t_idx)]))
            if n == 1:
                firsts.append(float(diff[-1, geom.n_fft // 2]))
            u = u_next
        deltas.append(history)
        finals.append(u)
    return np.array(deltas), finals, rows, firsts


def engine_run(cfg, n_realizations, n_iters, t_idx):
    """The same four outputs from solve_ensemble."""
    spy, first = RowSpy(t_idx), FirstIncrementCollector()
    finals = FinalIterates(build_geometry(cfg))
    deltas = solve_ensemble(cfg, n_realizations, n_iters=n_iters, collectors=(spy, first, finals))
    return deltas, finals.fields, spy.rows, first.values


def assert_same_run(got, expected):
    deltas, finals, rows, firsts = got
    np.testing.assert_array_equal(deltas, expected[0])
    assert len(finals) == len(expected[1])
    for a, b in zip(finals, expected[1]):
        np.testing.assert_array_equal(a, b)
    assert [n for n, _ in rows] == [n for n, _ in expected[2]]
    for (_, a), (_, b) in zip(rows, expected[2]):
        np.testing.assert_array_equal(a, b)
    assert firsts == expected[3]


# the rows a test collector declares: the first, an inner and the last one
SPY_ROWS = (0, 5, -1)


class TestEngine:
    """The iterate engine behind solve_ensemble and uniqueness_probe: bit
    for bit the chained picard_step calls, whatever the batching."""

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_chained_picard_steps(self, equation, seed):
        # 5 realizations: one full batch of ENGINE_BATCH = 4 and a partial one
        cfg = small_config(equation, seed=seed)
        expected = chained_steps(cfg, 5, 4, SPY_ROWS)
        assert_same_run(engine_run(cfg, 5, 4, SPY_ROWS), expected)

    @pytest.mark.parametrize("batch", [1, 2, 3, 8])
    def test_does_not_depend_on_the_batch(self, monkeypatch, batch):
        cfg = small_config("heat", realization=1)
        expected = engine_run(cfg, 6, 3, SPY_ROWS)
        monkeypatch.setattr(picard, "ENGINE_BATCH", batch)
        assert_same_run(engine_run(cfg, 6, 3, SPY_ROWS), expected)

    def test_a_smaller_ensemble_is_a_prefix(self):
        cfg = small_config()
        deltas, finals, rows, firsts = engine_run(cfg, 7, 3, SPY_ROWS)
        prefix = (deltas[:3], finals[:3], rows[:9], firsts[:3])
        assert_same_run(engine_run(cfg, 3, 3, SPY_ROWS), prefix)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_does_not_depend_on_the_thread_split(self, equation):
        cfg = small_config(equation)

        def collect(geom):
            return FieldSampleCollector(geom, 8, 32), FirstIncrementCollector()

        runs = []
        for threads in (1, 2, 3):
            deltas, blocks = cli._solve_ensemble_blocks(cfg, 7, 3, threads, collect)
            ensemble = np.concatenate([block[0].finalize().values for block in blocks])
            runs.append((deltas, ensemble, [v for block in blocks for v in block[1].values]))
        for deltas, ensemble, firsts in runs[1:]:
            np.testing.assert_array_equal(deltas, runs[0][0])
            np.testing.assert_array_equal(ensemble, runs[0][1])
            assert firsts == runs[0][2]

    def test_an_engine_reading_its_own_level_fails(self, monkeypatch):
        # level n + 1 built from itself instead of from level n: the
        # fixed-point source fed to the iterate mode
        cfg = small_config()
        expected = chained_steps(cfg, 2, 3, SPY_ROWS)
        engine = picard._picard_levels

        def faulty(*args, **kwargs):
            return engine(*args, **kwargs, fixed_point=True)

        monkeypatch.setattr(picard, "_picard_levels", faulty)
        deltas, finals, rows, firsts = engine_run(cfg, 2, 3, SPY_ROWS)
        assert not np.array_equal(deltas, expected[0])
        assert not np.array_equal(finals[0], expected[1][0])

    def test_a_slab_lagged_by_one_fails(self, monkeypatch):
        # row j + 1 fed by slab j - 1 (and row 1 by no noise)
        noise_rows = picard._noise_rows

        def lagged(geom, seed, realizations):
            rows = noise_rows(geom, seed, realizations)
            first = next(rows)
            yield np.zeros_like(first)
            yield first
            yield from itertools.islice(rows, geom.n_steps - 2)

        cfg = small_config()
        expected = chained_steps(cfg, 2, 3, SPY_ROWS)
        monkeypatch.setattr(picard, "_noise_rows", lagged)
        deltas, finals, rows, firsts = engine_run(cfg, 2, 3, SPY_ROWS)
        assert not np.array_equal(deltas, expected[0])
        assert not np.array_equal(finals[0], expected[1][0])

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_a_batch_of_fixed_points_is_separate_solves(self, equation):
        # the fixed-point sweep of a batch of 4 draws (ENGINE_BATCH) in one
        # pass: each u is solve's field of that draw, bit for bit
        cfg = small_config(equation)
        geom = build_geometry(cfg)
        batch = range(4)
        u = np.empty((len(batch), geom.n_steps + 1, geom.n_fft))

        def keep(j, rows):
            u[:, j] = rows[:, 1]

        slabs = _noise_rows(geom, cfg.seed, [cfg.realization + r for r in batch])
        _picard_levels(
            geom, cfg.sigma, _homogeneous_rows(geom, cfg.init), slabs, 1,
            on_row=keep, fixed_point=True,
        )
        for r in batch:
            field = solve(replace(cfg, realization=cfg.realization + r)).field.values
            np.testing.assert_array_equal(u[r], field)

    @pytest.mark.parametrize("chunk", [1, 5, 16, 64])
    def test_noise_rows_are_the_noise_slabs(self, monkeypatch, chunk):
        # 37 slabs: the last chunk is a partial one unless it holds them all
        monkeypatch.setattr(picard, "NOISE_CHUNK", chunk)
        geom = build_geometry(small_config("heat", n_steps=37))
        rows = np.stack(list(picard._noise_rows(geom, 3, [0, 5, 2])), axis=1)
        for i, r in enumerate([0, 5, 2]):
            np.testing.assert_array_equal(rows[i], noise_slabs(geom, 3, r))

    def test_memory_does_not_grow_with_the_levels(self):
        # on 512 slabs, 12 levels peak within half a field of 1 level: the
        # engine holds rows of the levels, never whole iterates
        cfg = small_config(n_steps=512)
        geom = build_geometry(cfg)
        field_bytes = (geom.n_steps + 1) * geom.n_fft * 8
        peaks = []
        for n_iters in (1, 12):
            solve_ensemble(cfg, 1, n_iters=n_iters)
            tracemalloc.start()
            try:
                solve_ensemble(cfg, 1, n_iters=n_iters)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + field_bytes / 2


class LevelsEqualW:
    """A collector that checks, at every row, that each level holds the
    bytes of level 0 (= w): signed zeros included."""

    def __init__(self, geom):
        self.t_idx = np.arange(geom.n_steps + 1)
        self.rows_seen = 0

    def observe(self, r, k, levels):
        assert levels[1:].tobytes() == np.broadcast_to(levels[0], levels[1:].shape).tobytes()
        self.rows_seen += 1


class TestZeroSigma:
    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_levels_are_w_and_deltas_positive_zero(self, equation):
        # sigma = 0: every stochastic term is a sum of signed zeros, and the
        # reciprocal of the wave symbol must leave w, and a +0.0 delta, as
        # they are
        cfg = small_config(equation, sigma=AffineSigma(0.0, 0.0))
        spy = LevelsEqualW(build_geometry(cfg))
        deltas = solve_ensemble(cfg, 5, n_iters=3, collectors=(spy,))
        assert spy.rows_seen == 5 * (cfg.n_steps + 1)
        assert np.all(deltas == 0.0) and not np.signbit(deltas).any()


def sha256(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


# sha256 of the bytes of solve_ensemble(small_config(equation), 5, n_iters=3)
# (its deltas and the final iterate of each realization), of solve's field
# and of one picard_step from w, recorded with numpy 2.4.6 on x86-64
GOLDEN = {
    "wave": {
        "deltas": "1a84ee94eacc5a9de2eb4c064c05bdfb3272357bf826bfd7a64c0d4ebef63c9a",
        "finals": "cfb1787dcde55867677fbc6b7899f3e6317e0f71618b86b23fb92175af0bf1cd",
        "solve": "e1c1556343a0561ac6807df64aca0b39774dab60e1c604084b9ee48580de3434",
        "step": "9e06614367c3ccf15a30697e41a54c98ce3f30adac4b4270751fabd559823e3e",
    },
    "heat": {
        "deltas": "bb716dc79a4ed2d6f852bdebda4e339472352373803256fb8f9a6c9cd1290ade",
        "finals": "082a96a6d57029b0be69fc693225628511b3fd2cad04b4e3b58ac9b3f7e5a3a5",
        "solve": "b155e8e5f1c9fc1aec4239069665af6154fdbe7ac61d152d1008a8a44a544340",
        "step": "5f5d1d4b9a5286bb80e9db4e72e9398494f4087050b9ba2e1b2b7b916227cc48",
    },
}


@pytest.mark.skipif(
    np.__version__ != "2.4.6", reason="the pinned bytes are those of numpy 2.4.6's FFT and trig"
)
class TestGoldenBits:
    """The engine, in both modes, and picard_step pinned to recorded bytes:
    the tests that compare one route with another cannot see a change made
    to all of them at once."""

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_ensemble_solve_and_step_keep_their_bytes(self, equation):
        cfg = small_config(equation)
        geom = build_geometry(cfg)
        finals = FinalIterates(geom)
        deltas = solve_ensemble(cfg, 5, n_iters=3, collectors=(finals,))
        result = solve(cfg)
        w = _homogeneous_values(geom, cfg.init)
        step = picard_step(geom, cfg.sigma, w, noise_slabs(geom, cfg.seed), w)
        assert {
            "deltas": sha256(deltas),
            "finals": sha256(np.stack(finals.fields)),
            "solve": sha256(result.field.values),
            "step": sha256(step),
        } == GOLDEN[equation]
        assert result.residual == 0.0


class TestMemoryIsFlatInSteps:
    """At a fixed n_fft, doubling n_steps leaves the tracemalloc peaks of a
    single `picard` run and of solve_ensemble where they were: no solver
    path holds an array that grows with n_steps."""

    @staticmethod
    def peaks(run):
        out = []
        for dt in (1.0 / 512, 1.0 / 1024):
            run(dt)
            tracemalloc.start()
            try:
                run(dt)
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return out

    @staticmethod
    def field_bytes(equation):
        # the whole field at the smaller n_steps
        geom = build_geometry(default_config(equation, T=0.25, dx=1.0 / 128, dt=1.0 / 512))
        return (geom.n_steps + 1) * geom.n_fft * 8

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_single_picard_run(self, equation, tmp_path):
        def run(dt):
            args = ["picard", "--equation", equation, "--T", "0.25", "--dx", "0.0078125"]
            assert cli.main(args + ["--dt", repr(dt), "--out", str(tmp_path)]) == 0

        small, large = self.peaks(run)
        assert large < small + self.field_bytes(equation) / 8

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_ensemble(self, equation):
        def run(dt):
            solve_ensemble(default_config(equation, T=0.25, dx=1.0 / 128, dt=dt), 4, n_iters=2)

        small, large = self.peaks(run)
        assert large < small + self.field_bytes(equation) / 8


def exact_first_increment_variance(geom, t):
    """Var(u^1 - w)(t, x) for sigma == 1: the lattice-banded integral in
    closed form, 2 dt sum_{i,k} m_k sym(t - t_i, w_k)^2, with the heat
    symbol carrying the exact-variance slab weight."""
    t_left = geom.dt * np.arange(geom.n_steps)
    tau = t - t_left[t_left < t - 1e-12]
    om = geom.omega_r[: geom.n_bands]
    if geom.equation == "wave":
        sym = np.empty((tau.size, om.size))
        sym[:, 1:] = np.sin(np.outer(tau, om[1:])) / om[1:]
        sym[:, 0] = tau
    else:
        c = heat_slab_weight(geom)[: geom.n_bands]
        sym = c * np.exp(-0.5 * np.outer(tau - geom.dt, om**2))
    return 2.0 * geom.dt * float(np.sum(geom.band_masses * sym**2))


class TestFirstIncrementVariance:
    """The additive case (a = 0, b = 1) has a known variance: the time
    integral of the weighted squared kernel symbol.  The lattice sum must
    sit within 2 percent of that closed form, and the simulated ensemble
    within 3 standard errors of the lattice sum."""

    def test_lattice_sum_matches_closed_form(self):
        cfg = small_config(
            T=1.0, n_steps=64, sigma=AffineSigma(0.0, 1.0), max_iters=1, tol=math.inf
        )
        geom = build_geometry(cfg)
        disc = exact_first_increment_variance(geom, 1.0)
        closed = c_H(0.3) * A_T("wave", 1.0, 1.0 - 2.0 * 0.3)
        assert closed == pytest.approx(0.23684, rel=1e-3)
        assert abs(disc - closed) / closed < 0.02

    def test_monte_carlo_agrees(self):
        cfg = small_config(
            T=1.0, n_steps=64, sigma=AffineSigma(0.0, 1.0), max_iters=1, tol=math.inf
        )
        geom = build_geometry(cfg)
        disc = exact_first_increment_variance(geom, 1.0)
        center = geom.n_fft // 2
        acc = {"s2": 0.0, "s4": 0.0, "n": 0}

        class Spy:
            t_idx = (-1,)

            def observe(self, r, k, levels):
                d = float(levels[1, center] - levels[0, center])
                acc["s2"] += d * d
                acc["s4"] += d**4
                acc["n"] += 1

        solve_ensemble(cfg, 1500, n_iters=1, collectors=(Spy(),))
        m2 = acc["s2"] / acc["n"]
        se = math.sqrt(max(acc["s4"] / acc["n"] - m2 * m2, 0.0) / acc["n"])
        assert abs(m2 - disc) <= 3.0 * se


def impulse_response(geom, band=None):
    """The additive (sigma = 1) response of the engine's fixed-point sweep
    to a unit draw Z_{0k} = 1 in slab 0, on every band or on one; row j is
    R_k(t_j), the spectral gain from the slab-0 draw of band k to u(t_j)."""
    z = np.zeros((geom.n_steps, geom.n_bands), dtype=complex)
    z[0, slice(None) if band is None else band] = 1.0
    eta = _band_field(geom, z)
    u = sweep(geom, AffineSigma(0.0, 1.0), np.zeros((geom.n_steps + 1, geom.n_fft)), eta)
    # the irfft half spectrum that _band_field gives a unit draw: (-1)^k, and 2 at k = 0
    half = (-1.0) ** np.arange(geom.n_bands)
    half[0] = 2.0
    return np.fft.rfft(u, axis=1, norm="forward")[:, : geom.n_bands] / half


class TestHeatSlabLaw:
    """With sigma = b the heat scheme has the exact Ornstein-Uhlenbeck law at
    grid times, band by band: slab j enters with the exact-variance weight
    and then decays by exp(-dt w^2 / 2) per step."""

    def test_variance_at_the_defaults_is_near_the_continuum(self):
        # the heat scheme is time-invariant, so the response to slab i at T
        # is the slab-0 response at T - t_i: Var u(T, x) = 2 dt sum_k m_k sum_j R_k(t_j)^2
        geom = build_geometry(default_config("heat", sigma_a=0.0))
        r = impulse_response(geom)
        assert np.max(np.abs(r.imag)) < 1e-12
        var = 2.0 * geom.dt * float(np.sum(geom.band_masses * np.sum(r[1:].real ** 2, axis=0)))
        assert var == pytest.approx(exact_first_increment_variance(geom, geom.T), rel=1e-12)
        continuum = c_H(0.3) * A_T("heat", 0.5, 1.0 - 2.0 * 0.3)
        assert continuum == pytest.approx(0.40434, rel=1e-4)
        assert abs(var - continuum) / continuum < 0.02

    @pytest.mark.parametrize("band", [0, 1, 5, 37])
    def test_one_band_impulse_follows_the_ou_transition(self, band):
        # the law of regularity.sample_additive_solution("heat") per band:
        # y(t + dt) = exp(-dt w^2 / 2) y(t) + innovation of variance
        # m (1 - exp(-dt w^2)) / w^2 (m dt at w = 0)
        geom = build_geometry(small_config("heat"))
        r = impulse_response(geom, band)
        others = np.delete(r, band, axis=1)
        assert np.max(np.abs(others)) < 1e-12
        gain = r[1:, band].real
        om = geom.omega_r[band : band + 1]
        m = geom.band_masses[band : band + 1]
        innovation = _heat_innovation_var(om, geom.dt, m)[0]
        assert gain[0] ** 2 * geom.dt * m[0] == pytest.approx(innovation, rel=1e-12)
        decay = math.exp(-0.5 * geom.dt * om[0] ** 2)
        # the tail decays below the FFT rounding floor of the first gain
        np.testing.assert_allclose(gain[1:], decay * gain[:-1], rtol=1e-12, atol=1e-14 * gain[0])
