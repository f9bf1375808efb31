"""Tests for the Picard solver.

Oracles: exact noise-free solutions (d'Alembert, spectral heat flow) on
polynomial and lattice-trigonometric data, an O(n^2) per-pair spectral
convolution reimplementation for the stochastic term, bitwise structural
identities of the affine iteration (zero noise, a = 0 stationarity,
scaling, additive shift), and the closed-form variance of the first
stochastic increment, checked both as an exact lattice sum and by Monte
Carlo over the ensemble driver.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracspde.constants import c_H
from fracspde.kernels import A_T
from fracspde.config import SimulationConfig, to_picard_config
from fracspde.noise import band_mass, keyed_rng, spectral_increments
from fracspde.picard import (
    AffineSigma,
    InitialData,
    PicardConfig,
    PicardConvergenceError,
    PicardDivergenceError,
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


class TestHomogeneous:
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


def direct_stochastic_term(geom, q):
    """O(n^2) reference: sum_i irfft(symbol(t_j - t_i) rfft(q_i))."""
    p_hat = np.fft.rfft(q, axis=1)
    om = geom.omega_r
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
                sym = np.exp(-0.5 * tau * om**2)
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


class TestSolve:
    def test_zero_a_converges_in_two_steps(self):
        res = solve(small_config(sigma=AffineSigma(0.0, 1.0)))
        assert res.converged and res.n_iters == 2
        assert res.deltas[1] == 0.0

    def test_reproducible(self):
        a = solve(small_config())
        b = solve(small_config())
        np.testing.assert_array_equal(a.field.values, b.field.values)
        assert not np.array_equal(
            a.field.values, solve(small_config(realization=3)).field.values
        )

    def test_tol_inf_stops_after_one_step(self):
        cfg = small_config(tol=math.inf)
        res = solve(cfg)
        assert res.n_iters == 1
        geom = build_geometry(cfg)
        w = homogeneous_term(cfg).values
        eta = noise_slabs(geom, cfg.seed)
        np.testing.assert_array_equal(
            res.field.values, picard_step(geom, cfg.sigma, w, eta, w)
        )

    def test_overflow_is_divergence(self):
        # a huge a overflows sigma(u^1) in the second step; the iteration
        # stops there with the non-finite delta last and no numpy warning
        cfg = small_config(sigma=AffineSigma(1e308, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PicardDivergenceError) as exc:
                solve(cfg)
            with pytest.raises(PicardDivergenceError):
                solve_ensemble(cfg, 2, n_iters=3)
        assert isinstance(exc.value, PicardConvergenceError)
        assert len(exc.value.deltas) == 2
        assert math.isfinite(exc.value.deltas[0])
        assert not math.isfinite(exc.value.deltas[-1])

    def test_nonconvergence_carries_history(self):
        cfg = small_config(max_iters=2, tol=1e-14)
        with pytest.raises(PicardConvergenceError) as exc:
            solve(cfg)
        assert len(exc.value.deltas) == 2
        assert exc.value.deltas[1] < exc.value.deltas[0]

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_result_carries_homogeneous_term(self, equation):
        cfg = small_config(equation)
        res = solve(cfg)
        np.testing.assert_array_equal(res.homogeneous, homogeneous_term(cfg).values)

    def test_scaling_covariance(self):
        # doubling (u0, b) doubles every float of the iteration exactly
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

    def test_deltas_decay_geometrically(self):
        res = solve(small_config(max_iters=8, tol=1e-8))
        d = np.array(res.deltas[: res.n_iters - 1])
        assert np.all(d[1:] < 0.5 * d[:-1])

    def test_uniqueness_probe(self):
        out = uniqueness_probe(small_config(tol=1e-8, max_iters=14), 0.5)
        assert out["passed"]

    def test_uniqueness_probe_callable(self):
        out = uniqueness_probe(
            small_config(tol=1e-8, max_iters=14),
            lambda x: np.exp(-(x**2)),
        )
        assert out["passed"]


class TestEnsemble:
    def test_fixed_iteration_count(self):
        cfg = small_config(max_iters=4)
        res = solve_ensemble(cfg, 3)
        assert res.deltas.shape == (3, 4)
        assert res.n_iters == 4

    def test_collector_sees_every_difference(self):
        seen = []

        class Spy:
            def observe(self, n, diff, geom):
                seen.append((n, float(np.max(np.abs(diff)))))

        solve_ensemble(small_config(), 2, n_iters=3, collectors=(Spy(),))
        assert [n for n, _ in seen] == [1, 2, 3, 1, 2, 3]

    def test_on_final_receives_fields(self):
        fields = []
        solve_ensemble(small_config(), 2, n_iters=2, on_final=lambda r, f: fields.append((r, f)))
        assert [r for r, _ in fields] == [0, 1]
        assert fields[0][1].values.shape == fields[1][1].values.shape

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            solve_ensemble(small_config(), 0)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_one_realization_reproduces_solve(self, equation):
        cfg = small_config(equation, realization=2, tol=1e-6)
        res = solve(cfg)
        finals = []
        ens = solve_ensemble(
            cfg, 1, n_iters=res.n_iters, on_final=lambda r, f: finals.append(f.values)
        )
        np.testing.assert_array_equal(ens.deltas[0], res.deltas)
        np.testing.assert_array_equal(finals[0], res.field.values)

    def test_runs_past_exact_fixed_point(self):
        # with a = 0 the second step reproduces the first exactly; the
        # ensemble still records every one of its n_iters deltas
        seen = []

        class Spy:
            def observe(self, n, diff, geom):
                seen.append(n)

        cfg = small_config(sigma=AffineSigma(0.0, 1.0))
        res = solve_ensemble(cfg, 2, n_iters=4, collectors=(Spy(),))
        assert res.deltas.shape == (2, 4)
        assert np.all(res.deltas[:, 0] > 0.0)
        np.testing.assert_array_equal(res.deltas[:, 1:], 0.0)
        assert seen == [1, 2, 3, 4, 1, 2, 3, 4]


def exact_first_increment_variance(geom, t):
    """Var(u^1 - w)(t, x) for sigma == 1: the lattice-banded integral in
    closed form, 2 dt sum_{i,k} m_k sym(t - t_i, w_k)^2."""
    t_left = geom.dt * np.arange(geom.n_steps)
    tau = t - t_left[t_left < t - 1e-12]
    om = geom.omega_r[: geom.n_bands]
    if geom.equation == "wave":
        sym = np.empty((tau.size, om.size))
        sym[:, 1:] = np.sin(np.outer(tau, om[1:])) / om[1:]
        sym[:, 0] = tau
    else:
        sym = np.exp(-0.5 * np.outer(tau, om**2))
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
            def observe(self, n, diff, geom_):
                if n == 1:
                    d = float(diff[-1, center])
                    acc["s2"] += d * d
                    acc["s4"] += d**4
                    acc["n"] += 1

        solve_ensemble(cfg, 1500, n_iters=1, collectors=(Spy(),))
        m2 = acc["s2"] / acc["n"]
        se = math.sqrt(max(acc["s4"] / acc["n"] - m2 * m2, 0.0) / acc["n"])
        assert abs(m2 - disc) <= 3.0 * se
