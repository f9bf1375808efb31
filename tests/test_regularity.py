"""Tests for moment and Holder-exponent estimation.

The deterministic oracle here is the band sum: every sampler draws
Gaussian band coefficients with known variances, so increment moments
have closed forms on the lattice (regularity.exact_increment_moments),
and the completed log-log slopes are pinned without Monte Carlo.  MC
tests then check the samplers against the same band sums, and the
sampler check of holder_checks against a sampler whose innovation
variances are 5% high.
"""

import math
import tracemalloc

import numpy as np
import pytest
from sampled import gather

from fracspde import regularity
from fracspde.noise import keyed_rng, spectral_increments
from fracspde.picard import (
    AffineSigma,
    PicardConfig,
    build_geometry,
    constant_initial,
    homogeneous_term,
    solve_ensemble,
)
from fracspde.regularity import (
    HOLDER_REALIZATIONS,
    MIN_HOLDER_REALIZATIONS,
    FieldEnsemble,
    FieldSampleCollector,
    FirstIncrementCollector,
    IncrementCollector,
    exact_increment_moments,
    fit_exponent,
    gaussian_ratio_check,
    geometric_time_lags,
    holder_checks,
    holder_exponent_space,
    holder_exponent_time,
    moment_report,
    sample_additive_solution,
    sample_noise_antiderivative,
    space_increment_moments,
    spectral_window_completion,
    time_increment_moments,
    _sampler_geometry,
)
from fracspde.report import inputs_digest


def faulty_innovations(monkeypatch):
    """Make every exact-law sampler draw with its innovation variances 5%
    high: each band law, the noise's and the heat and wave transitions',
    goes through spectral_increments."""
    true_increments = regularity.spectral_increments

    def draw(masses, dt, n_steps, rng):
        return true_increments(1.05 * np.asarray(masses, dtype=float), dt, n_steps, rng)

    monkeypatch.setattr(regularity, "spectral_increments", draw)


class TestFitExponent:
    def test_recovers_exact_power(self):
        lags = np.geomspace(0.2, 0.01, 6)
        fit = fit_exponent(lags, 3.1 * lags**0.7)
        assert fit.status == "ok"
        assert fit.fitted_slope == pytest.approx(0.7, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-9)

    def test_zero_moments_degenerate(self):
        lags = np.geomspace(0.2, 0.01, 5)
        fit = fit_exponent(lags, np.zeros(5))
        assert fit.status == "degenerate"
        assert math.isnan(fit.fitted_slope)
        assert fit.r_squared == 0.0

    def test_constant_moments_degenerate(self):
        lags = np.geomspace(0.2, 0.01, 5)
        fit = fit_exponent(lags, np.full(5, 2.5))
        assert fit.status == "degenerate"

    def test_negative_moment_degenerate(self):
        lags = np.geomspace(0.2, 0.01, 5)
        m = lags**0.5
        m[2] = -m[2]
        assert fit_exponent(lags, m).status == "degenerate"

    def test_noisy_moments_poor_fit(self):
        lags = np.geomspace(0.5, 0.01, 8)
        wiggle = np.where(np.arange(8) % 2 == 0, 8.0, 1.0 / 8.0)
        fit = fit_exponent(lags, lags**0.1 * wiggle)
        assert fit.status == "poor_fit"
        assert fit.r_squared < 0.9

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_exponent([0.2, 0.1], [1.0, 0.5])
        with pytest.raises(ValueError, match="strictly decreasing"):
            fit_exponent([0.1, 0.2, 0.4], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="matching shapes"):
            fit_exponent([0.4, 0.2, 0.1], [1.0, 2.0])


class TestLagBuilders:
    def test_time_lags_geometric(self):
        lags = geometric_time_lags(0.125, 0.25, largest=1.0 / 64, n_lags=5, ratio=2.0)
        assert lags.size == 5
        assert np.allclose(np.diff(np.log(lags)), -math.log(2.0))

    def test_time_lag_beyond_horizon(self):
        with pytest.raises(ValueError, match="beyond the horizon"):
            geometric_time_lags(0.2, 0.25, largest=0.1)

    def test_time_lag_validation(self):
        with pytest.raises(ValueError, match="anchor"):
            geometric_time_lags(0.3, 0.25, largest=0.01)
        with pytest.raises(ValueError, match="positive"):
            geometric_time_lags(0.1, 0.25, largest=0.0)
        with pytest.raises(ValueError, match="ratio"):
            geometric_time_lags(0.1, 0.25, largest=0.01, ratio=1.0)


class TestCompletion:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="mode"):
            spectral_window_completion("wave", 0.3, 100.0, "angle", 0.5, [0.01])
        with pytest.raises(ValueError, match="kind"):
            spectral_window_completion("ocean", 0.3, 100.0, "space", 0.5, [0.01])
        with pytest.raises(ValueError, match="undefined"):
            spectral_window_completion("noise", 0.3, 100.0, "time", 0.5, [0.01])
        with pytest.raises(ValueError, match="positive"):
            spectral_window_completion("wave", 0.3, -1.0, "space", 0.5, [0.01])

    def test_vanishes_with_growing_cutoff(self):
        # lag large against 1/xi_cut so the increment factor is fully
        # oscillation-averaged and the pure power tail shows through
        lo = spectral_window_completion("wave", 0.35, 1.0e3, "space", 0.5, [0.1])
        hi = spectral_window_completion("wave", 0.35, 1.0e6, "space", 0.5, [0.1])
        assert hi[0] < 0.02 * lo[0]
        # power tail: doubling the cutoff scales mass by 2^(-2H)
        mid = spectral_window_completion("wave", 0.35, 2.0e3, "space", 0.5, [0.1])
        assert mid[0] / lo[0] == pytest.approx(2.0 ** (-0.7), rel=0.05)


class TestExactMoments:
    """The exact lattice moments and the window completion, pinned.

    The lattice moments are pinned to the band-sum oracles the tests wrote
    before the sums moved into the library (to 1e-14 relative); the
    completion to its values before it evaluated all lags in one array,
    bitwise.  One case per kind and mode, at the holder targets' geometry.
    """

    CASES = [
        ("noise", "space", ("heat", 0.3, 0.5, 1 / 512, 2.0), 0.5, (2.0**-3, 2.0**-5, 2.0**-7),
         (0.13902082095624954, 0.05793192106642497, 0.022661153097749697),
         (0.004569791412678708, 0.004568166501399926, 0.004543573327241043)),
        ("heat", "space", ("heat", 0.3, 0.25, 1 / 1024, 1.0), 0.140625,
         (25 / 1024, 8 / 1024, 3 / 1024),
         (0.10140455687073528, 0.04835213850428879, 0.02410942219677213),
         (0.006032720062423495, 0.006020999466602284, 0.006091469735783014)),
        ("heat", "time", ("heat", 0.3, 0.25, 1 / 1024, 1.0), 0.125, (1 / 64, 1 / 256, 1 / 1024),
         (0.22603572599079047, 0.147176246481214, 0.09505326266997625),
         (0.006030901876068636, 0.006030901876068636, 0.006030901876068636)),
        ("wave", "space", ("wave", 0.35, 0.5, 1 / 1024, 1.0), 0.5,
         (25 / 1024, 8 / 1024, 3 / 1024),
         (0.017891898324432814, 0.007723691529830779, 0.0035600192842277934),
         (0.0006456709459468855, 0.0006441300334999547, 0.0006534195274854654)),
        ("wave", "time", ("wave", 0.35, 0.5, 1 / 1024, 1.0), 0.25,
         (24 / 1024, 8 / 1024, 3 / 1024),
         (0.0090033439849585, 0.0039045667488799016, 0.001786675130858333),
         (0.0003380002703635205, 0.00032719502641173886, 0.0003286490146757507)),
    ]

    @pytest.mark.parametrize("kind,mode,geometry,anchor,lags,oracle,completion", CASES,
                             ids=[f"{case[0]}-{case[1]}" for case in CASES])
    def test_pinned(self, kind, mode, geometry, anchor, lags, oracle, completion):
        geom = _sampler_geometry(*geometry)
        exact = exact_increment_moments(geom, kind, mode, anchor, lags)
        np.testing.assert_allclose(exact, oracle, rtol=1e-14, atol=0.0)
        tail = spectral_window_completion(kind, geom.h, geom.xi_cut, mode, anchor, lags)
        assert tail.tolist() == list(completion)

    def test_noise_has_no_time_increments(self):
        geom = _sampler_geometry("heat", 0.3, 0.5, 1 / 64, 0.5)
        with pytest.raises(ValueError, match="undefined"):
            exact_increment_moments(geom, "noise", "time", 0.5, [0.1])
        with pytest.raises(ValueError, match="non-negative"):
            exact_increment_moments(geom, "heat", "space", -0.5, [0.1])


class TestBandOracleSlopes:
    """Deterministic pins: completed lattice moments fit the exponent targets.

    These are the moments the samplers realise in Monte Carlo, so they pin
    the estimator pipeline (band model + completion + regression) with no
    sampling noise.  The raw-slope comparison documents that the
    completion does real work: without it the truncated spectral tail
    tilts every small-lag fit visibly upward.
    """

    @pytest.mark.parametrize("hurst", [0.3, 0.4])
    @pytest.mark.parametrize("equation,T", [("wave", 0.5), ("heat", 0.25)])
    def test_solution_space_slope(self, equation, T, hurst):
        geom = _sampler_geometry(equation, hurst, T, 1.0 / 1024, 1.0)
        lags = np.array([25, 17, 12, 8, 5, 3]) / 1024.0
        fit = holder_exponent_space(geom, equation, T, lags)
        slope_raw = fit_exponent(lags, fit.lattice).fitted_slope
        slope = fit.fitted_slope
        assert abs(slope - 2.0 * hurst) < 0.02
        assert abs(slope - 2.0 * hurst) < abs(slope_raw - 2.0 * hurst)
        assert slope_raw - 2.0 * hurst > 0.03

    @pytest.mark.parametrize("hurst", [0.3, 0.4])
    def test_wave_time_slope(self, hurst):
        geom = _sampler_geometry("wave", hurst, 0.5, 1.0 / 1024, 1.0)
        lags = np.array([24, 16, 11, 8, 5, 3]) / 1024.0
        slope = holder_exponent_time(geom, "wave", 0.25, lags).fitted_slope
        assert abs(slope - 2.0 * hurst) < 0.03

    @pytest.mark.parametrize("hurst", [0.3, 0.4])
    def test_heat_time_slope(self, hurst):
        geom = _sampler_geometry("heat", hurst, 0.25, 1.0 / 1024, 1.0)
        lags = geometric_time_lags(0.125, 0.25, largest=1.0 / 64, n_lags=6, ratio=1.6)
        slope = holder_exponent_time(geom, "heat", 0.125, lags).fitted_slope
        assert abs(slope - hurst) < 0.02

    @pytest.mark.parametrize("hurst", [0.3, 0.4])
    def test_noise_space_slope(self, hurst):
        geom = _sampler_geometry("heat", hurst, 0.5, 1.0 / 512, 2.0)
        lags = 2.0 ** -np.arange(3, 8)
        fit = holder_exponent_space(geom, "noise", 0.5, lags)
        slope_raw = fit_exponent(lags, fit.lattice).fitted_slope
        slope = fit.fitted_slope
        assert abs(slope - 2.0 * hurst) < 0.02
        assert abs(slope - 2.0 * hurst) < abs(slope_raw - 2.0 * hurst)


class TestNoiseSampler:
    def test_deterministic(self):
        a = gather(sample_noise_antiderivative, 0.3, 0.5, 1.0 / 64, 1.0, 5, seed=9)
        b = gather(sample_noise_antiderivative, 0.3, 0.5, 1.0 / 64, 1.0, 5, seed=9)
        c = gather(sample_noise_antiderivative, 0.3, 0.5, 1.0 / 64, 1.0, 5, seed=10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_increment_variance_matches_band_sum(self):
        lags = np.array([16, 4]) / 128.0
        increments = IncrementCollector(space_lags=lags)
        sample_noise_antiderivative(0.35, 0.4, 1.0 / 128, 1.0, 1500, seed=17,
                                    collectors=(increments,))
        geom = _sampler_geometry("heat", 0.35, 0.4, 1.0 / 128, 1.0)
        mom, se = space_increment_moments(increments)
        oracle = exact_increment_moments(geom, "noise", "space", 0.4, lags)
        for i in range(lags.size):
            assert abs(mom[i] - oracle[i]) < 4.0 * se[i]

    def test_validation(self):
        with pytest.raises(ValueError, match="n_realizations"):
            sample_noise_antiderivative(0.3, 0.5, 1.0 / 64, 1.0, 0)
        with pytest.raises(ValueError, match="t must be positive"):
            sample_noise_antiderivative(0.3, 0.0, 1.0 / 64, 1.0, 5)


class TestAdditiveSampler:
    def test_validation(self):
        with pytest.raises(ValueError, match="equation"):
            sample_additive_solution("beam", 0.3, 0.5, 1.0 / 64, 1.0, [0.2], 3)
        with pytest.raises(ValueError, match="strictly increasing"):
            sample_additive_solution("wave", 0.3, 0.5, 1.0 / 64, 1.0, [0.2, 0.2], 3)
        with pytest.raises(ValueError, match="positive"):
            sample_additive_solution("wave", 0.3, 0.5, 1.0 / 64, 1.0, [0.0, 0.2], 3)
        with pytest.raises(ValueError, match="beyond the horizon"):
            sample_additive_solution("wave", 0.3, 0.5, 1.0 / 64, 1.0, [0.2, 0.6], 3)

    def test_deterministic(self):
        args = ("heat", 0.3, 0.25, 1.0 / 64, 0.5, [0.1, 0.25], 4)
        a = gather(sample_additive_solution, *args, seed=2)
        b = gather(sample_additive_solution, *args, seed=2)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("equation,T", [("wave", 0.5), ("heat", 0.25)])
    def test_marginal_variance_after_evolution(self, equation, T):
        # the variance at the last of three times exercises the exact
        # transition algebra twice before the comparison
        times = np.array([0.4, 0.7, 1.0]) * T
        ens = gather(sample_additive_solution, equation, 0.35, T, 1.0 / 128, 1.0, times, 1500,
                     seed=13)
        geom = _sampler_geometry(equation, 0.35, T, 1.0 / 128, 1.0)
        center = ens.values.shape[2] // 2
        v = ens.values[:, -1, center]
        mc = float((v * v).mean())
        se = float((v * v).std(ddof=1) / math.sqrt(v.size))
        # zero initial data: the field at t is its time increment from 0
        oracle = float(exact_increment_moments(geom, equation, "time", 0.0, times[-1:])[0])
        assert abs(mc - oracle) < 4.0 * se

    def test_wave_time_increments_match_band_sum(self):
        anchor, T = 0.25, 0.5
        lags = np.array([16, 8, 4]) / 256.0
        times = np.concatenate([[anchor], anchor + np.sort(lags)])
        increments = IncrementCollector(time_lags=lags)
        sample_additive_solution("wave", 0.3, T, 1.0 / 256, 1.0, times, 1200, seed=19,
                                 collectors=(increments,))
        geom = _sampler_geometry("wave", 0.3, T, 1.0 / 256, 1.0)
        mom, se = time_increment_moments(increments)
        oracle = exact_increment_moments(geom, "wave", "time", anchor, lags)
        for i in range(lags.size):
            assert abs(mom[i] - oracle[i]) < 4.0 * se[i]


class TestRealizationKeying:
    """Realization r of an exact-law sampler depends on (seed, r) only: not
    on the ensemble size, nor on the chunk the sampler draws it in."""

    REALIZATIONS = (0, 511, 550, 599)

    @staticmethod
    def _sample(kind, n_realizations):
        if kind == "noise":
            ens = gather(sample_noise_antiderivative, 0.3, 0.5, 1.0 / 64, 0.5, n_realizations,
                         seed=4)
        else:
            ens = gather(
                sample_additive_solution,
                kind, 0.35, 0.5, 1.0 / 64, 0.5, np.array([0.25, 0.5]), n_realizations, seed=4,
            )
        return ens.values

    @pytest.mark.parametrize("kind", ["noise", "heat", "wave"])
    def test_independent_of_ensemble_size(self, kind):
        small = self._sample(kind, 600)
        large = self._sample(kind, 1000)
        for r in self.REALIZATIONS:
            assert np.array_equal(small[r], large[r])

    @pytest.mark.parametrize("kind", ["noise", "heat", "wave"])
    def test_independent_of_chunk_size(self, kind, monkeypatch):
        assert regularity._SAMPLER_CHUNK == 128
        default = self._sample(kind, 600)
        monkeypatch.setattr(regularity, "_SAMPLER_CHUNK", 256)
        rechunked = self._sample(kind, 600)
        for r in self.REALIZATIONS:
            assert np.array_equal(default[r], rechunked[r])

    def test_noise_sampler_is_the_band_sum_of_its_stream(self):
        # realization r is the antiderivative of the solver's band law over
        # one slab of length t, drawn from the stream keyed by (seed, r)
        h, t, dx, half_width, seed = 0.3, 0.5, 1.0 / 64, 0.5, 4
        values = gather(sample_noise_antiderivative, h, t, dx, half_width, 600, seed=seed).values
        geom = _sampler_geometry("heat", h, t, dx, half_width)
        om = geom.omega_r[1 : geom.n_bands]
        x = geom.x_grid[geom.core]
        transfer = np.exp(-1j * np.outer(x, om)) / (-1j * om)
        for r in self.REALIZATIONS:
            z = spectral_increments(geom.band_masses, t, 1, keyed_rng(seed, r))[0]
            direct = 2.0 * (transfer @ z[1:]).real + 2.0 * z[0].real * x
            scale = float(np.max(np.abs(direct)))
            assert float(np.max(np.abs(values[r, 0] - direct))) <= 1e-12 * scale


class TestHolderFits:
    """The fits read exact lattice moments: deterministic, no sampling."""

    def test_noise_slope_on_target(self):
        geom = _sampler_geometry("heat", 0.3, 0.5, 1.0 / 512, 2.0)
        fit = holder_exponent_space(geom, "noise", 0.5, 2.0 ** -np.arange(3, 8))
        assert fit.status == "ok"
        assert abs(fit.fitted_slope - 0.6) < 0.05

    def test_wave_solution_slopes_on_target(self):
        lags_s = np.array([25, 17, 12, 8, 5, 3]) / 1024.0
        lags_t = np.array([24, 16, 11, 8, 5, 3]) / 1024.0
        geom = _sampler_geometry("wave", 0.35, 0.5, 1.0 / 1024, 1.0)
        fs = holder_exponent_space(geom, "wave", 0.5, lags_s)
        ft = holder_exponent_time(geom, "wave", 0.25, lags_t)
        assert fs.status == "ok" and abs(fs.fitted_slope - 0.70) < 0.05
        assert ft.status == "ok" and abs(ft.fitted_slope - 0.70) < 0.05

    def test_heat_time_slope_on_target(self):
        lags = geometric_time_lags(0.125, 0.25, largest=1.0 / 64, n_lags=6, ratio=1.6)
        geom = _sampler_geometry("heat", 0.35, 0.25, 1.0 / 1024, 1.0)
        ft = holder_exponent_time(geom, "heat", 0.125, lags)
        assert ft.status == "ok"
        assert abs(ft.fitted_slope - 0.35) < 0.05

    def test_translation_invariance_exact(self):
        ens = gather(sample_noise_antiderivative, 0.3, 0.5, 1.0 / 256, 1.0, 1000, seed=41)
        # quantising the field and shifting by a power of two keeps every
        # subtraction exact, so invariance must hold bitwise, proving the
        # Monte Carlo moments consume increments only
        quantised = np.round(ens.values * 2.0**20) / 2.0**20
        base = FieldEnsemble(kind=ens.kind, h=ens.h, t=ens.t, x=ens.x, values=quantised)
        shifted = FieldEnsemble(kind=ens.kind, h=ens.h, t=ens.t, x=ens.x, values=quantised + 8.0)
        lags = np.array([25, 15, 9, 5, 3]) / 256.0
        moments = []
        for eager in (base, shifted):
            increments = IncrementCollector(space_lags=lags)
            increments.observe_chunk(eager)
            moments.append(space_increment_moments(increments))
        (ma, sa), (mb, sb) = moments
        assert np.array_equal(ma, mb)
        assert np.array_equal(sa, sb)

    def test_small_ensemble_rejected(self, monkeypatch):
        # holder_checks refuses an ensemble too small for its sampler check,
        # an ensemble of one included, before it draws anything
        def no_draw(*args):
            raise AssertionError("drew before refusing the ensemble")

        monkeypatch.setattr(regularity, "spectral_increments", no_draw)
        for n_realizations in (1, MIN_HOLDER_REALIZATIONS - 1):
            with pytest.raises(ValueError, match=f"below the {MIN_HOLDER_REALIZATIONS} realizations"):
                holder_checks("noise", 0.3, n_realizations, 0)

    def test_lag_window_enforced(self):
        geom = _sampler_geometry("heat", 0.3, 0.5, 1.0 / 256, 1.0)
        with pytest.raises(ValueError, match="inside"):
            holder_exponent_space(geom, "noise", 0.5, np.array([64, 48, 32]) / 256.0)
        with pytest.raises(ValueError, match="inside"):
            holder_exponent_space(geom, "noise", 0.5, np.array([12, 3, 1]) / 256.0)

    def test_non_lattice_lag_rejected(self):
        increments = IncrementCollector(space_lags=np.array([0.0151]))
        with pytest.raises(ValueError, match="lattice multiple"):
            sample_noise_antiderivative(0.3, 0.5, 1.0 / 256, 1.0, 10, seed=3,
                                        collectors=(increments,))

    def test_missing_anchor_time_rejected(self):
        increments = IncrementCollector(time_lags=np.array([0.05]))
        with pytest.raises(ValueError, match="no stored time"):
            sample_additive_solution("heat", 0.3, 0.25, 1.0 / 64, 0.5, [0.1, 0.12], 10, seed=3,
                                     collectors=(increments,))

    def test_empty_collector_rejected(self):
        with pytest.raises(ValueError, match="no realizations"):
            space_increment_moments(IncrementCollector(space_lags=[0.1, 0.05, 0.025]))


class TestHolderChecks:
    """holder_checks: the slope bands on the exact fits, and the sampler's
    Monte Carlo moments within 4 standard errors of the exact ones."""

    @staticmethod
    def _by_name(checks):
        return {check.check_name: check for check in checks}

    @pytest.mark.parametrize("target", ["noise", "heat", "wave"])
    def test_exact_fit_does_not_depend_on_the_seed(self, target):
        (checks0, axes0), (checks1, axes1) = (
            holder_checks(target, 0.3, MIN_HOLDER_REALIZATIONS, seed) for seed in (0, 1)
        )
        for a, b in zip(axes0, axes1):
            assert a.fit.fitted_slope == b.fit.fitted_slope
            assert np.array_equal(a.fit.moments, b.fit.moments)
            assert not np.array_equal(a.mc, b.mc)
        slopes0 = [c.computed for c in checks0 if c.check_name.endswith("-slope")]
        slopes1 = [c.computed for c in checks1 if c.check_name.endswith("-slope")]
        assert slopes0 == slopes1

    @pytest.mark.parametrize("target", ["noise", "heat", "wave"])
    def test_sampler_check_catches_five_percent_innovations(self, target, monkeypatch):
        # a scale factor leaves every log-log slope where it was: only the
        # sampler check can see it
        true_checks, _ = holder_checks(target, 0.3, HOLDER_REALIZATIONS, 0)
        assert all(check.passed for check in true_checks)
        faulty_innovations(monkeypatch)
        faulty_checks, _ = holder_checks(target, 0.3, HOLDER_REALIZATIONS, 0)
        true_by_name = self._by_name(true_checks)
        for name, check in self._by_name(faulty_checks).items():
            if name.endswith("-sampler"):
                assert not check.passed, name
                assert check.computed > 4.0
            else:
                assert check.passed and check.computed == true_by_name[name].computed

    def test_z_is_the_exact_gap_in_standard_errors(self):
        checks, (held,) = holder_checks("noise", 0.3, MIN_HOLDER_REALIZATIONS, 5)
        geom = _sampler_geometry("heat", 0.3, 0.5, 1.0 / 512, 2.0)
        exact = exact_increment_moments(geom, "noise", "space", 0.5, held.fit.lags)
        np.testing.assert_array_equal(held.z, (held.mc - exact) / held.stderr)
        sampler = self._by_name(checks)["holder-noise-space-sampler"]
        assert sampler.computed == float(np.max(np.abs(held.z)))
        assert sampler.tolerance == 4.0


class TestStreamedIncrements:
    """The samplers hand out chunks of realizations and the increment
    collector keeps only per-realization rows: the statistics are those of
    the whole ensemble, and memory does not grow with it."""

    SPACE_LAGS = np.array([8, 4, 2]) / 64.0

    @staticmethod
    def _sample(kind, n_realizations, collectors):
        if kind == "noise":
            sample_noise_antiderivative(0.3, 0.5, 1.0 / 64, 0.5, n_realizations, seed=6,
                                        collectors=collectors)
        else:
            sample_additive_solution(kind, 0.35, 0.5, 1.0 / 64, 0.5, np.array([0.25, 0.5]),
                                     n_realizations, seed=6, collectors=collectors)

    @pytest.mark.parametrize("kind", ["noise", "heat", "wave"])
    def test_streamed_moments_equal_the_gathered_ensemble(self, kind, monkeypatch):
        # 300 realizations in chunks of 128: three chunks, the last ragged
        monkeypatch.setattr(regularity, "_SAMPLER_CHUNK", 128)
        time_lags = () if kind == "noise" else np.array([0.25])
        streamed = IncrementCollector(space_lags=self.SPACE_LAGS, time_lags=time_lags)
        chunk_sizes = []

        class ChunkSizes:
            def observe_chunk(self, chunk):
                chunk_sizes.append(chunk.n_realizations)

        self._sample(kind, 300, (streamed, ChunkSizes()))
        assert chunk_sizes == [128, 128, 44]
        if kind == "noise":
            ens = gather(sample_noise_antiderivative, 0.3, 0.5, 1.0 / 64, 0.5, 300, seed=6)
        else:
            ens = gather(sample_additive_solution, kind, 0.35, 0.5, 1.0 / 64, 0.5,
                         np.array([0.25, 0.5]), 300, seed=6)
        eager = IncrementCollector(space_lags=self.SPACE_LAGS, time_lags=time_lags)
        eager.observe_chunk(ens)
        mom, se = space_increment_moments(streamed)
        assert np.array_equal(mom, space_increment_moments(eager)[0])
        assert np.array_equal(se, space_increment_moments(eager)[1])
        # the gathered ensemble's statistic written out: per-realization
        # anchor means, then their mean and between-realization error
        for i, m in enumerate(np.rint(self.SPACE_LAGS * 64).astype(int)):
            d = ens.values[:, -1, m:] - ens.values[:, -1, :-m]
            per_real = (d * d).mean(axis=1)
            assert mom[i] == per_real.mean()
            assert se[i] == per_real.std(ddof=1) / math.sqrt(300)
        if kind != "noise":
            assert np.array_equal(time_increment_moments(streamed)[0],
                                  time_increment_moments(eager)[0])
            assert np.array_equal(time_increment_moments(streamed)[1],
                                  time_increment_moments(eager)[1])

    def test_memory_does_not_grow_with_the_ensemble(self):
        def traced_peak(n_realizations):
            increments = IncrementCollector(space_lags=np.array([16, 8, 4, 2]) / 256.0)
            tracemalloc.start()
            try:
                sample_noise_antiderivative(0.3, 0.5, 1.0 / 256, 1.0, n_realizations, seed=2,
                                            collectors=(increments,))
                space_increment_moments(increments)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 2 * regularity._SAMPLER_CHUNK
        assert traced_peak(3 * n) <= 1.2 * traced_peak(n)


class TestMomentReport:
    def _deterministic_ensemble(self):
        config = PicardConfig(
            equation="heat", h=0.3, T=0.25, n_steps=16, dx=1.0 / 32, L=0.5,
            sigma=AffineSigma(0.0, 0.0), init=constant_initial(0.7), seed=5,
        )
        geom = build_geometry(config)
        coll = FieldSampleCollector(geom, n_t=8, n_x=16)
        solve_ensemble(config, 3, n_iters=2, on_final=coll.on_final)
        return coll.finalize()

    def test_deterministic_field_moments_exact(self):
        ens = self._deterministic_ensemble()
        assert np.allclose(ens.values, 0.7, atol=1e-12)
        reports, _ = moment_report(ens, p_list=(2, 4))
        for rep, p in zip(reports, (2, 4)):
            assert rep.passed
            assert rep.computed == pytest.approx(1.0, abs=1e-12)
        # sup equals |w|^p exactly for the frozen field
        assert float(np.abs(ens.values).max() ** 2) == pytest.approx(0.49, rel=1e-12)

    def test_ratio_at_least_one(self):
        ens = gather(sample_additive_solution, "wave", 0.3, 0.5, 1.0 / 64, 0.5,
                     [0.1, 0.3, 0.5], 400, seed=7)
        reports, _ = moment_report(ens, p_list=(2,))
        assert reports[0].computed >= 1.0

    def test_p_validation(self):
        ens = self._deterministic_ensemble()
        with pytest.raises(ValueError, match="p >= 2"):
            moment_report(ens, p_list=(1,))

    def test_needs_three_times(self):
        ens = gather(sample_noise_antiderivative, 0.3, 0.5, 1.0 / 64, 0.5, 4, seed=3)
        with pytest.raises(ValueError, match="at least 3 stored times"):
            moment_report(ens, p_list=(2,))

    @staticmethod
    def _with_datum_row(values, datum):
        # the first stored time is the datum u(0, x): a constant there has no
        # spread across realizations
        values = values.copy()
        values[:, 0, :] = datum
        t = 0.1 * np.arange(values.shape[1])
        return FieldEnsemble(kind="heat", h=0.3, t=t, x=np.linspace(0.0, 1.0, values.shape[2]),
                             values=values)

    def test_sup_leaves_out_the_datum_row(self):
        rng = np.random.Generator(np.random.Philox(3))
        values = 1.0 + 0.1 * rng.standard_normal((50, 5, 6))
        values[:, 3, 2] += 0.5
        ens = self._with_datum_row(values, 100.0)
        (rep,), _ = moment_report(ens, p_list=(2,))
        # fine grid: stored times 1..4; coarse grid: stored times 2 and 4
        mean = np.mean(ens.values[:, 1:, :] ** 2, axis=0)
        assert rep.computed == pytest.approx(mean.max() / mean[1::2].max(), rel=1e-12)
        assert rep.computed > 1.1

    def test_guard_reads_past_the_datum_row(self):
        values = np.full((8, 3, 4), 0.01)
        values[0] = 100.0
        ens = self._with_datum_row(values, 1000.0)
        with pytest.raises(RuntimeError, match="heavy-tailed"):
            moment_report(ens, p_list=(2,))

    def test_returned_sup_is_the_one_the_checks_read(self):
        rng = np.random.Generator(np.random.Philox(8))
        values = 1.0 + 0.2 * rng.standard_normal((40, 6, 5))
        ens = self._with_datum_row(values, 0.5)
        (rep,), (sup,) = moment_report(ens, p_list=(4,))
        m4 = np.abs(ens.values[:, 1:, :]) ** 4
        mean = m4.mean(axis=0)
        it, ix = np.unravel_index(int(mean.argmax()), mean.shape)
        assert sup.p == 4
        assert sup.sup == mean[it, ix]
        assert sup.stderr == pytest.approx(m4[:, it, ix].std(ddof=1) / math.sqrt(40), rel=1e-12)
        np.testing.assert_array_equal(sup.sup_over_time, mean.max(axis=1))
        # the grid-sup check digests the returned sup and standard error
        inputs = {"kind": "heat", "h": 0.3, "n_realizations": 40, "n_times": 6,
                  "p": 4, "sup": sup.sup, "se": sup.stderr}
        assert rep.inputs_digest == inputs_digest(inputs)
        assert rep.computed == sup.sup / mean[1::2].max()
        # the heavy-tail guard compares the same two numbers with its cap
        cap = sup.stderr / sup.sup
        moment_report(ens, p_list=(4,), kurtosis_cap=cap * (1.0 + 1e-9))
        with pytest.raises(RuntimeError, match="heavy-tailed"):
            moment_report(ens, p_list=(4,), kurtosis_cap=cap * (1.0 - 1e-9))

    def test_kurtosis_guard_fires(self):
        values = np.full((8, 3, 4), 0.01)
        values[0] = 100.0
        ens = FieldEnsemble(kind="heat", h=0.3, t=np.array([0.1, 0.2, 0.3]),
                            x=np.linspace(0.0, 1.0, 4), values=values)
        with pytest.raises(RuntimeError, match="heavy-tailed"):
            moment_report(ens, p_list=(2,))


class TestGaussianRatio:
    def test_requires_additive(self):
        config = PicardConfig(
            equation="heat", h=0.3, T=0.25, n_steps=8, dx=1.0 / 32, L=0.5,
            sigma=AffineSigma(0.5, 1.0), init=constant_initial(0.0), seed=5,
        )
        with pytest.raises(ValueError, match="a = 0"):
            gaussian_ratio_check(config, np.ones(10))

    def test_ratio_near_three(self):
        config = PicardConfig(
            equation="wave", h=0.35, T=0.25, n_steps=8, dx=1.0 / 32, L=0.5,
            sigma=AffineSigma(0.0, 1.0), init=constant_initial(0.0), seed=11,
        )
        coll = FirstIncrementCollector()
        solve_ensemble(config, 1200, n_iters=1, collectors=(coll,))
        report = gaussian_ratio_check(config, coll.values)
        assert report.passed
        assert abs(report.computed - 3.0) < 1.2

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_error_is_the_gaussian_null(self, equation):
        # the first increments u^1 - w, read off the final fields of a
        # one-iteration ensemble, give the check's ratio; its standard error
        # is the Gaussian null's sqrt(24 / n), whatever the sample
        config = PicardConfig(
            equation=equation, h=0.35, T=0.25, n_steps=8, dx=1.0 / 32, L=0.5,
            sigma=AffineSigma(0.0, 1.0), init=constant_initial(0.3), seed=11,
        )
        center = build_geometry(config).n_fft // 2
        w_end = homogeneous_term(config).values[-1, center]
        first = []
        coll = FirstIncrementCollector()
        solve_ensemble(config, 300, n_iters=1, collectors=(coll,),
                       on_final=lambda r, fld: first.append(fld.values[-1, center] - w_end))
        expected = gaussian_ratio_check(config, first)
        report = gaussian_ratio_check(config, coll.values)
        assert report.computed == pytest.approx(expected.computed, rel=1e-12)
        assert report.standard_error == math.sqrt(24.0 / 300)
        assert expected.standard_error == math.sqrt(24.0 / 300)


class TestGaussianMomentRatio:
    # the check reads only sigma.a, the equation and h from the run
    ADDITIVE = PicardConfig(
        equation="heat", h=0.3, T=0.25, n_steps=8, dx=1.0 / 32, L=0.5,
        sigma=AffineSigma(0.0, 1.0), init=constant_initial(0.0), seed=5,
    )

    def test_heavy_tailed_sample_fails(self):
        # Laplace draws have ratio 6; the null error of 300 draws is 0.28
        rng = np.random.Generator(np.random.Philox(11))
        chk = gaussian_ratio_check(self.ADDITIVE, rng.laplace(size=300))
        assert chk.standard_error == math.sqrt(24.0 / 300)
        assert not chk.passed
        assert chk.computed > 3.0 + 3.0 * chk.standard_error

    def test_light_tailed_sample_keeps_the_null_error(self):
        # uniform draws (ratio 1.8) do not shrink their own error
        rng = np.random.Generator(np.random.Philox(5))
        chk = gaussian_ratio_check(self.ADDITIVE, rng.uniform(-1.0, 1.0, size=60))
        assert chk.standard_error == math.sqrt(24.0 / 60)

    def test_zero_second_moment_rejected(self):
        with pytest.raises(ValueError, match="second moment is 0"):
            gaussian_ratio_check(self.ADDITIVE, np.zeros(20))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            gaussian_ratio_check(self.ADDITIVE, [1.0])


class TestFieldSampleCollector:
    def test_collects_thin_grid(self):
        config = PicardConfig(
            equation="wave", h=0.3, T=0.5, n_steps=32, dx=1.0 / 32, L=0.5,
            sigma=AffineSigma(0.3, 1.0), init=constant_initial(0.0), seed=13,
        )
        geom = build_geometry(config)
        coll = FieldSampleCollector(geom, n_t=8, n_x=8)
        solve_ensemble(config, 4, n_iters=3, on_final=coll.on_final)
        ens = coll.finalize()
        assert ens.n_realizations == 4
        assert ens.t.size % 2 == 1
        assert ens.t[0] == 0.0
        assert ens.t[-1] == pytest.approx(0.5)
        assert ens.kind == "wave"
        assert np.all(np.abs(ens.x) <= 0.5 + 1e-9)

    def test_empty_collector_rejected(self):
        config = PicardConfig(
            equation="wave", h=0.3, T=0.5, n_steps=8, dx=1.0 / 16, L=0.5,
            sigma=AffineSigma(0.0, 1.0), init=constant_initial(0.0), seed=13,
        )
        coll = FieldSampleCollector(build_geometry(config))
        with pytest.raises(ValueError, match="no realizations"):
            coll.finalize()
