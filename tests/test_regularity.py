"""Tests for moment and Holder-exponent estimation.

The deterministic oracle here is the band sum: every sampler draws
Gaussian band coefficients with known variances, so increment moments
have closed forms on the lattice, and the completed log-log slopes can
be pinned without Monte Carlo.  MC tests then check the samplers against
the same band formulas and the end-to-end fits against the exponent
targets.
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
    ExponentFit,
    FieldEnsemble,
    FieldSampleCollector,
    FirstIncrementCollector,
    IncrementCollector,
    fit_exponent,
    gaussian_moment_ratio_check,
    gaussian_ratio_check,
    geometric_time_lags,
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


def band_space_moments(geom, kind, anchor, lags):
    """Exact lattice increment moments at one time from band variances."""
    om = geom.omega_r[: geom.n_bands]
    s = np.empty_like(om)
    if kind == "wave":
        s[1:] = anchor / (2.0 * om[1:] ** 2) - np.sin(2.0 * anchor * om[1:]) / (4.0 * om[1:] ** 3)
        s[0] = anchor**3 / 3.0
    elif kind == "heat":
        s[1:] = -np.expm1(-anchor * om[1:] ** 2) / om[1:] ** 2
        s[0] = anchor
    else:
        s[1:] = anchor / om[1:] ** 2
        s[0] = 0.0  # the DC ramp term is added below
    out = []
    for h in lags:
        tot = float(np.sum(2.0 * geom.band_masses * s * 2.0 * (1.0 - np.cos(om * h))))
        if kind == "noise":
            tot += float(2.0 * anchor * geom.band_masses[0] * h * h)
        out.append(tot)
    return np.array(out)


def band_time_moments(geom, anchor, lags):
    """Exact lattice time-increment moments from band variances."""
    om = geom.omega_r[1: geom.n_bands]
    out = []
    for d in lags:
        if geom.equation == "wave":
            a = om * (anchor + 0.5 * d)
            intcos = anchor / 2.0 + (np.sin(2.0 * a) - np.sin(2.0 * (a - om * anchor))) / (4.0 * om)
            p1 = 4.0 * np.sin(0.5 * om * d) ** 2 / om**2 * intcos
            p2 = d / (2.0 * om**2) - np.sin(2.0 * d * om) / (4.0 * om**3)
            dc = d * d * anchor + d**3 / 3.0
        else:
            p1 = np.expm1(-0.5 * d * om**2) ** 2 * (-np.expm1(-anchor * om**2)) / om**2
            p2 = -np.expm1(-d * om**2) / om**2
            dc = d
        out.append(float(2.0 * geom.band_masses[0] * dc
                         + np.sum(2.0 * geom.band_masses[1:] * (p1 + p2))))
    return np.array(out)


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


class TestBandOracleSlopes:
    """Deterministic pins: completed lattice moments fit the exponent targets.

    These are the same moments the samplers realise in Monte Carlo, so
    they pin the estimator pipeline (band model + completion + regression)
    with no sampling noise.  The raw-slope comparison documents that the
    completion does real work: without it the truncated spectral tail
    tilts every small-lag fit visibly upward.
    """

    @pytest.mark.parametrize("hurst", [0.3, 0.4])
    @pytest.mark.parametrize("equation,T", [("wave", 0.5), ("heat", 0.25)])
    def test_solution_space_slope(self, equation, T, hurst):
        geom = _sampler_geometry(equation, hurst, T, 1.0 / 1024, 1.0, 0)
        lags = np.array([25, 17, 12, 8, 5, 3]) / 1024.0
        raw = band_space_moments(geom, equation, T, lags)
        tail = spectral_window_completion(equation, hurst, geom.xi_cut, "space", T, lags)
        slope_raw = fit_exponent(lags, raw).fitted_slope
        slope = fit_exponent(lags, raw + tail).fitted_slope
        assert abs(slope - 2.0 * hurst) < 0.02
        assert abs(slope - 2.0 * hurst) < abs(slope_raw - 2.0 * hurst)
        assert slope_raw - 2.0 * hurst > 0.03

    @pytest.mark.parametrize("hurst", [0.3, 0.4])
    def test_wave_time_slope(self, hurst):
        geom = _sampler_geometry("wave", hurst, 0.5, 1.0 / 1024, 1.0, 0)
        lags = np.array([24, 16, 11, 8, 5, 3]) / 1024.0
        raw = band_time_moments(geom, 0.25, lags)
        tail = spectral_window_completion("wave", hurst, geom.xi_cut, "time", 0.25, lags)
        slope = fit_exponent(lags, raw + tail).fitted_slope
        assert abs(slope - 2.0 * hurst) < 0.03

    @pytest.mark.parametrize("hurst", [0.3, 0.4])
    def test_heat_time_slope(self, hurst):
        geom = _sampler_geometry("heat", hurst, 0.25, 1.0 / 1024, 1.0, 0)
        lags = geometric_time_lags(0.125, 0.25, largest=1.0 / 64, n_lags=6, ratio=1.6)
        raw = band_time_moments(geom, 0.125, lags)
        tail = spectral_window_completion("heat", hurst, geom.xi_cut, "time", 0.125, lags)
        slope = fit_exponent(lags, raw + tail).fitted_slope
        assert abs(slope - hurst) < 0.02

    @pytest.mark.parametrize("hurst", [0.3, 0.4])
    def test_noise_space_slope(self, hurst):
        geom = _sampler_geometry("heat", hurst, 0.5, 1.0 / 512, 2.0, 0)
        lags = 2.0 ** -np.arange(3, 8)
        raw = band_space_moments(geom, "noise", 0.5, lags)
        tail = spectral_window_completion("noise", hurst, geom.xi_cut, "space", 0.5, lags)
        slope_raw = fit_exponent(lags, raw).fitted_slope
        slope = fit_exponent(lags, raw + tail).fitted_slope
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
        geom = _sampler_geometry("heat", 0.35, 0.4, 1.0 / 128, 1.0, 17)
        mom, se = space_increment_moments(increments)
        oracle = band_space_moments(geom, "noise", 0.4, lags)
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
        geom = _sampler_geometry(equation, 0.35, T, 1.0 / 128, 1.0, 13)
        center = ens.values.shape[2] // 2
        v = ens.values[:, -1, center]
        mc = float((v * v).mean())
        se = float((v * v).std(ddof=1) / math.sqrt(v.size))
        om = geom.omega_r[: geom.n_bands]
        if equation == "wave":
            s = np.empty_like(om)
            s[1:] = times[-1] / (2 * om[1:] ** 2) - np.sin(2 * times[-1] * om[1:]) / (4 * om[1:] ** 3)
            s[0] = times[-1] ** 3 / 3.0
        else:
            s = np.empty_like(om)
            s[1:] = -np.expm1(-times[-1] * om[1:] ** 2) / om[1:] ** 2
            s[0] = times[-1]
        oracle = float(np.sum(2.0 * geom.band_masses * s))
        assert abs(mc - oracle) < 4.0 * se

    def test_wave_time_increments_match_band_sum(self):
        anchor, T = 0.25, 0.5
        lags = np.array([16, 8, 4]) / 256.0
        times = np.concatenate([[anchor], anchor + np.sort(lags)])
        increments = IncrementCollector(time_lags=lags)
        sample_additive_solution("wave", 0.3, T, 1.0 / 256, 1.0, times, 1200, seed=19,
                                 collectors=(increments,))
        geom = _sampler_geometry("wave", 0.3, T, 1.0 / 256, 1.0, 19)
        mom, se = time_increment_moments(increments)
        oracle = band_time_moments(geom, anchor, lags)
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
        geom = _sampler_geometry("heat", h, t, dx, half_width, seed)
        om = geom.omega_r[1 : geom.n_bands]
        x = geom.x_grid[geom.core]
        transfer = np.exp(-1j * np.outer(x, om)) / (-1j * om)
        for r in self.REALIZATIONS:
            z = spectral_increments(geom.band_masses, t, 1, keyed_rng(seed, r))[0]
            direct = 2.0 * (transfer @ z[1:]).real + 2.0 * z[0].real * x
            scale = float(np.max(np.abs(direct)))
            assert float(np.max(np.abs(values[r, 0] - direct))) <= 1e-12 * scale


class TestHolderFits:
    def test_noise_slope_on_target(self):
        increments = IncrementCollector(space_lags=2.0 ** -np.arange(3, 8))
        sample_noise_antiderivative(0.3, 0.5, 1.0 / 512, 2.0, 1000, seed=23,
                                    collectors=(increments,))
        fit = holder_exponent_space(increments)
        assert fit.status == "ok"
        assert abs(fit.fitted_slope - 0.6) < 0.05

    def test_wave_solution_slopes_on_target(self):
        lags_s = np.array([25, 17, 12, 8, 5, 3]) / 1024.0
        lags_t = np.array([24, 16, 11, 8, 5, 3]) / 1024.0
        times = np.concatenate([[0.25], 0.25 + np.sort(lags_t), [0.5]])
        increments = IncrementCollector(space_lags=lags_s, time_lags=lags_t)
        sample_additive_solution("wave", 0.35, 0.5, 1.0 / 1024, 1.0, times, 1000, seed=29,
                                 collectors=(increments,))
        fs = holder_exponent_space(increments)
        ft = holder_exponent_time(increments)
        assert fs.status == "ok" and abs(fs.fitted_slope - 0.70) < 0.05
        assert ft.status == "ok" and abs(ft.fitted_slope - 0.70) < 0.05

    def test_heat_time_slope_on_target(self):
        lags = geometric_time_lags(0.125, 0.25, largest=1.0 / 64, n_lags=6, ratio=1.6)
        times = np.concatenate([[0.125], 0.125 + np.sort(lags)])
        increments = IncrementCollector(time_lags=lags)
        sample_additive_solution("heat", 0.35, 0.25, 1.0 / 1024, 1.0, times, 1000, seed=37,
                                 collectors=(increments,))
        ft = holder_exponent_time(increments)
        assert ft.status == "ok"
        assert abs(ft.fitted_slope - 0.35) < 0.05

    def test_translation_invariance_exact(self):
        ens = gather(sample_noise_antiderivative, 0.3, 0.5, 1.0 / 256, 1.0, 1000, seed=41)
        # quantising the field and shifting by a power of two keeps every
        # subtraction exact, so invariance must hold bitwise, proving the
        # fit consumes increments only
        quantised = np.round(ens.values * 2.0**20) / 2.0**20
        base = FieldEnsemble(kind=ens.kind, h=ens.h, t=ens.t, x=ens.x,
                             values=quantised, xi_cut=ens.xi_cut)
        shifted = FieldEnsemble(kind=ens.kind, h=ens.h, t=ens.t, x=ens.x,
                                values=quantised + 8.0, xi_cut=ens.xi_cut)
        lags = np.array([25, 15, 9, 5, 3]) / 256.0
        fits = []
        for eager in (base, shifted):
            increments = IncrementCollector(space_lags=lags)
            increments.observe_chunk(eager)
            fits.append(holder_exponent_space(increments))
        a, b = fits
        assert np.array_equal(a.moments, b.moments)
        assert a.fitted_slope == b.fitted_slope

    def test_small_ensemble_rejected(self):
        increments = IncrementCollector(space_lags=np.array([25, 16, 11, 7, 5, 3]) / 256.0)
        sample_noise_antiderivative(0.3, 0.5, 1.0 / 256, 1.0, 50, seed=3,
                                    collectors=(increments,))
        with pytest.raises(ValueError, match="realizations"):
            holder_exponent_space(increments)

    def test_lag_window_enforced(self):
        # one pass of the sampler feeds both collectors; the lags are lattice
        # multiples, since a collector rejects any other lag as it samples
        too_far = IncrementCollector(space_lags=np.array([64, 48, 32]) / 256.0)
        too_near = IncrementCollector(space_lags=np.array([12, 3, 1]) / 256.0)
        sample_noise_antiderivative(0.3, 0.5, 1.0 / 256, 1.0, 1000, seed=3,
                                    collectors=(too_far, too_near))
        assert too_far.n_realizations == too_near.n_realizations == 1000
        with pytest.raises(ValueError, match="inside"):
            holder_exponent_space(too_far)
        with pytest.raises(ValueError, match="inside"):
            holder_exponent_space(too_near)

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
        reports = moment_report(ens, p_list=(2, 4))
        for rep, p in zip(reports, (2, 4)):
            assert rep.passed
            assert rep.computed == pytest.approx(1.0, abs=1e-12)
        # sup equals |w|^p exactly for the frozen field
        assert float(np.abs(ens.values).max() ** 2) == pytest.approx(0.49, rel=1e-12)

    def test_ratio_at_least_one(self):
        ens = gather(sample_additive_solution, "wave", 0.3, 0.5, 1.0 / 64, 0.5,
                     [0.1, 0.3, 0.5], 400, seed=7)
        reports = moment_report(ens, p_list=(2,))
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
                             values=values, xi_cut=100.0)

    def test_sup_leaves_out_the_datum_row(self):
        rng = np.random.Generator(np.random.Philox(3))
        values = 1.0 + 0.1 * rng.standard_normal((50, 5, 6))
        values[:, 3, 2] += 0.5
        ens = self._with_datum_row(values, 100.0)
        rep, = moment_report(ens, p_list=(2,))
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

    def test_kurtosis_guard_fires(self):
        values = np.full((8, 3, 4), 0.01)
        values[0] = 100.0
        ens = FieldEnsemble(kind="heat", h=0.3, t=np.array([0.1, 0.2, 0.3]),
                            x=np.linspace(0.0, 1.0, 4), values=values, xi_cut=100.0)
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
        expected = gaussian_moment_ratio_check(first)
        report = gaussian_ratio_check(config, coll.values)
        assert report.computed == pytest.approx(expected.ratio, rel=1e-12)
        assert report.standard_error == math.sqrt(24.0 / 300)
        assert expected.se == math.sqrt(24.0 / 300)


class TestGaussianMomentRatio:
    def test_heavy_tailed_sample_fails(self):
        # Laplace draws have ratio 6; the null error of 300 draws is 0.28
        rng = np.random.Generator(np.random.Philox(11))
        chk = gaussian_moment_ratio_check(rng.laplace(size=300))
        assert chk.se == math.sqrt(24.0 / 300)
        assert not chk.passed
        assert chk.ratio > 3.0 + 3.0 * chk.se

    def test_light_tailed_sample_keeps_the_null_error(self):
        # uniform draws (ratio 1.8) do not shrink their own error
        rng = np.random.Generator(np.random.Philox(5))
        chk = gaussian_moment_ratio_check(rng.uniform(-1.0, 1.0, size=60))
        assert chk.se == math.sqrt(24.0 / 60)

    def test_zero_second_moment_rejected(self):
        with pytest.raises(ValueError, match="second moment is 0"):
            gaussian_moment_ratio_check(np.zeros(20))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            gaussian_moment_ratio_check([1.0])


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
