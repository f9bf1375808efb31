"""Weighted-Fourier vs increment-seminorm identity on a catalog of test
functions, anchored to the analytic Gaussian value."""

import math

import numpy as np
import pytest

from fracspde.sobolev import (
    TestFunction,
    fourier_side,
    gaussian_bump,
    identity_check,
    indicator,
    sobolev_side,
    tent,
)

H_GRID = [0.26, 0.3, 0.35, 0.4, 0.45]


def gaussian_analytic(h):
    """Closed-form value of either side for g(x) = exp(-x^2/2):
    c_H 2 pi int e^(-xi^2) |xi|^(1-2h) dxi = Gamma(2h+1) sin(pi h) Gamma(1-h)."""
    return math.gamma(2.0 * h + 1.0) * math.sin(math.pi * h) * math.gamma(1.0 - h)


class TestGaussian:
    @pytest.mark.parametrize("h", H_GRID)
    def test_fourier_side_matches_analytic(self, h):
        assert fourier_side(gaussian_bump(), h) == pytest.approx(gaussian_analytic(h), rel=1e-3)

    @pytest.mark.parametrize("h", H_GRID)
    def test_sobolev_side_matches_analytic(self, h):
        assert sobolev_side(gaussian_bump(), h) == pytest.approx(gaussian_analytic(h), rel=1e-3)

    def test_frozen_value_at_h03(self):
        assert gaussian_analytic(0.3) == pytest.approx(0.93832409, rel=1e-6)
        assert fourier_side(gaussian_bump(), 0.3) == pytest.approx(0.93833, rel=1e-3)

    def test_identity_check_passes(self):
        rows = identity_check(gaussian_bump(), H_GRID)
        assert all(r.report.passed for r in rows)
        assert all(r.rel_err <= 1e-3 for r in rows)


class TestTent:
    def test_identity(self):
        rows = identity_check(tent(), [0.3, 0.4])
        assert all(r.report.passed for r in rows)
        # both routes are accurate here, so agreement is much better than the tag tolerance
        assert all(r.rel_err <= 1e-6 for r in rows)

    def test_translation_invariance(self):
        base = tent()
        shifted = TestFunction(
            name="tent_shifted",
            evaluator=lambda x: np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=float) - 5.0)),
            support_hint=(4.0, 6.0),
            smoothness_tag="lipschitz_compact",
            # a shift changes only the phase of the transform
            fourier_evaluator=base.fourier_evaluator,
        )
        h = 0.35
        assert sobolev_side(shifted, h) == pytest.approx(sobolev_side(base, h), rel=1e-9)


class TestIndicator:
    """The unit-interval indicator is the noise's own test function: both
    seminorm routes must reproduce Var B(1) = 1, which is exactly what the
    c_H normalization enforces.  The increment side converges (the weight
    |z|^(2h-2) meets D(z) = 2|z| near zero, an integrable product), so this
    doubles as a regression against mistaking the seminorm for divergent."""

    @pytest.mark.parametrize("h", [0.26, 0.3, 0.4])
    def test_both_sides_equal_one(self, h):
        assert fourier_side(indicator(), h) == pytest.approx(1.0, rel=5e-3)
        assert sobolev_side(indicator(), h) == pytest.approx(1.0, rel=5e-3)

    def test_sobolev_side_converges_under_refinement(self):
        h = 0.3
        vals = [sobolev_side(indicator(), h, z_min=z) for z in (1e-3, 1e-5, 1e-8)]
        errs = [abs(v - 1.0) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4

    def test_closed_form_exact_value(self):
        # C_H * 2 * (1/h + 2/(1-2h)) = 1 for every h: the algebra the
        # numerics above are converging to
        for h in (0.26, 0.3, 0.45):
            c_big = h * (1.0 - 2.0 * h) / 2.0
            assert c_big * 2.0 * (1.0 / h + 2.0 / (1.0 - 2.0 * h)) == pytest.approx(1.0, rel=1e-12)


class TestScaleCovariance:
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_both_sides_scale_as_lambda_minus_2h(self, lam):
        h = 0.35
        base = gaussian_bump()
        scaled = TestFunction(
            name="gaussian_scaled",
            evaluator=lambda x: np.exp(-0.5 * (lam * np.asarray(x, dtype=float)) ** 2),
            support_hint=(-9.0 / lam, 9.0 / lam),
            smoothness_tag="smooth_decaying",
            fourier_evaluator=lambda xi: math.sqrt(2.0 * math.pi)
            / lam
            * np.exp(-0.5 * (np.asarray(xi, dtype=float) / lam) ** 2),
        )
        expected = lam ** (-2.0 * h)
        assert fourier_side(scaled, h) / fourier_side(base, h) == pytest.approx(expected, rel=1e-3)
        assert sobolev_side(scaled, h) / sobolev_side(base, h) == pytest.approx(expected, rel=1e-3)


class TestZeroFunction:
    def test_both_sides_vanish(self):
        zero = TestFunction(
            name="zero",
            evaluator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            support_hint=(-1.0, 1.0),
            smoothness_tag="smooth_decaying",
            fourier_evaluator=lambda xi: np.zeros_like(np.asarray(xi, dtype=float)),
        )
        assert fourier_side(zero, 0.3) == 0.0
        assert sobolev_side(zero, 0.3) == 0.0


def _fourier_magnitude_fft(g, n_samples=1 << 17):
    """Sampled |Fg| on the nonnegative rfft frequency lattice.

    Samples g on a lattice covering [-L, L] with heavy zero padding (finer
    frequency spacing); |Fg(xi_k)| = dx |rfft(samples)[k]| regardless of the
    lattice origin.
    """
    lo, hi = g.support_hint
    half_width = max(abs(lo), abs(hi)) * 4.0 + 1.0
    dx = 2.0 * half_width / n_samples
    x = -half_width + dx * np.arange(n_samples)
    mags = dx * np.abs(np.fft.rfft(g.evaluator(x)))
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n_samples, d=dx)
    return freqs, mags


class TestFourierConsistency:
    """A sampled FFT of g is the oracle of each closed-form transform."""

    @pytest.mark.parametrize("factory", [gaussian_bump, tent])
    def test_fft_matches_closed_form_on_resolved_band(self, factory):
        g = factory()
        freqs, mags = _fourier_magnitude_fft(g)
        closed = np.abs(g.fourier_evaluator(freqs))
        band = closed > 1e-3 * closed.max()
        rel = np.abs(mags[band] - closed[band]) / closed[band]
        assert rel.max() <= 1e-4


class TestErrorHandling:
    def test_identity_check_captures_failures(self):
        # a flat spectrum never converges; the row should record the failure
        bad = TestFunction(
            name="flat_spectrum",
            evaluator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            support_hint=(-1.0, 1.0),
            smoothness_tag="custom",
            fourier_evaluator=lambda xi: np.ones_like(np.asarray(xi, dtype=float)),
        )
        rows = identity_check(bad, [0.3])
        assert len(rows) == 1
        assert not rows[0].report.passed
        assert rows[0].error is not None

    def test_invalid_smoothness_tag(self):
        with pytest.raises(ValueError):
            TestFunction(
                name="bad",
                evaluator=lambda x: x,
                support_hint=(-1.0, 1.0),
                smoothness_tag="polynomial",
                fourier_evaluator=lambda xi: xi,
            )

    def test_invalid_support(self):
        with pytest.raises(ValueError):
            TestFunction(
                name="bad",
                evaluator=lambda x: x,
                support_hint=(1.0, -1.0),
                smoothness_tag="custom",
                fourier_evaluator=lambda xi: xi,
            )

    def test_hurst_domain(self):
        with pytest.raises(ValueError):
            fourier_side(gaussian_bump(), 0.5)
        with pytest.raises(ValueError):
            sobolev_side(gaussian_bump(), 0.0)
