"""Kernel closed forms against direct quadrature of the defining integrals.

The brute-force oracles push scipy's adaptive quadrature into slowly
converging oscillatory regimes on purpose; its roundoff warnings are expected
there and the closed-form comparisons are the real accuracy gate.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from fracspde import kernels
from fracspde.kernels import (
    A_T,
    F_ab,
    cos_increment_bound_check,
    fourier_moment,
    g_l2_norm_sq,
    green,
    green_fourier,
    kernel_checks,
    peszat_probe,
    time_increment_bound_check,
)

pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


def spectral_time_integral(equation, T, alpha, cutoff=5e5):
    """Oracle for int_0^T int_R |FG_t(xi)|^2 |xi|^alpha dxi dt.

    The t-integral is exact (int sin^2 / int exp), leaving one xi-integral
    evaluated by adaptive quadrature over dyadic blocks plus the analytic
    envelope tail; accuracy is limited by the neglected oscillatory tail,
    well under the 1e-3 comparison tolerance.
    """
    if equation == "wave":

        def f(xi):
            # int_0^T sin^2(t xi) dt, written to survive xi -> 0
            bracket = 0.5 * T * (1.0 - np.sinc(2.0 * T * xi / np.pi))
            return 2.0 * xi ** (alpha - 2.0) * bracket

        tail_mean = T
    else:

        def f(xi):
            return 2.0 * xi ** (alpha - 2.0) * (1.0 - np.exp(-T * xi * xi))

        tail_mean = 2.0
    total = 0.0
    edges = [0.0] + [2.0**k for k in range(-16, 1)] + list(2.0 ** np.arange(1, 20))
    edges = [e for e in edges if e < cutoff] + [cutoff]
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(f, lo, hi, limit=400)
        total += val
    return total + tail_mean * cutoff ** (alpha - 1.0) / (1.0 - alpha)


class TestGreen:
    def test_point_values(self):
        assert green("wave", 1.0, 0.0) == 0.5
        assert green("wave", 1.0, 2.0) == 0.0
        assert green("heat", 1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
    def test_integrates_to_t_or_one(self, t):
        wave_mass, _ = quad(lambda x: green("wave", t, x), -2.0 * t, 2.0 * t, points=[-t, t])
        assert wave_mass == pytest.approx(t, rel=1e-6)
        heat_mass, _ = quad(lambda x: green("heat", t, x), -np.inf, np.inf)
        assert heat_mass == pytest.approx(1.0, rel=1e-6)

    def test_nonnegative_and_vectorised(self):
        x = np.linspace(-3.0, 3.0, 101)
        assert np.all(green("wave", 1.5, x) >= 0.0)
        assert np.all(green("heat", 1.5, x) >= 0.0)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            green("wave", 0.0, 1.0)
        with pytest.raises(ValueError):
            green("heat", -1.0, 1.0)

    def test_rejects_unknown_equation(self):
        with pytest.raises(ValueError):
            green("schrodinger", 1.0, 0.0)


class TestGreenFourier:
    def test_known_values(self):
        assert green_fourier("wave", 2.0, 0.0) == 2.0
        assert green_fourier("wave", 1.0, math.pi) == pytest.approx(0.0, abs=1e-15)
        assert green_fourier("heat", 2.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("equation,t", [("wave", 0.3), ("wave", 1.7), ("heat", 0.3), ("heat", 1.7)])
    def test_matches_transform_of_green(self, equation, t):
        # both kernels are even, so FG_t(xi) = int G_t(x) cos(xi x) dx
        for xi in (0.0, 0.7, 3.1):
            if equation == "wave":
                oracle, _ = quad(lambda x: green(equation, t, x) * math.cos(xi * x), -t, t)
            else:
                oracle, _ = quad(
                    lambda x: green(equation, t, x) * math.cos(xi * x), -np.inf, np.inf
                )
            assert green_fourier(equation, t, xi) == pytest.approx(oracle, abs=1e-10)

    def test_wave_even_in_xi(self):
        xi = np.linspace(-5.0, 5.0, 41)
        vals = green_fourier("wave", 1.3, xi)
        assert np.allclose(vals, vals[::-1])


class TestFourierMoment:
    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.4, 0.8])
    def test_matches_quadrature(self, equation, alpha):
        t = 0.9

        if equation == "wave":

            def f(xi):
                return 2.0 * np.sin(t * xi) ** 2 * xi ** (alpha - 2.0)

            tail_mean = 1.0
        else:

            def f(xi):
                return 2.0 * np.exp(-t * xi * xi) * xi**alpha

            tail_mean = 0.0
        total = 0.0
        cutoff = 1e5
        edges = [0.0] + [2.0**k for k in range(-16, 18)] + [cutoff]
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = quad(f, lo, hi, limit=400)
            total += val
        total += tail_mean * cutoff ** (alpha - 1.0) / (1.0 - alpha)
        assert fourier_moment(equation, t, alpha) == pytest.approx(total, rel=1e-3)

    def test_domain(self):
        for alpha in (-1.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                fourier_moment("wave", 1.0, alpha)


class TestAT:
    def test_frozen_values(self):
        assert A_T("wave", 1.0, 0.0) == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert A_T("heat", 1.0, 0.0) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)
        assert A_T("wave", 1.0, 0.4) == pytest.approx(2.058534878179313, rel=1e-12)

    def test_wave_alpha_zero_cross_check(self):
        # A_T(0) for the wave kernel is int_0^T pi t dt = pi T^2 / 2
        for T in (0.5, 1.0, 2.0):
            assert A_T("wave", T, 0.0) == pytest.approx(math.pi * T * T / 2.0, rel=1e-12)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.4, 0.8])
    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    def test_matches_2d_quadrature(self, equation, alpha, T):
        oracle = spectral_time_integral(equation, T, alpha)
        assert A_T(equation, T, alpha) == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.4, 0.8])
    def test_doubling_exponent_exact(self, equation, alpha):
        growth = A_T(equation, 2.0, alpha) / A_T(equation, 1.0, alpha)
        expected = 2.0 ** (2.0 - alpha) if equation == "wave" else 2.0 ** ((1.0 - alpha) / 2.0)
        assert growth == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-1.0, 1.0, -1.5, 1.5])
    def test_divergent_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            A_T("wave", 1.0, alpha)
        with pytest.raises(ValueError):
            A_T("heat", 1.0, alpha)

    @given(
        st.sampled_from(["wave", "heat"]),
        st.floats(min_value=-0.9, max_value=0.9),
        st.floats(min_value=0.1, max_value=4.0),
    )
    def test_positive_and_increasing_in_T(self, equation, alpha, T):
        a = A_T(equation, T, alpha)
        assert a > 0.0
        assert A_T(equation, T * 1.5, alpha) > a


class TestGL2NormSq:
    def test_wave_closed_form(self):
        assert g_l2_norm_sq("wave", 2.0) == 1.0
        assert g_l2_norm_sq("wave", 1e-9) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("equation,t", [("wave", 0.4), ("wave", 1.3), ("heat", 0.4), ("heat", 1.0), ("heat", 1.3)])
    def test_matches_direct_quadrature(self, equation, t):
        if equation == "wave":
            oracle, _ = quad(lambda z: green(equation, t, z) ** 2, -t, t)
        else:
            oracle, _ = quad(lambda z: green(equation, t, z) ** 2, -np.inf, np.inf)
        assert g_l2_norm_sq(equation, t) == pytest.approx(oracle, rel=1e-10)

    def test_heat_constant_is_inverse_two_root_pi_t(self):
        # the quadrature-pinned heat constant: 1 / (2 sqrt(pi t))
        t = 1.0
        assert g_l2_norm_sq("heat", t) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi * t)), rel=1e-12)


class TestFab:
    def test_empty_interval(self):
        assert F_ab("wave", 1.0, 1.0, 0.3) == 0.0

    def test_frozen_values(self):
        assert F_ab("wave", 0.0, 1.0, 0.3) == pytest.approx(1.2044453124045897, rel=1e-12)
        assert F_ab("heat", 0.0, 1.0, 0.3) == pytest.approx(3.4133965553256043, rel=1e-12)

    def test_wave_doubling_exponent(self):
        h = 0.3
        ratio = F_ab("wave", 0.0, 2.0, h) / F_ab("wave", 0.0, 1.0, h)
        assert ratio == pytest.approx(2.0 ** (4.0 * h + 1.0), rel=1e-12)

    def test_heat_doubling_exponent(self):
        h = 0.35
        ratio = F_ab("heat", 0.0, 2.0, h) / F_ab("heat", 0.0, 1.0, h)
        assert ratio == pytest.approx(2.0 ** (2.0 * h - 1.0), rel=1e-12)

    def test_translation_invariance(self):
        assert F_ab("wave", 2.0, 3.5, 0.4) == pytest.approx(F_ab("wave", 0.0, 1.5, 0.4), rel=1e-12)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("h", [0.3, 0.4])
    def test_matches_nested_quadrature(self, equation, h):
        """Oracle: int_a^b ||G_(b-s)||^2 * [int |FG_(s-a)|^2 |xi|^(2-4h) dxi] ds
        with both inner factors taken from their (independently quadrature-
        verified) closed forms and the outer s-integral done adaptively."""
        a, b = 0.5, 1.7
        alpha = 2.0 - 4.0 * h

        def outer(s):
            return g_l2_norm_sq(equation, b - s) * fourier_moment(equation, s - a, alpha)

        oracle, _ = quad(outer, a, b, limit=400)
        assert F_ab(equation, a, b, h) == pytest.approx(oracle, rel=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            F_ab("wave", 1.0, 0.5, 0.3)
        with pytest.raises(ValueError):
            F_ab("wave", -1.0, 0.5, 0.3)
        with pytest.raises(ValueError):
            F_ab("wave", 0.0, 1.0, 0.25)
        with pytest.raises(ValueError):
            F_ab("heat", 1.0, 1.0, 0.3)


class TestCosIncrementBound:
    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("alpha", [0.2, 0.4, 0.6])
    @pytest.mark.parametrize("shift", [0.5, 0.1, 0.01])
    def test_bound_holds(self, equation, alpha, shift):
        result = cos_increment_bound_check(equation, 1.0, alpha, shift)
        assert result.lhs <= result.bound * (1.0 + 1e-6)
        assert 0.0 < result.ratio <= 1.0

    def test_zero_shift_trivial(self):
        result = cos_increment_bound_check("wave", 1.0, 0.4, 0.0)
        assert result.lhs == 0.0
        assert result.lhs <= result.bound * (1.0 + 1e-6)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_lhs_against_brute_force(self, equation):
        """Independent evaluation of the same double integral: blockwise
        adaptive quadrature plus the exact envelope tail."""
        T, shift, alpha = 1.0, 0.1, 0.4
        if equation == "wave":

            def f(xi):
                br = 0.5 * T * (1.0 - np.sinc(2.0 * T * xi / np.pi))
                return 4.0 * np.sin(xi * shift / 2.0) ** 2 * xi ** (alpha - 2.0) * br

            tail_mean = T
        else:

            def f(xi):
                return (
                    4.0
                    * np.sin(xi * shift / 2.0) ** 2
                    * xi ** (alpha - 2.0)
                    * (1.0 - np.exp(-T * xi * xi))
                )

            tail_mean = 2.0
        total = 0.0
        edges = [1e-12] + [2.0**k for k in range(-20, 22)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = quad(f, lo, hi, limit=500)
            total += val
        total += tail_mean * edges[-1] ** (alpha - 1.0) / (1.0 - alpha)
        result = cos_increment_bound_check(equation, T, alpha, shift)
        assert result.lhs == pytest.approx(total, rel=1e-4)

    def test_wave_ratio_near_half(self):
        # int_0^T sin^2(t xi) dt averages T/2 against the bound's T
        result = cos_increment_bound_check("wave", 1.0, 0.4, 0.01)
        assert 0.4 < result.ratio < 0.55

    def test_small_shift_scaling(self):
        # LHS ~ shift^(1-alpha): the ratio to the bound stabilises
        alpha = 0.4
        r1 = cos_increment_bound_check("heat", 1.0, alpha, 0.02)
        r2 = cos_increment_bound_check("heat", 1.0, alpha, 0.01)
        assert r1.ratio == pytest.approx(r2.ratio, rel=2e-2)


class TestTimeIncrementBound:
    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("alpha", [0.2, 0.4, 0.6])
    def test_slope_meets_target(self, equation, alpha):
        result = time_increment_bound_check(equation, 1.0, alpha)
        assert result.slope >= result.target - result.margin
        assert result.slope == pytest.approx(result.target, abs=0.02)

    def test_values_decrease_with_shift(self):
        result = time_increment_bound_check("wave", 1.0, 0.4)
        assert np.all(np.diff(result.values) < 0.0) or np.all(np.diff(result.values) > 0.0)
        # shifts default to decreasing powers of two, so values must decrease
        order = np.argsort(result.shifts)
        assert np.all(np.diff(result.values[order]) > 0.0)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_lhs_against_brute_force(self, equation):
        from fracspde.kernels import _time_increment_lhs

        T, shift, alpha = 1.0, 0.125, 0.4
        if equation == "wave":

            def f(xi):
                br = 0.5 * T + 0.25 * (
                    (2.0 * T + shift) * np.sinc((2.0 * T + shift) * xi / np.pi)
                    - shift * np.sinc(shift * xi / np.pi)
                )
                return 8.0 * np.sin(shift * xi / 2.0) ** 2 * xi ** (alpha - 2.0) * br

            tail_mean = 2.0 * T
        else:

            def f(xi):
                return (
                    2.0
                    * (1.0 - np.exp(-shift * xi * xi / 2.0)) ** 2
                    * (1.0 - np.exp(-T * xi * xi))
                    * xi ** (alpha - 2.0)
                )

            tail_mean = 2.0
        total = 0.0
        edges = [1e-12] + [2.0**k for k in range(-20, 22)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = quad(f, lo, hi, limit=500)
            total += val
        total += tail_mean * edges[-1] ** (alpha - 1.0) / (1.0 - alpha)
        assert _time_increment_lhs(equation, T, shift, alpha) == pytest.approx(total, rel=1e-4)


class TestKernelChecks:
    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_passes_at_the_defaults(self, equation):
        reports = kernel_checks(equation, 1.0, (0.0, 0.2, 0.4))
        assert len(reports) == 13
        assert [rep.check_name for rep in reports if not rep.passed] == []

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize(
        "name, failing",
        [
            ("fourier_moment", ("fourier-moment-quadrature-{}-alpha0.2", "A_T-time-quadrature-{}-alpha0.2")),
            ("A_T", ("A_T-special-value-{}", "A_T-time-quadrature-{}-alpha0.2")),
        ],
    )
    def test_rows_fail_on_a_closed_form_off_by_one_percent(
        self, equation, name, failing, monkeypatch
    ):
        closed_form = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *args: 1.01 * closed_form(*args))
        reports = kernel_checks(equation, 1.0, (0.2,))
        failed = sorted(rep.check_name for rep in reports if not rep.passed)
        assert failed == sorted(row.format(equation) for row in failing)


class TestPeszatProbe:
    def test_monotone_in_eta(self):
        for h in (0.3, 0.45):
            values = [peszat_probe(h, eta, cutoff=1e3) for eta in (1.0, 10.0, 100.0, 1000.0)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_growth_rate(self):
        # probe ~ (pi/2) eta^(1-2h) for large eta
        h, eta = 0.3, 1000.0
        ratio = peszat_probe(h, eta, cutoff=1e6) / eta ** (1.0 - 2.0 * h)
        assert ratio == pytest.approx(math.pi / 2.0, rel=0.1)

    def test_half_limit_is_arctan(self):
        val = peszat_probe(0.5, 123.0, cutoff=1e4)
        assert val == pytest.approx(math.atan(1e4), rel=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            peszat_probe(0.3, -1.0)
        with pytest.raises(ValueError):
            peszat_probe(0.6, 1.0)
        with pytest.raises(ValueError):
            peszat_probe(0.3, 1.0, cutoff=0.0)
