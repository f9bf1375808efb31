"""Fundamental solutions of the 1-D wave and heat operators and their
weighted spectral integrals.

Conventions.  The Fourier transform is Fg(xi) = int e^(-i xi x) g(x) dx, so

    wave:  G_t(x) = 1/2 on |x| < t,            FG_t(xi) = sin(t |xi|) / |xi|
    heat:  G_t(x) = exp(-x^2 / 2t) / sqrt(2 pi t),   FG_t(xi) = exp(-t xi^2 / 2)

Everything with a closed form here is cross-checked against independent
quadrature by ``kernel_checks``, the suite behind ``verify-kernels``, and
again in the tests; the two bound-check helpers are themselves
quadrature-based because the quantities they bound have no closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import c_alpha, validate_hurst
from .quadrature import (
    gauss_panels,
    geometric_edges,
    graded_oscillation_edges,
    oscillation_edges,
    oscillatory_power_tail,
)
from .report import make_check

__all__ = [
    "EQUATIONS",
    "green",
    "green_fourier",
    "fourier_moment",
    "A_T",
    "F_ab",
    "g_l2_norm_sq",
    "CosIncrementCheck",
    "cos_increment_bound_check",
    "TimeIncrementCheck",
    "time_increment_bound_check",
    "kernel_checks",
    "peszat_probe",
]

EQUATIONS = ("wave", "heat")


def _check_equation(equation: str) -> str:
    if equation not in EQUATIONS:
        raise ValueError(f"equation must be one of {EQUATIONS}, got {equation!r}")
    return equation


def _check_time(t: float) -> float:
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    return t


def green(equation: str, t: float, x):
    """Fundamental solution G_t(x), vectorised in x."""
    _check_equation(equation)
    t = _check_time(t)
    x = np.asarray(x, dtype=float)
    if equation == "wave":
        out = np.where(np.abs(x) < t, 0.5, 0.0)
    else:
        out = np.exp(-(x * x) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    if out.ndim == 0:
        return float(out)
    return out


def green_fourier(equation: str, t: float, xi):
    """Fourier transform FG_t(xi), vectorised in xi.

    The wave transform sin(t|xi|)/|xi| is continued by its limit t at xi = 0.
    """
    _check_equation(equation)
    t = _check_time(t)
    xi = np.asarray(xi, dtype=float)
    if equation == "wave":
        # np.sinc(u) = sin(pi u) / (pi u), exact limit 1 at u = 0
        out = t * np.sinc(t * np.abs(xi) / np.pi)
    else:
        out = np.exp(-t * xi * xi / 2.0)
    if out.ndim == 0:
        return float(out)
    return out


def fourier_moment(equation: str, t: float, alpha: float) -> float:
    """Single-time weighted spectral mass int |FG_t(xi)|^2 |xi|^alpha dxi.

    Closed forms, valid for -1 < alpha < 1:

        wave:  t^(1-alpha) * 2^(1-alpha) * c_alpha(1-alpha)
        heat:  t^(-(alpha+1)/2) * Gamma((alpha+1)/2)

    (For the wave case the substitution eta = t xi reduces the integral to the
    cosine-deficit moment at index 1 - alpha.)
    """
    _check_equation(equation)
    t = _check_time(t)
    a = float(alpha)
    if not -1.0 < a < 1.0:
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha!r}")
    if equation == "wave":
        return t ** (1.0 - a) * 2.0 ** (1.0 - a) * c_alpha(1.0 - a)
    return t ** (-(a + 1.0) / 2.0) * math.gamma((a + 1.0) / 2.0)


def A_T(equation: str, T: float, alpha: float) -> float:
    """Time-integrated weighted spectral mass int_0^T fourier_moment dt.

    Converges exactly for alpha in the open interval (-1, 1); a ValueError is
    raised outside.  Closed forms:

        wave:  2^(1-alpha) c_alpha(1-alpha) T^(2-alpha) / (2-alpha)
        heat:  (2 / (1-alpha)) Gamma((alpha+1)/2) T^((1-alpha)/2)
    """
    _check_equation(equation)
    T = _check_time(T)
    a = float(alpha)
    if not -1.0 < a < 1.0:
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha!r}")
    if equation == "wave":
        return 2.0 ** (1.0 - a) * c_alpha(1.0 - a) * T ** (2.0 - a) / (2.0 - a)
    return (2.0 / (1.0 - a)) * math.gamma((a + 1.0) / 2.0) * T ** ((1.0 - a) / 2.0)


def g_l2_norm_sq(equation: str, t: float) -> float:
    """Squared L2 norm int G_t(z)^2 dz.

    wave: t/2 (a height-1/2 plateau of width 2t).  heat: 1 / (2 sqrt(pi t)),
    the direct Gaussian integral; the test suite pins this against quadrature
    because the constant is easy to get wrong by a stray normalisation.
    """
    _check_equation(equation)
    t = _check_time(t)
    if equation == "wave":
        return t / 2.0
    return 1.0 / (2.0 * math.sqrt(math.pi * t))


def F_ab(equation: str, a: float, b: float, h: float) -> float:
    """Nested kernel integral used by the second-difference recursion:

        F(a, b) = int_a^b  ||G_(b-s)||_L2^2 * fourier_moment(s-a, 2(1-2h)) ds.

    Both factors are pure powers of the time arguments, so F collapses to a
    Beta-function times a power of (b - a):

        wave:  2^(4h-2) c_alpha(4h-1) B(2, 4h)          * (b-a)^(4h+1)
        heat:  Gamma(3/2-2h) B(1/2, 2h-1/2) / (2 sqrt(pi)) * (b-a)^(2h-1)

    Requires 1/4 < h < 1/2 (below 1/4 the inner spectral moment diverges,
    at and above 1/2 the Beta factor does).  F(a, a) = 0 for the wave kernel
    and diverges for the heat kernel, whose exponent 2h - 1 is negative.
    """
    _check_equation(equation)
    h = validate_hurst(h)
    a = float(a)
    b = float(b)
    if not 0.0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a!r} b={b!r}")
    gap = b - a
    if gap == 0.0:
        if equation == "wave":
            return 0.0
        raise ValueError("heat F(a, a) diverges: exponent 2h - 1 is negative")
    if equation == "wave":
        beta = math.gamma(2.0) * math.gamma(4.0 * h) / math.gamma(2.0 + 4.0 * h)
        return 2.0 ** (4.0 * h - 2.0) * c_alpha(4.0 * h - 1.0) * beta * gap ** (4.0 * h + 1.0)
    beta = math.gamma(0.5) * math.gamma(2.0 * h - 0.5) / math.gamma(2.0 * h)
    return math.gamma(1.5 - 2.0 * h) * beta / (2.0 * math.sqrt(math.pi)) * gap ** (2.0 * h - 1.0)


# ---------------------------------------------------------------------------
# Quadrature-backed bound checks
# ---------------------------------------------------------------------------


def _check_alpha_open(alpha: float) -> float:
    a = float(alpha)
    if not -1.0 < a < 1.0:
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha!r}")
    return a


def _cos_increment_lhs(equation: str, T: float, shift: float, alpha: float) -> float:
    """Numerical value of int_0^T int (1 - cos(xi shift)) |FG_t|^2 |xi|^alpha dxi dt.

    The t-integral is done in closed form first, leaving a 1-D xi-integral.
    The body up to a cutoff X uses oscillation-resolving panels; beyond X the
    integrand splits into a pure power (integrated exactly) plus trig-times-
    power pieces handled by two-term asymptotic tails.  X is sized so every
    tail frequency c satisfies c X >= 50.
    """
    a = alpha
    h = shift
    p2, p3 = a - 2.0, a - 3.0
    if equation == "wave":
        if not h < 2.0 * T:
            # keeps the tail frequency 2T - h bounded away from zero
            raise ValueError(f"need shift < 2 T, got shift={h!r} T={T!r}")

        def f(xi):
            bracket = 0.5 * T * (1.0 - np.sinc(2.0 * T * xi / np.pi))
            return 4.0 * np.sin(xi * h / 2.0) ** 2 * xi**p2 * bracket

        # beyond X: T (1 - cos h xi) xi^(a-2)
        #   - (1/2)[sin(2T xi) - sin((2T+h) xi)/2 - sin((2T-h) xi)/2] xi^(a-3)
        cutoff = max(200.0, 50.0 / min(h, 2.0 * T - h))
        tail = T * cutoff ** (a - 1.0) / (1.0 - a)
        tail -= T * oscillatory_power_tail("cos", h, p2, cutoff)
        tail -= 0.5 * oscillatory_power_tail("sin", 2.0 * T, p3, cutoff)
        tail += 0.25 * oscillatory_power_tail("sin", 2.0 * T + h, p3, cutoff)
        tail += 0.25 * oscillatory_power_tail("sin", 2.0 * T - h, p3, cutoff)
    else:

        def f(xi):
            bracket = 1.0 - np.exp(-T * xi * xi)
            return 4.0 * np.sin(xi * h / 2.0) ** 2 * xi**p2 * bracket

        # beyond X the heat factor is 1 to machine precision
        cutoff = max(200.0, 50.0 / h, 20.0 / math.sqrt(T))
        tail = 2.0 * cutoff ** (a - 1.0) / (1.0 - a)
        tail -= 2.0 * oscillatory_power_tail("cos", h, p2, cutoff)
    wavelength = min(2.0 * np.pi / h, np.pi / T)
    edges = graded_oscillation_edges(1e-9, cutoff, wavelength)
    body = gauss_panels(f, edges, order=8)
    return body + tail


@dataclass
class CosIncrementCheck:
    """Outcome of comparing the cosine-increment integral to its power bound."""

    equation: str
    T: float
    shift: float
    alpha: float
    lhs: float
    bound: float
    constant: float

    @property
    def ratio(self) -> float:
        if self.bound == 0.0:
            return 0.0
        return self.lhs / self.bound


def cos_increment_bound_check(equation: str, T: float, alpha: float, shift: float) -> CosIncrementCheck:
    """Check int_0^T int (1-cos(xi h)) |FG_t|^2 |xi|^alpha dxi dt <= C T |h|^(1-alpha)
    (wave) or <= C |h|^(1-alpha) (heat), with the explicit constant
    C = int (1-cos eta) |eta|^(alpha-2) d eta = 2 c_alpha(1-alpha).

    shift = 0 short-circuits to the trivially true 0 <= 0.
    """
    _check_equation(equation)
    T = _check_time(T)
    shift = float(shift)
    if shift < 0.0:
        raise ValueError(f"shift must be nonnegative, got {shift!r}")
    a = _check_alpha_open(alpha)
    constant = 2.0 * c_alpha(1.0 - a)
    if shift == 0.0:
        return CosIncrementCheck(equation, T, shift, a, 0.0, 0.0, constant)
    lhs = _cos_increment_lhs(equation, T, shift, a)
    bound = constant * shift ** (1.0 - a) * (T if equation == "wave" else 1.0)
    return CosIncrementCheck(equation, T, shift, a, lhs, bound, constant)


def _time_increment_lhs(equation: str, T: float, shift: float, alpha: float) -> float:
    """Numerical int_0^T int |FG_(t+h) - FG_t|^2 |xi|^alpha dxi dt.

    Same body-plus-asymptotic-tail strategy as the cosine-increment integral;
    the wave difference squares to 4 cos^2((t + h/2) xi) sin^2(h xi / 2), whose
    t-integral is again explicit.
    """
    a = alpha
    h = shift
    p2, p3 = a - 2.0, a - 3.0
    if equation == "wave":

        def f(xi):
            bracket = 0.5 * T + 0.25 * (
                (2.0 * T + h) * np.sinc((2.0 * T + h) * xi / np.pi)
                - h * np.sinc(h * xi / np.pi)
            )
            return 8.0 * np.sin(h * xi / 2.0) ** 2 * xi**p2 * bracket

        # beyond X: 2T (1 - cos h xi) xi^(a-2) + [sin((2T+h) xi)
        #   - sin((2T+2h) xi)/2 - sin(2T xi)/2 - sin(h xi) + sin(2h xi)/2] xi^(a-3)
        cutoff = max(200.0, 50.0 / h)
        tail = 2.0 * T * cutoff ** (a - 1.0) / (1.0 - a)
        tail -= 2.0 * T * oscillatory_power_tail("cos", h, p2, cutoff)
        tail += oscillatory_power_tail("sin", 2.0 * T + h, p3, cutoff)
        tail -= 0.5 * oscillatory_power_tail("sin", 2.0 * T + 2.0 * h, p3, cutoff)
        tail -= 0.5 * oscillatory_power_tail("sin", 2.0 * T, p3, cutoff)
        tail -= oscillatory_power_tail("sin", h, p3, cutoff)
        tail += 0.5 * oscillatory_power_tail("sin", 2.0 * h, p3, cutoff)
        wavelength = min(2.0 * np.pi / h, np.pi / T)
        edges = graded_oscillation_edges(1e-9, cutoff, wavelength)
    else:

        def f(xi):
            return (
                2.0
                * (1.0 - np.exp(-h * xi * xi / 2.0)) ** 2
                * (1.0 - np.exp(-T * xi * xi))
                * xi**p2
            )

        # no oscillation: both heat factors are 1 to machine precision past X
        cutoff = max(200.0, 20.0 * math.sqrt(2.0 / h), 20.0 / math.sqrt(T))
        tail = 2.0 * cutoff ** (a - 1.0) / (1.0 - a)
        edges = geometric_edges(1e-9, cutoff)
    body = gauss_panels(f, edges, order=8)
    return body + tail


@dataclass
class TimeIncrementCheck:
    """Log-log slope of the time-increment integral against the target rate."""

    equation: str
    T: float
    alpha: float
    shifts: np.ndarray
    values: np.ndarray
    slope: float
    target: float
    margin: float = 0.05


def time_increment_bound_check(
    equation: str,
    T: float,
    alpha: float,
    shifts=None,
) -> TimeIncrementCheck:
    """Fit the decay rate of int_0^T int |FG_(t+h) - FG_t|^2 |xi|^alpha dxi dt
    in the shift h and compare to the guaranteed exponent: 1 - alpha for the
    wave kernel, (1 - alpha) / 2 for the heat kernel.

    No closed-form constant exists here, so the check is a pure scaling test:
    regress log value on log shift over dyadic shifts (default 2^-3 .. 2^-8).
    """
    _check_equation(equation)
    T = _check_time(T)
    a = _check_alpha_open(alpha)
    if shifts is None:
        shifts = 2.0 ** -np.arange(3, 9, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    values = np.array([_time_increment_lhs(equation, T, s, a) for s in shifts])
    slope = float(np.polyfit(np.log(shifts), np.log(values), 1)[0])
    target = (1.0 - a) if equation == "wave" else (1.0 - a) / 2.0
    return TimeIncrementCheck(equation, T, a, shifts, values, slope, target)


# ---------------------------------------------------------------------------
# The kernel suite: each closed form against an independent quadrature
# ---------------------------------------------------------------------------


def _wave_moment_quadrature(t, alpha):
    # |FG_t|^2 |xi|^alpha over the line: resolve each half oscillation up to
    # the cutoff, then add the analytic power tail and its oscillatory
    # remainder.
    cutoff = 2000.0

    def f(xi):
        return np.abs(green_fourier("wave", t, xi)) ** 2 * xi**alpha

    edges = np.concatenate([[0.0], oscillation_edges(1.0, cutoff, math.pi / t)])
    body = gauss_panels(f, edges)
    tail = cutoff ** (alpha - 1.0) / (2.0 * (1.0 - alpha))
    tail -= 0.5 * oscillatory_power_tail("cos", 2.0 * t, alpha - 2.0, cutoff)
    return 2.0 * (body + tail)


def _heat_moment_quadrature(t, alpha):
    cutoff = math.sqrt(745.0 / t)

    def f(xi):
        return np.abs(green_fourier("heat", t, xi)) ** 2 * xi**alpha

    edges = np.concatenate([[0.0], geometric_edges(1e-8 * cutoff, cutoff)])
    return 2.0 * gauss_panels(f, edges)


def _a_t_time_quadrature(equation, T, alpha):
    lo = 1e-12 * T

    def f(t):
        return np.array([fourier_moment(equation, v, alpha) for v in np.atleast_1d(t)])

    body = gauss_panels(f, geometric_edges(lo, T))
    # the integrand is an exact power of t, so the [0, lo] stub is analytic
    p = 1.0 - alpha if equation == "wave" else -(alpha + 1.0) / 2.0
    c = fourier_moment(equation, lo, alpha) / lo**p
    return body + c * lo ** (p + 1.0) / (p + 1.0)


def _g_l2_quadrature(equation, t):
    def f(x):
        return green(equation, t, x) ** 2

    if equation == "wave":
        return gauss_panels(f, np.array([-t, 0.0, t]))
    width = 12.0 * math.sqrt(t)
    return 2.0 * gauss_panels(f, np.concatenate([[0.0], geometric_edges(1e-10 * width, width)]))


def kernel_checks(equation: str, T: float, alphas) -> list:
    """The kernel suite of one equation: closed forms against quadrature.

    For each alpha: fourier_moment at t = 0.7 T and A_T against panel
    quadrature (relative 1e-3), and the scaling A_(2T) / A_T against its
    exact power of 2.  Then A_T at alpha = 0 against its special value,
    ||G_t||^2 against quadrature in x, the cosine-increment integral
    against its power bound (ratio at most 1 + 1e-6), and the fitted
    time-increment rate against its target (shortfall within the margin).
    Returns the VerificationReports in that order.
    """
    reports = []
    for alpha in alphas:
        quad = _wave_moment_quadrature if equation == "wave" else _heat_moment_quadrature
        reference = fourier_moment(equation, 0.7 * T, alpha)
        reports.append(
            make_check(
                f"fourier-moment-quadrature-{equation}-alpha{alpha:g}",
                computed=quad(0.7 * T, alpha),
                reference=reference,
                tolerance=1e-3 * abs(reference),
                inputs={"equation": equation, "t": 0.7 * T, "alpha": alpha},
            )
        )
        reference = A_T(equation, T, alpha)
        reports.append(
            make_check(
                f"A_T-time-quadrature-{equation}-alpha{alpha:g}",
                computed=_a_t_time_quadrature(equation, T, alpha),
                reference=reference,
                tolerance=1e-3 * reference,
                inputs={"equation": equation, "T": T, "alpha": alpha},
            )
        )
        scale_target = 2.0 ** (2.0 - alpha) if equation == "wave" else 2.0 ** ((1.0 - alpha) / 2.0)
        reports.append(
            make_check(
                f"A_T-scaling-{equation}-alpha{alpha:g}",
                computed=A_T(equation, 2.0 * T, alpha) / A_T(equation, T, alpha),
                reference=scale_target,
                tolerance=1e-12 * scale_target,
                inputs={"equation": equation, "T": T, "alpha": alpha},
            )
        )
    special = math.pi * T**2 / 2.0 if equation == "wave" else 2.0 * math.sqrt(math.pi * T)
    reports.append(
        make_check(
            f"A_T-special-value-{equation}",
            computed=A_T(equation, T, 0.0),
            reference=special,
            tolerance=1e-12 * special,
            inputs={"equation": equation, "T": T},
        )
    )
    reference = g_l2_norm_sq(equation, 0.7 * T)
    reports.append(
        make_check(
            f"g-l2-norm-{equation}",
            computed=_g_l2_quadrature(equation, 0.7 * T),
            reference=reference,
            tolerance=1e-6 * reference,
            inputs={"equation": equation, "t": 0.7 * T},
        )
    )
    cos_check = cos_increment_bound_check(equation, T, alpha=0.3, shift=0.25 * T)
    reports.append(
        make_check(
            f"cos-increment-bound-{equation}",
            computed=cos_check.ratio,
            reference=0.0,
            tolerance=1.0 + 1e-6,
            inputs={"equation": equation, "T": T, "alpha": 0.3},
        )
    )
    rate = time_increment_bound_check(equation, T, 0.3)
    reports.append(
        make_check(
            f"time-increment-rate-shortfall-{equation}",
            computed=max(rate.target - rate.slope, 0.0),
            reference=0.0,
            tolerance=rate.margin,
            inputs={"equation": equation, "T": T, "alpha": 0.3},
        )
    )
    return reports


def peszat_probe(h: float, eta: float, cutoff: float = 1e4) -> float:
    """Shifted resolvent mass int_0^cutoff (1 + xi^2)^(-1) (xi + eta)^(1-2h) dxi.

    For h < 1/2 the integrand grows with the shift eta at every xi, so the
    probe increases without bound in eta: the uniform-in-eta finiteness that
    holds for h >= 1/2 genuinely fails below it.  At h = 1/2 the probe is
    arctan(cutoff) for every eta.

    The rule is Gauss panels on edges graded geometrically from 1e-12 cutoff
    up to cutoff, plus one panel from 0: 40 panels per decade resolve both
    scales of the integrand, xi ~ 1 and xi ~ eta, wherever they fall.
    """
    h = float(h)
    if not 0.0 < h <= 0.5:
        raise ValueError(f"peszat_probe requires 0 < h <= 1/2, got {h!r}")
    eta = float(eta)
    if eta < 0.0:
        raise ValueError(f"eta must be nonnegative, got {eta!r}")
    cutoff = float(cutoff)
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff!r}")

    def f(xi):
        return (xi + eta) ** (1.0 - 2.0 * h) / (1.0 + xi * xi)

    edges = np.concatenate([[0.0], geometric_edges(1e-12 * cutoff, cutoff)])
    return gauss_panels(f, edges)
