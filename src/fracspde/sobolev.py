"""Two faces of the fractional seminorm and the identity between them:

    c_H int |Fg(xi)|^2 |xi|^(1-2h) dxi
        = C_H int int |g(x) - g(y)|^2 |x - y|^(2h-2) dx dy.

Each side is evaluated by an independent numerical route (weighted Fourier
quadrature vs. increment autocorrelation in physical space), so their
agreement is a genuine cross-check of both the constants and the quadrature
machinery, not a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import C_H, c_H
from .quadrature import gauss_panels, geometric_edges
from .report import VerificationReport, make_check

__all__ = [
    "TestFunction",
    "gaussian_bump",
    "tent",
    "indicator",
    "fourier_side",
    "sobolev_side",
    "IdentityRow",
    "identity_check",
]

SMOOTHNESS_TAGS = ("smooth_decaying", "lipschitz_compact", "custom")


@dataclass(frozen=True)
class TestFunction:
    """A test function with its closed-form Fourier transform.

    evaluator and fourier_evaluator must accept ndarray arguments; the
    Fourier side reads only the magnitude |Fg|.
    support_hint brackets where |g| is numerically nonzero; for unbounded
    smooth functions it marks the |g| < 1e-16 region.  smoothness_tag picks
    the physical-space quadrature strategy.
    """

    __test__ = False  # keeps pytest from collecting the Test* name

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    support_hint: tuple[float, float]
    smoothness_tag: str
    fourier_evaluator: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.smoothness_tag not in SMOOTHNESS_TAGS:
            raise ValueError(
                f"smoothness_tag must be one of {SMOOTHNESS_TAGS}, got {self.smoothness_tag!r}"
            )
        lo, hi = self.support_hint
        if not lo < hi:
            raise ValueError(f"support_hint must be an interval, got {self.support_hint!r}")

    def l2_norm_sq(self) -> float:
        lo, hi = self.support_hint
        edges = np.linspace(lo, hi, 801)
        return gauss_panels(lambda x: self.evaluator(x) ** 2, edges, order=12)


def gaussian_bump() -> TestFunction:
    """g(x) = exp(-x^2/2), Fg(xi) = sqrt(2 pi) exp(-xi^2/2)."""
    return TestFunction(
        name="gaussian",
        evaluator=lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        support_hint=(-9.0, 9.0),
        smoothness_tag="smooth_decaying",
        fourier_evaluator=lambda xi: math.sqrt(2.0 * math.pi)
        * np.exp(-0.5 * np.asarray(xi, dtype=float) ** 2),
    )


def tent() -> TestFunction:
    """g(x) = max(0, 1 - |x|), Fg(xi) = 2 (1 - cos xi) / xi^2."""

    def ft(xi):
        xi = np.asarray(xi, dtype=float)
        return np.where(
            np.abs(xi) < 1e-8, 1.0 - xi * xi / 12.0, 2.0 * _one_minus_cos(xi) / np.maximum(xi * xi, 1e-300)
        )

    return TestFunction(
        name="tent",
        evaluator=lambda x: np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=float))),
        support_hint=(-1.0, 1.0),
        smoothness_tag="lipschitz_compact",
        fourier_evaluator=ft,
    )


def indicator() -> TestFunction:
    """g = 1 on (0, 1], |Fg(xi)|^2 = 2 (1 - cos xi) / xi^2."""

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.0) & (x <= 1.0), 1.0, 0.0)

    def ft_mag(xi):
        # magnitude only; the phase never enters the weighted integral
        xi = np.asarray(xi, dtype=float)
        mag_sq = np.where(
            np.abs(xi) < 1e-8, 1.0 - xi * xi / 12.0, 2.0 * _one_minus_cos(xi) / np.maximum(xi * xi, 1e-300)
        )
        return np.sqrt(np.maximum(mag_sq, 0.0))

    return TestFunction(
        name="indicator",
        evaluator=ev,
        support_hint=(0.0, 1.0),
        smoothness_tag="custom",
        fourier_evaluator=ft_mag,
    )


def _one_minus_cos(x):
    return 2.0 * np.sin(0.5 * x) ** 2


# ---------------------------------------------------------------------------
# Fourier side
# ---------------------------------------------------------------------------


def fourier_side(g: TestFunction, h: float) -> float:
    """c_H int_R |Fg(xi)|^2 |xi|^(1-2h) dxi.

    Geometric Gauss panels on the closed-form transform, in growing octave
    blocks, stopping once the geometric extrapolation of the remaining
    blocks is below 1e-9 of the total; raises RuntimeError when the blocks
    do not decay.
    """
    if not 0.0 < h < 0.5:
        raise ValueError(f"hurst index must lie in (0, 1/2), got {h!r}")
    weight_pow = 1.0 - 2.0 * h
    f = g.fourier_evaluator

    def integrand(xi):
        return np.abs(f(xi)) ** 2 * xi**weight_pow

    total = gauss_panels(integrand, geometric_edges(1e-8, 1.0), order=12)
    lo, prev_block = 1.0, None
    for _ in range(64):
        block = gauss_panels(integrand, geometric_edges(lo, 2.0 * lo), order=12)
        total += block
        if block <= 1e-300:
            return 2.0 * c_H(h) * total
        if prev_block is not None and block < prev_block:
            r = block / prev_block
            tail_est = block * r / (1.0 - r)
            if tail_est < 1e-9 * total:
                return 2.0 * c_H(h) * (total + tail_est)
        prev_block = block
        lo *= 2.0
    raise RuntimeError(f"weighted Fourier integral did not converge for {g.name!r}")


# ---------------------------------------------------------------------------
# Sobolev side
# ---------------------------------------------------------------------------


def _increment_energy_direct(g: TestFunction, z: np.ndarray) -> np.ndarray:
    """D(z) = int (g(x+z) - g(x))^2 dx by Gauss panels, vectorised over z."""
    lo, hi = g.support_hint
    pad = float(np.max(np.abs(z)))
    edges = np.linspace(lo - pad, hi, 1601)
    x, w = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    base = g.evaluator(nodes)
    out = np.empty(z.shape, dtype=float)
    for i, zi in enumerate(z):
        diff = g.evaluator(nodes + zi) - base
        out[i] = float(np.dot(diff * diff, weights))
    return out


class _AutocorrInterpolator:
    """D(z) = 2 (R(0) - R(z)) from one dense FFT autocorrelation.

    R(z) = int g(x+z) g(x) dx is computed on a zero-padded lattice; linear
    interpolation between lattice points is exact for the piecewise-linear
    D(z) of kinked or discontinuous compactly supported test functions near
    z = 0, which is where the |z|^(2h-2) weight concentrates.
    """

    def __init__(self, g: TestFunction, n_samples: int = 1 << 20):
        lo, hi = g.support_hint
        width = hi - lo
        span = 4.0 * width
        dx = span / n_samples
        x = lo - width + dx * np.arange(n_samples)
        samples = g.evaluator(x)
        spectrum = np.abs(np.fft.rfft(samples)) ** 2
        acf = np.fft.irfft(spectrum, n=n_samples) * dx
        self.dz = dx
        self.acf = acf
        self.r0 = float(acf[0])

    def __call__(self, z: np.ndarray) -> np.ndarray:
        idx = z / self.dz
        k = np.floor(idx).astype(int)
        frac = idx - k
        k = np.clip(k, 0, self.acf.size - 2)
        r = self.acf[k] * (1.0 - frac) + self.acf[k + 1] * frac
        return 2.0 * (self.r0 - r)


def sobolev_side(g: TestFunction, h: float, z_min: float = 1e-8) -> float:
    """C_H int int |g(x) - g(y)|^2 |x - y|^(2h-2) dx dy.

    Substituting z = x - y gives 2 C_H int_0^inf D(z) z^(2h-2) dz with
    D(z) = int (g(x+z) - g(x))^2 dx.  D comes from direct quadrature for
    smooth decaying g and from an FFT autocorrelation otherwise; the z
    integral uses geometric panels from z_min to the decorrelation width,
    then the exact constant-D tail 2 ||g||^2 Z^(2h-1) / (1-2h).

    The neglected z < z_min head is O(z_min^(2h)) for Lipschitz or
    discontinuous g and smaller for smooth g.
    """
    if not 0.0 < h < 0.5:
        raise ValueError(f"hurst index must lie in (0, 1/2), got {h!r}")
    lo, hi = g.support_hint
    width = hi - lo
    z_hi = 2.0 * width
    if g.smoothness_tag == "smooth_decaying":
        d_of_z = lambda z: _increment_energy_direct(g, z)
    else:
        d_of_z = _AutocorrInterpolator(g)
    edges = geometric_edges(z_min, z_hi, panels_per_decade=40)
    x, w = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    body = float(np.dot(d_of_z(nodes) * nodes ** (2.0 * h - 2.0), weights))
    tail = 2.0 * g.l2_norm_sq() * z_hi ** (2.0 * h - 1.0) / (1.0 - 2.0 * h)
    return 2.0 * C_H(h) * (body + tail)


@dataclass
class IdentityRow:
    """One (test function, h) comparison of the two seminorm routes.

    report holds the verdict: the Fourier side against the Sobolev side
    within tol times the larger of the two.
    """

    name: str
    h: float
    fourier: float
    sobolev: float
    rel_err: float
    report: VerificationReport
    error: Optional[str] = None


def identity_check(g: TestFunction, h_list, tol: Optional[float] = None) -> list[IdentityRow]:
    """Evaluate both sides for each h and report relative discrepancies.

    Default tolerance: 1e-3 for smooth decaying test functions, 1e-2
    otherwise.  Per-h numerical failures are captured in the row, with
    nan sides and a failed report, rather than aborting the batch.
    """
    if tol is None:
        tol = 1e-3 if g.smoothness_tag == "smooth_decaying" else 1e-2
    rows = []
    for h in h_list:
        error = None
        try:
            lhs = fourier_side(g, h)
            rhs = sobolev_side(g, h)
        except (RuntimeError, ValueError) as exc:
            lhs = rhs = math.nan
            error = str(exc)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        report = make_check(
            f"sobolev-fourier-{g.name}-h{h:g}",
            computed=lhs,
            reference=rhs,
            tolerance=tol * scale,
            inputs={"g": g.name, "h": h},
        )
        rows.append(IdentityRow(g.name, h, lhs, rhs, abs(lhs - rhs) / scale, report, error))
    return rows
