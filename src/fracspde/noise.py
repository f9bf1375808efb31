"""Spectral synthesis of the driving noise: white in time, fractional in
space with spectral density c_H |xi|^(1-2h).

Every command draws its noise from one band law.  On a frequency lattice of
spacing d_omega, band k covers [max(k - 1/2, 0), k + 1/2) * d_omega and
carries its exact one-sided measure mass (band_mass, a closed-form
antiderivative); it is evaluated at the lattice frequency k * d_omega.  Each
time step draws one independent circular complex Gaussian per band
(spectral_increments), and the real field is 2 Re of the band sum, so band 0
carries the two-sided mass of the band around zero.  The discretization
error is deterministic, so it can be measured exactly before any Monte
Carlo: see variance_bias_report and truncation_tail.
"""

from __future__ import annotations

import numpy as np

from .constants import c_H, validate_hurst
from .quadrature import gauss_panels, graded_oscillation_edges, oscillatory_power_tail

__all__ = [
    "band_mass",
    "truncation_tail",
    "variance_bias_report",
    "keyed_rng",
    "spectral_increments",
]


def band_mass(h: float, lo, hi):
    """mu([lo, hi]) = c_H (hi^(2-2h) - lo^(2-2h)) / (2-2h) for 0 <= lo < hi.

    lo and hi may be arrays of band edges; the masses are then elementwise.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not np.all((0.0 <= lo) & (lo < hi)):
        raise ValueError(f"need 0 <= lo < hi, got lo={lo!r} hi={hi!r}")
    p = 2.0 - 2.0 * h
    return c_H(h) * (hi**p - lo**p) / p


def truncation_tail(h: float, x: float, xi_max: float) -> float:
    """Per-unit-time spectral mass lost to the cutoff:

        int_{|xi| > xi_max} |F1_(0,x](xi)|^2 mu(dxi)
            = 4 c_H int_{xi_max}^inf (1 - cos(x xi)) xi^(-1-2h) dxi.

    Gauss panels graded at xi_max and a quarter wavelength wide beyond it
    integrate up to hi, the first zero of sin(x xi) past xi_max + 2000 / x.
    Beyond hi the power part is exact and the cosine part is its two-term
    asymptotic tail.  The first term that this neglects carries sin(x hi)
    and so vanishes; the rest is below 24 (x hi)^(-4) < 1e-11 of the whole.
    """
    h = validate_hurst(h)
    x = abs(float(x))
    xi_max = float(xi_max)
    if not xi_max > 0.0:
        raise ValueError(f"xi_max must be positive, got {xi_max!r}")
    if x == 0.0:
        return 0.0
    power = -1.0 - 2.0 * h
    hi = np.ceil((x * xi_max + 2000.0) / np.pi) * np.pi / x
    edges = graded_oscillation_edges(xi_max, hi, 2.0 * np.pi / x)
    # 1 - cos(x xi) as 2 sin^2(x xi / 2), which keeps its digits at small x xi
    body = gauss_panels(lambda xi: 2.0 * np.sin(0.5 * x * xi) ** 2 * xi**power, edges)
    rest = hi ** (-2.0 * h) / (2.0 * h) - oscillatory_power_tail("cos", x, power, hi)
    return 4.0 * c_H(h) * (body + rest)


def variance_bias_report(geom, xs) -> dict:
    """Deterministic discretization + truncation error of Var X(1, x) for the
    noise that the solver draws on the lattice bands of geom.

    The lattice field's exact one-step variance is
    sum_k 2 m_k |F1_(0,x](omega_k)|^2 with |F1_(0,x](w)|^2 =
    (2 sin(w x / 2) / w)^2, and x^2 for band 0; the continuum target is
    |x|^(2h), and tail is the part of it above geom.xi_cut.  No sampling is
    involved, so the reported rel_err is the bias any Monte Carlo estimate
    converges to.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs == 0.0):
        raise ValueError("x = 0 has zero target variance; bias is undefined there")
    omega = geom.omega_r[1 : geom.n_bands]
    transfer_sq = (2.0 * np.sin(0.5 * omega * xs[:, None]) / omega) ** 2
    discretized = 2.0 * (transfer_sq @ geom.band_masses[1:] + geom.band_masses[0] * xs**2)
    exact = np.abs(xs) ** (2.0 * geom.h)
    tails = np.array([truncation_tail(geom.h, x, geom.xi_cut) for x in xs])
    rel_err = np.abs(discretized - exact) / exact
    return {
        "x": xs,
        "discretized": discretized,
        "exact": exact,
        "tail": tails,
        "rel_err": rel_err,
        "max_rel_err": float(rel_err.max()),
    }


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of the random stream keyed by (seed, *key).

    Counter-based (Philox) on SeedSequence(entropy=seed, spawn_key=key), so
    a stream is a pure function of its key and streams with different keys
    are independent.  Every random draw of the package comes from here.
    Keys in use: (r,) is the driving noise of realization r, (r, 1) the
    innovations of the additive-solution sampler, and () the draws that
    are not a realization of the noise (the sampled initial datum and the
    Monte Carlo hitting oracle).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def spectral_increments(masses, dt: float, n_steps: int, rng) -> np.ndarray:
    """Circular complex Gaussian increments, one per (time step, band).

    Returns shape (n_steps, len(masses)); entry (j, k) has independent real
    and imaginary parts N(0, dt masses[k] / 2), so E|Z|^2 = dt masses[k] and
    E[Z^2] = 0.  The draw order is fixed as one standard_normal block of
    shape (n_steps, n_bands, 2) from rng with the last axis (real, imag), so
    with rng = keyed_rng(seed, *key) the increments are a pure function of
    the key for a given shape.
    """
    masses = np.asarray(masses, dtype=float)
    if not float(dt) > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    raw = rng.standard_normal((n_steps, masses.size, 2))
    # the trailing (real, imag) pair is the memory layout of complex128
    return raw.view(np.complex128)[..., 0] * np.sqrt(0.5 * float(dt) * masses)
