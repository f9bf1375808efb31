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
from scipy.integrate import quad

from .constants import c_H, validate_hurst

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
            = 4 c_H int_{xi_max}^inf (1 - cos(x xi)) xi^(-1-2h) dxi,

    evaluated with the exact power-law part plus a cosine-weighted adaptive
    tail integral.
    """
    h = validate_hurst(h)
    x = abs(float(x))
    xi_max = float(xi_max)
    if not xi_max > 0.0:
        raise ValueError(f"xi_max must be positive, got {xi_max!r}")
    power_part = xi_max ** (-2.0 * h) / (2.0 * h)
    if x == 0.0:
        return 0.0
    cos_part, _ = quad(
        lambda xi: xi ** (-1.0 - 2.0 * h), xi_max, np.inf, weight="cos", wvar=x, limit=400
    )
    return 4.0 * c_H(h) * (power_part - cos_part)


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
    are not a realization of the noise (the sampled initial datum, the
    Monte Carlo oracles, the Holder spot check).
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
