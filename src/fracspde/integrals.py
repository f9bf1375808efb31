"""Stochastic integrals of grid-sampled predictable integrands against the
spectral noise.

The integral of S against the noise is assembled in the frequency domain:
each time slice is Fourier-transformed (zero-padded FFT, interpolated onto
the spectral grid's mass centroids) and paired with that step's complex
increments.  For deterministic S the second moment of the result has the
closed quadrature form I(T), evaluated here on the real-space side per time
slice, and the discretized predictable bracket is available as a cumulative
quadratic variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .constants import C_H, validate_hurst
from .noise import SpectralGrid, SpectralNoise, spectral_increments
from .sobolev import TestFunction, sobolev_side

__all__ = [
    "GridIntegrand",
    "exact_grid_transform",
    "slice_transform",
    "transform_integrand",
    "integrate",
    "integral_ensemble",
    "mollified_rectangle",
    "grid_sobolev_energy",
    "deterministic_I_T",
    "quadratic_variation",
    "BdgCheck",
    "bdg_bound_check",
]


@dataclass(frozen=True)
class GridIntegrand:
    """Time-sliced integrand sampled on a uniform space grid.

    values[j, m] is S(t_j, x0 + m dx); slices are treated as compactly
    supported (zero outside the window).  adapted[j] declares that slice j
    depends only on noise up to step j; integrate refuses integrands with
    any cleared flag.
    """

    values: np.ndarray
    dx: float
    x0: float
    adapted: np.ndarray = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D (steps x space), got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not float(self.dx) > 0.0:
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dx", float(self.dx))
        object.__setattr__(self, "x0", float(self.x0))
        if self.adapted is None:
            flags = np.ones(values.shape[0], dtype=bool)
        else:
            flags = np.asarray(self.adapted, dtype=bool)
            if flags.shape != (values.shape[0],):
                raise ValueError("adapted must have one flag per time step")
        object.__setattr__(self, "adapted", flags)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_space(self) -> int:
        return self.values.shape[1]

    @property
    def x_grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_space)


def exact_grid_transform(row, dx: float, x0: float, xi) -> np.ndarray:
    """Direct evaluation of dx sum_m row[m] e^(-i xi x_m) at arbitrary xi.

    Quadratic cost; serves as the interpolation-free oracle for
    slice_transform.
    """
    row = np.asarray(row, dtype=float)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = x0 + dx * np.arange(row.size)
    return dx * (np.exp(-1j * np.outer(xi, x)) @ row)


def slice_transform(row, dx: float, x0: float, xi, pad_factor: int = 16) -> np.ndarray:
    """Continuum Fourier transform of one zero-extended grid slice at xi.

    Zero-padding by pad_factor oversamples the spectrum (the padded FFT is
    the band-limited interpolant of the slice's transform on a lattice
    pad_factor times finer than 2 pi / window); a cubic spline then reads it
    off at the requested frequencies.  The window-center phase is split off
    before interpolation and restored exactly, so the interpolated factor
    oscillates on the scale of the support half-width rather than the
    window offset.
    """
    row = np.asarray(row, dtype=float)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    n = row.size
    n_fft = 1 << max(3, int(math.ceil(math.log2(pad_factor * n))))
    lattice = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n_fft, d=dx))
    if xi.min() < lattice[0] or xi.max() > lattice[-1]:
        raise ValueError(
            f"requested frequencies exceed the band resolvable at spacing {dx}"
        )
    center = x0 + 0.5 * dx * (n - 1)
    spec = np.fft.fftshift(np.fft.fft(row, n_fft))
    # fft measures phase from x0; recenter to the window middle
    centered = spec * np.exp(1j * lattice * (center - x0))
    interp = CubicSpline(lattice, centered)
    return dx * interp(xi) * np.exp(-1j * xi * center)


def transform_integrand(S: GridIntegrand, grid: SpectralGrid, pad_factor: int = 16) -> np.ndarray:
    """Per-slice transforms at the grid's centroids, shape (n_steps, n_bins)."""
    return np.vstack(
        [slice_transform(row, S.dx, S.x0, grid.centroids, pad_factor) for row in S.values]
    )


def _bracket_terms(F: np.ndarray, grid: SpectralGrid, dt: float) -> np.ndarray:
    """Per-step contributions dt sum_k masses[k] |F[j,k]|^2."""
    return dt * ((np.abs(F) ** 2) @ grid.masses)


def integrate(S: GridIntegrand, noise: SpectralNoise) -> float:
    """(S * X)_T = sum_j sum_k FS(t_j, .)(xi_k) increment[j, k].

    Real up to a 1e-10 relative residue (Hermitian pairing of bins), checked
    against the bracket scale.
    """
    if S.n_steps != noise.n_steps:
        raise ValueError(
            f"integrand has {S.n_steps} steps but noise has {noise.n_steps}"
        )
    if not S.adapted.all():
        bad = int(np.flatnonzero(~S.adapted)[0])
        raise ValueError(f"integrand slice {bad} is not marked adapted")
    F = transform_integrand(S, noise.grid)
    value = complex(np.sum(F * noise.increments))
    scale = max(
        abs(value.real), math.sqrt(float(np.sum(_bracket_terms(F, noise.grid, noise.dt)))), 1e-30
    )
    if abs(value.imag) > 1e-10 * scale:
        raise AssertionError("stochastic integral has a non-negligible imaginary part")
    return value.real


def integral_ensemble(
    S: GridIntegrand,
    grid: SpectralGrid,
    dt: float,
    n_realizations: int,
    seed: int,
    first_realization: int = 0,
) -> np.ndarray:
    """Monte Carlo samples of (S * X)_T over independent realizations.

    Amortizes the slice transforms across realizations and samples only the
    positive-frequency bins; the Hermitian mirror contributes the conjugate,
    so each sample is 2 Re sum_{j, k>0} F[j,k] Z[j,k].
    """
    F = transform_integrand(S, grid)
    pos = grid.positive
    F_pos = F[:, pos]
    masses_pos = grid.masses[pos]
    out = np.empty(n_realizations)
    for r in range(n_realizations):
        z = spectral_increments(masses_pos, dt, S.n_steps, seed, first_realization + r)
        out[r] = 2.0 * float(np.sum(F_pos * z).real)
    return out


def mollified_rectangle(u: float, v: float, dx: float, x0: float, n_space: int) -> np.ndarray:
    """Grid samples of 1_(u,v] averaged over a box of width 2 dx.

    Raw indicators are too rough for the spatial seminorm at h < 1/2; the
    box average replaces the jumps with linear ramps of width 2 dx, which
    reconciles the grid pipeline with the exact elementary integral up to
    O(dx) edge effects.
    """
    if not v > u:
        raise ValueError(f"need v > u, got u={u!r} v={v!r}")
    x = x0 + dx * np.arange(n_space)
    overlap = np.minimum(x + dx, v) - np.maximum(x - dx, u)
    return np.clip(overlap, 0.0, None) / (2.0 * dx)


def grid_sobolev_energy(row, dx: float, h: float) -> float:
    """2 C_H int_0^inf D(z) z^(2h-2) dz for one zero-extended grid slice.

    D at lag s dx is the exact squared-increment energy of the grid signal;
    between lattice lags D is interpolated linearly and the weight integrated
    in closed form per cell (the first cell uses D(0) = 0, killing the
    non-integrable part).  Beyond the window width the supports no longer
    overlap and D is exactly 2 ||row||^2, giving an analytic tail.
    """
    h = validate_hurst(h)
    row = np.asarray(row, dtype=float)
    n = row.size
    if n < 2:
        raise ValueError("need at least two spatial samples")
    norm_sq = dx * float(np.sum(row**2))
    if norm_sq == 0.0:
        return 0.0
    # zero extension: at lag s the pairs with one endpoint outside the
    # window contribute the first and last s squared samples
    sq = row**2
    prefix = np.concatenate([[0.0], np.cumsum(sq)])
    D = np.empty(n + 1)
    D[0] = 0.0
    for s in range(1, n):
        d = row[s:] - row[:-s]
        edges_sq = prefix[s] + (prefix[n] - prefix[n - s])
        D[s] = dx * (float(np.sum(d * d)) + edges_sq)
    D[n] = 2.0 * norm_sq
    z = dx * np.arange(n + 1)
    p = 2.0 * h - 2.0
    # first cell: D linear through the origin, integrand ~ z^(2h-1)
    total = (D[1] / dx) * (dx ** (p + 2.0)) / (p + 2.0)
    z_lo = z[1:-1]
    z_hi = z[2:]
    slope = (D[2:] - D[1:-1]) / dx
    const = D[1:-1] - slope * z_lo
    term_const = const * (z_hi ** (p + 1.0) - z_lo ** (p + 1.0)) / (p + 1.0)
    term_slope = slope * (z_hi ** (p + 2.0) - z_lo ** (p + 2.0)) / (p + 2.0)
    total += float(np.sum(term_const + term_slope))
    # non-overlap tail: constant 2 ||row||^2 against z^(2h-2)
    total += 2.0 * norm_sq * (z[-1] ** (p + 1.0)) / (-(p + 1.0))
    return 2.0 * C_H(h) * total


def deterministic_I_T(slices, h: float, T: float) -> float:
    """I(T) = C_H int_0^T intint |S(t,x)-S(t,y)|^2 |x-y|^(2h-2) dx dy dt.

    slices may be a single TestFunction (time-constant integrand), a
    sequence of TestFunction (one per uniform time slice, left rule), or a
    GridIntegrand (per-slice lag energies).  The weighted double integral is
    evaluated on the real-space side throughout.
    """
    h = validate_hurst(h)
    T = float(T)
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T!r}")
    if isinstance(slices, TestFunction):
        return T * sobolev_side(slices, h)
    if isinstance(slices, GridIntegrand):
        energies = [grid_sobolev_energy(row, slices.dx, h) for row in slices.values]
        return (T / len(energies)) * sum(energies)
    energies = [sobolev_side(g, h) for g in slices]
    if not energies:
        raise ValueError("need at least one time slice")
    return (T / len(energies)) * sum(energies)


def quadratic_variation(S: GridIntegrand, grid: SpectralGrid, dt: float) -> np.ndarray:
    """Cumulative predictable bracket on the step lattice, length n_steps + 1.

    Entry j is sum over the first j slabs of dt sum_k masses[k]
    |FS(t_i, .)(xi_k)|^2; nondecreasing, starts at 0, and for deterministic
    S the final entry is the discretized I(T).
    """
    if not float(dt) > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    F = transform_integrand(S, grid)
    terms = _bracket_terms(F, grid, float(dt))
    out = np.empty(terms.size + 1)
    out[0] = 0.0
    np.cumsum(terms, out=out[1:])
    return out


def bdg_z_p(p: float) -> float:
    """Conservative moment constant (4p)^(p/2); equals 1 at p = 2 by fiat."""
    if p == 2.0:
        return 1.0
    return (4.0 * p) ** (p / 2.0)


@dataclass(frozen=True)
class BdgCheck:
    p: float
    n_mc: int
    estimate: float
    se: float
    bound: float
    bracket: float
    passed: bool


def bdg_bound_check(
    S: GridIntegrand,
    h: float,
    p: float,
    n_mc: int,
    dt: float,
    seed: int = 0,
    grid: SpectralGrid = None,
) -> BdgCheck:
    """Monte Carlo p-th absolute moment of (S * X)_T against its bound.

    For p = 2 the isometry is asserted as a two-sided 3-SE match with the
    deterministic bracket I(T); for p > 2 the one-sided bound
    z_p I(T)^(p/2) with z_p = (4p)^(p/2) is checked.  Raises if the sampled
    p-th power is too heavy-tailed for the moment estimate to be stable at
    this sample size.
    """
    h = validate_hurst(h)
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p!r}")
    n_mc = int(n_mc)
    if n_mc < 100:
        raise ValueError("n_mc too small for any moment estimate")
    if grid is None:
        from .noise import build_grid, default_xi_max

        grid = build_grid(h, default_xi_max(h), 4096)
    samples = integral_ensemble(S, grid, dt, n_mc, seed)
    powers = np.abs(samples) ** p
    estimate = float(powers.mean())
    se = float(powers.std(ddof=1)) / math.sqrt(n_mc)
    if estimate > 0.0 and se > 0.25 * estimate:
        raise RuntimeError(
            f"p={p} moment estimate unstable at n_mc={n_mc}: se/mean = {se / estimate:.2f}"
        )
    bracket = deterministic_I_T(S, h, dt * S.n_steps)
    if p == 2.0:
        bound = bracket
        passed = abs(estimate - bracket) <= 3.0 * se
    else:
        bound = bdg_z_p(p) * bracket ** (p / 2.0)
        passed = estimate <= bound
    return BdgCheck(p, n_mc, estimate, se, bound, bracket, passed)
