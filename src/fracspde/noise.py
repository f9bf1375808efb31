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

The binned grid model (SpectralGrid, sample_noise, field_value and the FSPN
container) partitions [-xi_max, xi_max] into linear bins evaluated at their
mass centroids.  No command draws from it; it is the noise that integrals.py
integrates against.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .constants import c_H, validate_hurst

__all__ = [
    "SpectralGrid",
    "SpectralNoise",
    "band_mass",
    "band_centroid",
    "build_grid",
    "default_xi_max",
    "truncation_tail",
    "discretized_covariance",
    "variance_bias_report",
    "spectral_increments",
    "sample_noise",
    "indicator_transfer",
    "field_value",
    "save_noise",
    "load_noise",
]

FORMAT_MAGIC = b"FSPN"
FORMAT_VERSION = 1


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


def band_centroid(h: float, lo, hi):
    """Mass centroid int xi dmu / mu of the band [lo, hi], 0 <= lo < hi,
    elementwise over arrays of band edges."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    p = 3.0 - 2.0 * h
    return c_H(h) * (hi**p - lo**p) / p / band_mass(h, lo, hi)


@dataclass(frozen=True)
class SpectralGrid:
    """Symmetric partition of [-xi_max, xi_max] with exact per-bin measure.

    edges has n_bins + 1 sorted entries, symmetric about 0 (0 is an edge);
    masses[k] is the exact mu-mass of bin k and centroids[k] its mass
    centroid, where transfer functions are evaluated.  Bin k mirrors bin
    n_bins - 1 - k.
    """

    h: float
    edges: np.ndarray
    masses: np.ndarray
    centroids: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.masses.size

    @property
    def xi_max(self) -> float:
        return float(self.edges[-1])

    @property
    def positive(self) -> slice:
        """Slice selecting the positive-frequency bins in increasing order."""
        return slice(self.n_bins // 2, self.n_bins)

    def mirror(self, k: int) -> int:
        return self.n_bins - 1 - k

    def total_mass(self) -> float:
        return float(np.sum(self.masses))


def build_grid(h: float, xi_max: float, n_bins: int) -> SpectralGrid:
    """Linear symmetric bins on [-xi_max, xi_max] with closed-form masses.

    n_bins must be even and at least 2 so that 0 falls on an edge and every
    bin has a mirror partner.
    """
    h = validate_hurst(h)
    xi_max = float(xi_max)
    if not xi_max > 0.0:
        raise ValueError(f"xi_max must be positive, got {xi_max!r}")
    n_bins = int(n_bins)
    if n_bins < 2 or n_bins % 2 != 0:
        raise ValueError(f"n_bins must be even and >= 2, got {n_bins!r}")
    edges = np.linspace(-xi_max, xi_max, n_bins + 1)
    edges[n_bins // 2] = 0.0
    return grid_from_edges(h, edges)


def default_xi_max(h: float, rel_tail: float = 0.01) -> float:
    """Cutoff making the truncation tail of Var X(t, 1) strictly below rel_tail.

    Solves the mean envelope of the tail integrand, 4 c_H xi^(-2h) / (2h),
    against the unit target variance |x|^(2h) = 1, then adds 5% headroom so
    the realized tail (envelope minus an oscillatory remainder of either
    sign) stays below the requested fraction.
    """
    h = validate_hurst(h)
    if not 0.0 < rel_tail < 1.0:
        raise ValueError(f"rel_tail must lie in (0, 1), got {rel_tail!r}")
    return 1.05 * (2.0 * c_H(h) / (h * rel_tail)) ** (1.0 / (2.0 * h))


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


def indicator_transfer(xi: np.ndarray, x) -> np.ndarray:
    """F1_(0,x](xi) = (1 - e^(-i xi x)) / (i xi), for xi != 0.

    Broadcasts x against xi; with x of shape (m, 1) and xi of shape (n,)
    the result has shape (m, n).
    """
    xi = np.asarray(xi, dtype=float)
    x = np.asarray(x, dtype=float)
    phase = np.exp(-1j * xi * x)
    return (1.0 - phase) / (1j * xi)


def discretized_covariance(grid: SpectralGrid, x, y) -> np.ndarray:
    """Exact per-unit-time covariance of the synthesized field:

        E[X(1, x) X(1, y)] = sum_k masses[k] Re F1_(0,x] conj(F1_(0,y])

    at the grid's centroids.  This is the mean any Monte Carlo estimate over
    realizations converges to; its gap to fbm_covariance is the deterministic
    truncation-plus-discretization bias.  x and y broadcast together.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    xb = np.broadcast_to(x, shape).reshape(-1, 1)
    yb = np.broadcast_to(y, shape).reshape(-1, 1)
    phi_x = indicator_transfer(grid.centroids, xb)
    phi_y = indicator_transfer(grid.centroids, yb)
    out = (phi_x * np.conj(phi_y)).real @ grid.masses
    return out.reshape(shape) if shape else float(out[0])


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


def spectral_increments(masses, dt: float, n_steps: int, seed: int, realization: int = 0) -> np.ndarray:
    """Circular complex Gaussian increments, one per (time step, band).

    Returns shape (n_steps, len(masses)); entry (j, k) has independent real
    and imaginary parts N(0, dt masses[k] / 2), so E|Z|^2 = dt masses[k] and
    E[Z^2] = 0.  The RNG is counter-based (Philox) keyed by
    SeedSequence(seed, spawn_key=(realization,)), and the draw order is fixed
    as one standard_normal block of shape (n_steps, n_bands, 2) with the last
    axis (real, imag): the realization is a pure function of
    (seed, realization) for a given shape.
    """
    masses = np.asarray(masses, dtype=float)
    if not float(dt) > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(realization),))
    rng = np.random.Generator(np.random.Philox(ss))
    raw = rng.standard_normal((n_steps, masses.size, 2))
    scale = np.sqrt(0.5 * float(dt) * masses)
    return (raw[..., 0] + 1j * raw[..., 1]) * scale


@dataclass(frozen=True)
class SpectralNoise:
    """One realization of the discretized noise on a spectral grid.

    increments has shape (n_steps, n_bins) over the full symmetric grid with
    the Hermitian relation increments[:, mirror(k)] = conj(increments[:, k]),
    so any field assembled with a conjugate-symmetric transfer function is
    real.  seed and realization record provenance; the realization index is
    not persisted by save_noise (the increments themselves are).
    """

    grid: SpectralGrid
    dt: float
    n_steps: int
    increments: np.ndarray
    seed: int
    realization: int = 0

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps


def sample_noise(grid: SpectralGrid, dt: float, n_steps: int, seed: int, realization: int = 0) -> SpectralNoise:
    """Draw one noise realization on the grid; pure in (seed, realization)."""
    pos = spectral_increments(grid.masses[grid.positive], dt, n_steps, seed, realization)
    increments = np.concatenate([np.conj(pos[:, ::-1]), pos], axis=1)
    increments.setflags(write=False)
    return SpectralNoise(grid, float(dt), int(n_steps), increments, int(seed), int(realization))


def field_value(noise: SpectralNoise, t: float, x):
    """X(t, x) = sum over steps up to t and all bins of F1_(0,x] increments.

    t is interpreted on the step lattice: steps with right endpoint at most
    t (within a relative epsilon) contribute.  Returns a float for scalar x,
    an ndarray for array x; the imaginary residue is checked to be below
    1e-10 of the field scale.
    """
    t = float(t)
    if t < 0.0 or t > noise.horizon * (1.0 + 1e-12) + 1e-15:
        raise ValueError(f"t must lie in [0, {noise.horizon}], got {t!r}")
    n_full = int(math.floor(t / noise.dt + 1e-9))
    n_full = min(n_full, noise.n_steps)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if n_full == 0:
        out = np.zeros(x_arr.shape)
        return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out
    total = noise.increments[:n_full].sum(axis=0)
    field = indicator_transfer(noise.grid.centroids, x_arr[:, None]) @ total
    scale = max(float(np.abs(field).max()), 1e-30)
    if float(np.abs(field.imag).max()) > 1e-10 * scale:
        raise AssertionError("realized field has a non-negligible imaginary part")
    out = field.real
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


# ---------------------------------------------------------------------------
# Binary container
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIddQQQ")


def save_noise(noise: SpectralNoise, path) -> None:
    """Write header {h, dt, n_steps, grid edges, seed, format-version} and the
    full increment array as little-endian float64 (re, im) pairs."""
    edges = np.ascontiguousarray(noise.grid.edges, dtype="<f8")
    header = _HEADER.pack(
        FORMAT_MAGIC,
        FORMAT_VERSION,
        noise.grid.h,
        noise.dt,
        noise.n_steps,
        noise.seed,
        edges.size,
    )
    flat = np.empty((noise.n_steps, noise.grid.n_bins, 2), dtype="<f8")
    flat[..., 0] = noise.increments.real
    flat[..., 1] = noise.increments.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(edges.tobytes())
        fh.write(flat.tobytes())


def load_noise(path) -> SpectralNoise:
    """Read a container written by save_noise; increments round-trip bitwise.

    The grid is rebuilt from the stored edges with masses and centroids
    recomputed from their closed forms.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        magic, version, h, dt, n_steps, seed, n_edges = _HEADER.unpack(header)
        if magic != FORMAT_MAGIC:
            raise ValueError(f"not a spectral noise container: magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported container version {version}")
        edges = np.frombuffer(fh.read(8 * n_edges), dtype="<f8").copy()
        n_bins = n_edges - 1
        flat = np.frombuffer(fh.read(), dtype="<f8").copy().reshape(n_steps, n_bins, 2)
    grid = grid_from_edges(h, edges)
    increments = flat[..., 0] + 1j * flat[..., 1]
    increments.setflags(write=False)
    return SpectralNoise(grid, dt, int(n_steps), increments, int(seed))


def grid_from_edges(h: float, edges: np.ndarray) -> SpectralGrid:
    """Rebuild a SpectralGrid from stored symmetric edges."""
    edges = np.asarray(edges, dtype=float)
    n_bins = edges.size - 1
    if n_bins < 2 or n_bins % 2 != 0:
        raise ValueError("edges must describe an even number of bins")
    if not np.allclose(edges, -edges[::-1], rtol=0.0, atol=1e-12 * abs(edges[-1])):
        raise ValueError("edges must be symmetric about 0")
    half = n_bins // 2
    pos_lo = edges[half:-1]
    pos_hi = edges[half + 1 :]
    pos_mass = band_mass(h, pos_lo, pos_hi)
    pos_centroid = band_centroid(h, pos_lo, pos_hi)
    masses = np.concatenate([pos_mass[::-1], pos_mass])
    centroids = np.concatenate([-pos_centroid[::-1], pos_centroid])
    grid = SpectralGrid(h, edges, masses, centroids)
    grid.masses.setflags(write=False)
    grid.edges.setflags(write=False)
    grid.centroids.setflags(write=False)
    return grid
