"""Picard iteration for the mild wave and heat equations with affine noise
coefficient.

The mild solution is built as the fixed point of

    u^{n+1}(t, x) = w(t, x) + int_0^t int_R G_{t-s}(x - y) sigma(u^n(s, y)) X(ds, dy)

with u^0 = w, where w is the homogeneous (noise-free) solution, G is the wave
or heat kernel, and sigma(u) = a u + b.  Space is discretised on a periodic
lattice of n_fft points; the driving noise is synthesised on frequency bands
centred at the nonzero rfft lattice frequencies, with exact spectral mass per
band, so every kernel application is a pair of FFTs with closed-form symbols.
Time uses the left-endpoint (Ito) rule: the integrand slice at step i is
sigma(u^n(t_i, .)) against the increment of slab [t_i, t_{i+1}).

All randomness flows through noise.keyed_rng: the noise of realization r is
the stream keyed by (seed, r); iterates of the same solve share one noise
draw, so the Picard maps are deterministic functions of that draw.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .constants import validate_hurst
from .noise import band_mass, keyed_rng, spectral_increments

__all__ = [
    "AffineSigma",
    "InitialData",
    "constant_initial",
    "sampled_holder_initial",
    "PicardConfig",
    "SolverGeometry",
    "build_geometry",
    "SpaceTimeField",
    "PicardResult",
    "EnsembleResult",
    "PicardConvergenceError",
    "PicardDivergenceError",
    "homogeneous_term",
    "noise_slabs",
    "picard_step",
    "solve",
    "solve_ensemble",
    "uniqueness_probe",
]

GAUSS_TAIL_CAP = 1e-9  # admissible heat-kernel mass beyond the padding


class PicardConvergenceError(RuntimeError):
    """Raised when the iteration exhausts max_iters above tolerance.

    Carries the achieved successive-delta history in ``deltas`` so callers
    can distinguish slow decay from divergence.
    """

    def __init__(self, message, deltas):
        super().__init__(message)
        self.deltas = list(deltas)


class PicardDivergenceError(PicardConvergenceError):
    """Raised as soon as a successive delta is not finite (overflow or NaN).

    ``deltas`` ends with the non-finite value.  Numpy's overflow and
    invalid-value warnings inside a Picard step are silenced, because this
    error reports what they would.
    """


def _core_delta(diff, geom, n, deltas):
    """sup |diff| over the core window; raises PicardDivergenceError if not finite."""
    delta = float(np.max(np.abs(diff[:, geom.core])))
    if not math.isfinite(delta):
        raise PicardDivergenceError(
            f"non-finite delta {delta} at iteration {n}", [*deltas, delta]
        )
    return delta


@dataclass(frozen=True)
class AffineSigma:
    """Noise coefficient sigma(u) = a u + b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("sigma coefficients must be finite")

    def __call__(self, u):
        return self.a * u + self.b


@dataclass(frozen=True)
class InitialData:
    """Initial condition: u0 everywhere, v0 (initial velocity) for the wave
    kernel only.

    Both callables must accept 1-D float arrays and return arrays of the
    same shape.  v0 is ignored by the heat kernel; None means v0 = 0.
    """

    u0: object
    v0: object = None


def constant_initial(value, v0_value=0.0, ):
    value = float(value)
    v0_value = float(v0_value)

    def u0(x):
        return np.full_like(np.asarray(x, dtype=float), value)

    if v0_value == 0.0:
        return InitialData(u0=u0)

    def v0(x):
        return np.full_like(np.asarray(x, dtype=float), v0_value)

    return InitialData(u0=u0, v0=v0)


HOLDER_SAMPLE_BANDS = 128  # bands k = 1..128 at d_omega = 1


def sampled_holder_initial(h, seed):
    """Random initial datum with Holder regularity h on macroscopic scales.

    Draws one unit time slab of the noise under the band law of the solver,
    on the bands k = 1..HOLDER_SAMPLE_BANDS at d_omega = 1, and freezes its
    antiderivative u0(x) = 2 Re sum_k Z_k (1 - e^{-ikx}) / (ik) as a
    deterministic callable.  Band 0, whose transfer is the unbounded ramp x,
    is left out, so u0 is bounded and 2 pi-periodic.  The sample is exactly
    zero at x = 0 and statistically h-Holder at lags above
    1/HOLDER_SAMPLE_BANDS.  It is drawn from keyed_rng(seed), the stream
    with the empty key, which no realization of the driving noise uses, so
    the datum is independent of the noise.
    """
    h = validate_hurst(h)
    k = np.arange(1, HOLDER_SAMPLE_BANDS + 1)
    z = spectral_increments(band_mass(h, k - 0.5, k + 0.5), 1.0, 1, keyed_rng(seed))[0]
    # sum_k c_k (1 - q^k) = (1 - q) sum_j d_j q^j with d_j = sum_{k>j} c_k
    tail_sums = np.cumsum((z / (1j * k))[::-1])[::-1]

    def u0(x):
        q = np.exp(-1j * np.asarray(x, dtype=float))
        acc = np.full(q.shape, tail_sums[-1])
        for d in tail_sums[-2::-1]:
            acc *= q
            acc += d
        acc *= 1.0 - q
        # 1 - q vanishes at x = 0; adding 0.0 turns a -0.0 there into 0.0
        return 2.0 * acc.real + 0.0

    return InitialData(u0=u0)


@dataclass(frozen=True)
class PicardConfig:
    """Inputs for one Picard solve.

    dt is derived as T / n_steps.  L is the half-width of the core window on
    which results are reported; the lattice extends beyond it by at least
    ``pad`` on each side (kernel-dependent default) and is rounded up to a
    power-of-two point count.
    """

    equation: str
    h: float
    T: float
    n_steps: int
    dx: float
    L: float
    sigma: AffineSigma
    init: InitialData
    seed: int
    realization: int = 0
    max_iters: int = 12
    tol: float = 1e-3
    pad: float = None

    def __post_init__(self):
        if self.equation not in ("wave", "heat"):
            raise ValueError(f"equation must be 'wave' or 'heat', got {self.equation!r}")
        validate_hurst(self.h)
        if not self.T > 0.0:
            raise ValueError(f"T must be positive, got {self.T!r}")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps!r}")
        if not self.dx > 0.0:
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        if not self.L > 0.0:
            raise ValueError(f"L must be positive, got {self.L!r}")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive (math.inf stops after one step)")
        if self.pad is not None and not self.pad > 0.0:
            raise ValueError("pad must be positive when given")

    @property
    def dt(self):
        return self.T / self.n_steps


def _default_pad(equation, T, dx):
    # Wave needs the full dependence cone; heat needs the Gaussian mass
    # beyond the pad to be negligible (erfc(6.5/sqrt(2))/2 = 4e-11).
    if equation == "wave":
        return T + 16.0 * dx
    return max(6.5 * math.sqrt(T), 16.0 * dx)


@dataclass(frozen=True)
class SolverGeometry:
    """Frozen lattice: space grid, rfft frequencies, and noise band masses.

    Noise band k (k = 0..n_fft/2-1) covers [max(k-1/2, 0), k+1/2) * d_omega
    with exact one-sided spectral mass, evaluated at the rfft lattice
    frequency k * d_omega.  Band 0 matters for the wave kernel, whose
    squared symbol tends to t^2 rather than 0 at frequency zero; it enters
    the slab fields as a real spatially-constant increment.  Only the
    Nyquist half-band is dropped (negligible under the |xi|^(1-2h) weight
    times the decaying symbols).  The layout makes the aliasing guard
    xi_cut * dx <= pi structural.
    """

    equation: str
    h: float
    dt: float
    n_steps: int
    dx: float
    n_fft: int
    x0: float
    core: slice
    band_masses: np.ndarray
    omega_r: np.ndarray

    @property
    def n_bands(self):
        return self.band_masses.size

    @property
    def x_grid(self):
        return self.x0 + self.dx * np.arange(self.n_fft)

    @property
    def t_grid(self):
        return self.dt * np.arange(self.n_steps + 1)

    @property
    def T(self):
        return self.dt * self.n_steps

    @property
    def d_omega(self):
        return 2.0 * math.pi / (self.n_fft * self.dx)

    @property
    def xi_cut(self):
        return (self.n_bands - 0.5) * self.d_omega

    @property
    def actual_pad(self):
        return 0.5 * self.n_fft * self.dx - self.x_grid[self.core].max()

    @cached_property
    def trig_tables(self):
        """cos(t_j w_l) and sin(t_j w_l) for all grid times and rfft
        frequencies; the wave symbol sin(tau w)/w splits over these.
        Computed once per geometry."""
        phase = np.outer(self.t_grid, self.omega_r)
        return np.cos(phase), np.sin(phase)


def build_geometry(config):
    pad = config.pad if config.pad is not None else _default_pad(config.equation, config.T, config.dx)
    half_window = config.L + pad
    n_fft = 1 << max(4, math.ceil(math.log2(2.0 * half_window / config.dx)))
    x0 = -0.5 * n_fft * config.dx
    x_grid = x0 + config.dx * np.arange(n_fft)
    inside = np.abs(x_grid) <= config.L + 1e-12 * config.L
    idx = np.nonzero(inside)[0]
    core = slice(int(idx[0]), int(idx[-1]) + 1)

    d_omega = 2.0 * math.pi / (n_fft * config.dx)
    k = np.arange(n_fft // 2)
    masses = band_mass(config.h, np.maximum(k - 0.5, 0.0) * d_omega, (k + 0.5) * d_omega)

    geom = SolverGeometry(
        equation=config.equation,
        h=config.h,
        dt=config.dt,
        n_steps=config.n_steps,
        dx=config.dx,
        n_fft=n_fft,
        x0=x0,
        core=core,
        band_masses=masses,
        omega_r=2.0 * math.pi * np.fft.rfftfreq(n_fft, config.dx),
    )
    if geom.xi_cut * config.dx > math.pi * (1.0 + 1e-12):
        raise ValueError("aliasing guard violated: xi_cut * dx exceeds pi")
    return geom


@dataclass(frozen=True)
class SpaceTimeField:
    """A field sampled on the solver lattice; row j is time j*dt.

    ``core`` marks the columns inside the reported window [-L, L]; the
    remaining columns are padding and carry boundary artefacts.
    """

    values: np.ndarray
    dt: float
    dx: float
    x0: float
    h: float
    equation: str
    core: slice

    @property
    def n_steps(self):
        return self.values.shape[0] - 1

    @property
    def t_grid(self):
        return self.dt * np.arange(self.values.shape[0])

    @property
    def x_grid(self):
        return self.x0 + self.dx * np.arange(self.values.shape[1])

    @property
    def core_values(self):
        return self.values[:, self.core]

    @property
    def core_x(self):
        return self.x_grid[self.core]


def _field_from(geom, values):
    return SpaceTimeField(
        values=values, dt=geom.dt, dx=geom.dx, x0=geom.x0,
        h=geom.h, equation=geom.equation, core=geom.core,
    )


def _eval_on(f, x):
    out = np.asarray(f(np.ravel(x)), dtype=float)
    if out.shape != np.ravel(x).shape:
        raise ValueError("initial-data callables must map 1-D arrays to same-shape arrays")
    return out.reshape(np.shape(x))


def _homogeneous_values(geom, init):
    """Noise-free mild solution w on the full lattice.

    wave: d'Alembert, with the v0 antiderivative tabulated by cumulative
    trapezoid at dx/4 and linearly interpolated (both errors O(dx^2)).
    heat: spectral heat propagation of the u0 samples; exact for the DC
    mode, spectrally accurate otherwise, with wrap-around suppressed by the
    window check below.
    """
    T = geom.T
    if geom.equation == "wave":
        if geom.actual_pad < T - 1e-12 * T:
            raise ValueError(
                f"window too small: wave needs padding >= T = {T:g}, "
                f"have {geom.actual_pad:g}; widen L/pad or shrink T"
            )
        t_col = geom.t_grid[:, None]
        xp = geom.x_grid[None, :] + t_col
        xm = geom.x_grid[None, :] - t_col
        w = 0.5 * (_eval_on(init.u0, xp) + _eval_on(init.u0, xm))
        if init.v0 is not None:
            step = geom.dx / 4.0
            lo = geom.x0 - T - 2.0 * step
            hi = geom.x_grid[-1] + T + 2.0 * step
            n_fine = int(math.ceil((hi - lo) / step)) + 1
            fine = np.linspace(lo, hi, n_fine)
            v_anti = np.concatenate(
                [[0.0], cumulative_trapezoid(_eval_on(init.v0, fine), fine)]
            )
            w += 0.5 * (np.interp(xp, fine, v_anti) - np.interp(xm, fine, v_anti))
        return w

    tail_mass = 0.5 * math.erfc(geom.actual_pad / math.sqrt(2.0 * T))
    if tail_mass > GAUSS_TAIL_CAP:
        raise ValueError(
            f"window too small: heat-kernel mass {tail_mass:.2e} beyond the "
            f"padding exceeds {GAUSS_TAIL_CAP:g}; widen L/pad or shrink T"
        )
    u0_samples = _eval_on(init.u0, geom.x_grid)
    u0_hat = np.fft.rfft(u0_samples)
    decay = np.exp(-0.5 * geom.t_grid[:, None] * geom.omega_r[None, :] ** 2)
    w = np.fft.irfft(decay * u0_hat[None, :], n=geom.n_fft, axis=1)
    w[0] = u0_samples
    return w


def homogeneous_term(config):
    """Solve the noise-free problem on the configured lattice."""
    geom = build_geometry(config)
    return _field_from(geom, _homogeneous_values(geom, config.init))


def _band_field(geom, coeff):
    """The real lattice field 2 Re sum_k coeff_k e^{-i w_k x} at x_grid.

    coeff holds one complex amplitude per noise band along its last axis;
    band 0 enters as the real constant 2 Re coeff_0.  One irfft of the half
    spectrum: e^{-i w_k x0} = (-1)^k exactly for the symmetric window
    x0 = -n_fft dx / 2, and the conjugate turns e^{-i w_k x} into the
    irfft kernel, whose Hermitian doubling supplies the factor 2.
    """
    half = np.zeros(coeff.shape[:-1] + (geom.n_fft // 2 + 1,), dtype=complex)
    np.conjugate(coeff, out=half[..., : geom.n_bands])
    half[..., 1 : geom.n_bands : 2] *= -1.0
    half[..., 0] = 2.0 * coeff[..., 0].real
    return np.fft.irfft(half, n=geom.n_fft, axis=-1, norm="forward")


def noise_slabs(geom, seed, realization=0):
    """Synthesise the slab noise fields eta_i on the lattice.

    Row i is the density of the noise increment over [t_i, t_{i+1}),
    evaluated at the grid points: eta_i(x) = 2 Re sum_k Z_{ik} e^{-i w_k x}
    with E|Z_{ik}|^2 = dt * band_mass_k, assembled by one inverse real FFT
    per slab.  The k = 0 term is the real constant 2 Re Z_{i0}, carrying
    the full two-sided mass of the band around zero.  Integrating any slice
    against eta_i reproduces the banded stochastic integral exactly.
    """
    rng = keyed_rng(seed, realization)
    z = spectral_increments(geom.band_masses, geom.dt, geom.n_steps, rng)
    return _band_field(geom, z)


def picard_step(geom, sigma, u_prev, eta, w):
    """One Picard update: u_next = w + int G sigma(u_prev) dX.

    The stochastic term at t_j sums, over source steps i < j, the kernel
    G_{t_j - t_i} convolved with sigma(u_prev(t_i, .)) * eta_i.  Convolution
    is spectral with the closed-form symbols; the wave symbol
    sin(tau w)/w is accumulated with running cos/sin sums over the
    geometry's trig tables and the heat symbol exp(-tau w^2 / 2) with a
    one-step recursion, so the whole update costs O(n_steps) FFTs.
    """
    n_steps, n_fft = geom.n_steps, geom.n_fft
    if u_prev.shape != (n_steps + 1, n_fft):
        raise ValueError(f"u_prev must have shape {(n_steps + 1, n_fft)}, got {u_prev.shape}")
    if eta.shape != (n_steps, n_fft):
        raise ValueError(f"eta must have shape {(n_steps, n_fft)}, got {eta.shape}")

    q = sigma(u_prev[:n_steps]) * eta
    p_hat = np.fft.rfft(q, axis=1)
    omega = geom.omega_r
    t_grid = geom.t_grid

    if geom.equation == "wave":
        cos_t, sin_t = geom.trig_tables
        a_run = np.cumsum(cos_t[:n_steps] * p_hat, axis=0)
        b_run = np.cumsum(sin_t[:n_steps] * p_hat, axis=0)
        sym = sin_t[1:] * a_run - cos_t[1:] * b_run
        sym[:, 1:] /= omega[1:]
        # w = 0 slot: the symbol limit is tau itself
        s0 = np.cumsum(p_hat[:, 0])
        s1 = np.cumsum(t_grid[:n_steps] * p_hat[:, 0])
        sym[:, 0] = t_grid[1:] * s0 - s1
    else:
        decay = np.exp(-0.5 * geom.dt * omega**2)
        sym = np.empty((n_steps, omega.size), dtype=complex)
        running = np.zeros(omega.size, dtype=complex)
        for j in range(n_steps):
            running = decay * (running + p_hat[j])
            sym[j] = running

    u_next = w.copy()
    u_next[1:] += np.fft.irfft(sym, n=n_fft, axis=1)
    return u_next


@dataclass(frozen=True)
class PicardResult:
    """A converged solve: the final iterate, the successive deltas, and the
    homogeneous term ``homogeneous`` (= u^0 = w) it was built on."""

    field: SpaceTimeField
    deltas: list
    converged: bool
    n_iters: int
    stopping_threshold: float
    geometry: SolverGeometry
    config: PicardConfig
    homogeneous: np.ndarray


def _iterate(geom, sigma, w, eta, max_iters, tol=None, observer=None, start=None):
    """Picard steps for one noise draw, from ``start`` (default w).

    Stops once a delta is zero or at most tol times the first delta;
    tol=None runs all max_iters steps.  observer(n, diff, u_n) sees each
    step after its delta is checked.  Returns (u, deltas, converged).
    """
    u = w if start is None else start
    deltas = []
    for n in range(1, max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            u_next = picard_step(geom, sigma, u, eta, w)
            diff = u_next - u
        delta = _core_delta(diff, geom, n, deltas)
        if observer is not None:
            observer(n, diff, u_next)
        deltas.append(delta)
        u = u_next
        # delta == 0 is an exact fixed point; the explicit test also avoids
        # inf * 0 when tol is infinite and the noise term vanishes
        if tol is not None and (delta == 0.0 or delta <= tol * deltas[0]):
            return u, deltas, True
    return u, deltas, False


def solve(config):
    """Run the Picard iteration to the relative tolerance in config.

    Stops once the sup-norm over the core window of u^{n+1} - u^n falls
    below tol times the first delta (tol = inf therefore returns u^1).
    Raises PicardConvergenceError, carrying the delta history, if max_iters
    is exhausted first, and PicardDivergenceError once a delta is not finite.
    """
    geom = build_geometry(config)
    w = _homogeneous_values(geom, config.init)
    eta = noise_slabs(geom, config.seed, config.realization)
    u, deltas, converged = _iterate(geom, config.sigma, w, eta, config.max_iters, config.tol)
    threshold = config.tol * deltas[0]
    if not converged:
        raise PicardConvergenceError(
            f"no convergence after {config.max_iters} iterations; "
            f"last delta {deltas[-1]:.3e} vs threshold {threshold:.3e}",
            deltas,
        )
    return PicardResult(
        field=_field_from(geom, u),
        deltas=deltas,
        converged=True,
        n_iters=len(deltas),
        stopping_threshold=threshold,
        geometry=geom,
        config=config,
        homogeneous=w,
    )


@dataclass(frozen=True)
class EnsembleResult:
    """Per-realization successive deltas from a fixed-iteration ensemble."""

    deltas: np.ndarray
    n_realizations: int
    n_iters: int
    geometry: SolverGeometry
    config: PicardConfig


def solve_ensemble(config, n_realizations, n_iters=None, collectors=(), on_final=None):
    """Run a fixed number of Picard iterations over an ensemble of draws.

    Every realization r uses the independent stream (seed, realization0 + r)
    and runs the same iteration as ``solve`` for exactly n_iters updates
    (default max_iters), past an exact zero delta too: ensemble statistics
    need aligned iteration counts, so the pathwise stopping rule is not
    applied here.  Collectors see each successive difference as it is
    produced via collector.observe(n, diff, geom); on_final(r, field) sees
    each final iterate.  Memory stays O(one realization).  A non-finite
    delta raises PicardDivergenceError.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be at least 1")
    n_iters = int(n_iters) if n_iters is not None else config.max_iters
    geom = build_geometry(config)
    w = _homogeneous_values(geom, config.init)
    deltas = np.empty((n_realizations, n_iters))

    def observe(n, diff, u):
        for collector in collectors:
            collector.observe(n, diff, geom)

    for r in range(n_realizations):
        eta = noise_slabs(geom, config.seed, config.realization + r)
        u, deltas[r], _ = _iterate(geom, config.sigma, w, eta, n_iters, observer=observe)
        if on_final is not None:
            on_final(r, _field_from(geom, u))

    return EnsembleResult(
        deltas=deltas,
        n_realizations=n_realizations,
        n_iters=n_iters,
        geometry=geom,
        config=config,
    )


def uniqueness_probe(config, perturbation):
    """Iterate the same fixed-point map from two different starting fields.

    The map u -> w + int G sigma(u) dX for one noise draw has a unique
    fixed point, so starting the iteration from the homogeneous term or
    from that term plus ``perturbation`` (a float or a callable of x) must
    land on the same limit.  The data, the noise, and the map are shared;
    only the starting iterate moves.  Agreement of the two limits within
    3x the larger achieved stopping threshold passes.
    """
    geom = build_geometry(config)
    w = _homogeneous_values(geom, config.init)
    eta = noise_slabs(geom, config.seed, config.realization)
    if callable(perturbation):
        bump = _eval_on(perturbation, geom.x_grid)[None, :]
    else:
        bump = float(perturbation)
    u_a, d_a, ok_a = _iterate(geom, config.sigma, w, eta, config.max_iters, config.tol)
    u_b, d_b, ok_b = _iterate(
        geom, config.sigma, w, eta, config.max_iters, config.tol, start=w + bump
    )
    if not (ok_a and ok_b):
        raise PicardConvergenceError(
            "uniqueness probe did not converge; raise max_iters or tol",
            d_a if not ok_a else d_b,
        )
    gap = float(np.max(np.abs((u_a - u_b)[:, geom.core])))
    threshold = 3.0 * max(config.tol * d_a[0], config.tol * d_b[0])
    return {
        "max_difference": gap,
        "threshold": threshold,
        "passed": bool(gap <= threshold),
        "deltas_base": d_a,
        "deltas_perturbed": d_b,
    }
