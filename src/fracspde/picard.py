"""The mild wave and heat equations with affine noise coefficient: the
fixed point by one causal sweep, and Picard iteration where the iterates are
the object.

The mild solution is the fixed point of the Picard map

    Phi(u)(t, x) = w(t, x) + int_0^t int_R G_{t-s}(x - y) sigma(u(s, y)) X(ds, dy),

where w is the homogeneous (noise-free) solution, G is the wave or heat
kernel, and sigma(u) = a u + b; the paper builds it as the limit of the
iterates u^{n+1} = Phi(u^n), u^0 = w.  Space is discretised on a periodic
lattice of n_fft points; the driving noise is synthesised on frequency bands
centred at the nonzero rfft lattice frequencies, with exact spectral mass per
band, so every kernel application is a pair of FFTs with closed-form symbols.
Time uses the left-endpoint (Ito) rule: the integrand slice at step i is
sigma(u(t_i, .)) against the increment of slab [t_i, t_{i+1}).  Under that
rule row j + 1 of Phi(u) reads only rows 0..j of u, so the lattice fixed
point is reached exactly by one forward pass over the rows (``solve``).
The same causality builds the iterates themselves, whose successive
differences are objects of the paper's proof: the iterate engine
``_picard_levels`` carries every level u^0..u^N of a batch of draws through
one forward pass, row j + 1 of u^{n+1} from row j of u^n, and hands each
row of every level, as it is built, to ``solve_ensemble``'s collectors and
to ``uniqueness_probe``.

Both passes are streamed: w comes row by row (``_homogeneous_rows``), the
noise NOISE_CHUNK slabs at a time (``_noise_rows``), and each finished row
goes to consumers that declare it, so no solver path holds an array that
grows with n_steps unless a consumer keeps one (``solve`` does so by
default).  The sweep, the engine and ``picard_step`` form the same spectral
sums (``_slab_sums``), so the engine's iterates are bit for bit those of
chained ``picard_step`` calls.  The row kernels run in place: a row, a
level buffer or a slab sum handed out is valid until the next row or the
next slab added, so whoever keeps one copies it.  Every route divides the
wave symbol by w with the same reciprocal multiply (``_reciprocal``),
which gives numpy's complex quotient bit for bit on every finite entry,
up to the sign of a zero part.  ``picard_step`` is one block of
``_stochastic_blocks``, the whole-array route that the sweep applies to
each noise chunk, with its running sums carried, for its residual; that
route stays independent of the sweep and the engine.
The heat slab weight is the exact-variance (accelerated exponential Euler)
weight, so with sigma = b each heat band follows its exact Ornstein-Uhlenbeck
law at grid times.

All randomness flows through noise.keyed_rng: the noise of realization r is
the stream keyed by (seed, r); iterates of the same solve share one noise
draw, so the Picard maps are deterministic functions of that draw.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def _finite_delta(delta, n, deltas):
    """delta itself; raises PicardDivergenceError if it is not finite."""
    if not math.isfinite(delta):
        raise PicardDivergenceError(
            f"non-finite delta {delta} at iteration {n}", [*deltas, delta]
        )
    return delta


def _core_delta(diff, geom, n, deltas):
    """sup |diff| over the core window; raises PicardDivergenceError if not finite."""
    return _finite_delta(float(np.max(np.abs(diff[:, geom.core]))), n, deltas)


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
    """Inputs for one solve or Picard iteration.

    dt is derived as T / n_steps.  L is the half-width of the core window on
    which results are reported; the lattice extends beyond it by at least
    ``pad`` on each side (kernel-dependent default) and is rounded up to a
    power-of-two point count.  max_iters and tol drive the Picard iteration
    (solve_ensemble's default count, uniqueness_probe's stopping rule);
    solve uses tol only to scale its stopping_threshold.
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


def _trapezoid_antiderivative(v, x):
    """Cumulative trapezoid int_x[0]^x[i] v, starting from 0 at x[0]."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (v[1:] + v[:-1]) / 2.0)])


NOISE_CHUNK = 16  # rows per call of _rows_by_chunks (noise, w, wave trig): amortizes call overhead


def _rows_by_chunks(n_rows, chunk):
    """Rows 0..n_rows-1 one at a time, formed NOISE_CHUNK at a time.

    chunk(j) returns an iterable over the rows j (an array of consecutive
    row indices), such as an array of them stacked along its first axis,
    whose rows are then yielded as views.  So a row generator holds
    NOISE_CHUNK rows whatever n_rows, and pays each numpy call once per
    chunk rather than once per row.
    """
    for j0 in range(0, n_rows, NOISE_CHUNK):
        yield from chunk(np.arange(j0, min(j0 + NOISE_CHUNK, n_rows)))


def _homogeneous_rows(geom, init):
    """Noise-free mild solution w on the full lattice, one row at a time.

    Returns an iterator over the rows w(t_j, .), j = 0..n_steps, formed
    by ``_rows_by_chunks`` (views, so callers copy what they keep).  The
    window checks run, and the data are sampled, when it is made; nothing
    it holds grows with n_steps.
    wave: d'Alembert, with the v0 antiderivative tabulated by cumulative
    trapezoid at dx/4 and linearly interpolated (both errors O(dx^2)).
    heat: spectral heat propagation of the u0 samples, row j =
    irfft(exp(-t_j w^2 / 2) rfft(u0)); exact for the DC mode, spectrally
    accurate otherwise, with wrap-around suppressed by the window check
    below.
    """
    T = geom.T
    x_grid = geom.x_grid
    if geom.equation == "wave":
        if geom.actual_pad < T - 1e-12 * T:
            raise ValueError(
                f"window too small: wave needs padding >= T = {T:g}, "
                f"have {geom.actual_pad:g}; widen L/pad or shrink T"
            )
        if init.v0 is not None:
            step = geom.dx / 4.0
            lo = geom.x0 - T - 2.0 * step
            hi = x_grid[-1] + T + 2.0 * step
            n_fine = int(math.ceil((hi - lo) / step)) + 1
            fine = np.linspace(lo, hi, n_fine)
            v_anti = _trapezoid_antiderivative(_eval_on(init.v0, fine), fine)

        def rows(j):
            t_col = (geom.dt * j)[:, None]
            xp, xm = x_grid + t_col, x_grid - t_col
            w = 0.5 * (_eval_on(init.u0, xp) + _eval_on(init.u0, xm))
            if init.v0 is not None:
                w += 0.5 * (np.interp(xp, fine, v_anti) - np.interp(xm, fine, v_anti))
            return w

    else:
        tail_mass = 0.5 * math.erfc(geom.actual_pad / math.sqrt(2.0 * T))
        if tail_mass > GAUSS_TAIL_CAP:
            raise ValueError(
                f"window too small: heat-kernel mass {tail_mass:.2e} beyond the "
                f"padding exceeds {GAUSS_TAIL_CAP:g}; widen L/pad or shrink T"
            )
        u0_samples = _eval_on(init.u0, x_grid)
        u0_hat = np.fft.rfft(u0_samples)
        omega_sq = geom.omega_r**2

        def rows(j):
            decay = np.exp(-0.5 * (geom.dt * j)[:, None] * omega_sq)
            w = np.fft.irfft(decay * u0_hat, n=geom.n_fft, axis=1)
            if j[0] == 0:
                w[0] = u0_samples
            return w

    return _rows_by_chunks(geom.n_steps + 1, rows)


def _homogeneous_values(geom, init):
    """The rows of _homogeneous_rows stacked into the whole (n_steps + 1,
    n_fft) array of w."""
    return np.stack(list(_homogeneous_rows(geom, init)))


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


def _noise_rows(geom, seed, realizations):
    """The slab noise fields of several realizations, one slab at a time.

    Yields eta_j for j = 0..n_steps-1 as an array of shape
    (len(realizations), n_fft) whose row i is row j of
    noise_slabs(geom, seed, realizations[i]).  The slabs are drawn
    NOISE_CHUNK at a time from each realization's own stream; a standard
    normal block filled in pieces holds the same numbers as one filled at
    once, so memory stays at NOISE_CHUNK slabs per realization.
    """
    rngs = [keyed_rng(seed, r) for r in realizations]

    def slabs(j):
        z = np.stack([spectral_increments(geom.band_masses, geom.dt, j.size, rng) for rng in rngs])
        return _band_field(geom, z).swapaxes(0, 1)

    return _rows_by_chunks(geom.n_steps, slabs)


def _reciprocal(omega):
    """1 / omega, with 1 in the w = 0 slot, whose symbol is set apart.

    Numpy divides a complex z by a real w > 0 as the complex w + 0i, which
    gives ((z.real + z.imag * 0) + i (z.imag - z.real * 0)) * (1 / w).  So
    z times this reciprocal is that quotient bit for bit wherever z is
    finite; only the sign of a zero part and non-finite entries may differ.
    On a (4, 12, 513) batch of sums, one multiply of the whole contiguous
    array took a quarter of the time of the division, and half that of a
    multiply of the slice past slot 0.
    """
    inv = np.ones_like(omega)
    inv[1:] = 1.0 / omega[1:]
    return inv


def _slab_sums(geom, batch=()):
    """The per-slab update of the stochastic term, in rfft space.

    Returns add(j, p_hat_j), which folds the transformed integrand
    rfft(sigma(u(t_j)) * eta_j) of slab j into running sums and returns the
    spectrum of the stochastic term at t_{j+1}.  Slabs must come in the
    order j = 0, 1, ....  p_hat_j has shape batch + (n_fft // 2 + 1,): one
    independent set of sums per leading index, each updated exactly as a
    single one would be.  The sweep and the iterate engine use it for both
    equations, and picard_step's route for heat; that route forms the wave
    sums by blocks of slabs, bit for bit the same.

    The wave symbol sin(tau w)/w splits over cos(t_j w) and sin(t_j w) into
    running cos/sin sums, with the two moments sum p and sum t_i p in the
    w = 0 slot, where the symbol is tau itself; the cos/sin rows of the grid
    times come from ``_rows_by_chunks``, one more per call.  The heat sum decays by
    exp(-dt w^2 / 2) per slab, and slab j enters it with the weight
    c = sqrt((1 - exp(-dt w^2)) / (dt w^2)) (c = 1 at w = 0), which gives
    each slab its exact variance int_0^dt exp(-s w^2) ds instead of the far
    end's dt exp(-dt w^2).

    The update runs in place: add returns one buffer of the sums, the same
    array at every call, valid until the next call (copy what is kept), and
    p_hat is only read.  The wave symbol is divided by w by a multiply with
    ``_reciprocal(w)``, which is numpy's complex quotient on every finite
    entry, up to the sign of a zero part.
    """
    omega, dt = geom.omega_r, geom.dt
    shape = tuple(batch) + (omega.size,)
    scratch = np.empty(shape, dtype=complex)
    if geom.equation == "heat":
        x = dt * omega**2
        decay = np.exp(-0.5 * x)
        weight = np.ones_like(x)
        weight[1:] = np.sqrt(-np.expm1(-x[1:]) / x[1:])
        running = np.zeros(shape, dtype=complex)

        def add(j, p_hat):
            nonlocal running
            # running = decay * running + weight * p_hat, in place
            running *= decay
            running += np.multiply(p_hat, weight, out=scratch)
            return running

        return add

    def trig(j):
        phase = np.outer(dt * j, omega)
        return zip(np.cos(phase), np.sin(phase))

    trig_rows = _rows_by_chunks(geom.n_steps + 1, trig)
    cos_j, sin_j = next(trig_rows)
    inv = _reciprocal(omega)
    a_run = np.zeros(shape, dtype=complex)
    b_run = np.zeros(shape, dtype=complex)
    sym = np.empty(shape, dtype=complex)
    s0 = np.zeros(shape[:-1], dtype=complex)
    s1 = np.zeros(shape[:-1], dtype=complex)

    def add(j, p_hat):
        nonlocal a_run, b_run, sym, s0, s1, cos_j, sin_j
        cos_next, sin_next = next(trig_rows)
        a_run += np.multiply(p_hat, cos_j, out=scratch)
        b_run += np.multiply(p_hat, sin_j, out=scratch)
        np.multiply(a_run, sin_next, out=sym)
        sym -= np.multiply(b_run, cos_next, out=scratch)
        sym *= inv
        s0 += p_hat[..., 0]
        s1 += (dt * j) * p_hat[..., 0]
        sym[..., 0] = (dt * (j + 1)) * s0 - s1
        cos_j, sin_j = cos_next, sin_next
        return sym

    return add


def _stochastic_blocks(geom):
    """picard_step's whole-array route to the stochastic term, one block of
    slabs at a time.

    Returns term(p_hat), which maps the transformed integrand rows
    p_hat_i = rfft(sigma(u(t_i)) * eta_i) of the slabs i = j0..j0+m-1 (shape
    (m, n_fft // 2 + 1)) to the stochastic term at t_{j0+1}..t_{j0+m}, shape
    (m, n_fft).  Blocks must come in order from j0 = 0; the running
    sums carry from one block to the next, so any split of the slabs into
    blocks gives the numbers of one block of them all.  The sums are those
    of ``_slab_sums`` in the same order: heat runs its slab update over the
    block's rows, and the wave sums are cumulative sums over the block,
    seeded with the last sums of the block before, on cos/sin tables of the
    block's own times.  So this route stays independent of the sweep and
    the engine, for picard_step and the sweep's residual.
    """
    n_fft, omega, dt = geom.n_fft, geom.omega_r, geom.dt
    j0 = 0
    if geom.equation == "heat":
        add = _slab_sums(geom)

        def term(p_hat):
            nonlocal j0
            sym = np.empty_like(p_hat)
            for i in range(p_hat.shape[0]):
                sym[i] = add(j0 + i, p_hat[i])
            j0 += p_hat.shape[0]
            return np.fft.irfft(sym, n=n_fft, axis=1)

        return term

    inv = _reciprocal(omega)
    carry = None  # the last a, b, s0 and s1 sums of the block before

    def running(x, k):
        # x summed down the block in place, from the block before's last sum
        if carry is not None:
            x[0] += carry[k]
        return np.cumsum(x, axis=0, out=x)

    def term(p_hat):
        nonlocal j0, carry
        t = dt * np.arange(j0, j0 + p_hat.shape[0] + 1)
        phase = np.outer(t, omega)
        cos_t, sin_t = np.cos(phase), np.sin(phase)
        sums = (
            running(cos_t[:-1] * p_hat, 0),
            running(sin_t[:-1] * p_hat, 1),
            running(p_hat[:, 0].copy(), 2),
            running(t[:-1] * p_hat[:, 0], 3),
        )
        a_run, b_run, s0, s1 = sums
        carry = tuple(x[-1].copy() for x in sums)
        sym = sin_t[1:] * a_run - cos_t[1:] * b_run
        sym *= inv
        sym[:, 0] = t[1:] * s0 - s1
        j0 += p_hat.shape[0]
        return np.fft.irfft(sym, n=n_fft, axis=1)

    return term


def picard_step(geom, sigma, u_prev, eta, w):
    """One Picard update: u_next = w + int G sigma(u_prev) dX.

    The stochastic term at t_j sums, over source steps i < j, the slab
    kernel convolved with sigma(u_prev(t_i, .)) * eta_i: G_{t_j - t_i} for
    wave, and for heat G_{t_j - t_{i+1}} times the exact-variance slab
    weight.  Convolution is spectral with the closed-form symbols, summed
    as ``_slab_sums`` sums them, so the whole update costs O(n_steps) FFTs.
    It is ``_stochastic_blocks``' route on one block of all the slabs.
    """
    n_steps, n_fft = geom.n_steps, geom.n_fft
    if u_prev.shape != (n_steps + 1, n_fft):
        raise ValueError(f"u_prev must have shape {(n_steps + 1, n_fft)}, got {u_prev.shape}")
    if eta.shape != (n_steps, n_fft):
        raise ValueError(f"eta must have shape {(n_steps, n_fft)}, got {eta.shape}")

    u_next = w.copy()
    u_next[1:] += _stochastic_blocks(geom)(np.fft.rfft(sigma(u_prev[:n_steps]) * eta, axis=1))
    return u_next


def _routes(geom, consumers):
    """{row j: [(consumer, k), ...]} for the rows t_idx[k] that each
    consumer declares (time indices into 0..n_steps, negative ones counting
    from the end)."""
    times = np.arange(geom.n_steps + 1)
    routes = {}
    for consumer in consumers:
        for k, j in enumerate(times[np.asarray(consumer.t_idx, dtype=int)]):
            routes.setdefault(int(j), []).append((consumer, k))
    return routes


def _sweep_rows(geom, sigma, w_rows, slabs, consumers=()):
    """The fixed point of picard_step by one causal forward pass, streamed,
    with its residual.

    Row j + 1 of picard_step(u) depends on rows 0..j of u only, so the rows
    u_{j+1} = w_{j+1} + irfft(add(j, rfft(sigma(u_j) * eta_j))) are built in
    order from the rows of w (w_rows yields them for j = 0..n_steps) and the
    noise slabs (slabs yields eta_j for j = 0..n_steps-1, shape (1, n_fft),
    as ``_noise_rows`` yields them).  Nothing is held whole.  After every
    NOISE_CHUNK slabs, picard_step's route (``_stochastic_blocks``) is
    applied to that chunk's rows, with its sums carried from the chunk
    before, and compared with the rows the pass built: the residual of one
    more Picard step, 0 up to the rounding of the two routes.

    Each consumer declares its rows in ``t_idx`` and sees
    consumer.observe(0, k, levels) while row t_idx[k] is built: levels[0] is
    that row of w and levels[1] that row of u.  levels is the pass's buffer
    and is overwritten by a later chunk, so a consumer copies what it keeps.
    Returns (residual, spread): sup over the core of |Phi(u) - u| and of
    |u - w|, possibly not finite (overflow is left to the caller).
    """
    n_steps, n_fft, core = geom.n_steps, geom.n_fft, geom.core
    routes = _routes(geom, consumers)

    def hand_off(j, levels):
        for consumer, k in routes.get(j, ()):
            consumer.observe(0, k, levels)

    add = _slab_sums(geom)
    stochastic = _stochastic_blocks(geom)
    # rows[i] holds row j0 + i of w and of u, eta[i] slab j0 + i, for the
    # chunk of slabs j0..j0 + NOISE_CHUNK - 1
    rows = np.empty((NOISE_CHUNK + 1, 2, n_fft))
    eta = np.zeros((NOISE_CHUNK, n_fft))
    residual = spread = 0.0
    rows[0] = next(w_rows)
    hand_off(0, rows[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            i = j % NOISE_CHUNK
            eta[i] = next(slabs)[0]
            p_hat = np.fft.rfft(sigma(rows[i, 1]) * eta[i])
            rows[i + 1, 0] = next(w_rows)
            np.add(rows[i + 1, 0], np.fft.irfft(add(j, p_hat), n=n_fft), out=rows[i + 1, 1])
            hand_off(j + 1, rows[i + 1])
            if i + 1 == NOISE_CHUNK or j + 1 == n_steps:
                w, u = rows[1 : i + 2, 0], rows[1 : i + 2, 1]
                phi = w + stochastic(np.fft.rfft(sigma(rows[: i + 1, 1]) * eta[: i + 1], axis=1))
                residual = np.maximum(residual, np.max(np.abs((phi - u)[:, core])))
                spread = np.maximum(spread, np.max(np.abs((u - w)[:, core])))
                rows[0] = rows[i + 1]
    return float(residual), float(spread)


@dataclass(frozen=True)
class PicardResult:
    """A solve: the fixed point ``field``, its residual, and the
    homogeneous term ``homogeneous`` (= w) it was built on.

    ``residual`` is sup over the core of |Phi(u*) - u*| for one more Picard
    step from the sweep's field u*; ``stopping_threshold`` is tol times
    sup over the core of |u* - w|, the bound that residual must meet.
    ``field`` and ``homogeneous`` are None when the rows went to consumers.
    """

    field: SpaceTimeField
    residual: float
    stopping_threshold: float
    geometry: SolverGeometry
    config: PicardConfig
    homogeneous: np.ndarray


class _EveryRow:
    """solve's own consumer: values[0] keeps every row of w, values[1] of u."""

    def __init__(self, geom):
        self.t_idx = np.arange(geom.n_steps + 1)
        self.values = np.empty((2, geom.n_steps + 1, geom.n_fft))

    def observe(self, r, k, levels):
        self.values[:, k] = levels


# Realizations per pass of the iterate engine.  For `picard --ensemble 64`
# at the wave defaults (medians of 5 runs, 2-vCPU x86-64), 4 took 1.56 s on
# one thread and 0.95 s on two; 2 took 1.61 and 1.14 s, spending more of the
# pass in short numpy calls that hold the interpreter lock; 8 took 1.60 and
# 0.94 s, no faster, and its buffers raised the peak RSS from 50 to 61 MB.
ENGINE_BATCH = 4


def _picard_levels(geom, sigma, w_rows, slabs, n_iters, offset=None, on_row=None):
    """The Picard iterates u^0..u^n_iters of a batch of noise draws, by one
    causal pass over the rows.

    Row j + 1 of u^{n+1} = picard_step(u^n) reads rows 0..j of u^n only, so
    every level advances one row per slab: at row j one batched rfft of
    sigma(levels 0..n_iters-1) * eta_j feeds the per-level running sums of
    ``_slab_sums``, and one batched irfft gives row j + 1 of levels
    1..n_iters.  The floating point operations are those of n_iters
    chained picard_step calls, so every number is bit for bit theirs.
    State is the current row of each level, shape (R, n_iters + 1, n_fft),
    plus the running sums; nothing grows with n_steps.  The row kernel
    makes no temporary of the levels' size: sigma(levels) * eta_j, its
    rfft, the irfft into the rows and the core differences go into buffers
    made once per call, and the sums of ``_slab_sums`` are updated in
    place (its returned buffer is read before the next slab is added).

    w_rows yields the rows of w for j = 0..n_steps in order (as
    ``_homogeneous_rows`` does), and slabs the noise slab eta_j for
    j = 0..n_steps-1, shape (R, n_fft) with one row per realization, or
    (1, n_fft) for a draw the batch shares (as ``_noise_rows`` yields them).
    Level 0 is w, or w + offset[r] when offset (shape (R, n_fft)) is given;
    R is the number of offsets then, else of noise rows.  sigma is an
    AffineSigma, applied in place through its a and b.
    on_row(j, rows), when given, sees row j of every level as soon as it is
    built: rows[r, n] is row j of u^n for draw r.  rows is the engine's
    buffer and is overwritten at the next row, so on_row copies what it
    keeps.  Returns deltas[r, n - 1] = sup over rows and the core of
    |u^n - u^{n-1}|, possibly not finite (overflow is left to the caller).
    """
    n_steps, n_fft = geom.n_steps, geom.n_fft
    slabs = iter(slabs)
    eta = next(slabs)
    n_real = eta.shape[0] if offset is None else offset.shape[0]
    core = geom.core
    add = _slab_sums(geom, (n_real, n_iters))
    rows = np.empty((n_real, n_iters + 1, n_fft))
    q = np.empty((n_real, n_iters, n_fft))
    p_hat = np.empty((n_real, n_iters, n_fft // 2 + 1), dtype=complex)
    # the core differences of the levels, in q's memory: q is rewritten
    # only after the deltas have been read
    core_diff = q[..., core]
    deltas = np.zeros((n_real, n_iters))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps + 1):
            w_j = next(w_rows)
            rows[:, 0] = w_j if offset is None else w_j + offset
            if j == 0:
                rows[:, 1:] = w_j
            else:
                np.fft.irfft(sym, n=n_fft, axis=-1, out=rows[:, 1:])
                rows[:, 1:] += w_j
            np.subtract(rows[:, 1:, core], rows[:, :-1, core], out=core_diff)
            np.maximum(deltas, np.max(np.abs(core_diff, out=core_diff), axis=-1), out=deltas)
            if on_row is not None:
                on_row(j, rows)
            if j < n_steps:
                if j > 0:
                    eta = next(slabs)
                # q = sigma(levels 0..n_iters-1) * eta_j, in place
                np.multiply(sigma.a, rows[:, :-1], out=q)
                q += sigma.b
                q *= eta[:, None, :]
                sym = add(j, np.fft.rfft(q, axis=-1, out=p_hat))
    return deltas


def _delta_history(deltas, tol=None):
    """The successive deltas of one realization as a list, in order.

    Raises PicardDivergenceError at the first non-finite delta, with the
    history up to it.  With tol, the list stops at the first delta that is
    zero or at most tol times the first one.  Returns (history, stopped).
    """
    history = []
    for n, value in enumerate(deltas, start=1):
        delta = _finite_delta(float(value), n, history)
        history.append(delta)
        # delta == 0 is an exact fixed point; the explicit test also avoids
        # inf * 0 when tol is infinite and the noise term vanishes
        if tol is not None and (delta == 0.0 or delta <= tol * history[0]):
            return history, True
    return history, False


def solve(config, consumers=None):
    """The fixed point by one causal sweep, checked by one Picard step.

    The sweep ``_sweep_rows`` builds the lattice fixed point u* of the
    Picard map row by row, from the rows of w and the noise slabs, and
    checks it chunk by chunk against picard_step's route: the residual
    sup_core |Phi(u*) - u*| is 0 up to rounding.  A non-finite residual
    (overflow or NaN in the sweep) raises PicardDivergenceError.  Picard
    iteration, where the iterates are the object, is solve_ensemble and
    uniqueness_probe; config.max_iters plays no part here, and config.tol
    only scales the reported stopping_threshold.

    Without consumers the result keeps every row: ``field`` holds u* and
    ``homogeneous`` holds w.  With consumers, each declares its rows in
    ``t_idx`` and sees observe(0, k, levels) while row t_idx[k] is built,
    levels[0] that row of w and levels[1] that row of u*; the result then
    holds neither field, and memory holds a noise chunk of rows plus what
    the consumers keep, whatever n_steps.
    """
    geom = build_geometry(config)
    every = _EveryRow(geom) if consumers is None else None
    residual, spread = _sweep_rows(
        geom,
        config.sigma,
        _homogeneous_rows(geom, config.init),
        _noise_rows(geom, config.seed, [config.realization]),
        consumers if every is None else (every,),
    )
    residual = _finite_delta(residual, 1, [])
    # spread == 0 (no noise term) avoids inf * 0 when tol is infinite
    threshold = config.tol * spread if spread > 0.0 else 0.0
    return PicardResult(
        field=None if every is None else _field_from(geom, every.values[1]),
        residual=residual,
        stopping_threshold=threshold,
        geometry=geom,
        config=config,
        homogeneous=None if every is None else every.values[0],
    )


def solve_ensemble(config, n_realizations, n_iters=None, collectors=()):
    """Run a fixed number of Picard iterations over an ensemble of draws.

    Every realization r uses the independent stream (seed, realization0 + r)
    and runs the Picard iteration u^{n+1} = picard_step(u^n) from u^0 = w
    for exactly n_iters updates (default max_iters), past an exact zero
    delta too: ensemble statistics need aligned iteration counts, so no
    stopping rule is applied here.  The iterates come from the engine
    ``_picard_levels``, ENGINE_BATCH realizations per pass, bit for bit
    those of chained picard_step calls whatever the batching.

    A collector declares the rows it reads in ``collector.t_idx`` (time
    indices into 0..n_steps, negative ones counting from the end).  While
    row t_idx[k] is built it sees collector.observe(r, k, levels) for each
    realization r = 0..n_realizations-1 in turn, with levels[n] that row of
    u^n, n = 0..n_iters.  levels is the engine's buffer, so a collector
    copies what it keeps; one that reads differences forms
    levels[1:] - levels[:-1], the subtraction behind the deltas.  A
    collector that declares ``n_iters`` reads the levels up to that one;
    more than the ensemble runs is a ValueError, raised before any row is
    built.  Memory holds a batch's noise chunk and current rows plus what
    the collectors keep: w comes row by row from ``_homogeneous_rows``, so
    it grows with neither n_steps nor n_iters.
    Returns deltas[r, n - 1] = sup over rows and the core of
    |u^n - u^{n-1}|; a non-finite delta raises PicardDivergenceError.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be at least 1")
    n_iters = int(n_iters) if n_iters is not None else config.max_iters
    for collector in collectors:
        wanted = getattr(collector, "n_iters", n_iters)
        if wanted > n_iters:
            raise ValueError(
                f"a collector reads {wanted} Picard iterations, but the ensemble runs {n_iters}"
            )
    geom = build_geometry(config)
    deltas = np.empty((n_realizations, n_iters))
    routes = _routes(geom, collectors)

    for r0 in range(0, n_realizations, ENGINE_BATCH):
        batch = range(r0, min(n_realizations, r0 + ENGINE_BATCH))

        def hand_off(j, rows, r0=r0):
            for collector, k in routes.get(j, ()):
                for i, levels in enumerate(rows):
                    collector.observe(r0 + i, k, levels)

        slabs = _noise_rows(geom, config.seed, [config.realization + r for r in batch])
        levels = _picard_levels(
            geom, config.sigma, _homogeneous_rows(geom, config.init), slabs, n_iters,
            on_row=hand_off if routes else None,
        )
        for i, r in enumerate(batch):
            deltas[r] = _delta_history(levels[i])[0]
    return deltas


def uniqueness_probe(config, perturbation):
    """Iterate the same fixed-point map from two different starting fields.

    The map u -> w + int G sigma(u) dX for one noise draw has a unique
    fixed point, so starting the iteration from the homogeneous term or
    from that term plus ``perturbation`` (a float or a callable of x) must
    land on the same limit.  The data, the noise, and the map are shared;
    only the starting iterate moves.  The two starts run as one batch of
    the iterate engine, and each stops at its first delta that is zero or
    at most tol times its first one.  Agreement of the two limits within
    3x the larger achieved stopping threshold passes.
    """
    geom = build_geometry(config)
    offset = np.zeros((2, geom.n_fft))
    if callable(perturbation):
        offset[1] = _eval_on(perturbation, geom.x_grid)
    else:
        offset[1] = float(perturbation)
    n_iters, core = config.max_iters, geom.core
    # gaps[m, n] = sup over rows and the core of |u_a^m - u_b^n|
    gaps = np.zeros((n_iters + 1, n_iters + 1))

    def pair_gaps(j, rows):
        a, b = rows[0][:, None, core], rows[1][None, :, core]
        np.maximum(gaps, np.max(np.abs(a - b), axis=-1), out=gaps)

    levels = _picard_levels(
        geom, config.sigma, _homogeneous_rows(geom, config.init),
        _noise_rows(geom, config.seed, [config.realization]), n_iters,
        offset=offset, on_row=pair_gaps,
    )
    d_a, ok_a = _delta_history(levels[0], config.tol)
    d_b, ok_b = _delta_history(levels[1], config.tol)
    if not (ok_a and ok_b):
        raise PicardConvergenceError(
            "uniqueness probe did not converge; raise max_iters or tol",
            d_a if not ok_a else d_b,
        )
    gap = float(gaps[len(d_a), len(d_b)])
    threshold = 3.0 * max(config.tol * d_a[0], config.tol * d_b[0])
    return {
        "max_difference": gap,
        "threshold": threshold,
        "passed": bool(gap <= threshold),
        "deltas_base": d_a,
        "deltas_perturbed": d_b,
    }
