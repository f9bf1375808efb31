"""Moment bounds and Holder-exponent estimates for noise and solution fields.

Second-moment increments of the spatially antidifferentiated noise scale
like t |h|^(2H); solution fields inherit the spatial exponent 2H and carry
time exponents 2H (wave) and H (heat).  The estimators regress log
increment moments on log lags; increments are averaged over spatial
anchors (exact stationarity for the noise, and an approximation over the
core window for solution fields, labelled as such).

Two kinds of sampler draw fields.  ``FieldSampleCollector`` thins fields
out of ensemble Picard runs, for arbitrary affine sigma.  For additive
noise (a = 0) the solution is an explicit Gaussian stochastic convolution
whose spectral bands evolve as exactly integrable processes: an
Ornstein-Uhlenbeck band for the heat kernel, a (position, velocity)
oscillator pair for the wave kernel.  ``sample_additive_solution`` draws
lattice fields from that law with no time-stepping error, which matters
because the time-stepped kernel rule depresses small-lag increment
variance by a relative O((dt/lag)^H) deficit that tilts fitted slopes.

The exact-law samplers draw independent Gaussian band coefficients, so
their increment moments are exact band sums
(``exact_increment_moments``), and the Holder fits use those: they are
deterministic and do not depend on the seed.  Monte Carlo only checks the
samplers against the same sums, lag by lag (``holder_checks``).  The
samplers draw a few realizations at a time and hand each chunk, as a
small ``FieldEnsemble``, to their collectors; no sampler keeps the whole
ensemble.  ``IncrementCollector`` reduces every chunk at once to
per-realization rows (for each lag, the anchor mean of the squared
increment): their mean is the Monte Carlo moment and their spread its
standard error.  An eager ``FieldEnsemble`` is reduced the same way, as a
single chunk.

The spectral synthesis carries no mass above xi_cut.  That missing tail
contributes an almost lag-independent offset to every increment moment
(relative size ~(xi_cut * lag)^(-2H), so 10-20% at the smallest usable
lags), which tilts log-log slopes upward.  The offset is deterministic
and computable from the per-frequency variance law, and
``spectral_window_completion`` restores it before fitting.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import c_H
from .noise import keyed_rng, spectral_increments
from .picard import (
    AffineSigma, PicardConfig, _band_field, build_geometry, constant_initial,
)
from .report import make_check

__all__ = [
    "ExponentFit",
    "fit_exponent",
    "FieldEnsemble",
    "FieldSampleCollector",
    "FirstIncrementCollector",
    "IncrementCollector",
    "geometric_time_lags",
    "sample_noise_antiderivative",
    "sample_additive_solution",
    "exact_increment_moments",
    "spectral_window_completion",
    "space_increment_moments",
    "time_increment_moments",
    "holder_exponent_space",
    "holder_exponent_time",
    "HOLDER_REALIZATIONS",
    "HOLDER_SLOPE_BAND",
    "HOLDER_Z_MAX",
    "MIN_HOLDER_REALIZATIONS",
    "HolderAxis",
    "holder_checks",
    "SupMoment",
    "moment_report",
    "gaussian_ratio_check",
]


@dataclass(frozen=True)
class ExponentFit:
    """Log-log regression of increment moments on lags.

    The fitted moments are lattice + completion: the moments of the lattice
    field, and the deterministic mass above its spectral cutoff (zeros when
    none is added).  lags are strictly decreasing and geometric (up to
    lattice rounding); status is "ok", "poor_fit" (r_squared below 0.9,
    reported rather than fatal), or "degenerate" (vanishing or constant
    moments, slope nan).
    """

    lags: np.ndarray
    lattice: np.ndarray
    completion: np.ndarray
    fitted_slope: float
    stderr: float
    r_squared: float
    status: str
    label: str = ""

    @property
    def moments(self):
        """The fitted moments, lattice + completion."""
        return self.lattice + self.completion


R_SQUARED_FLOOR = 0.9


def fit_exponent(lags, moments, completion=None, label=""):
    """Ordinary least squares of log(moments + completion) on log lags.

    The slope standard error is the classical residual-based estimate; a
    degenerate status means the moments carry no usable signal (zeros,
    negatives, or no spread), and nan slope/stderr go with it.
    """
    lags = np.asarray(lags, dtype=float)
    lattice = np.asarray(moments, dtype=float)
    if completion is None:
        completion = np.zeros_like(lattice)
    else:
        completion = np.asarray(completion, dtype=float)
    if lags.size < 3:
        raise ValueError("need at least 3 lags to fit an exponent")
    if lags.shape != lattice.shape or completion.shape != lattice.shape:
        raise ValueError("lags and moments must have matching shapes")
    if not np.all(lags > 0.0) or not np.all(np.diff(lags) < 0.0):
        raise ValueError("lags must be positive and strictly decreasing")
    moments = lattice + completion

    def result(slope, stderr, r_squared, status):
        return ExponentFit(
            lags=lags, lattice=lattice, completion=completion, fitted_slope=slope,
            stderr=stderr, r_squared=r_squared, status=status, label=label,
        )

    if not np.all(np.isfinite(moments)) or np.any(moments <= 0.0):
        return result(math.nan, math.nan, 0.0, "degenerate")
    x = np.log(lags)
    y = np.log(moments)
    sxx = float(np.sum((x - x.mean()) ** 2))
    syy = float(np.sum((y - y.mean()) ** 2))
    if syy == 0.0:
        return result(math.nan, math.nan, 0.0, "degenerate")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (x - x.mean()))
    ssr = float(np.sum(resid**2))
    dof = lags.size - 2
    stderr = math.sqrt(ssr / dof / sxx) if dof > 0 else math.nan
    r_squared = 1.0 - ssr / syy
    status = "ok" if r_squared >= R_SQUARED_FLOOR else "poor_fit"
    return result(slope, stderr, r_squared, status)


@dataclass(frozen=True)
class FieldEnsemble:
    """Monte Carlo fields on a common lattice window.

    values has shape (n_realizations, n_times, n_x); kind is "wave",
    "heat", or "noise" (the spatially antidifferentiated noise process).
    """

    kind: str
    h: float
    t: np.ndarray
    x: np.ndarray
    values: np.ndarray

    @property
    def n_realizations(self):
        return self.values.shape[0]

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])


def geometric_time_lags(anchor, horizon, largest, n_lags=6, ratio=1.6):
    """Strictly decreasing geometric time lags from an anchor time.

    The largest lag must keep anchor + lag inside the horizon; there is no
    lattice constraint because the exact-law sampler evaluates at
    arbitrary times.
    """
    if largest <= 0.0:
        raise ValueError("largest lag must be positive")
    if anchor <= 0.0 or anchor >= horizon:
        raise ValueError("anchor must lie strictly inside (0, horizon)")
    if anchor + largest > horizon * (1.0 + 1e-12):
        raise ValueError("lag beyond the horizon")
    if ratio <= 1.0:
        raise ValueError("ratio must exceed 1")
    return largest / ratio ** np.arange(n_lags, dtype=float)


def _sampler_geometry(equation, h, T, dx, half_width):
    # build_geometry reads no seed: each sampler keys its own draws
    config = PicardConfig(
        equation=equation, h=h, T=T, n_steps=1, dx=dx, L=half_width,
        sigma=AffineSigma(0.0, 1.0), init=constant_initial(0.0), seed=0,
        pad=16.0 * dx,
    )
    return build_geometry(config)


_SAMPLER_CHUNK = 128


def sample_noise_antiderivative(h, t, dx, half_width, n_realizations, seed=0,
                                collectors=()):
    """Draw the spatially antidifferentiated noise at a single time.

    The raw density field is distribution-valued in space (its lattice
    increments are dominated by the flat high-frequency mass, so they
    carry no |h|^(2H) signal).  Integrating once in space yields the
    process with exact increment variance t c_H kappa |h|^(2H): band k
    picks up the transfer 1/(-i w_k), and the k = 0 band becomes a random
    linear ramp.  Fields are anchored up to an additive per-realization
    constant, which increments ignore.  Realization r is the solver's band
    law over one slab of length t, drawn from keyed_rng(seed, r): the
    stream of the driving noise of realization r, independent of the
    ensemble size.  Realizations are drawn _SAMPLER_CHUNK at a time, and
    each chunk goes, as a FieldEnsemble with one stored time, to
    collector.observe_chunk of every collector; nothing else is kept.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be at least 1")
    if t <= 0.0:
        raise ValueError("t must be positive")
    geom = _sampler_geometry("heat", h, t, dx, half_width)
    om = geom.omega_r[: geom.n_bands]
    x_core = geom.x_grid[geom.core]
    for start in range(0, n_realizations, _SAMPLER_CHUNK):
        stop = min(start + _SAMPLER_CHUNK, n_realizations)
        z = np.empty((stop - start, geom.n_bands), dtype=complex)
        for i, r in enumerate(range(start, stop)):
            z[i] = spectral_increments(geom.band_masses, t, 1, keyed_rng(seed, r))[0]
        ramp = 2.0 * z[:, 0].real
        z[:, 0] = 0.0
        z[:, 1:] /= -1j * om[1:]
        fields = _band_field(geom, z)
        fields += np.outer(ramp, geom.x_grid)
        chunk = FieldEnsemble(
            kind="noise", h=h, t=np.array([t]), x=x_core, values=fields[:, None, geom.core]
        )
        for collector in collectors:
            collector.observe_chunk(chunk)
        # free this chunk before the next one is drawn
        del chunk, fields


def _wave_innovation_vars(om, delta, masses):
    """Innovation (co)variances of the per-band oscillator pair over delta."""
    th = om * delta
    small = th < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        v_y = delta / (2.0 * om**2) - np.sin(2.0 * th) / (4.0 * om**3)
        v_v = delta / 2.0 + np.sin(2.0 * th) / (4.0 * om)
        c_yv = np.sin(th) ** 2 / (2.0 * om**2)
    v_y = np.where(small, delta**3 / 3.0, v_y)
    v_v = np.where(small, delta, v_v)
    c_yv = np.where(small, delta**2 / 2.0, c_yv)
    return masses * v_y, masses * v_v, masses * c_yv


def _heat_innovation_var(om, delta, masses):
    with np.errstate(divide="ignore", invalid="ignore"):
        v = -np.expm1(-delta * om**2) / om**2
    return masses * np.where(om > 0.0, v, delta)


def sample_additive_solution(equation, h, T, dx, half_width, times,
                             n_realizations, seed=0, collectors=()):
    """Draw the additive-noise (sigma = 1) mild solution at given times.

    Per spectral band the stochastic convolution is exactly integrable:
    the heat band is an Ornstein-Uhlenbeck process, and the wave band a
    (position, velocity) oscillator pair driven by the band's white-in-
    time increment; both are advanced through the requested times with
    their exact transition and innovation laws, so the only deviations
    from the continuum field are the band quantisation and the spectral
    cutoff.  Output fields are the zero-initial-data solution on the core
    window; adding initial data shifts fields by a deterministic term and
    leaves every increment statistic unchanged.  The innovations of
    realization r come from keyed_rng(seed, r, 1), one complex Gaussian per
    band and time (wave: the velocity innovation, then the rest of the
    position innovation), so realization r does not depend on the ensemble
    size.  Chunks of _SAMPLER_CHUNK realizations, each a FieldEnsemble over
    all the times, go to collector.observe_chunk of every collector as soon
    as they are drawn; nothing else is kept.
    """
    if equation not in ("wave", "heat"):
        raise ValueError(f"equation must be wave or heat, got {equation!r}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a 1-d array with at least one entry")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    if times[0] <= 0.0:
        raise ValueError("times must be positive")
    if times[-1] > T * (1.0 + 1e-12):
        raise ValueError("lag beyond the horizon")
    if n_realizations < 1:
        raise ValueError("n_realizations must be at least 1")

    geom = _sampler_geometry(equation, h, T, dx, half_width)
    om = geom.omega_r[: geom.n_bands]
    masses = geom.band_masses
    x_core = geom.x_grid[geom.core]

    deltas = np.diff(np.concatenate([[0.0], times]))
    steps = []
    for d in deltas:
        if equation == "heat":
            decay = np.exp(-0.5 * d * om**2)
            steps.append((decay, _heat_innovation_var(om, d, masses)))
        else:
            th = om * d
            sindc = np.where(om > 0.0, np.sin(th) / np.where(om > 0.0, om, 1.0), d)
            v_y, v_v, c_yv = _wave_innovation_vars(om, d, masses)
            gain = c_yv / v_v
            resid_var = np.clip(v_y - c_yv**2 / v_v, 0.0, None)
            steps.append((np.cos(th), sindc, -om * np.sin(th), v_v, gain, resid_var))

    for start in range(0, n_realizations, _SAMPLER_CHUNK):
        stop = min(start + _SAMPLER_CHUNK, n_realizations)
        rngs = [keyed_rng(seed, r, 1) for r in range(start, stop)]
        values = np.empty((stop - start, times.size, x_core.size))
        y = np.zeros((stop - start, geom.n_bands), dtype=complex)
        xi_y = np.empty_like(y)
        if equation == "wave":
            v = np.zeros_like(y)
            xi_v = np.empty_like(y)
        for j, step in enumerate(steps):
            if equation == "heat":
                decay, var = step
                for i, rng in enumerate(rngs):
                    xi_y[i] = spectral_increments(var, 1.0, 1, rng)[0]
                y = decay * y + xi_y
            else:
                cosd, sindc, msin, v_v, gain, resid_var = step
                for i, rng in enumerate(rngs):
                    xi_v[i] = spectral_increments(v_v, 1.0, 1, rng)[0]
                    xi_y[i] = spectral_increments(resid_var, 1.0, 1, rng)[0]
                xi_y += gain * xi_v
                y, v = cosd * y + sindc * v + xi_y, msin * y + cosd * v + xi_v
            values[:, j, :] = _band_field(geom, y)[:, geom.core]
        chunk = FieldEnsemble(kind=equation, h=h, t=times, x=x_core, values=values)
        for collector in collectors:
            collector.observe_chunk(chunk)
        # free this chunk before the next one is drawn
        del chunk, values


class FieldSampleCollector:
    """Collect thinned final Picard iterates into a FieldEnsemble.

    Plug the bound method ``on_final`` into solve_ensemble; the collector
    keeps a (time, core-column) thinned copy of each final iterate, so an
    ensemble of general affine-sigma solutions can feed the fit and
    moment operations at O(thin grid) memory per realization.  The time
    thinning keeps both endpoints and an odd point count, which is what
    the moment report's half-resolution comparison expects.
    """

    def __init__(self, geom, n_t=16, n_x=128):
        stride_t = max(1, geom.n_steps // int(n_t))
        t_idx = np.arange(0, geom.n_steps + 1, stride_t)
        if t_idx[-1] != geom.n_steps:
            t_idx = np.append(t_idx, geom.n_steps)
        if t_idx.size % 2 == 0:
            t_idx = t_idx[:-1] if t_idx.size > 3 else t_idx
        core_cols = np.arange(geom.core.start, geom.core.stop)
        stride_x = max(1, core_cols.size // int(n_x))
        self._geom = geom
        self._t_idx = t_idx
        self._x_idx = core_cols[::stride_x]
        self._rows = []

    def on_final(self, r, fld):
        self._rows.append(fld.values[np.ix_(self._t_idx, self._x_idx)].copy())

    def finalize(self):
        if not self._rows:
            raise ValueError("no realizations collected")
        geom = self._geom
        return FieldEnsemble(
            kind=geom.equation, h=geom.h,
            t=geom.dt * self._t_idx.astype(float),
            x=geom.x_grid[self._x_idx],
            values=np.stack(self._rows),
        )


_COMPLETION_POINTS = 120_000
_COMPLETION_SPAN = 300.0


def _check_law(kind, mode):
    if mode not in ("space", "time"):
        raise ValueError(f"mode must be space or time, got {mode!r}")
    if kind not in ("noise", "wave", "heat"):
        raise ValueError(f"kind must be noise, wave, or heat, got {kind!r}")
    if kind == "noise" and mode == "time":
        raise ValueError("time increments are undefined for the noise antiderivative")


def _increment_law(kind, mode, anchor, lags, xi):
    """Mean-square increment per unit spectral mass at frequencies xi > 0,
    shape (lags, frequencies).

    Space: E|Y_xi(anchor)|^2 |e^{i xi lag} - 1|^2, the field's band variance
    at time anchor times the increment factor.  Time: E|Y_xi(anchor + lag) -
    Y_xi(anchor)|^2, the transition's drift of the state at anchor plus the
    innovation over the lag (for the wave, the oscillator's position).
    """
    lag = lags[:, None]
    if mode == "space":
        inc = 2.0 - 2.0 * np.cos(xi * lag)
        if kind == "noise":
            return anchor * inc / xi**2
        if kind == "wave":
            return (anchor / (2.0 * xi**2) - np.sin(2.0 * anchor * xi) / (4.0 * xi**3)) * inc
        return -np.expm1(-anchor * xi**2) / xi**2 * inc
    if kind == "wave":
        a = xi * (anchor + 0.5 * lag)
        intcos = anchor / 2.0 + (np.sin(2.0 * a) - np.sin(2.0 * (a - xi * anchor))) / (4.0 * xi)
        return (4.0 * np.sin(0.5 * xi * lag) ** 2 / xi**2 * intcos
                + lag / (2.0 * xi**2) - np.sin(2.0 * lag * xi) / (4.0 * xi**3))
    return (np.expm1(-0.5 * lag * xi**2) ** 2 * (-np.expm1(-anchor * xi**2)) / xi**2
            - np.expm1(-lag * xi**2) / xi**2)


def _zero_band_law(kind, mode, anchor, lags):
    """The xi -> 0 limit of _increment_law: the increment of the band-0
    term, which the noise carries as a random linear ramp."""
    if mode == "space":
        return anchor * lags**2 if kind == "noise" else np.zeros_like(lags)
    if kind == "wave":
        return lags**2 * anchor + lags**3 / 3.0
    return lags


def exact_increment_moments(geom, kind, mode, anchor, lags):
    """Exact mean-square increments of an exact-law sampler's lattice field.

    The samplers draw independent circular Gaussian band coefficients, and
    the field is 2 Re of their band sum, so every increment moment is the
    band sum 2 sum_k m_k f(w_k) of the per-frequency increment law f over
    the band masses of geom.  kind is "noise" (sample_noise_antiderivative
    at time anchor, geom its geometry), "heat" or "wave"
    (sample_additive_solution); mode "space" takes the increments over
    lags at time anchor, mode "time" those from anchor to anchor + lag.
    Band 0 enters through its xi -> 0 limit.  With anchor = 0 a time
    increment is the field itself, so the marginal variance is the time
    moment from 0.  No sampling is involved: these are the moments every
    Monte Carlo estimate of the samplers converges to.
    """
    _check_law(kind, mode)
    if anchor < 0.0:
        raise ValueError("anchor must be non-negative")
    lags = np.asarray(lags, dtype=float)
    om = geom.omega_r[1 : geom.n_bands]
    law = _increment_law(kind, mode, anchor, lags, om)
    zero = _zero_band_law(kind, mode, anchor, lags)
    return 2.0 * (law @ geom.band_masses[1:]) + 2.0 * geom.band_masses[0] * zero


def spectral_window_completion(kind, h, xi_cut, mode, anchor, lags):
    """Deterministic increment-moment mass above the spectral cutoff.

    Integrates the exact per-frequency law of the increment (kind selects
    noise/wave/heat, mode space/time, anchor the field time for space
    increments or the anchor time for time increments; the law is the one
    exact_increment_moments sums over the bands) against the spectral
    density over (xi_cut, 300 xi_cut], then closes with the analytic
    oscillation-averaged power tail.  Adding the result to lattice moments
    restores the near-constant offset the cutoff takes away, which
    otherwise tilts small-lag log-log slopes upward.  All lags are
    evaluated in one (lags, points) array.
    """
    _check_law(kind, mode)
    if xi_cut <= 0.0 or anchor <= 0.0:
        raise ValueError("xi_cut and anchor must be positive")
    lags = np.asarray(lags, dtype=float)
    xi = xi_cut * np.exp(np.linspace(0.0, math.log(_COMPLETION_SPAN), _COMPLETION_POINTS))
    dens = 2.0 * c_H(h) * xi ** (1.0 - 2.0 * h)
    core = np.trapezoid(dens * _increment_law(kind, mode, anchor, lags, xi), xi, axis=-1)
    if mode == "time":
        rem = anchor + lags if kind == "wave" else 2.0
    elif kind == "noise":
        rem = 2.0 * anchor
    elif kind == "wave":
        rem = anchor
    else:
        rem = 2.0
    return core + 2.0 * c_H(h) * rem * xi[-1] ** (-2.0 * h) / (2.0 * h)


def _anchor_mean_square(d):
    """Mean over anchors of the squared increments d (realizations x
    anchors), one value per realization.  d is squared in place: it is as
    large as a chunk's field slice, and passing it as a temporary frees it
    before the next lag's is built.
    """
    d *= d
    return d.mean(axis=1)


def _space_rows(chunk, lags, time_index):
    """(lags, realizations) anchor means of the squared spatial increments
    at stored time time_index; lags must be lattice multiples of dx."""
    vals = chunk.values[:, time_index, :]
    dx = chunk.dx
    rows = np.empty((lags.size, chunk.n_realizations))
    for i, lag in enumerate(lags):
        m = int(round(lag / dx))
        if m < 1 or abs(m * dx - lag) > 1e-9 * dx:
            raise ValueError(f"lag {lag} is not a lattice multiple of dx = {dx}")
        rows[i] = _anchor_mean_square(vals[:, m:] - vals[:, :-m])
    return rows


def _time_rows(chunk, lags):
    """(lags, realizations) anchor means of the squared time increments from
    the first stored time; each anchor + lag must be a stored time."""
    anchor = float(chunk.t[0])
    base = chunk.values[:, 0, :]
    rows = np.empty((lags.size, chunk.n_realizations))
    for i, lag in enumerate(lags):
        j = int(np.argmin(np.abs(chunk.t - (anchor + lag))))
        if abs(chunk.t[j] - anchor - lag) > 1e-9 * max(lag, 1.0):
            raise ValueError(f"no stored time at anchor + lag = {anchor + lag}")
        rows[i] = _anchor_mean_square(chunk.values[:, j, :] - base)
    return rows


class IncrementCollector:
    """Per-realization increment rows, reduced chunk by chunk.

    Pass it in a sampler's collectors, or hand an eager FieldEnsemble to
    observe_chunk as a single chunk.  Each chunk is reduced at once to one
    row per realization: for each lag, the anchor mean of the squared
    increment.  Space lags are taken at the stored time time_index; time
    lags run from the first stored time.
    """

    def __init__(self, space_lags=(), time_lags=(), time_index=-1):
        self.space_lags = np.asarray(space_lags, dtype=float)
        self.time_lags = np.asarray(time_lags, dtype=float)
        self.time_index = time_index
        self.n_realizations = 0
        self._space = []
        self._time = []

    def observe_chunk(self, chunk):
        self._space.append(_space_rows(chunk, self.space_lags, self.time_index))
        self._time.append(_time_rows(chunk, self.time_lags))
        self.n_realizations += chunk.n_realizations

    def rows(self, axis):
        """The (lags, realizations) rows of axis "space" or "time"."""
        if not self.n_realizations:
            raise ValueError("no realizations collected")
        return np.concatenate(self._space if axis == "space" else self._time, axis=1)


def _mean_square_stats(rows):
    """Mean over realizations of each lag's row of anchor means, with the
    between-realization standard error."""
    n = rows.shape[1]
    moments = np.empty(rows.shape[0])
    stderrs = np.empty(rows.shape[0])
    for i, per_real in enumerate(rows):
        moments[i] = float(per_real.mean())
        stderrs[i] = float(per_real.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return moments, stderrs


def space_increment_moments(increments):
    """Monte Carlo mean-square spatial increments averaged over anchors,
    with SE, at the space lags of an IncrementCollector.

    The standard error is the between-realization spread of the
    per-realization anchor averages.
    """
    return _mean_square_stats(increments.rows("space"))


def time_increment_moments(increments):
    """Monte Carlo mean-square time increments from the anchor time, with
    SE, at the time lags of an IncrementCollector.

    The anchor is the first stored time; averaging runs over all core
    columns and the standard error is between realizations.
    """
    return _mean_square_stats(increments.rows("time"))


def _exact_fit(geom, kind, mode, anchor, lags):
    return fit_exponent(
        lags,
        exact_increment_moments(geom, kind, mode, anchor, lags),
        completion=spectral_window_completion(kind, geom.h, geom.xi_cut, mode, anchor, lags),
        label=f"{kind}-{mode}-h{geom.h:g}",
    )


def holder_exponent_space(geom, kind, anchor, lags):
    """Fit the spatial increment exponent (target 2H) of a sampler's field
    at time anchor on sampler geometry geom.

    The fitted moments are the exact lattice moments plus the spectral
    window completion, so the fit is deterministic.  Lags must be strictly
    decreasing and lie inside (2 dx, half-window/10).
    """
    lags = np.asarray(lags, dtype=float)
    x_core = geom.x_grid[geom.core]
    half = 0.5 * (float(x_core[-1] - x_core[0]) + geom.dx)
    if np.any(lags <= 2.0 * geom.dx) or np.any(lags >= half / 10.0 * (1.0 + 1e-12)):
        raise ValueError("spatial lags must lie inside (2 dx, half-window/10)")
    return _exact_fit(geom, kind, "space", anchor, lags)


def holder_exponent_time(geom, kind, anchor, lags):
    """Fit the time increment exponent (target 2H wave, H heat) from time
    anchor, on exact lattice moments plus completion as in the spatial fit.
    """
    return _exact_fit(geom, kind, "time", anchor, np.asarray(lags, dtype=float))


# The sampler check's rule, fixed before the ensemble size was chosen: every
# lag's Monte Carlo moment lies within Z_MAX standard errors of the exact one.
HOLDER_Z_MAX = 4.0
# Below this many realizations the standard error, estimated from the
# ensemble itself, is too rough for the rule: the Student-t tail beyond 4
# is 2.7 times the Gaussian one at 64 realizations, and 5.8 times at 32.
MIN_HOLDER_REALIZATIONS = 64
# The default ensemble: the smallest power of two >= 128 at which, at seeds
# 0-4 and on every target and axis, the true sampler passes and a copy whose
# innovation variances are 5% high fails (its smallest max |z| is 4.6, on
# the heat's time axis).
HOLDER_REALIZATIONS = 128
HOLDER_SLOPE_BAND = 0.1


@dataclass(frozen=True)
class HolderAxis:
    """One axis of a holder target: the exact fit and, lag by lag, the
    sampler's Monte Carlo moments with their standard errors."""

    axis: str
    target_slope: float
    fit: ExponentFit
    mc: np.ndarray
    stderr: np.ndarray

    @property
    def z(self):
        """(Monte Carlo - exact lattice moment) / SE, per lag."""
        return (self.mc - self.fit.lattice) / self.stderr


def holder_checks(target, h, n_realizations, seed):
    """The Holder checks of target "noise", "heat" or "wave".

    The geometry and lags are fixed per target, chosen so the lattice,
    completion and horizon constraints all hold with margin.  Each axis
    gets two checks:

    - holder-<target>-<axis>-slope: the exact fit's slope lies within
      HOLDER_SLOPE_BAND of its target (2H in space and for the wave in
      time, H for the heat in time).  It does not depend on the seed.
    - holder-<target>-<axis>-sampler: n_realizations draws of the exact-law
      sampler, keyed by seed, give Monte Carlo moments within HOLDER_Z_MAX
      standard errors of the exact lattice moments at every lag.

    One sampling pass feeds both axes.  Returns the checks and the
    HolderAxis of each axis.  Raises ValueError below
    MIN_HOLDER_REALIZATIONS, before anything is drawn.
    """
    if n_realizations < MIN_HOLDER_REALIZATIONS:
        raise ValueError(
            f"ensemble = {n_realizations} is below the {MIN_HOLDER_REALIZATIONS} "
            f"realizations the holder sampler check needs"
        )
    if target == "noise":
        t, dx, half_width = 0.5, 1.0 / 512, 2.0
        geom = _sampler_geometry("heat", h, t, dx, half_width)
        increments = IncrementCollector(space_lags=2.0 ** -np.arange(3, 8))
        sample_noise_antiderivative(h, t, dx, half_width, n_realizations, seed=seed,
                                    collectors=(increments,))
        fits = [("space", holder_exponent_space(geom, "noise", t, increments.space_lags), 2.0 * h)]
    else:
        lags_s = np.array([25, 17, 12, 8, 5, 3]) / 1024.0
        if target == "wave":
            T, anchor, time_target = 0.5, 0.25, 2.0 * h
            lags_t = np.array([24, 16, 11, 8, 5, 3]) / 1024.0
            times = np.concatenate([[anchor], anchor + np.sort(lags_t), [T]])
        else:
            T, anchor, time_target = 0.25, 0.125, h
            lags_t = geometric_time_lags(anchor, T, largest=1.0 / 64, n_lags=6, ratio=1.6)
            times = np.concatenate([[anchor], anchor + np.sort(lags_t)])
        geom = _sampler_geometry(target, h, T, 1.0 / 1024, 1.0)
        increments = IncrementCollector(space_lags=lags_s, time_lags=lags_t)
        sample_additive_solution(target, h, T, 1.0 / 1024, 1.0, times, n_realizations,
                                 seed=seed, collectors=(increments,))
        fits = [
            ("space", holder_exponent_space(geom, target, times[-1], lags_s), 2.0 * h),
            ("time", holder_exponent_time(geom, target, anchor, lags_t), time_target),
        ]
    checks = []
    axes = []
    for axis, fit, target_slope in fits:
        if axis == "space":
            mc, stderr = space_increment_moments(increments)
        else:
            mc, stderr = time_increment_moments(increments)
        held = HolderAxis(axis, target_slope, fit, mc, stderr)
        inputs = {"target": target, "h": h, "axis": axis}
        # the slope is the p = 2 moment rate, twice the exponent: the band
        # 0.1 is 0.05 on the exponent itself
        checks.append(make_check(
            f"holder-{target}-{axis}-slope",
            computed=fit.fitted_slope,
            reference=target_slope,
            tolerance=HOLDER_SLOPE_BAND,
            inputs=inputs,
        ))
        # a nan z (no spread in the ensemble) fails the check
        checks.append(make_check(
            f"holder-{target}-{axis}-sampler",
            computed=float(np.max(np.abs(held.z))),
            reference=0.0,
            tolerance=HOLDER_Z_MAX,
            inputs={**inputs, "seed": seed, "n_realizations": n_realizations},
        ))
        axes.append(held)
    return checks, axes


@dataclass(frozen=True)
class SupMoment:
    """The grid sup of E|u|^p over the stored times after the first.

    stderr is the empirical standard error at the sup cell, and
    sup_over_time holds, for each of those times, the sup over x.
    """

    p: int
    sup: float
    stderr: float
    sup_over_time: np.ndarray


def moment_report(ensemble, p_list=(2, 4), kurtosis_cap=0.25):
    """Grid-sup p-th moments with a refinement-stability finiteness check.

    For each p the sup of E|u|^p over the stored times after the first is
    compared with the sup over every other stored time (the second, the
    fourth, ..., the last): a bounded field keeps the ratio at most 3,
    which is the pass rule (computed ratio within tolerance 2 of
    reference 1; the ratio is at least 1 because the coarse grid is a
    subset).  The first stored time is the deterministic t = 0 datum, so
    it carries no randomness and is left out of both.  The standard error
    at the sup cell is the empirical one; if it exceeds kurtosis_cap times
    the estimate, the p-th moment is too heavy-tailed for the ensemble and
    the run aborts.  Returns the checks and, for each p, its SupMoment.
    """
    for p in p_list:
        if p < 2:
            raise ValueError(f"moments need p >= 2, got {p}")
    if ensemble.t.size < 3:
        raise ValueError("moment report needs at least 3 stored times")
    n = ensemble.n_realizations
    checks = []
    sups = []
    inputs = {
        "kind": ensemble.kind, "h": ensemble.h,
        "n_realizations": n, "n_times": ensemble.t.size,
    }
    absvals = np.abs(ensemble.values[:, 1:, :])
    for p in p_list:
        mp = absvals**p
        mean = mp.mean(axis=0)
        if n > 1:
            se = mp.std(axis=0, ddof=1) / math.sqrt(n)
        else:
            se = np.zeros_like(mean)
        flat = int(mean.argmax())
        sup_fine = float(mean.ravel()[flat])
        se_at_sup = float(se.ravel()[flat])
        if sup_fine > 0.0 and se_at_sup > kurtosis_cap * sup_fine:
            raise RuntimeError(
                f"p={p} moment too heavy-tailed: se/estimate = "
                f"{se_at_sup / sup_fine:.2f} at the grid sup; "
                f"raise the ensemble or lower p"
            )
        sup_coarse = float(mean[1::2].max())
        ratio = sup_fine / sup_coarse if sup_coarse > 0.0 else 1.0
        checks.append(make_check(
            f"moment-p{p}-grid-sup-stability",
            computed=ratio,
            reference=1.0,
            tolerance=2.0,
            inputs={**inputs, "p": p, "sup": sup_fine, "se": se_at_sup},
        ))
        sups.append(SupMoment(int(p), sup_fine, se_at_sup, mean.max(axis=1)))
    return checks, sups


class FirstIncrementCollector:
    """Collect the first Picard increment at the final time and the lattice
    center n_fft // 2, one value per realization.

    Plug it into solve_ensemble's collectors; ``values`` then holds the
    realizations in the order they ran.
    """

    def __init__(self):
        self.values = []

    def observe(self, n, diff, geom):
        if n == 1:
            self.values.append(float(diff[-1, geom.n_fft // 2]))


def gaussian_ratio_check(config, samples):
    """Fourth-to-second moment ratio E|Z|^4 / (E|Z|^2)^2 against 3.

    With a = 0 the first Picard increment is a Gaussian integral of a
    deterministic slice, so the ratio is 3 at every grid point; samples
    are such increments at one point, one per realization (for instance
    at the final-time core center, as FirstIncrementCollector collects
    them).  The sample ratio of n Gaussian draws has standard error
    sqrt(24 / n).  The error is taken from the null rather than from the
    sample, so a light-tailed sample cannot shrink its own error; the
    check passes when 3 sits within 3 SE of the estimate.  Raises
    ValueError when a != 0, on fewer than 2 samples or a zero second
    moment.
    """
    if config.sigma.a != 0.0:
        raise ValueError("the Gaussian ratio diagnostic applies to a = 0 only")
    z = np.asarray(samples, dtype=float)
    n = z.size
    if n < 2:
        raise ValueError("need at least 2 samples for the moment ratio")
    m2 = float(np.mean(z**2))
    if m2 == 0.0:
        raise ValueError("the moment ratio is undefined: the second moment is 0")
    return make_check(
        "gaussian-p4-p2-ratio",
        computed=float(np.mean(z**4)) / m2**2,
        reference=3.0,
        standard_error=math.sqrt(24.0 / n),
        inputs={"equation": config.equation, "h": config.h, "n": n},
    )
