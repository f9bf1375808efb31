"""Moment bounds and Holder-exponent estimates for noise and solution fields.

Second-moment increments of the spatially antidifferentiated noise scale
like t |h|^(2H); solution fields inherit the spatial exponent 2H and carry
time exponents 2H (wave) and H (heat).  The estimators regress log
increment moments on log lags over ensembles of fields; increments are
averaged over spatial anchors (exact stationarity for the noise, and an
approximation over the core window for solution fields, labelled as such).

Two samplers feed the fits.  ``FieldSampleCollector`` thins fields out of
ensemble Picard runs, for arbitrary affine sigma.  For additive noise
(a = 0) the solution is an explicit Gaussian stochastic convolution whose
spectral bands evolve as exactly integrable processes: an
Ornstein-Uhlenbeck band for the heat kernel, a (position, velocity)
oscillator pair for the wave kernel.  ``sample_additive_solution`` draws
lattice fields from that law with no time-stepping error, which matters
because the time-stepped kernel rule depresses small-lag increment
variance by a relative O((dt/lag)^H) deficit that tilts fitted slopes.

The exact-law samplers draw a few realizations at a time and hand each
chunk, as a small ``FieldEnsemble``, to their collectors; no sampler
keeps the whole ensemble.  ``IncrementCollector`` reduces every chunk at
once to per-realization rows (for each lag, the anchor mean of the
squared increment), and the fits use only those rows: their mean is the
moment and their spread the standard error.  An eager ``FieldEnsemble``
is reduced the same way, as a single chunk.

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
    "spectral_window_completion",
    "space_increment_moments",
    "time_increment_moments",
    "holder_exponent_space",
    "holder_exponent_time",
    "moment_report",
    "MomentRatioCheck",
    "gaussian_moment_ratio_check",
    "gaussian_ratio_check",
]


@dataclass(frozen=True)
class ExponentFit:
    """Log-log regression of increment moments on lags.

    lags are strictly decreasing and geometric (up to lattice rounding);
    status is "ok", "poor_fit" (r_squared below 0.9, reported rather than
    fatal), or "degenerate" (vanishing or constant moments, slope nan).
    """

    lags: np.ndarray
    moments: np.ndarray
    stderrs: np.ndarray
    fitted_slope: float
    stderr: float
    r_squared: float
    status: str
    label: str = ""


R_SQUARED_FLOOR = 0.9


def fit_exponent(lags, moments, stderrs=None, label=""):
    """Ordinary least squares of log moments on log lags.

    The slope standard error is the classical residual-based estimate; a
    degenerate status means the moments carry no usable signal (zeros,
    negatives, or no spread), and nan slope/stderr go with it.
    """
    lags = np.asarray(lags, dtype=float)
    moments = np.asarray(moments, dtype=float)
    if stderrs is None:
        stderrs = np.full_like(moments, np.nan)
    else:
        stderrs = np.asarray(stderrs, dtype=float)
    if lags.size < 3:
        raise ValueError("need at least 3 lags to fit an exponent")
    if lags.shape != moments.shape:
        raise ValueError("lags and moments must have matching shapes")
    if not np.all(lags > 0.0) or not np.all(np.diff(lags) < 0.0):
        raise ValueError("lags must be positive and strictly decreasing")

    def degenerate():
        return ExponentFit(
            lags=lags, moments=moments, stderrs=stderrs,
            fitted_slope=math.nan, stderr=math.nan, r_squared=0.0,
            status="degenerate", label=label,
        )

    if not np.all(np.isfinite(moments)) or np.any(moments <= 0.0):
        return degenerate()
    x = np.log(lags)
    y = np.log(moments)
    sxx = float(np.sum((x - x.mean()) ** 2))
    syy = float(np.sum((y - y.mean()) ** 2))
    if syy == 0.0:
        return degenerate()
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (x - x.mean()))
    ssr = float(np.sum(resid**2))
    dof = lags.size - 2
    stderr = math.sqrt(ssr / dof / sxx) if dof > 0 else math.nan
    r_squared = 1.0 - ssr / syy
    status = "ok" if r_squared >= R_SQUARED_FLOOR else "poor_fit"
    return ExponentFit(
        lags=lags, moments=moments, stderrs=stderrs,
        fitted_slope=slope, stderr=stderr, r_squared=r_squared,
        status=status, label=label,
    )


@dataclass(frozen=True)
class FieldEnsemble:
    """Monte Carlo fields on a common lattice window.

    values has shape (n_realizations, n_times, n_x); kind is "wave",
    "heat", or "noise" (the spatially antidifferentiated noise process)
    and selects the per-frequency variance law used for the spectral
    window completion, together with h and xi_cut.
    """

    kind: str
    h: float
    t: np.ndarray
    x: np.ndarray
    values: np.ndarray
    xi_cut: float

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


def _sampler_geometry(equation, h, T, dx, half_width, seed):
    config = PicardConfig(
        equation=equation, h=h, T=T, n_steps=1, dx=dx, L=half_width,
        sigma=AffineSigma(0.0, 1.0), init=constant_initial(0.0), seed=seed,
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
    geom = _sampler_geometry("heat", h, t, dx, half_width, seed)
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
            kind="noise", h=h, t=np.array([t]), x=x_core,
            values=fields[:, None, geom.core], xi_cut=geom.xi_cut,
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

    geom = _sampler_geometry(equation, h, T, dx, half_width, seed)
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
        chunk = FieldEnsemble(
            kind=equation, h=h, t=times, x=x_core, values=values, xi_cut=geom.xi_cut,
        )
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
            values=np.stack(self._rows), xi_cut=geom.xi_cut,
        )


_COMPLETION_POINTS = 120_000
_COMPLETION_SPAN = 300.0


def spectral_window_completion(kind, h, xi_cut, mode, anchor, lags):
    """Deterministic increment-moment mass above the spectral cutoff.

    Integrates the exact per-frequency variance law of the increment
    (kind selects noise/wave/heat, mode space/time, anchor the field time
    for space increments or the anchor time for time increments) against
    the spectral density over (xi_cut, 300 xi_cut], then closes with the
    analytic oscillation-averaged power tail.  Adding the result to
    measured lattice moments removes the near-constant offset the cutoff
    takes away, which otherwise tilts small-lag log-log slopes upward.
    """
    if mode not in ("space", "time"):
        raise ValueError(f"mode must be space or time, got {mode!r}")
    if kind not in ("noise", "wave", "heat"):
        raise ValueError(f"kind must be noise, wave, or heat, got {kind!r}")
    if kind == "noise" and mode == "time":
        raise ValueError("time completion is undefined for the noise antiderivative")
    if xi_cut <= 0.0 or anchor <= 0.0:
        raise ValueError("xi_cut and anchor must be positive")
    lags = np.asarray(lags, dtype=float)
    xi = xi_cut * np.exp(np.linspace(0.0, math.log(_COMPLETION_SPAN), _COMPLETION_POINTS))
    dens = 2.0 * c_H(h) * xi ** (1.0 - 2.0 * h)
    out = np.empty(lags.shape)
    for i, lag in enumerate(lags):
        if mode == "space":
            inc = 2.0 - 2.0 * np.cos(xi * lag)
            if kind == "noise":
                f = anchor * inc / xi**2
                rem = 2.0 * anchor
            elif kind == "wave":
                f = (anchor / (2.0 * xi**2) - np.sin(2.0 * anchor * xi) / (4.0 * xi**3)) * inc
                rem = anchor
            else:
                f = -np.expm1(-anchor * xi**2) / xi**2 * inc
                rem = 2.0
        else:
            d = lag
            if kind == "wave":
                a = xi * (anchor + 0.5 * d)
                intcos = anchor / 2.0 + (np.sin(2.0 * a) - np.sin(2.0 * (a - xi * anchor))) / (4.0 * xi)
                f = (4.0 * np.sin(0.5 * xi * d) ** 2 / xi**2 * intcos
                     + d / (2.0 * xi**2) - np.sin(2.0 * d * xi) / (4.0 * xi**3))
                rem = anchor + d
            else:
                f = (np.expm1(-0.5 * d * xi**2) ** 2 * (-np.expm1(-anchor * xi**2)) / xi**2
                     - np.expm1(-d * xi**2) / xi**2)
                rem = 2.0
        core = float(np.trapezoid(dens * f, xi))
        out[i] = core + 2.0 * c_H(h) * rem * xi[-1] ** (-2.0 * h) / (2.0 * h)
    return out


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
    lags run from the first stored time.  The field layout (kind, h, t, x,
    xi_cut) is read off the chunks, which share it.
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
        self.kind, self.h, self.xi_cut = chunk.kind, chunk.h, chunk.xi_cut
        self.t, self.x = chunk.t, chunk.x
        self.n_realizations += chunk.n_realizations

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])

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
    """Mean-square spatial increments averaged over anchors, with SE, at
    the space lags of an IncrementCollector.

    The standard error is the between-realization spread of the
    per-realization anchor averages.
    """
    return _mean_square_stats(increments.rows("space"))


def time_increment_moments(increments):
    """Mean-square time increments from the anchor time, with SE, at the
    time lags of an IncrementCollector.

    The anchor is the first stored time; averaging runs over all core
    columns and the standard error is between realizations.
    """
    return _mean_square_stats(increments.rows("time"))


def _validate_ensemble_size(increments, min_realizations):
    if increments.n_realizations < min_realizations:
        raise ValueError(
            f"ensemble has {increments.n_realizations} realizations; "
            f"at least {min_realizations} required"
        )


def holder_exponent_space(increments, complete=True, min_realizations=1000):
    """Fit the spatial increment exponent (target 2H) at the space lags of
    an IncrementCollector.

    Lags must be strictly decreasing, lattice-aligned and lie inside
    (2 dx, half-window/10); with complete=True the deterministic spectral
    window completion is added to the measured moments before the fit,
    and the fitted moments are the completed ones.
    """
    _validate_ensemble_size(increments, min_realizations)
    lags = increments.space_lags
    dx = increments.dx
    half = 0.5 * (float(increments.x[-1] - increments.x[0]) + dx)
    if np.any(lags <= 2.0 * dx) or np.any(lags >= half / 10.0 * (1.0 + 1e-12)):
        raise ValueError("spatial lags must lie inside (2 dx, half-window/10)")
    moments, stderrs = space_increment_moments(increments)
    if complete:
        anchor = float(increments.t[increments.time_index])
        moments = moments + spectral_window_completion(
            increments.kind, increments.h, increments.xi_cut, "space", anchor, lags)
    return fit_exponent(lags, moments, stderrs,
                        label=f"{increments.kind}-space-h{increments.h:g}")


def holder_exponent_time(increments, complete=True, min_realizations=1000):
    """Fit the time increment exponent (target 2H wave, H heat) at the time
    lags of an IncrementCollector.

    The first stored time is the anchor; every anchor + lag must be a
    stored time.  Completion as in the spatial fit.
    """
    _validate_ensemble_size(increments, min_realizations)
    lags = increments.time_lags
    if not np.all(np.diff(lags) < 0.0):
        raise ValueError("lags must be strictly decreasing")
    moments, stderrs = time_increment_moments(increments)
    if complete:
        anchor = float(increments.t[0])
        moments = moments + spectral_window_completion(
            increments.kind, increments.h, increments.xi_cut, "time", anchor, lags)
    return fit_exponent(lags, moments, stderrs,
                        label=f"{increments.kind}-time-h{increments.h:g}")


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
    the run aborts.
    """
    for p in p_list:
        if p < 2:
            raise ValueError(f"moments need p >= 2, got {p}")
    if ensemble.t.size < 3:
        raise ValueError("moment report needs at least 3 stored times")
    n = ensemble.n_realizations
    checks = []
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
    return checks


@dataclass(frozen=True)
class MomentRatioCheck:
    ratio: float
    se: float
    target: float
    passed: bool


def gaussian_moment_ratio_check(samples, target=3.0):
    """E|Z|^4 / (E|Z|^2)^2 with its standard error under the Gaussian null.

    Wiener integrals of deterministic integrands are Gaussian, so the ratio
    is 3, and the sample ratio of n Gaussian draws has standard error
    sqrt(24 / n).  The error is taken from the null rather than from the
    sample, so a light-tailed sample cannot shrink its own error; passes
    when the target sits within 3 SE of the estimate.  Raises ValueError on
    fewer than 2 samples or a zero second moment.
    """
    z = np.asarray(samples, dtype=float)
    n = z.size
    if n < 2:
        raise ValueError("need at least 2 samples for the moment ratio")
    m2 = float(np.mean(z**2))
    if m2 == 0.0:
        raise ValueError("the moment ratio is undefined: the second moment is 0")
    ratio = float(np.mean(z**4)) / m2**2
    se = math.sqrt(24.0 / n)
    passed = abs(ratio - target) <= 3.0 * se
    return MomentRatioCheck(ratio, se, float(target), passed)


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


def gaussian_ratio_check(config, first_increments):
    """Fourth-to-second moment ratio of the first stochastic increment.

    With a = 0 the first Picard increment is a Gaussian integral of a
    deterministic slice, so E|D|^4 / (E|D|^2)^2 = 3 at every grid point;
    the check compares the ratio of ``first_increments`` (the increments
    at the final-time core center, one per realization, as collected by
    FirstIncrementCollector) against 3 within the Gaussian-null error of
    ``gaussian_moment_ratio_check``.
    """
    if config.sigma.a != 0.0:
        raise ValueError("the Gaussian ratio diagnostic applies to a = 0 only")
    chk = gaussian_moment_ratio_check(first_increments)
    return make_check(
        "gaussian-p4-p2-ratio",
        computed=chk.ratio,
        reference=3.0,
        standard_error=chk.se,
        inputs={"equation": config.equation, "h": config.h, "n": len(first_increments)},
    )
