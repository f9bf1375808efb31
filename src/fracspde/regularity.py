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
    "geometric_space_lags",
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


def _geometric_int_lags(m_max, m_min, n_lags):
    raw = np.geomspace(m_max, m_min, n_lags)
    out = []
    for m in np.rint(raw).astype(int):
        if (not out or m < out[-1]) and m >= m_min:
            out.append(int(m))
    return out


def geometric_space_lags(dx, half_width, n_lags=6, m_min=3):
    """Strictly decreasing lattice-aligned lags inside (2 dx, half_width/10)."""
    m_max = int(math.floor(half_width / (10.0 * dx)))
    if m_max <= m_min:
        raise ValueError(
            f"window too coarse for spatial lags: largest usable multiple "
            f"{m_max} does not exceed the smallest {m_min}"
        )
    ms = _geometric_int_lags(m_max, m_min, n_lags)
    if len(ms) < 3:
        raise ValueError("window too coarse for spatial lags: fewer than 3 distinct lags")
    return dx * np.asarray(ms, dtype=float)


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


_SAMPLER_CHUNK = 512


def sample_noise_antiderivative(h, t, dx, half_width, n_realizations, seed=0):
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
    ensemble size.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be at least 1")
    if t <= 0.0:
        raise ValueError("t must be positive")
    geom = _sampler_geometry("heat", h, t, dx, half_width, seed)
    om = geom.omega_r[: geom.n_bands]
    x_core = geom.x_grid[geom.core]
    out = np.empty((n_realizations, 1, x_core.size))
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
        out[start:stop, 0, :] = fields[:, geom.core]
    return FieldEnsemble(
        kind="noise", h=h, t=np.array([t]), x=x_core, values=out,
        xi_cut=geom.xi_cut,
    )


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
                             n_realizations, seed=0):
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
    size.
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
    out = np.empty((n_realizations, times.size, x_core.size))

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
            out[start:stop, j, :] = _band_field(geom, y)[:, geom.core]
    return FieldEnsemble(
        kind=equation, h=h, t=times, x=x_core, values=out, xi_cut=geom.xi_cut,
    )


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


def _mean_square_stats(d):
    """Mean square of increments d (realizations x anchors) averaged over
    anchors, then over realizations, with the between-realization standard
    error.  d is squared in place: it is as large as an ensemble slice, and
    passing it as a temporary frees it before the next lag's is built.
    """
    d *= d
    per_real = d.mean(axis=1)
    moment = float(per_real.mean())
    n = per_real.size
    stderr = float(per_real.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return moment, stderr


def space_increment_moments(ensemble, lags, time_index=-1):
    """Mean-square spatial increments averaged over anchors, with SE.

    Lags must be lattice-aligned; the standard error is the between-
    realization spread of per-realization anchor averages.
    """
    lags = np.asarray(lags, dtype=float)
    dx = ensemble.dx
    vals = ensemble.values[:, time_index, :]
    moments = np.empty(lags.shape)
    stderrs = np.empty(lags.shape)
    for i, lag in enumerate(lags):
        m = int(round(lag / dx))
        if m < 1 or abs(m * dx - lag) > 1e-9 * dx:
            raise ValueError(f"lag {lag} is not a lattice multiple of dx = {dx}")
        moments[i], stderrs[i] = _mean_square_stats(vals[:, m:] - vals[:, :-m])
    return moments, stderrs


def time_increment_moments(ensemble, lags):
    """Mean-square time increments from the ensemble's anchor time.

    The anchor is the first stored time; each lag must match a stored
    time at anchor + lag.  Averaging runs over all core columns and the
    standard error is between realizations.
    """
    lags = np.asarray(lags, dtype=float)
    anchor = float(ensemble.t[0])
    base = ensemble.values[:, 0, :]
    moments = np.empty(lags.shape)
    stderrs = np.empty(lags.shape)
    for i, lag in enumerate(lags):
        j = int(np.argmin(np.abs(ensemble.t - (anchor + lag))))
        if abs(ensemble.t[j] - anchor - lag) > 1e-9 * max(lag, 1.0):
            raise ValueError(f"no stored time at anchor + lag = {anchor + lag}")
        moments[i], stderrs[i] = _mean_square_stats(ensemble.values[:, j, :] - base)
    return moments, stderrs


def _validate_ensemble_size(ensemble, min_realizations):
    if ensemble.n_realizations < min_realizations:
        raise ValueError(
            f"ensemble has {ensemble.n_realizations} realizations; "
            f"at least {min_realizations} required"
        )


def holder_exponent_space(ensemble, lags, time_index=-1, complete=True,
                          min_realizations=1000):
    """Fit the spatial increment exponent (target 2H) on an ensemble.

    Lags must be strictly decreasing, lattice-aligned and lie inside
    (2 dx, half-window/10); with complete=True the deterministic spectral
    window completion is added to the measured moments before the fit,
    and the fitted moments are the completed ones.
    """
    _validate_ensemble_size(ensemble, min_realizations)
    lags = np.asarray(lags, dtype=float)
    dx = ensemble.dx
    half = 0.5 * (float(ensemble.x[-1] - ensemble.x[0]) + dx)
    if np.any(lags <= 2.0 * dx) or np.any(lags >= half / 10.0 * (1.0 + 1e-12)):
        raise ValueError("spatial lags must lie inside (2 dx, half-window/10)")
    moments, stderrs = space_increment_moments(ensemble, lags, time_index)
    if complete:
        anchor = float(ensemble.t[time_index])
        moments = moments + spectral_window_completion(
            ensemble.kind, ensemble.h, ensemble.xi_cut, "space", anchor, lags)
    return fit_exponent(lags, moments, stderrs,
                        label=f"{ensemble.kind}-space-h{ensemble.h:g}")


def holder_exponent_time(ensemble, lags, complete=True, min_realizations=1000):
    """Fit the time increment exponent (target 2H wave, H heat).

    The ensemble's first stored time is the anchor; every anchor + lag
    must be a stored time.  Completion as in the spatial fit.
    """
    _validate_ensemble_size(ensemble, min_realizations)
    lags = np.asarray(lags, dtype=float)
    if not np.all(np.diff(lags) < 0.0):
        raise ValueError("lags must be strictly decreasing")
    moments, stderrs = time_increment_moments(ensemble, lags)
    if complete:
        anchor = float(ensemble.t[0])
        moments = moments + spectral_window_completion(
            ensemble.kind, ensemble.h, ensemble.xi_cut, "time", anchor, lags)
    return fit_exponent(lags, moments, stderrs,
                        label=f"{ensemble.kind}-time-h{ensemble.h:g}")


def moment_report(ensemble, p_list=(2, 4), kurtosis_cap=0.25):
    """Grid-sup p-th moments with a refinement-stability finiteness check.

    For each p the sup of E|u|^p over the ensemble's full time grid is
    compared with the sup over every other stored time: a bounded field
    keeps the ratio at most 3, which is the pass rule (computed ratio
    within tolerance 2 of reference 1; the ratio is at least 1 because
    the coarse grid is a subset).  The standard error at the sup cell is
    the empirical one; if it exceeds kurtosis_cap times the estimate, the
    p-th moment is too heavy-tailed for the ensemble and the run aborts.
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
    absvals = np.abs(ensemble.values)
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
        sup_coarse = float(mean[::2].max())
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
