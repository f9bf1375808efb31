"""Convergence diagnostics for the Picard iteration.

Tracks, over an ensemble of noise draws, the two seminorm curves that
control the scheme for affine sigma(u) = a u + b at second moments:

    V_n(t) = sup_x E|u^n(t,x) - u^{n-1}(t,x)|^2
    W_n(t) = sup_x int_0^t int int G^2_{t-s}(x-y) |y-z|^{2H-2}
                 E|D_n(s,y) - D_n(s,z)|^2 dy dz ds,   D_n = u^n - u^{n-1}

and checks the closed-form recurrences they must satisfy,

    V_{n+1}(t) <= (V_n * J1)(t) + C_w W_n(t)
    W_{n+1}(t) <= (V_n * J2)(t) + (W_n * J1)(t)

with C_w = 2 a^2 C_H and pure-power kernels

    J1(tau) = 2 a^2 c_H int |FG_tau(xi)|^2 |xi|^(1-2H) dxi = c1 tau^e1
    J2(tau) = (4 pi a^2 c_H^2 / C_H) int_0^tau ||G_(tau-s)||_L2^2
              int |FG_s(xi)|^2 |xi|^(2-4H) dxi ds      = c2 tau^e2.

Statistics are accumulated on thinned lattices, so memory is independent
of the ensemble size; the pair energies are expanded into moment sums
that grow with t * y (never a t * y * z pair tensor), and the Toeplitz
slab kernels act by FFT convolution along y.  Three nested spatial grids
are involved: the sup in both curves runs over the core window; the
pair-energy density rho needs support out to the kernel reach beyond the
core; and the pair partner z runs over the whole lattice window, with
the remaining |y - z|^{2H-2} mass beyond the window completed
analytically under the decorrelation m2(y) + m2(z) (exact for the wave
kernel beyond lag 2t, Gaussian-tail accurate for the heat kernel).
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_H, c_H
from .kernels import F_ab, c_alpha

__all__ = [
    "DiagnosticGrids",
    "make_diagnostic_grids",
    "VnWnCollector",
    "VnWnCurves",
    "IterateSecondMomentCollector",
    "PicardDiagnostics",
    "j_power_forms",
    "power_convolution",
    "vn_wn_diagnostics",
    "pathwise_x2_seminorm",
]


@dataclass(frozen=True)
class DiagnosticGrids:
    """Thinned lattices for seminorm accumulation.

    All three spatial index sets share one stride on the solver lattice,
    so pair gaps are exact multiples of dx_thin: z_idx spans the whole
    window, y_idx the kernel-reach neighbourhood of the core (rho support),
    and sup_rows marks the rows of y_idx lying inside the core.  t_idx are
    solver step indices; row j is time (j+1) * dt_thin.
    """

    t_idx: np.ndarray
    y_idx: np.ndarray
    z_idx: np.ndarray
    sup_rows: np.ndarray
    dt_thin: float
    dx_thin: float
    y: np.ndarray
    z: np.ndarray

    @property
    def t(self):
        return self.dt_thin * np.arange(1, self.t_idx.size + 1)


def _kernel_reach(geom):
    if geom.equation == "wave":
        return geom.T
    return 4.0 * math.sqrt(geom.T)


def make_diagnostic_grids(geom, n_t=32, n_x=128):
    stride_t = max(1, geom.n_steps // int(n_t))
    t_idx = np.arange(stride_t, geom.n_steps + 1, stride_t)

    x_grid = geom.x_grid
    core_cols = np.arange(geom.core.start, geom.core.stop)
    stride_x = max(1, core_cols.size // int(n_x))
    z_idx = np.arange(0, geom.n_fft, stride_x)
    reach = min(_kernel_reach(geom), geom.actual_pad)
    lim = x_grid[core_cols[-1]] + reach
    y_mask = np.abs(x_grid[z_idx]) <= lim + 1e-12
    y_idx = z_idx[y_mask]
    sup_rows = np.nonzero(np.abs(x_grid[y_idx]) <= x_grid[core_cols[-1]] + 1e-12)[0]
    return DiagnosticGrids(
        t_idx=t_idx,
        y_idx=y_idx,
        z_idx=z_idx,
        sup_rows=sup_rows,
        dt_thin=stride_t * geom.dt,
        dx_thin=stride_x * geom.dx,
        y=x_grid[y_idx],
        z=x_grid[z_idx],
    )


def _pair_weight_matrix(y, z, h, dx_thin):
    """|y_i - z_j|^(2h-2) dx quadrature weights with the singular
    coincidence cell zeroed (the pair energy vanishes there faster than
    the weight diverges)."""
    w = np.subtract.outer(y, z)
    np.abs(w, out=w)
    coincident = w < 0.5 * dx_thin
    with np.errstate(divide="ignore"):
        np.power(w, 2.0 * h - 2.0, out=w)
    w *= dx_thin
    w[coincident] = 0.0
    return w


def _tail_weights(y, z, h):
    """Mass of |y - z'|^(2h-2) dz' beyond the lattice window, both sides."""
    s_left = np.maximum(y - (z[0] - 0.0), 1e-300)
    s_right = np.maximum((z[-1] + 0.0) - y, 1e-300)
    p = 2.0 * h - 1.0
    return (s_left**p + s_right**p) / (1.0 - 2.0 * h)


def _slab_kernel_levels(equation, y, dt_thin, n_levels, dx_thin):
    """Cell-exact squared-kernel masses per time-lag level.

    Level l covers kernel lags tau in (l, l+1] * dt_thin; K[l][i, j], the
    mass int_cell_j G^2_tau(y_i - u) du of cell j, makes dt_thin * K[l] @ rho
    the slab's contribution to the energy time integral.  y has one stride,
    so K[l][i, j] = k_l(y_i - y_j) is Toeplitz and row l holds k_l at the
    2 n_y - 1 offsets y_d - y_0, d = 1 - n_y .. n_y - 1.  Cell masses are
    exact (box overlap / erf difference), which keeps the heat kernel honest
    when tau is below the lattice scale; the lag node is the slab midpoint
    for the bounded wave kernel and, for the heat kernel, the point that
    integrates the tau^(-1/2) envelope exactly over the slab.

    The heat cells tile the line between 2 n_y edges that are antisymmetric
    about 0, so each mass is a difference of neighbouring edge values of
    the odd erf: one math.erf call per nonnegative edge, and none beyond 6,
    where erf rounds to 1 in double precision.
    """
    n_y = y.size
    offs = np.concatenate([y[0] - y[:0:-1], y - y[0]])
    edges = offs[n_y - 1 :] + 0.5 * dx_thin
    out = np.empty((n_levels, offs.size))
    for lvl in range(n_levels):
        tau_lo, tau_hi = lvl * dt_thin, (lvl + 1) * dt_thin
        if equation == "wave":
            tau = 0.5 * (tau_lo + tau_hi)
            lo = np.maximum(offs - 0.5 * dx_thin, -tau)
            hi = np.minimum(offs + 0.5 * dx_thin, tau)
            out[lvl] = 0.25 * np.clip(hi - lo, 0.0, None)
        else:
            tau = (dt_thin / (2.0 * (math.sqrt(tau_hi) - math.sqrt(tau_lo)))) ** 2
            args = edges / math.sqrt(tau)
            n_live = int(np.searchsorted(args, 6.0))
            erf_pos = np.ones(n_y)
            erf_pos[:n_live] = np.fromiter(map(math.erf, args[:n_live].tolist()), float, n_live)
            erf_edges = np.concatenate([-erf_pos[::-1], erf_pos])
            out[lvl] = np.diff(erf_edges) / (4.0 * math.sqrt(math.pi * tau))
    return out


def _energy_curves(rho, levels, dt_thin, sup_rows):
    """sup over the core rows of sum_{m<=k} dt_thin * (K[k-m] @ rho[..., m, :]).

    Each K[l] @ rho[m] is a linear convolution, so the causal sums over
    l + m = k run on Fourier coefficients of length >= 2 n_y - 1, which keeps
    wrap-around off the rows read back.  Leading axes of rho ride along.
    """
    n_t, n_y = rho.shape[-2:]
    n_conv = 1 << (2 * n_y - 2).bit_length()
    k_hat = np.fft.rfft(levels, n_conv)
    r_hat = np.fft.rfft(rho, n_conv)
    e_hat = np.zeros_like(r_hat)
    for lvl in range(n_t):
        e_hat[..., lvl:, :] += k_hat[lvl] * r_hat[..., : n_t - lvl, :]
    energy = np.fft.irfft(e_hat, n_conv)[..., sup_rows + (n_y - 1)]
    return dt_thin * energy.max(axis=-1)


def _pair_moments(rows, g, wmat):
    """The per-path terms of the expanded pair sum: D(y)^2, D(y) (W D)(y), D(z)^2."""
    ys, zs = rows[:, g.y_idx], rows[:, g.z_idx]
    return ys * ys, ys * (zs @ wmat.T), zs * zs


def _pair_energy_curves(geom, g, wmat, m2_y, cross, m2_z):
    """Energy curves from the (mean) _pair_moments terms, expanding
    sum_z w(y, z) (D(y) - D(z))^2 = D(y)^2 sum_z w - 2 D(y) (W D)(y) + (W D^2)(y)
    and completing the pair integral beyond the window under decorrelation,
    E|D(y) - D(z)|^2 -> m2(y) + mean_z m2(z).  rho is clipped at 0 so that
    round-off cannot make an energy negative."""
    tails = _tail_weights(g.y, g.z, geom.h)
    rho = m2_y * (wmat.sum(axis=1) + tails) - 2.0 * cross + m2_z @ wmat.T
    rho += m2_z.mean(axis=-1, keepdims=True) * tails
    np.clip(rho, 0.0, None, out=rho)
    levels = _slab_kernel_levels(geom.equation, g.y, g.dt_thin, g.t_idx.size, g.dx_thin)
    return _energy_curves(rho, levels, g.dt_thin, g.sup_rows)


class VnWnCollector:
    """Streaming accumulator for the V_n / W_n curves over an ensemble.

    Plug it into solve_ensemble's collectors: it declares the rows t_idx
    (= grids.t_idx) and, for each realization, forms the successive
    differences u^n - u^{n-1}, n = 1..n_iters, of every row it is handed;
    finalize() returns the curves with standard errors.  Holds
    second/fourth moments on the full core for V and, for W, sums of the
    _pair_moments terms on the thinned y/z lattices, so memory grows with
    t * y, never t * y * z.
    """

    def __init__(self, geom, n_iters, n_t=32, n_x=128):
        self.geom = geom
        self.n_iters = int(n_iters)
        self.grids = make_diagnostic_grids(geom, n_t=n_t, n_x=n_x)
        g = self.grids
        core_n = geom.core.stop - geom.core.start
        self._wmat = _pair_weight_matrix(g.y, g.z, geom.h, g.dx_thin)
        self._sum2 = np.zeros((self.n_iters, g.t_idx.size, core_n))
        self._sum4 = np.zeros((self.n_iters, g.t_idx.size, core_n))
        widths = (g.y.size, g.y.size, g.z.size)  # D(y)^2, D(y) (W D)(y), D(z)^2
        self._pair_sums = tuple(np.zeros((self.n_iters, g.t_idx.size, m)) for m in widths)
        self._count = 0

    @property
    def t_idx(self):
        return self.grids.t_idx

    def observe(self, r, k, levels):
        diffs = levels[1 : self.n_iters + 1] - levels[: self.n_iters]
        core = diffs[:, self.geom.core]
        sq = core * core
        self._sum2[:, k] += sq
        self._sum4[:, k] += sq * sq
        for acc, term in zip(self._pair_sums, _pair_moments(diffs, self.grids, self._wmat)):
            acc[:, k] += term
        if k == 0:
            self._count += 1

    def finalize(self):
        r = self._count
        if r < 2:
            raise ValueError("need at least 2 realizations to form curves")
        geom, g = self.geom, self.grids
        m2 = self._sum2 / r
        m4 = self._sum4 / r
        var_mean = np.clip(m4 - m2 * m2, 0.0, None) / r

        arg = m2.argmax(axis=2)
        n_i, n_t = arg.shape
        ii, tt = np.meshgrid(np.arange(n_i), np.arange(n_t), indexing="ij")
        v = m2[ii, tt, arg]
        se_v = np.sqrt(var_mean[ii, tt, arg])

        w = _pair_energy_curves(geom, g, self._wmat, *(acc / r for acc in self._pair_sums))
        # Gaussian perfect-correlation proxy: an upper bound on the error
        # of any positively weighted sum of empirical second moments
        se_w = math.sqrt(2.0 / r) * w
        return VnWnCurves(
            t=g.t, v=v, w=w, se_v=se_v, se_w=se_w,
            n_realizations=r, geom=geom, grids=g,
        )


@dataclass(frozen=True)
class VnWnCurves:
    """Ensemble estimates of V_n(t), W_n(t) with standard errors.

    se_v is the empirical delta-method error at the argmax column; se_w is
    the Gaussian perfect-correlation proxy sqrt(2/R) * w, an upper bound
    rather than an estimate.
    """

    t: np.ndarray
    v: np.ndarray
    w: np.ndarray
    se_v: np.ndarray
    se_w: np.ndarray
    n_realizations: int
    geom: object
    grids: DiagnosticGrids


class IterateSecondMomentCollector:
    """Streaming sup-grid second moments of each Picard iterate.

    Plug it into solve_ensemble's collectors: it declares the thinned times
    as its rows ``t_idx`` and accumulates E|u^n|^2 on the thinned core
    columns, reading each iterate u^n directly from the rows it is handed.
    finalize() returns the per-iterate sup over the thin grid, index 0
    holding the deterministic sup |w|^2 (w = u^0); a bounded scheme keeps
    consecutive entries from growing once the iteration settles.
    """

    def __init__(self, geom, n_iters, n_t=16, n_x=64):
        stride_t = max(1, geom.n_steps // int(n_t))
        self.t_idx = np.arange(0, geom.n_steps + 1, stride_t)
        core_cols = np.arange(geom.core.start, geom.core.stop)
        stride_x = max(1, core_cols.size // int(n_x))
        self._x_idx = core_cols[::stride_x]
        self.n_iters = int(n_iters)
        self._w = np.zeros((self.t_idx.size, self._x_idx.size))
        self._sums = np.zeros((self.n_iters, self.t_idx.size, self._x_idx.size))
        self._count = 0

    def observe(self, r, k, levels):
        self._w[k] = levels[0, self._x_idx]
        self._sums[:, k] += levels[1 : self.n_iters + 1, self._x_idx] ** 2
        if k == 0:
            self._count += 1

    def finalize(self):
        if self._count < 1:
            raise ValueError("no realizations observed")
        sups = np.empty(self.n_iters + 1)
        sups[0] = float((self._w**2).max())
        for n in range(self.n_iters):
            sups[n + 1] = float((self._sums[n] / self._count).max())
        return sups


def j_power_forms(equation, h, a):
    """The recurrence kernels as pure powers: J_i(tau) = c_i tau^(e_i).

    J1 comes from the single-time spectral moment at weight |xi|^(1-2H);
    J2 from the nested lag integral, whose closed form is F(0, tau) times
    4 pi a^2 c_H^2 / C_H.  Also carries C_w = 2 a^2 C_H, the weight of
    W_n in the V recurrence.
    """
    ch = c_H(h)
    if equation == "wave":
        c1 = 2.0 * a * a * ch * 2.0 ** (2.0 * h) * c_alpha(2.0 * h)
        e1 = 2.0 * h
        e2 = 4.0 * h + 1.0
    elif equation == "heat":
        c1 = 2.0 * a * a * ch * math.gamma(1.0 - h)
        e1 = h - 1.0
        e2 = 2.0 * h - 1.0
    else:
        raise ValueError(f"equation must be 'wave' or 'heat', got {equation!r}")
    c2 = (4.0 * math.pi * a * a * ch * ch / C_H(h)) * F_ab(equation, 0.0, 1.0, h)
    c_w = 2.0 * a * a * C_H(h)
    return {"c1": c1, "e1": e1, "c2": c2, "e2": e2, "c_w": c_w}


def power_convolution(t_grid, values, c, e):
    """(f * J)(t) = int_0^t f(s) c (t-s)^e ds on the given grid.

    f is taken piecewise linear through (0, 0) and the nodes
    (t_grid[k], values[k]); each cell integrates in closed form, which
    handles the integrable singularity e in (-1, 0) exactly.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if e <= -1.0:
        raise ValueError(f"exponent must exceed -1, got {e!r}")
    nodes = np.concatenate([[0.0], t_grid])
    vals = np.concatenate([[0.0], values])
    out = np.empty(t_grid.size)
    for k, t in enumerate(t_grid):
        s_a = nodes[: k + 1]
        s_b = nodes[1 : k + 2]
        v_a = vals[: k + 1]
        v_b = vals[1 : k + 2]
        big = t - s_a
        small = t - s_b
        p1 = (big ** (e + 1.0) - small ** (e + 1.0)) / (e + 1.0)
        p2 = (big ** (e + 2.0) - small ** (e + 2.0)) / (e + 2.0)
        slope = (v_b - v_a) / (s_b - s_a)
        out[k] = float(np.sum(c * (v_b * p1 - slope * (p2 - small * p1))))
    return out


@dataclass(frozen=True)
class PicardDiagnostics:
    """Recurrence audit of the ensemble V/W curves.

    Violation flags compare each left side minus twice its standard error
    against the right side plus twice its propagated error, pointwise on
    the thin time grid, for each adjacent iteration pair.
    """

    t: np.ndarray
    v: np.ndarray
    w: np.ndarray
    se_v: np.ndarray
    se_w: np.ndarray
    rhs_v: np.ndarray
    rhs_w: np.ndarray
    se_rhs_v: np.ndarray
    se_rhs_w: np.ndarray
    violations_v: np.ndarray
    violations_w: np.ndarray
    violation_fraction: float
    m_sup: np.ndarray
    sqrt_m_partial_sums: np.ndarray
    j_forms: dict
    n_realizations: int


def vn_wn_diagnostics(curves, sigma):
    """Check the V/W recurrences on finalized ensemble curves.

    Needs curves for at least two iterations; returns the pointwise right
    sides, violation masks at two standard errors, and the summability
    sequence: partial sums of sup_t sqrt(V_n + W_n).
    """
    geom = curves.geom
    n_iters = curves.v.shape[0]
    if n_iters < 2:
        raise ValueError("recurrence check needs at least 2 iterations")
    jf = j_power_forms(geom.equation, geom.h, sigma.a)
    t = curves.t
    n_pairs = n_iters - 1
    rhs_v = np.empty((n_pairs, t.size))
    rhs_w = np.empty((n_pairs, t.size))
    se_rhs_v = np.empty((n_pairs, t.size))
    se_rhs_w = np.empty((n_pairs, t.size))
    for n in range(n_pairs):
        rhs_v[n] = (
            power_convolution(t, curves.v[n], jf["c1"], jf["e1"])
            + jf["c_w"] * curves.w[n]
        )
        se_rhs_v[n] = (
            power_convolution(t, curves.se_v[n], jf["c1"], jf["e1"])
            + jf["c_w"] * curves.se_w[n]
        )
        rhs_w[n] = power_convolution(t, curves.v[n], jf["c2"], jf["e2"]) + \
            power_convolution(t, curves.w[n], jf["c1"], jf["e1"])
        se_rhs_w[n] = power_convolution(t, curves.se_v[n], jf["c2"], jf["e2"]) + \
            power_convolution(t, curves.se_w[n], jf["c1"], jf["e1"])
    lhs_v = curves.v[1:]
    lhs_w = curves.w[1:]
    viol_v = lhs_v - 2.0 * curves.se_v[1:] > rhs_v + 2.0 * se_rhs_v
    viol_w = lhs_w - 2.0 * curves.se_w[1:] > rhs_w + 2.0 * se_rhs_w
    frac = float((viol_v.sum() + viol_w.sum()) / (viol_v.size + viol_w.size))
    m_sup = (curves.v + curves.w).max(axis=1)
    partial = np.cumsum(np.sqrt(m_sup))
    return PicardDiagnostics(
        t=t, v=curves.v, w=curves.w, se_v=curves.se_v, se_w=curves.se_w,
        rhs_v=rhs_v, rhs_w=rhs_w, se_rhs_v=se_rhs_v, se_rhs_w=se_rhs_w,
        violations_v=viol_v, violations_w=viol_w, violation_fraction=frac,
        m_sup=m_sup, sqrt_m_partial_sums=partial,
        j_forms=jf, n_realizations=curves.n_realizations,
    )


def pathwise_x2_seminorm(rows, geom, n_t=32, n_x=128):
    """Single-path kernel-weighted increment seminorm of a field difference.

    rows holds the rows t_idx of make_diagnostic_grids(geom, n_t, n_x) of
    the difference, shape (t_idx.size, n_fft): the only rows it reads, so a
    streamed solve keeps those alone.  Same quadrature as the ensemble W
    curves but with the bare squared increments of this one path in place
    of expectations (tail completion included); returns the sup over the
    thin lattice of the square root of the accumulated energy.
    """
    g = make_diagnostic_grids(geom, n_t=n_t, n_x=n_x)
    if rows.shape != (g.t_idx.size, geom.n_fft):
        raise ValueError(f"rows must have shape {(g.t_idx.size, geom.n_fft)}, got {rows.shape}")
    wmat = _pair_weight_matrix(g.y, g.z, geom.h, g.dx_thin)
    curve = _pair_energy_curves(geom, g, wmat, *_pair_moments(rows, g, wmat))
    return float(np.sqrt(curve.max()))
