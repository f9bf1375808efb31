"""Tests for the V/W convergence diagnostics.

Oracles: the recurrence kernels against the spectral-moment and nested-lag
closed forms they repackage, the lag convolution against analytic Beta
integrals, and the first-iteration curves against exact lattice sums (the
additive first increment is Gaussian with a banded spectral representation,
so both its variance and its weighted pair-increment energy have closed
forms on the solver lattice).  The pair-energy quadrature is checked against
its dense form: the full (t, y, z) pair tensor contracted with the pair
weights, and the slab kernels as full y x y matrices per lag level.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from fracspde.config import SimulationConfig, to_picard_config
from fracspde.constants import C_H, c_H
from fracspde.diagnostics import (
    IterateSecondMomentCollector,
    VnWnCollector,
    _pair_weight_matrix,
    _tail_weights,
    j_power_forms,
    make_diagnostic_grids,
    pathwise_x2_seminorm,
    power_convolution,
    vn_wn_diagnostics,
)
from fracspde.kernels import F_ab, fourier_moment
from fracspde import picard
from fracspde.picard import (
    AffineSigma,
    PicardConfig,
    build_geometry,
    constant_initial,
    homogeneous_term,
    solve,
    solve_ensemble,
)


def wave_config(**overrides):
    base = dict(
        equation="wave",
        h=0.3,
        T=0.5,
        n_steps=64,
        dx=1.0 / 64,
        L=1.0,
        sigma=AffineSigma(0.5, 1.0),
        init=constant_initial(0.0),
        seed=21,
        max_iters=4,
        tol=1e-12,
    )
    base.update(overrides)
    return PicardConfig(**base)


def heat_config(**overrides):
    base = dict(
        equation="heat",
        h=0.3,
        T=0.125,
        n_steps=32,
        dx=1.0 / 32,
        L=1.0,
        sigma=AffineSigma(0.5, 1.0),
        init=constant_initial(0.0),
        seed=23,
        max_iters=3,
        tol=1e-12,
    )
    base.update(overrides)
    return PicardConfig(**base)


def banded_symbol_sq(geom, t):
    """sym(t - t_i, w_k)^2 over completed slabs, shape (slabs, bands)."""
    t_left = geom.dt * np.arange(geom.n_steps)
    tau = t - t_left[t_left < t - 1e-12]
    om = geom.omega_r[: geom.n_bands]
    if geom.equation == "wave":
        sym = np.empty((tau.size, om.size))
        sym[:, 1:] = np.sin(np.outer(tau, om[1:])) / om[1:]
        sym[:, 0] = tau
    else:
        # the exact-variance slab weight: c^2 = (1 - e^{-dt w^2}) / (dt w^2)
        x = geom.dt * om**2
        c2 = np.ones_like(x)
        c2[1:] = -np.expm1(-x[1:]) / x[1:]
        return c2 * np.exp(-np.outer(tau - geom.dt, om**2))
    return sym**2


def exact_v1(geom, t_query):
    """Var(u^1 - w)(t, x) for sigma == 1, independent of x."""
    return np.array([
        2.0 * geom.dt * float(np.sum(geom.band_masses * banded_symbol_sq(geom, t)))
        for t in t_query
    ])


def exact_w1(geom, t_query):
    """W_1(t) for sigma == 1 via the exact pair-increment density.

    int |1 - e^{i w u}|^2 |u|^(2h-2) du = kappa |w|^(1-2h) with
    kappa = 2 pi c_H / C_H, so rho_1(s) is a banded sum, constant in x,
    and W_1(t) = int_0^t ||G_(t-s)||^2 rho_1(s) ds.
    """
    kappa = 2.0 * math.pi * c_H(geom.h) / C_H(geom.h)
    om = geom.omega_r[: geom.n_bands]
    wgt = np.zeros_like(om)
    wgt[1:] = kappa * om[1:] ** (1.0 - 2.0 * geom.h)
    rho1 = np.array([
        2.0 * geom.dt * float(np.sum(geom.band_masses * wgt * banded_symbol_sq(geom, t)))
        for t in t_query
    ])
    if geom.equation == "wave":
        return power_convolution(t_query, rho1, 0.5, 1.0)
    return power_convolution(t_query, rho1, 1.0 / (2.0 * math.sqrt(math.pi)), -0.5)


def dense_kernel_matrices(equation, y, dt_thin, n_levels, dx_thin):
    """Slab kernel cell masses as full y x y matrices, one per lag level."""
    offs = y[:, None] - y[None, :]
    out = np.empty((n_levels, y.size, y.size))
    for lvl in range(n_levels):
        tau_lo, tau_hi = lvl * dt_thin, (lvl + 1) * dt_thin
        if equation == "wave":
            tau = 0.5 * (tau_lo + tau_hi)
            lo = np.maximum(offs - 0.5 * dx_thin, -tau)
            hi = np.minimum(offs + 0.5 * dx_thin, tau)
            out[lvl] = 0.25 * np.clip(hi - lo, 0.0, None)
        else:
            tau = (dt_thin / (2.0 * (math.sqrt(tau_hi) - math.sqrt(tau_lo)))) ** 2
            rt = math.sqrt(tau)
            out[lvl] = (erf((offs + 0.5 * dx_thin) / rt) - erf((offs - 0.5 * dx_thin) / rt)) / (
                4.0 * math.sqrt(math.pi * tau))
    return out


def dense_w_curve(pair, m2_y, m2_z, geom, g):
    """W quadrature from the dense pair tensor pair[t, y, z] = E|D(y) - D(z)|^2."""
    rho = np.einsum("tyz,yz->ty", pair, _pair_weight_matrix(g.y, g.z, geom.h, g.dx_thin))
    rho += (m2_y + m2_z.mean(axis=1, keepdims=True)) * _tail_weights(g.y, g.z, geom.h)
    kmats = dense_kernel_matrices(geom.equation, g.y, g.dt_thin, g.t_idx.size, g.dx_thin)
    out = np.empty(g.t_idx.size)
    for k in range(out.size):
        tot = sum(kmats[k - m][g.sup_rows] @ rho[m] for m in range(k + 1))
        out[k] = g.dt_thin * tot.max()
    return out


def dense_seminorm(diff, geom, n_t=32, n_x=128, pairs=True):
    """pathwise_x2_seminorm through the dense pair tensor (pairs=False: tails only)."""
    g = make_diagnostic_grids(geom, n_t=n_t, n_x=n_x)
    ys = diff[g.t_idx][:, g.y_idx]
    zs = diff[g.t_idx][:, g.z_idx]
    pair = (ys[:, :, None] - zs[:, None, :]) ** 2 if pairs else np.zeros(ys.shape + zs.shape[1:])
    return math.sqrt(dense_w_curve(pair, ys**2, zs**2, geom, g).max())


def seminorm_rows(diff, geom, n_t=32, n_x=128):
    """The rows of a whole field difference that pathwise_x2_seminorm reads."""
    return diff[make_diagnostic_grids(geom, n_t=n_t, n_x=n_x).t_idx]


class TestJPowerForms:
    @pytest.mark.parametrize("equation,h", [("wave", 0.3), ("wave", 0.45), ("heat", 0.35)])
    def test_j1_matches_spectral_moment(self, equation, h):
        a = 0.7
        jf = j_power_forms(equation, h, a)
        for tau in (0.1, 0.5, 2.0):
            target = 2.0 * a * a * c_H(h) * fourier_moment(equation, tau, 1.0 - 2.0 * h)
            assert jf["c1"] * tau ** jf["e1"] == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("equation,h", [("wave", 0.3), ("heat", 0.3), ("heat", 0.45)])
    def test_j2_matches_nested_lag_integral(self, equation, h):
        a = 0.7
        jf = j_power_forms(equation, h, a)
        scale = 4.0 * math.pi * a * a * c_H(h) ** 2 / C_H(h)
        for tau in (0.2, 1.0):
            target = scale * F_ab(equation, 0.0, tau, h)
            assert jf["c2"] * tau ** jf["e2"] == pytest.approx(target, rel=1e-12)

    def test_w_weight(self):
        assert j_power_forms("wave", 0.3, 2.0)["c_w"] == pytest.approx(
            8.0 * C_H(0.3), rel=1e-14
        )

    def test_rejects_unknown_equation(self):
        with pytest.raises(ValueError):
            j_power_forms("transport", 0.3, 1.0)


class TestPowerConvolution:
    def test_linear_profile_exact(self):
        # f(s) = s is inside the piecewise-linear model, so the result is
        # exact: int_0^t s c (t-s)^e ds = c t^(e+2) / ((e+1)(e+2))
        t = np.linspace(0.05, 2.0, 40)
        for c, e in ((3.0, 1.0), (0.5, -0.4)):
            out = power_convolution(t, t, c, e)
            expected = c * t ** (e + 2.0) / ((e + 1.0) * (e + 2.0))
            np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_quadratic_profile_converges(self):
        # int_0^t s^2 c (t-s)^e ds = 2 c t^(e+3) / ((e+1)(e+2)(e+3))
        t = np.linspace(1.0 / 256, 1.0, 256)
        for e in (0.6, -0.5):
            out = power_convolution(t, t**2, 1.0, e)
            expected = 2.0 * t ** (e + 3.0) / ((e + 1.0) * (e + 2.0) * (e + 3.0))
            # the chord model of s^2 is O(1) relatively wrong only where the
            # integral itself is negligibly small
            np.testing.assert_allclose(out[32:], expected[32:], rtol=1e-3)
            np.testing.assert_allclose(out[:32], expected[:32], atol=5e-6)

    def test_rejects_nonintegrable_exponent(self):
        with pytest.raises(ValueError):
            power_convolution(np.array([1.0]), np.array([1.0]), 1.0, -1.0)


class TestDiagnosticGrids:
    def test_lattice_structure(self):
        geom = build_geometry(wave_config())
        g = make_diagnostic_grids(geom, n_t=16, n_x=64)
        assert g.t_idx[0] >= 1 and g.t_idx[-1] == geom.n_steps
        assert set(g.y_idx).issubset(set(g.z_idx))
        # sup rows point at core positions of the rho support
        assert np.all(np.abs(g.y[g.sup_rows]) <= 1.0 + 1e-9)
        # y covers the kernel reach beyond the core
        assert g.y.max() >= 1.0 + geom.T - 2.0 * g.dx_thin
        assert g.t.shape == g.t_idx.shape

    def test_thin_spacings(self):
        geom = build_geometry(wave_config())
        g = make_diagnostic_grids(geom, n_t=16, n_x=64)
        assert g.dt_thin == pytest.approx(geom.dt * (geom.n_steps // 16))
        np.testing.assert_allclose(np.diff(g.z), g.dx_thin, rtol=1e-12)


@pytest.fixture(scope="module")
def wave_run():
    cfg = wave_config(sigma=AffineSigma(0.5, 1.0))
    geom = build_geometry(cfg)
    coll = VnWnCollector(geom, n_iters=3, n_t=16, n_x=64)
    center = geom.n_fft // 2
    grids = coll.grids
    acc = {"s2": np.zeros(grids.t_idx.size), "s4": np.zeros(grids.t_idx.size), "n": 0}

    class CenterSpy:
        t_idx = grids.t_idx

        def observe(self, r, k, levels):
            d = levels[1, center] - levels[0, center]
            acc["s2"][k] += d * d
            acc["s4"][k] += d**4
            if k == 0:
                acc["n"] += 1

    solve_ensemble(cfg, 150, n_iters=3, collectors=(coll, CenterSpy()))
    return cfg, geom, coll.finalize(), acc


class RowSpy:
    """Keeps every difference u^n - u^{n-1} on the thin time rows."""

    def __init__(self, grids):
        self.t_idx = grids.t_idx
        self._diffs = {}

    def observe(self, r, k, levels):
        self._diffs.setdefault(r, {})[k] = levels[1:] - levels[:-1]

    def rows(self, n):
        """The rows of u^n - u^{n-1}, shape (realizations, t_idx, n_fft)."""
        return np.stack([
            np.stack([by_row[k][n - 1] for k in range(self.t_idx.size)])
            for _, by_row in sorted(self._diffs.items())
        ])


class TestCollectorAgainstOracles:
    def test_v1_center_column_unbiased(self, wave_run):
        cfg, geom, curves, acc = wave_run
        v1 = exact_v1(geom, curves.t)
        m2 = acc["s2"] / acc["n"]
        se = np.sqrt(np.clip(acc["s4"] / acc["n"] - m2 * m2, 0.0, None) / acc["n"])
        z = (m2 - v1) / se
        assert np.all(np.abs(z) < 4.0)

    def test_v1_sup_curve_brackets_exact(self, wave_run):
        # the sup over ~100 noisy columns sits above the x-independent
        # truth by a selection effect bounded by a few column SES
        cfg, geom, curves, acc = wave_run
        v1 = exact_v1(geom, curves.t)
        ratio = curves.v[0] / v1
        col_se = math.sqrt(2.0 / curves.n_realizations)
        assert np.all(ratio >= 1.0 - 3.0 * col_se)
        assert np.all(ratio <= 1.0 + 6.0 * col_se)

    def test_w1_curve_matches_oracle(self, wave_run):
        cfg, geom, curves, acc = wave_run
        w1 = exact_w1(geom, curves.t)
        # thin-lattice + decorrelated-tail quadrature: late-time agreement
        # within 15 percent, everywhere within a factor 2 fence plus noise
        ratio = curves.w[0] / w1
        assert np.all(ratio[8:] < 1.15 + 4.0 * math.sqrt(2.0 / curves.n_realizations))
        assert np.all(ratio[8:] > 0.7)
        assert np.all(ratio < 3.5)

    def test_recurrences_hold(self, wave_run):
        cfg, geom, curves, acc = wave_run
        diag = vn_wn_diagnostics(curves, cfg.sigma)
        assert diag.violation_fraction == 0.0
        assert diag.v.shape[0] == 3

    def test_summability_partial_sums_flatten(self, wave_run):
        cfg, geom, curves, acc = wave_run
        diag = vn_wn_diagnostics(curves, cfg.sigma)
        s = diag.sqrt_m_partial_sums
        assert np.all(np.diff(s) >= 0.0)
        assert s[-1] - s[-2] < 0.02 * s[-1]

    @pytest.mark.parametrize("make_config", [wave_config, heat_config])
    def test_matches_dense_gram_oracle(self, make_config):
        cfg = make_config()
        geom = build_geometry(cfg)
        coll = VnWnCollector(geom, n_iters=3, n_t=16, n_x=64)
        spy = RowSpy(coll.grids)
        solve_ensemble(cfg, 6, n_iters=3, collectors=(coll, spy))
        curves = coll.finalize()
        g = coll.grids
        for n in (1, 2, 3):
            rows = spy.rows(n)
            v = (rows[:, :, geom.core] ** 2).mean(axis=0).max(axis=1)
            ys, zs = rows[:, :, g.y_idx], rows[:, :, g.z_idx]
            m2_y, m2_z = (ys**2).mean(axis=0), (zs**2).mean(axis=0)
            gram = np.einsum("rty,rtz->tyz", ys, zs) / rows.shape[0]
            pair = np.clip(m2_y[:, :, None] + m2_z[:, None, :] - 2.0 * gram, 0.0, None)
            np.testing.assert_allclose(curves.v[n - 1], v, rtol=1e-12)
            np.testing.assert_allclose(curves.w[n - 1], dense_w_curve(pair, m2_y, m2_z, geom, g),
                                       rtol=1e-12)

    def test_heat_first_curves_match_oracles(self):
        cfg = heat_config()
        geom = build_geometry(cfg)
        coll = VnWnCollector(geom, n_iters=2, n_t=16, n_x=64)
        solve_ensemble(cfg, 120, n_iters=2, collectors=(coll,))
        curves = coll.finalize()
        v1 = exact_v1(geom, curves.t)
        ratio_v = curves.v[0] / v1
        col_se = math.sqrt(2.0 / curves.n_realizations)
        assert np.all(ratio_v >= 1.0 - 3.0 * col_se)
        assert np.all(ratio_v <= 1.0 + 6.0 * col_se)
        w1 = exact_w1(geom, curves.t)
        ratio_w = curves.w[0] / w1
        assert np.all(ratio_w[8:] < 1.2 + 4.0 * col_se)
        assert np.all(ratio_w[8:] > 0.7)
        diag = vn_wn_diagnostics(curves, cfg.sigma)
        assert diag.violation_fraction == 0.0


class TestCollectorStructure:
    def test_requires_two_realizations(self):
        geom = build_geometry(wave_config())
        coll = VnWnCollector(geom, n_iters=2, n_t=8, n_x=32)
        solve_ensemble(wave_config(), 1, n_iters=2, collectors=(coll,))
        with pytest.raises(ValueError):
            coll.finalize()

    def test_additive_case_has_one_nonzero_row(self):
        # a = 0 makes the map constant: every difference past the first
        # is exactly zero, so V_n = W_n = 0 for n >= 2
        cfg = wave_config(sigma=AffineSigma(0.0, 1.0))
        geom = build_geometry(cfg)
        coll = VnWnCollector(geom, n_iters=3, n_t=8, n_x=32)
        solve_ensemble(cfg, 3, n_iters=3, collectors=(coll,))
        curves = coll.finalize()
        assert np.all(curves.v[0] > 0.0)
        np.testing.assert_array_equal(curves.v[1:], 0.0)
        np.testing.assert_array_equal(curves.w[1:], 0.0)

    def test_diagnostics_requires_two_iterations(self):
        cfg = wave_config()
        geom = build_geometry(cfg)
        coll = VnWnCollector(geom, n_iters=1, n_t=8, n_x=32)
        solve_ensemble(cfg, 2, n_iters=1, collectors=(coll,))
        with pytest.raises(ValueError):
            vn_wn_diagnostics(coll.finalize(), cfg.sigma)


@pytest.fixture(scope="module")
def default_heat_difference():
    cfg = to_picard_config(SimulationConfig(equation="heat"))
    res = solve(cfg)
    return res.field.values - homogeneous_term(cfg).values, res.geometry


class TestPathwiseSeminorm:
    @pytest.mark.parametrize("make_config", [wave_config, heat_config])
    def test_matches_dense_oracle(self, make_config):
        cfg = make_config(max_iters=10, tol=1e-4)
        res = solve(cfg)
        d = res.field.values - homogeneous_term(cfg).values
        for n_t, n_x in ((8, 32), (32, 128)):
            rows = seminorm_rows(d, res.geometry, n_t=n_t, n_x=n_x)
            assert pathwise_x2_seminorm(rows, res.geometry, n_t=n_t, n_x=n_x) == pytest.approx(
                dense_seminorm(d, res.geometry, n_t=n_t, n_x=n_x), rel=1e-12)

    def test_default_heat_geometry_matches_dense_oracle(self, default_heat_difference):
        d, geom = default_heat_difference
        got = pathwise_x2_seminorm(seminorm_rows(d, geom), geom)
        assert got == pytest.approx(dense_seminorm(d, geom), rel=1e-12)

    def test_default_heat_geometry_memory(self, default_heat_difference):
        # the dense pair tensor alone would take 32 x 491 x 1024 doubles
        d, geom = default_heat_difference
        tracemalloc.start()
        try:
            pathwise_x2_seminorm(seminorm_rows(d, geom), geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20

    def test_constant_in_x_comes_from_tails_only(self):
        geom = build_geometry(heat_config())
        t = geom.dt * np.arange(geom.n_steps + 1)
        flat = np.repeat((1.0 + t)[:, None], geom.n_fft, axis=1)
        got = pathwise_x2_seminorm(seminorm_rows(flat, geom, 16, 64), geom, n_t=16, n_x=64)
        assert np.isfinite(got) and got > 0.0
        assert got == pytest.approx(dense_seminorm(flat, geom, n_t=16, n_x=64, pairs=False),
                                    rel=1e-12)

    def test_zero_difference(self):
        geom = build_geometry(wave_config())
        zero = np.zeros((make_diagnostic_grids(geom, n_t=8, n_x=32).t_idx.size, geom.n_fft))
        assert pathwise_x2_seminorm(zero, geom, n_t=8, n_x=32) == 0.0

    def test_rejects_rows_other_than_its_grid_rows(self):
        # the whole field difference is not the seminorm's rows
        geom = build_geometry(wave_config())
        with pytest.raises(ValueError, match="rows must have shape"):
            pathwise_x2_seminorm(np.zeros((geom.n_steps + 1, geom.n_fft)), geom, n_t=8, n_x=32)

    def test_pair_weights_are_the_broadcast_formula(self):
        # the in-place weights are bit for bit the broadcast expression
        geom = build_geometry(heat_config())
        g = make_diagnostic_grids(geom)
        gap = np.abs(g.y[:, None] - g.z[None, :])
        with np.errstate(divide="ignore"):
            expected = gap ** (2.0 * geom.h - 2.0) * g.dx_thin
        expected[gap < 0.5 * g.dx_thin] = 0.0
        np.testing.assert_array_equal(_pair_weight_matrix(g.y, g.z, geom.h, g.dx_thin), expected)

    def test_finite_and_refinement_stable(self):
        cfg = wave_config(max_iters=10, tol=1e-4)
        res = solve(cfg)
        geom = res.geometry
        d = res.field.values - homogeneous_term(cfg).values
        coarse = pathwise_x2_seminorm(seminorm_rows(d, geom, 8, 32), geom, n_t=8, n_x=32)
        fine = pathwise_x2_seminorm(seminorm_rows(d, geom, 16, 64), geom, n_t=16, n_x=64)
        assert 0.0 < coarse < np.inf
        assert 0.8 < fine / coarse < 1.25


class TestIterateSecondMoments:
    def test_noise_free_iterates_stay_at_w(self):
        cfg = heat_config(sigma=AffineSigma(0.0, 0.0), init=constant_initial(0.7))
        geom = build_geometry(cfg)
        coll = IterateSecondMomentCollector(geom, n_iters=3)
        solve_ensemble(cfg, 2, n_iters=3, collectors=(coll,))
        sups = coll.finalize()
        assert sups.shape == (4,)
        assert np.allclose(sups, 0.49, atol=1e-12)

    def test_wave_iterate_moments_stabilise(self):
        cfg = wave_config(sigma=AffineSigma(0.5, 1.0), n_steps=32, dx=1.0 / 32)
        geom = build_geometry(cfg)
        coll = IterateSecondMomentCollector(geom, n_iters=5)
        solve_ensemble(cfg, 100, n_iters=5, collectors=(coll,))
        sups = coll.finalize()
        assert np.all(sups[1:] > 0.0)
        # contraction: past the first corrections the sup second moment
        # settles, so consecutive iterates stay within a factor 2
        for n in range(3, 5):
            assert sups[n + 1] <= 2.0 * sups[n]

    @pytest.mark.parametrize("collector", [VnWnCollector, IterateSecondMomentCollector])
    def test_more_iterations_than_the_ensemble_runs_is_refused(self, monkeypatch, collector):
        # the mismatch is named, with both counts, before any row is built
        cfg = wave_config(n_steps=8)
        coll = collector(build_geometry(cfg), n_iters=3)

        def no_rows(*args, **kwargs):
            pytest.fail("a row was built")

        monkeypatch.setattr(picard, "_picard_levels", no_rows)
        with pytest.raises(ValueError, match="reads 3 Picard iterations, but the ensemble runs 2"):
            solve_ensemble(cfg, 2, n_iters=2, collectors=(coll,))

    def test_empty_collector_rejected(self):
        cfg = wave_config()
        coll = IterateSecondMomentCollector(build_geometry(cfg), n_iters=2)
        with pytest.raises(ValueError, match="no realizations"):
            coll.finalize()
