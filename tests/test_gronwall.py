"""Tests for the Fibonacci-renewal recurrence bounds.

Oracles: the exact integer Fibonacci recurrence and its seeds,
Irwin-Hall closed forms for uniform hitting probabilities, Beta-integral
closed form for the power-density two-fold probability, Monte Carlo for
the convolution grid, and equality-built sequences for the recurrence
checker (the checker's own quadrature, so the hypothesis holds exactly
and only the conclusion is at stake).
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from fracspde import gronwall
from fracspde.gronwall import (
    GronwallOverflowError,
    GronwallProblem,
    a_n_sequence,
    density_cell_masses,
    fibonacci,
    hitting_probability,
    recurrence_check,
    recurrence_violations,
    root_summability_certificate,
)


class TestFibonacci:
    def test_seeds(self):
        assert fibonacci(1) == 1
        assert fibonacci(2) == 1

    def test_sixth(self):
        assert fibonacci(6) == 8

    def test_recurrence(self):
        for n in range(1, 30):
            assert fibonacci(n + 2) == fibonacci(n + 1) + fibonacci(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fibonacci(0)
        with pytest.raises(ValueError):
            fibonacci(-1)


class TestDensityCellMasses:
    def test_const_exact(self):
        m = density_cell_masses("const:2.5", 2.0, n_cells=64)
        assert m.shape == (64,)
        assert np.all(m == 2.5 * 2.0 / 64)

    def test_power_total_exact(self):
        for e in (0.6, 1.0, -0.7):
            m = density_cell_masses(f"power:{e}", 1.5, n_cells=512)
            assert float(m.sum()) == pytest.approx(1.5 ** (e + 1) / (e + 1), rel=1e-12)
            assert np.all(m > 0.0)

    def test_power_singular_first_cell(self):
        # the t^(e) mass of the first cell is exact despite the blow-up at 0
        m = density_cell_masses("power:-0.7", 1.0, n_cells=1024)
        assert m[0] == pytest.approx((1.0 / 1024) ** 0.3 / 0.3, rel=1e-12)

    def test_callable_midpoint(self):
        m = density_cell_masses(lambda t: np.ones_like(t), 1.0, n_cells=128)
        assert float(m.sum()) == pytest.approx(1.0, rel=1e-12)

    def test_table(self, tmp_path):
        path = tmp_path / "g.csv"
        np.savetxt(path, np.column_stack([[0.0, 0.5, 1.0], [1.0, 1.0, 1.0]]),
                   delimiter=",")
        m = density_cell_masses(f"table:{path}", 1.0, n_cells=256)
        assert float(m.sum()) == pytest.approx(1.0, rel=1e-12)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="exceed -1"):
            density_cell_masses("power:-1.0", 1.0)
        with pytest.raises(ValueError, match="unknown density spec"):
            density_cell_masses("gauss:1", 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            density_cell_masses("const:-1", 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            density_cell_masses(lambda t: -np.ones_like(t), 1.0)
        with pytest.raises(ValueError, match="exponent"):
            density_cell_masses("power:", 1.0)
        bad = tmp_path / "bad.csv"
        np.savetxt(bad, np.column_stack([[0.0, 0.5, 0.25], [1.0, 1.0, 1.0]]),
                   delimiter=",")
        with pytest.raises(ValueError, match="increasing"):
            density_cell_masses(f"table:{bad}", 1.0)


class TestHittingProbability:
    def test_k1_is_one(self):
        assert hitting_probability("const", 1.0, 1) == pytest.approx(1.0, rel=1e-12)
        assert hitting_probability("power:-0.7", 0.5, 1) == pytest.approx(1.0, rel=1e-12)

    def test_irwin_hall_k3(self):
        # S_3 of uniforms on [0,1]: P(S_3 <= 1) = 1/3! exactly
        conv = hitting_probability("const", 1.0, 3)
        assert abs(conv - 1.0 / 6.0) <= 1e-3
        mc = hitting_probability("const", 1.0, 3, method="mc",
                                 n_samples=10**6, seed=101)
        se = math.sqrt((1.0 / 6.0) * (5.0 / 6.0) / 10**6)
        assert abs(mc - 1.0 / 6.0) <= 3.0 * se

    def test_irwin_hall_family(self):
        for k in range(1, 5):
            conv = hitting_probability("const", 1.0, k)
            assert abs(conv - 1.0 / math.factorial(k)) <= 1e-3

    def test_power_density_beta_oracle(self):
        # density c t^0.6 on [0,1]: P(S_2 <= 1) = 1.6 B(1.6, 2.6)
        exact = 1.6 * math.gamma(1.6) * math.gamma(2.6) / math.gamma(4.2)
        conv = hitting_probability("power:0.6", 1.0, 2)
        assert conv == pytest.approx(exact, abs=5e-4)
        mc = hitting_probability("power:0.6", 1.0, 2, method="mc",
                                 n_samples=10**6, seed=7)
        se = math.sqrt(exact * (1.0 - exact) / 10**6)
        assert abs(mc - exact) <= 3.0 * se

    def test_convolution_vs_mc_through_k10(self):
        n = 200_000
        for k in range(1, 11):
            conv = hitting_probability("const", 1.0, k)
            mc = hitting_probability("const", 1.0, k, method="mc",
                                     n_samples=n, seed=500 + k)
            se = math.sqrt(max(conv * (1.0 - conv), 1e-12) / n)
            assert abs(conv - mc) <= 3.0 * se + 1e-4

    def test_nonincreasing_in_k(self):
        vals = [hitting_probability("power:0.6", 1.0, k) for k in range(1, 7)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_trivial_case(self):
        assert hitting_probability("const:0", 1.0, 3) == 0.0
        assert hitting_probability(lambda t: np.zeros_like(t), 1.0, 1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            hitting_probability("const", 1.0, 0)
        with pytest.raises(ValueError, match="method"):
            hitting_probability("const", 1.0, 2, method="laplace")

    def test_mc_deterministic(self):
        a = hitting_probability("const", 1.0, 3, method="mc", n_samples=10000, seed=3)
        b = hitting_probability("const", 1.0, 3, method="mc", n_samples=10000, seed=3)
        assert a == b


def power_problem(**overrides):
    base = dict(T=1.0, g="power:0.6", M0=1.0, M1=1.0)
    base.update(overrides)
    return GronwallProblem(**base)


class TestAnBound:
    def test_first_two_are_one(self):
        prob = power_problem()
        assert a_n_sequence(prob, 0)[0] == 1.0
        assert a_n_sequence(prob, 1)[1] == 1.0

    def test_a2_is_twice_k(self):
        # b_3 = 2 and P(S_1 <= T) = 1, so a_2 = 2 max(G(T), 1)
        assert a_n_sequence(GronwallProblem(T=1.0, g="const", M0=1, M1=1), 2)[2] == 2.0
        assert a_n_sequence(GronwallProblem(T=2.0, g="const:3", M0=1, M1=1), 2)[2] == 12.0

    def test_sequence_matches_pointwise(self):
        # one sweep to n = 12 reuses its convolution powers for every a_n;
        # each term equals the last term of a sweep stopped at that n
        prob = power_problem()
        seq = a_n_sequence(prob, 12)
        for n in range(13):
            assert seq[n] == a_n_sequence(prob, n)[n]

    def test_nonnegative(self):
        seq = a_n_sequence(power_problem(), 30)
        assert np.all(seq >= 0.0)

    def test_float_range_is_checked_before_the_sweep(self):
        # K = 1e100: K^3 fits in a float, K^4 does not
        prob = GronwallProblem(T=1.0, g="const:1e100", M0=1, M1=1)
        seq = a_n_sequence(prob, 4)
        assert 1e300 < seq[4] < math.inf
        with pytest.raises(GronwallOverflowError, match="n = 5"):
            a_n_sequence(prob, 5)
        # K = 1: the Fibonacci factor b_(n+1) leaves float range at n = 1476
        unit = GronwallProblem(T=1.0, g="const", M0=1, M1=1)
        assert float(fibonacci(1476)) < math.inf
        with pytest.raises(OverflowError):
            float(fibonacci(1477))
        with pytest.raises(GronwallOverflowError, match="n = 1476"):
            a_n_sequence(unit, 1476)

    def test_overflow_is_refused_before_the_sequence_is_allocated(self):
        # an n_max of 10^6 would take 8 MB for the sequence alone; the range
        # check must come first, leaving only the 4096 cell masses
        prob = GronwallProblem(T=1.0, g="const", M0=1, M1=1)
        tracemalloc.start()
        try:
            with pytest.raises(GronwallOverflowError):
                a_n_sequence(prob, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("g", ["const", "power:0.6", "power:-0.7"])
    def test_sweep_hitting_probabilities_are_the_single_ones(self, g, monkeypatch):
        # a_n_sequence reads P(S_k <= T) for every k <= n_max / 2 off one
        # sweep; each is bitwise the value hitting_probability gives alone
        sweeps = []
        real_sweep = gronwall._hitting_sweep

        def spy(p, k_max, n_cells):
            sweeps.append(real_sweep(p, k_max, n_cells))
            return sweeps[-1]

        monkeypatch.setattr(gronwall, "_hitting_sweep", spy)
        a_n_sequence(GronwallProblem(T=1.0, g=g, M0=1, M1=1), 13)
        monkeypatch.undo()
        (hit,) = sweeps
        assert hit.size == 7
        for k in range(1, 7):
            assert hitting_probability(g, 1.0, k) == hit[k]

    def test_validation(self):
        with pytest.raises(ValueError):
            a_n_sequence(power_problem(), -1)

    def test_root_summable(self):
        # tail increment of the partial sums of a_n^(1/p) falls below
        # 1e-6 of the partial sum: the numerical Cauchy verdict
        seq = a_n_sequence(power_problem(), 80)
        n_half = 40
        for p in (1, 2, 4):
            roots = seq ** (1.0 / p)
            partial = float(roots[: n_half + 1].sum())
            tail = float(roots[n_half + 1:].sum())
            assert tail < 1e-6 * partial

    def test_ratio_test_settles_below_one(self):
        # k_n = floor(n/2) is constant on odd steps, so the one-step
        # ratio oscillates by construction; the two-step ratio carries
        # the decay and settles far below 1
        seq = a_n_sequence(power_problem(), 40)
        roots = np.sqrt(seq)
        ratios = roots[26:41] / roots[24:39]
        assert np.all(ratios < 1.0)


def equality_built_problem(n_members=21, n_grid=65, g="const", ms=(1.0, 1.0)):
    """f_n built with equality in the checker's own quadrature rule."""
    grid = np.linspace(0.0, 1.0, n_grid)
    masses = density_cell_masses(g, 1.0, n_cells=n_grid - 1)
    fs = [np.full(n_grid, ms[0]), np.full(n_grid, ms[1])]
    for _ in range(2, n_members):
        phi = fs[-1] + fs[-2]
        phibar = 0.5 * (phi[:-1] + phi[1:])
        rhs = np.concatenate([[0.0], np.convolve(phibar, masses)[: n_grid - 1]])
        fs.append(rhs)
    return GronwallProblem(T=1.0, g=g, M0=ms[0], M1=ms[1],
                           f_grid=grid, f_sequence=tuple(fs))


def log_terms(spec, T=1.0):
    """(e, log K) of a closed-form density, as the certificate reads them."""
    e = gronwall._closed_form_exponent(spec)
    total = float(density_cell_masses(spec, T, n_cells=1)[0])
    return e, math.log(max(total, 1.0))


class TestSummabilityCertificate:
    @pytest.mark.parametrize("spec", ["const", "const:3", "power:-0.7", "power:0.6", "const:0"])
    def test_closed_form_densities_are_certified(self, spec):
        report = root_summability_certificate(GronwallProblem(T=1.0, g=spec, M0=1, M1=1))
        assert report.passed and 0.0 <= report.computed < 1.0

    @pytest.mark.parametrize("spec", ["const", "const:3", "power:-0.7", "power:0.6"])
    def test_certified_index_is_the_first(self, spec):
        e, log_k = log_terms(spec)
        n_star = gronwall._certified_index(e, log_k)
        margin = gronwall._CERTIFICATE_MARGIN
        assert gronwall._log_ratio_bound(e, log_k, n_star) < -margin
        if n_star > 2:
            assert gronwall._log_ratio_bound(e, log_k, n_star - 1) >= -margin

    def test_heat_density_peaks_far_past_a_float_product(self):
        # a_n grows until n ~ 352 000 (log a_n ~ 52 777), where it is certified
        e, log_k = log_terms("power:-0.7")
        n_star = gronwall._certified_index(e, log_k)
        assert 350_000 < n_star < 354_000
        assert gronwall._log_a_exact(e, log_k, n_star) == pytest.approx(52777.07, abs=0.05)
        assert gronwall._log_a_exact(e, log_k, 957_000) < -60.0

    @pytest.mark.parametrize("spec", ["const:3", "power:-0.7", "power:0.6"])
    def test_exact_log_sequence_matches_the_convolution(self, spec):
        # the cell-mass convolution carries an O(k / n_cells) bias only
        e, log_k = log_terms(spec)
        seq = a_n_sequence(GronwallProblem(T=1.0, g=spec, M0=1, M1=1), 60)
        for n in range(2, 61):
            assert math.log(seq[n]) == pytest.approx(gronwall._log_a_exact(e, log_k, n), abs=1e-2)

    def test_fibonacci_in_log_space(self):
        for m in range(1, 90):
            assert gronwall._log_fibonacci(m) == pytest.approx(math.log(fibonacci(m)), abs=1e-12)

    @pytest.mark.parametrize("spec", ["const:3", "power:-0.7", "power:0.6"])
    def test_ratio_bound_bounds_and_does_not_increase(self, spec):
        e, log_k = log_terms(spec)
        bounds = [gronwall._log_ratio_bound(e, log_k, n) for n in range(2, 400)]
        actual = [gronwall._log_a_exact(e, log_k, n + 2) - gronwall._log_a_exact(e, log_k, n)
                  for n in range(2, 400)]
        assert all(b >= a - 1e-9 for a, b in zip(actual, bounds))
        assert all(later <= earlier + 1e-12 for earlier, later in zip(bounds, bounds[1:]))

    def test_a_hitting_probability_of_one_fails(self, monkeypatch):
        # without the factorial decay a_n grows like (phi K)^n: nothing to certify
        monkeypatch.setattr(gronwall, "_log_hitting_exact", lambda e, k: 0.0)
        report = root_summability_certificate(GronwallProblem(T=1.0, g="const", M0=1, M1=1))
        assert not report.passed and report.computed > 1.0

    def test_tables_and_callables_have_no_certificate(self, tmp_path):
        dens = tmp_path / "dens.csv"
        dens.write_text("0.0,0.5\n1.0,0.25\n")
        for g in (f"table:{dens}", lambda t: t):
            assert root_summability_certificate(GronwallProblem(T=1.0, g=g, M0=1, M1=1)) is None

    def test_invalid_densities_are_refused(self):
        for spec in ("power:-1.5", "const:-1"):
            with pytest.raises(ValueError):
                root_summability_certificate(GronwallProblem(T=1.0, g=spec, M0=1, M1=1))

    def test_is_cheap(self):
        start = time.perf_counter()
        root_summability_certificate(GronwallProblem(T=1.0, g="power:-0.7", M0=1, M1=1))
        assert time.perf_counter() - start < 0.05


class TestRecurrenceCheck:
    def test_equality_built_sequence_passes(self):
        report = recurrence_check(equality_built_problem())
        assert report.passed
        assert report.computed == 0.0

    def test_zero_density_trivial(self):
        grid = np.linspace(0.0, 1.0, 33)
        fs = [np.ones(33), np.ones(33)] + [np.zeros(33) for _ in range(4)]
        prob = GronwallProblem(T=1.0, g="const:0", M0=1.0, M1=1.0,
                               f_grid=grid, f_sequence=tuple(fs))
        report = recurrence_check(prob)
        assert report.passed

    def test_violation_detected(self):
        grid = np.linspace(0.0, 1.0, 33)
        fs = [np.ones(33), np.ones(33), np.full(33, 10.0)]
        prob = GronwallProblem(T=1.0, g="const", M0=1.0, M1=1.0,
                               f_grid=grid, f_sequence=tuple(fs))
        report = recurrence_check(prob)
        assert not report.passed
        assert report.computed > 0.0
        violations, _ = recurrence_violations(prob)
        assert violations[0][0] == "recurrence"
        assert violations[0][1] == 2

    def test_understated_m0_detected(self):
        grid = np.linspace(0.0, 1.0, 33)
        fs = [np.full(33, 2.0), np.ones(33), np.zeros(33)]
        prob = GronwallProblem(T=1.0, g="const:0", M0=1.0, M1=1.0,
                               f_grid=grid, f_sequence=tuple(fs))
        violations, _ = recurrence_violations(prob)
        assert violations[0][0] == "sup-f0"

    def test_grid_mismatch(self):
        grid = np.linspace(0.0, 1.0, 33)
        fs = [np.ones(33), np.ones(33), np.ones(17)]
        prob = GronwallProblem(T=1.0, g="const", M0=1.0, M1=1.0,
                               f_grid=grid, f_sequence=tuple(fs))
        with pytest.raises(ValueError, match="grid mismatch"):
            recurrence_check(prob)

    def test_needs_three_members(self):
        grid = np.linspace(0.0, 1.0, 33)
        prob = GronwallProblem(T=1.0, g="const", M0=1.0, M1=1.0,
                               f_grid=grid, f_sequence=(np.ones(33), np.ones(33)))
        with pytest.raises(ValueError, match="at least 3"):
            recurrence_check(prob)

    def test_nonuniform_grid_rejected(self):
        grid = np.concatenate([np.linspace(0.0, 0.5, 16), np.linspace(0.55, 1.0, 17)])
        prob = GronwallProblem(T=1.0, g="const", M0=1.0, M1=1.0,
                               f_grid=grid,
                               f_sequence=(np.ones(33),) * 3)
        with pytest.raises(ValueError, match="uniform"):
            recurrence_check(prob)

    def test_singular_density_equality_sequence(self):
        report = recurrence_check(equality_built_problem(g="power:-0.7"))
        assert report.passed


class TestProblemValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="T must be positive"):
            GronwallProblem(T=0.0, g="const", M0=1.0, M1=1.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GronwallProblem(T=1.0, g="const", M0=-1.0, M1=1.0)
