"""Fibonacci-renewal bounds for two-step convolution recurrences.

A nonnegative sequence with f_n(t) <= int_0^t (f_{n-1} + f_{n-2})(s)
g(t-s) ds and bounded f_0, f_1 satisfies sup f_n <= M a_n, where
M = M0 + M1 and

    a_0 = a_1 = 1,   a_n = b_{n+1} K^(n-1) P(S_k <= T),  k = floor(n/2),

with b_n the Fibonacci numbers, K = max(G(T), 1), G the primitive of g,
and S_k a sum of k i.i.d. draws with density g/G(T) on [0, T].  The
Fibonacci factor grows geometrically while P(S_k <= T) decays faster
than any geometric rate, so every power a_n^(1/p) is summable; that
summability is what makes Picard iterations converge pathwise.

This module computes the pieces numerically: exact integer Fibonacci
numbers, hitting probabilities by k-fold cell-mass convolution (with a
Monte Carlo oracle), the a_n sequence, and a checker that tests a
supplied f_sequence against both the recurrence hypothesis and the
conclusion.  Summability of the computed a_0..a_n_max is reported as a
numerical Cauchy verdict on partial sums.  For the densities with a closed
hitting probability (const and power), root_summability_certificate also
proves it: in log space a_{n+2}/a_n falls below 1 for good at a certified
index, beyond which the tail of sqrt(a_n) is bounded geometrically.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .noise import keyed_rng
from .report import make_check

__all__ = [
    "GRID_CELLS",
    "GronwallProblem",
    "GronwallOverflowError",
    "fibonacci",
    "density_cell_masses",
    "hitting_probability",
    "a_n_sequence",
    "root_summability_check",
    "root_summability_certificate",
    "recurrence_violations",
    "recurrence_check",
]

GRID_CELLS = 4096
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_PHI = math.log(0.5 * (1.0 + math.sqrt(5.0)))


@dataclass(frozen=True)
class GronwallProblem:
    """One recurrence instance.

    g is a nonnegative density on [0, T]: either a vectorised callable or
    one of the spec strings accepted by density_cell_masses.  M0 and M1
    bound sup f_0 and sup f_1.  For recurrence checking, f_sequence holds
    at least three functions sampled on the common uniform grid f_grid
    spanning [0, T].
    """

    T: float
    g: object
    M0: float
    M1: float
    f_grid: np.ndarray = None
    f_sequence: tuple = None

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError("T must be positive")
        if self.M0 < 0.0 or self.M1 < 0.0:
            raise ValueError("M0 and M1 must be nonnegative")


class GronwallOverflowError(ValueError):
    """Raised when a factor of a_n, b_(n+1) or K^(n-1), lies beyond float range."""


def _log_fibonacci(m):
    """log b_m by Binet: b_m = phi^m (1 - (-phi^-2)^m) / sqrt(5)."""
    correction = math.log1p(-((-1.0) ** m) * math.exp(-2.0 * m * _LOG_PHI))
    return m * _LOG_PHI - 0.5 * math.log(5.0) + correction


def _check_float_range(big_k, n):
    """Reject an index n whose Fibonacci factor or K-power overflows a float.

    Both factors grow with n, so checking the largest index covers a whole
    sequence.  b_(n+1) is judged by the log of its Binet form: at the last
    index that fits and the first that does not, that log lies 0.32 below
    and 0.16 above the float limit, far beyond the form's rounding.
    """
    log_fib = _log_fibonacci(n + 1)
    try:
        big_k ** (n - 1)
        fits = log_fib <= _LOG_FLOAT_MAX
    except OverflowError:
        fits = False
    if not fits:
        raise GronwallOverflowError(
            f"a_n overflows a float at n = {n} (K = {big_k:.6g}); lower n_max"
        )


def fibonacci(n):
    """The n-th Fibonacci number, b_1 = b_2 = 1, as an exact integer.

    Python integers are unbounded, so the recurrence never overflows at
    any n.
    """
    if n < 1:
        raise ValueError("Fibonacci index must be at least 1")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _load_table(path):
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"density table {path} must have two columns (t, value)")
    ts, vs = data[:, 0], data[:, 1]
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("density table times must be strictly increasing")
    return ts, vs


def density_cell_masses(g, T, n_cells=GRID_CELLS):
    """Per-cell integrals of g over a uniform n_cells grid on [0, T].

    Spec strings get exact masses: "const" or "const:<value>", and
    "power:<exponent>" with exponent > -1 (the integrable singularity at
    0 lands exactly in the first cell mass).  "table:<csv>" interpolates
    a two-column (t, value) file linearly and uses the midpoint rule,
    clamping outside the sampled range.  Callables are evaluated at cell
    midpoints (never at 0, so integrable endpoint singularities stay
    finite) and must be nonnegative where sampled.
    """
    edges = np.linspace(0.0, float(T), n_cells + 1)
    width = float(T) / n_cells
    if isinstance(g, str):
        kind, _, arg = g.partition(":")
        if kind == "const":
            value = float(arg) if arg else 1.0
            if value < 0.0:
                raise ValueError("density must be nonnegative")
            return np.full(n_cells, value * width)
        if kind == "power":
            if not arg:
                raise ValueError("power density needs an exponent, e.g. power:0.6")
            e = float(arg)
            if e <= -1.0:
                raise ValueError("power exponent must exceed -1 for integrability")
            return np.diff(edges ** (e + 1.0)) / (e + 1.0)
        if kind == "table":
            ts, vs = _load_table(arg)
            if np.any(vs < 0.0):
                raise ValueError("density must be nonnegative")
            mids = 0.5 * (edges[:-1] + edges[1:])
            return np.interp(mids, ts, vs) * width
        raise ValueError(f"unknown density spec {g!r}; use const, power:<e>, or table:<csv>")
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.broadcast_to(np.asarray(g(mids), dtype=float), mids.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("density must be finite at cell midpoints")
    if np.any(vals < 0.0):
        raise ValueError("density must be nonnegative")
    return vals * width


def _hitting_sweep(p, k_max, n_cells):
    """P(S_k <= T) at index k = 1..k_max of the returned array (index 0 is
    unused), from one k-fold convolution sweep of the cell masses p.

    The distribution of S_k lives on conv indices 0..n_cells, truncated
    to that prefix: index additivity means entries beyond n_cells never
    feed back into the prefix, so truncating after each direct
    convolution is exact for the retained entries; direct (not FFT)
    convolution keeps the deep sub-1e-30 tail masses at full relative
    precision, which the summability checks rely on.  Atom i sits at
    (i + k/2) * width, and the atoms at or below T are kept.
    """
    hit = np.zeros(k_max + 1)
    dist = p
    for k in range(1, k_max + 1):
        i_max = int(math.floor(n_cells - 0.5 * k + 1e-9))
        hit[k] = float(dist[: i_max + 1].sum()) if i_max >= 0 else 0.0
        if k < k_max:
            dist = np.convolve(dist, p)[: n_cells + 1]
    return hit


def hitting_probability(g, T, k, method="convolution", n_cells=GRID_CELLS,
                        n_samples=10**6, seed=0):
    """P(S_k <= T) for S_k a sum of k i.i.d. draws with density g/G(T).

    The convolution method (primary) places each cell's mass at its
    midpoint and convolves k-fold, with bias O(k/n_cells); Monte Carlo
    (oracle) draws cells by mass and positions uniformly within, with
    standard error sqrt(p(1-p)/n_samples).  G(T) = 0 is the trivial
    case: the recurrence then forces f_n = 0 for n >= 2, and returning
    P = 0 makes the a_n bound exactly that.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    masses = density_cell_masses(g, T, n_cells)
    total = float(masses.sum())
    if total <= 0.0:
        return 0.0
    p = masses / total
    width = float(T) / n_cells
    if method == "convolution":
        return float(_hitting_sweep(p, k, n_cells)[k])
    if method == "mc":
        rng = keyed_rng(seed)
        hits = 0
        chunk = max(1, 2_000_000 // k)
        for start in range(0, n_samples, chunk):
            m = min(chunk, n_samples - start)
            cells = rng.choice(n_cells, size=(m, k), p=p)
            s = (cells + rng.random((m, k))).sum(axis=1) * width
            hits += int(np.count_nonzero(s <= T))
        return hits / n_samples
    raise ValueError(f"method must be convolution or mc, got {method!r}")


def a_n_sequence(problem, n_max, n_cells=GRID_CELLS):
    """The bound sequence a_0 .. a_n_max, reusing one convolution sweep.

    Raises GronwallOverflowError before anything of the size of n_max is
    allocated when a factor of a_n_max lies beyond float range.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max < 2:
        return np.ones(n_max + 1)
    masses = density_cell_masses(problem.g, problem.T, n_cells)
    total = float(masses.sum())
    big_k = max(total, 1.0)
    _check_float_range(big_k, n_max)
    k_max = n_max // 2
    if total > 0.0:
        hit = _hitting_sweep(masses / total, k_max, n_cells)
    else:
        hit = np.zeros(k_max + 1)
    out = np.ones(n_max + 1)
    for n in range(2, n_max + 1):
        out[n] = float(fibonacci(n + 1)) * big_k ** (n - 1) * hit[n // 2]
    return out


def root_summability_check(problem, a_seq):
    """Numerical Cauchy verdict on the root partial sums of a_0 .. a_n_max.

    The second half of the partial sums of sqrt(a_n) must add less than
    1e-5 of the first half, the factorial decay regime; this is evidence
    of summability, never a proof.
    """
    roots = np.sqrt(a_seq)
    split = a_seq.size // 2 + 1
    head = float(roots[:split].sum())
    tail = float(roots[split:].sum())
    return make_check(
        "gronwall-root-summability-tail",
        computed=tail / max(head, 1e-300),
        reference=0.0,
        tolerance=1e-5,
        inputs={"g": problem.g, "T": problem.T, "n_max": a_seq.size - 1},
    )


# the certified ratio must clear 1 by more than the rounding of its lgamma terms
_CERTIFICATE_MARGIN = 1e-6
_CERTIFICATE_SEARCH_LIMIT = 2**50


def _closed_form_exponent(g):
    """e for g(t) = c t^e given as "const[:c]" (e = 0) or "power:e"; None
    for tables and callables, whose hitting probability has no closed form."""
    if not isinstance(g, str):
        return None
    kind, _, arg = g.partition(":")
    if kind == "const":
        return 0.0
    if kind == "power" and arg:
        return float(arg)
    return None


def _log_hitting_exact(e, k):
    """log P(S_k <= T) for k i.i.d. draws of density (e + 1) t^e / T^(e+1)
    on [0, T]: the Dirichlet integral Gamma(e + 2)^k / Gamma(k (e + 1) + 1),
    the same for every T."""
    return k * math.lgamma(e + 2.0) - math.lgamma(k * (e + 1.0) + 1.0)


def _log_a_exact(e, log_k, n):
    """log a_n (n >= 2) with the exact hitting probability."""
    return _log_fibonacci(n + 1) + (n - 1) * log_k + _log_hitting_exact(e, n // 2)


def _log_ratio_bound(e, log_k, n):
    """An upper bound on log(a_{n+2} / a_n) that does not increase in n.

    b_{m+2} / b_m <= phi^2 / (1 - phi^-2m) at m = n + 1, which falls in n;
    the hitting term log P_{k+1} - log P_k falls in k = n // 2 because
    lgamma is convex."""
    k = n // 2
    fib = 2.0 * _LOG_PHI - math.log1p(-math.exp(-2.0 * (n + 1) * _LOG_PHI))
    return fib + 2.0 * log_k + _log_hitting_exact(e, k + 1) - _log_hitting_exact(e, k)


def _certified_index(e, log_k):
    """The first n >= 2 with _log_ratio_bound below -_CERTIFICATE_MARGIN,
    by doubling and then bisection (the bound does not increase in n), or
    the search limit when there is none below it."""

    def certified(n):
        return _log_ratio_bound(e, log_k, n) < -_CERTIFICATE_MARGIN

    hi = 2
    while not certified(hi) and hi < _CERTIFICATE_SEARCH_LIMIT:
        hi *= 2
    lo = 2 if hi == 2 else hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def root_summability_certificate(problem):
    """Proof that sum sqrt(a_n) converges, for const and power densities.

    With the exact hitting probability, log a_n and a bound L(n) on
    log(a_{n+2} / a_n) that does not increase in n are closed forms.  The
    certified index n* is the first n >= 2 with L(n) below -1e-6 (found by
    doubling, then bisection); beyond it a_{n+2} <= rho a_n with
    rho = exp(L(n*)) < 1, so the tail of sqrt(a_n) from n* is at most
    (sqrt(a_n*) + sqrt(a_n*+1)) / (1 - sqrt(rho)).  The check passes when
    rho <= exp(-1e-6), as a certified index makes it; without an index below
    2^50, rho is taken there and fails.  Returns None for tables and
    callables.
    """
    e = _closed_form_exponent(problem.g)
    if e is None:
        return None
    # one cell holds the exact G(T), and the spec is validated on the way
    total = float(density_cell_masses(problem.g, problem.T, n_cells=1)[0])
    inputs = {"g": problem.g, "T": problem.T}
    limit = math.exp(-_CERTIFICATE_MARGIN)
    if total <= 0.0:
        # a_n = 0 from n = 2 on
        return make_check("gronwall-root-summability-certificate", computed=0.0,
                          reference=0.0, tolerance=limit, inputs={**inputs, "n_star": 2})
    log_k = math.log(max(total, 1.0))
    n_star = _certified_index(e, log_k)
    rho = math.exp(_log_ratio_bound(e, log_k, n_star))
    if rho <= limit:
        head = [0.5 * _log_a_exact(e, log_k, n) for n in (n_star, n_star + 1)]
        top = max(head)
        log_head = top + math.log(sum(math.exp(v - top) for v in head))
        log_tail = log_head - math.log1p(-math.sqrt(rho))
        inputs.update(log_a_n_star=_log_a_exact(e, log_k, n_star), log_tail_bound=log_tail)
    return make_check(
        "gronwall-root-summability-certificate",
        computed=rho,
        reference=0.0,
        tolerance=limit,
        inputs={**inputs, "n_star": n_star},
    )


def _validated_sequence(problem):
    if problem.f_grid is None or problem.f_sequence is None:
        raise ValueError("recurrence checking needs f_grid and f_sequence")
    grid = np.asarray(problem.f_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("f_grid must be a 1-d grid with at least 2 points")
    expected = np.linspace(0.0, problem.T, grid.size)
    if not np.allclose(grid, expected, rtol=0.0, atol=1e-9 * problem.T):
        raise ValueError("f_grid must be uniform from 0 to T")
    fs = [np.asarray(f, dtype=float) for f in problem.f_sequence]
    if len(fs) < 3:
        raise ValueError("f_sequence needs at least 3 members")
    for f in fs:
        if f.shape != grid.shape:
            raise ValueError("grid mismatch: every f must be sampled on f_grid")
        if np.any(f < 0.0):
            raise ValueError("f_sequence members must be nonnegative")
    return grid, fs


def recurrence_violations(problem, rel_slack=1e-6, abs_slack=1e-12,
                          n_cells=GRID_CELLS):
    """All slack-adjusted violations of the hypothesis and the bound.

    Returns (violations, context): each violation is (kind, n, where,
    excess) with kind "sup-f0"/"sup-f1" (stated M0/M1 too small),
    "recurrence" (convolution inequality fails at grid time t), or
    "bound" (sup f_n exceeds M a_n).  The convolution side is quadrature:
    midpoint f averages against exact-or-midpoint g cell masses, with
    tolerance abs_slack + rel_slack * scale at every comparison.
    """
    grid, fs = _validated_sequence(problem)
    n_f = grid.size - 1
    g_masses = density_cell_masses(problem.g, problem.T, n_cells=n_f)
    big_m = problem.M0 + problem.M1
    a_seq = a_n_sequence(problem, len(fs) - 1, n_cells=n_cells)
    violations = []

    def check(kind, n, where, value, limit):
        tol = abs_slack + rel_slack * max(abs(limit), abs(value))
        if value > limit + tol:
            violations.append((kind, n, where, float(value - limit)))

    check("sup-f0", 0, "sup", float(fs[0].max()), problem.M0)
    check("sup-f1", 1, "sup", float(fs[1].max()), problem.M1)
    for n in range(2, len(fs)):
        phi = fs[n - 1] + fs[n - 2]
        phibar = 0.5 * (phi[:-1] + phi[1:])
        rhs = np.concatenate([[0.0], np.convolve(phibar, g_masses)[:n_f]])
        for j in range(grid.size):
            check("recurrence", n, float(grid[j]), float(fs[n][j]), float(rhs[j]))
    for n, f in enumerate(fs):
        check("bound", n, "sup", float(f.max()), big_m * float(a_seq[n]))
    context = {
        "n_functions": len(fs),
        "grid_points": grid.size,
        "G": float(g_masses.sum()),
        "M": big_m,
    }
    return violations, context


def recurrence_check(problem, rel_slack=1e-6, abs_slack=1e-12,
                     n_cells=GRID_CELLS):
    """VerificationReport over the recurrence hypothesis and the a_n bound.

    computed is the worst absolute excess over all checks (0 when every
    comparison holds within slack), and the first violation, if any, is
    recorded in the digested inputs.
    """
    violations, context = recurrence_violations(
        problem, rel_slack=rel_slack, abs_slack=abs_slack, n_cells=n_cells)
    if violations:
        kind, n, where, _ = violations[0]
        first = f"{kind} at n={n}, {where}"
        worst = max(v[3] for v in violations)
    else:
        first = "none"
        worst = 0.0
    return make_check(
        "gronwall-recurrence-and-bound",
        computed=worst,
        reference=0.0,
        tolerance=0.0,
        inputs={**context, "violations": len(violations), "first_violation": first},
    )
