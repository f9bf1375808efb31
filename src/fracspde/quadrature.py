"""Panel quadrature helpers for power-law singularities and slow cosine tails.

The package integrates with numpy alone, and these helpers serve its
quadratures: the kernel checks, which integrate the same singular-weight
integrand at many parameter values, the Sobolev identities, the Peszat probe
and the spectral truncation tail.  Fixed-order Gauss-Legendre panels on
graded edges do that predictably: grade the edges geometrically toward the
singularity so each panel sees a smooth integrand, then apply one dense rule
per panel.  Oscillatory integrands get uniform panels a fraction of a
wavelength wide, and an infinite cosine or sine tail gets the asymptotic form
of oscillatory_power_tail.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "geometric_edges",
    "oscillation_edges",
    "graded_oscillation_edges",
    "gauss_panels",
    "oscillatory_power_tail",
]

_RULE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _RULE_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _RULE_CACHE[order] = (x, w)
    return _RULE_CACHE[order]


def geometric_edges(lo: float, hi: float, panels_per_decade: int = 40) -> np.ndarray:
    """Geometrically graded panel edges from lo to hi (both positive).

    panels_per_decade controls the grading: 40 panels per decade keeps the
    relative width of every panel near 5.9%, small enough that a power-law
    factor x^gamma varies smoothly inside each panel for any |gamma| < 4.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
    n = max(1, int(np.ceil(panels_per_decade * np.log10(hi / lo))))
    return np.geomspace(lo, hi, n + 1)


def oscillation_edges(lo: float, hi: float, wavelength: float, points_per_cycle: int = 4) -> np.ndarray:
    """Uniform panel edges sized to resolve an oscillation of given wavelength.

    Panel width is wavelength / points_per_cycle, capped so the total panel
    count stays sane; the caller is responsible for keeping hi - lo finite.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got lo={lo!r} hi={hi!r}")
    width = wavelength / points_per_cycle
    n = max(1, int(np.ceil((hi - lo) / width)))
    return np.linspace(lo, hi, n + 1)


def graded_oscillation_edges(
    lo: float,
    hi: float,
    wavelength: float,
    points_per_cycle: int = 4,
    panels_per_decade: int = 40,
) -> np.ndarray:
    """Geometric grading near zero, then uniform oscillation-resolving panels.

    Integrands of the form (power law) x (trig factors) need both: geometric
    panels resolve the power-law scale structure below one panel step, and
    uniform panels of width wavelength / points_per_cycle resolve the
    oscillation out to hi.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
    if not wavelength > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength!r}")
    step = wavelength / points_per_cycle
    if hi <= step:
        return geometric_edges(lo, hi, panels_per_decade)
    if lo >= step:
        # already past the power-law scale structure; uniform panels suffice
        n = int(np.ceil((hi - lo) / step))
        return lo + (hi - lo) * np.arange(n + 1) / n
    head = geometric_edges(lo, step, panels_per_decade)
    n = int(np.ceil((hi - step) / step))
    body = step + (hi - step) * np.arange(1, n + 1) / n
    return np.concatenate([head, body])


def oscillatory_power_tail(kind: str, freq: float, power: float, cutoff: float) -> float:
    """Two-term asymptotic value of int_X^inf trig(c xi) xi^p d xi.

    Integration by parts twice gives, for p < -1 and c X >> 1,

        cos:  -X^p sin(cX)/c - p X^(p-1) cos(cX)/c^2 + O(|p(p-1)| X^(p-1)/c^3)
        sin:   X^p cos(cX)/c - p X^(p-1) sin(cX)/c^2 + O(|p(p-1)| X^(p-1)/c^3)

    Callers must keep c X of order 50 or more for the neglected term to be
    harmless; this routine only validates signs and ranges.
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if not freq > 0.0:
        raise ValueError(f"freq must be positive, got {freq!r}")
    if not power < -1.0:
        raise ValueError(f"power must be below -1, got {power!r}")
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff!r}")
    phase = freq * cutoff
    lead = cutoff**power / freq
    corr = power * cutoff ** (power - 1.0) / (freq * freq)
    if kind == "cos":
        return -lead * np.sin(phase) - corr * np.cos(phase)
    return lead * np.cos(phase) - corr * np.sin(phase)


def gauss_panels(f, edges: np.ndarray, order: int = 12) -> float:
    """Integrate f over consecutive panels with an order-point Gauss rule each.

    f must accept a 1-D ndarray of nodes and return values of the same shape.
    All panels are evaluated in one vectorised call.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a 1-D array with at least two entries")
    x, w = _rule(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return float(np.sum(vals @ w * half))
