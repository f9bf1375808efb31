"""Verification records and deterministic report emission.

A VerificationReport row records one numerical check: a computed value, a
reference, and the tolerance or Monte Carlo error that arbitrates it.  The
emitters render a list of rows to JSON, CSV, or a static SVG plot with
byte-for-byte determinism: fixed key order, all floats at 12 significant
digits, no timestamps, no environment leakage.
"""

import hashlib
import math
from dataclasses import dataclass

__all__ = [
    "VerificationReport",
    "PlotSeries",
    "make_check",
    "inputs_digest",
    "format_float",
    "render_json",
    "csv_text",
    "render_csv",
    "render_svg",
    "emit_report",
    "all_passed",
]


def format_float(x):
    """Canonical 12-significant-digit decimal form used in every emitter."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"
    return f"{x:.12g}"


def inputs_digest(params):
    """Short stable digest of a parameter mapping, for report provenance."""
    parts = []
    for key in sorted(params):
        val = params[key]
        if isinstance(val, float):
            val = format_float(val)
        parts.append(f"{key}={val}")
    return hashlib.sha256("&".join(parts).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class VerificationReport:
    """One named check.

    passed holds exactly when |computed - reference| <= tolerance or, when a
    standard error is present, <= 3 standard errors; at least one of the two
    criteria must be supplied.
    """

    check_name: str
    inputs_digest: str
    computed: float
    reference: float
    tolerance: float = None
    standard_error: float = None
    passed: bool = False
    runtime: float = 0.0


def make_check(check_name, computed, reference, tolerance=None,
               standard_error=None, inputs=None, runtime=0.0):
    """Build a VerificationReport, deriving passed from the stated rule."""
    if tolerance is None and standard_error is None:
        raise ValueError(f"{check_name}: need a tolerance or a standard error")
    gap = abs(float(computed) - float(reference))
    ok_tol = tolerance is not None and gap <= float(tolerance)
    ok_se = standard_error is not None and gap <= 3.0 * float(standard_error)
    return VerificationReport(
        check_name=str(check_name),
        inputs_digest=inputs_digest(inputs or {}),
        computed=float(computed),
        reference=float(reference),
        tolerance=None if tolerance is None else float(tolerance),
        standard_error=None if standard_error is None else float(standard_error),
        passed=bool(ok_tol or ok_se),
        runtime=float(runtime),
    )


def all_passed(reports):
    return all(r.passed for r in reports)


def _json_scalar(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        v = format_float(value)
        return f'"{v}"' if v in ("nan", "inf", "-inf") else v
    escaped = (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )
    return f'"{escaped}"'


_REPORT_FIELDS = (
    "check_name", "inputs_digest", "computed", "reference",
    "tolerance", "standard_error", "pass", "runtime",
)


def _report_items(report):
    return (
        report.check_name, report.inputs_digest, report.computed,
        report.reference, report.tolerance, report.standard_error,
        report.passed, report.runtime,
    )


def render_json(reports):
    """Reports as a JSON array of fixed-order objects; returns bytes."""
    rows = []
    for r in reports:
        fields = ",\n    ".join(
            f'"{k}": {_json_scalar(v)}'
            for k, v in zip(_REPORT_FIELDS, _report_items(r))
        )
        rows.append("  {\n    " + fields + "\n  }")
    body = "[]" if not rows else "[\n" + ",\n".join(rows) + "\n]"
    return (body + "\n").encode()


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def csv_text(header, rows):
    """CSV text of a header and rows of cells: floats by format_float,
    bools as true/false, None as an empty cell, anything else by str."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_csv(reports):
    return csv_text(_REPORT_FIELDS, map(_report_items, reports)).encode()


@dataclass(frozen=True)
class PlotSeries:
    """One curve for the SVG renderer.

    axes = "loglog" plots log10 x against log10 y (exponent fits);
    "semilogy" plots x against log10 y (delta-decay curves).  A fitted
    power law may be drawn through the points via slope/intercept (in the
    log-log coordinates), with the annotation printed beside the panel.
    """

    name: str
    x: tuple
    y: tuple
    axes: str = "loglog"
    slope: float = None
    intercept: float = None
    annotation: str = ""


_PANEL_W, _PANEL_H, _MARGIN = 560, 300, 60


def _panel_svg(series, top):
    xs = [float(v) for v in series.x]
    ys = [float(v) for v in series.y]
    pts = [(x, y) for x, y in zip(xs, ys) if y > 0.0 and (series.axes != "loglog" or x > 0.0)]
    if not pts:
        return [f'<text x="{_MARGIN}" y="{top + 40}" class="lbl">{series.name}: no positive data</text>']
    if series.axes == "loglog":
        coords = [(math.log10(x), math.log10(y)) for x, y in pts]
    else:
        coords = [(x, math.log10(y)) for x, y in pts]
    cx = [c[0] for c in coords]
    cy = [c[1] for c in coords]
    x_lo, x_hi = min(cx), max(cx)
    y_lo, y_hi = min(cy), max(cy)
    x_pad = 0.05 * (x_hi - x_lo) or 0.5
    y_pad = 0.05 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v):
        return _MARGIN + (v - x_lo) / (x_hi - x_lo) * _PANEL_W

    def sy(v):
        return top + _PANEL_H - (v - y_lo) / (y_hi - y_lo) * _PANEL_H

    out = [
        f'<rect x="{_MARGIN}" y="{top}" width="{_PANEL_W}" height="{_PANEL_H}" class="frame"/>',
        f'<text x="{_MARGIN}" y="{top - 8}" class="title">{series.name}</text>',
    ]
    for dec in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        out.append(
            f'<line x1="{sx(dec):.2f}" y1="{top}" x2="{sx(dec):.2f}" '
            f'y2="{top + _PANEL_H}" class="grid"/>'
        )
        label = f"1e{dec}" if series.axes == "loglog" else str(dec)
        out.append(
            f'<text x="{sx(dec):.2f}" y="{top + _PANEL_H + 16}" class="lbl" '
            f'text-anchor="middle">{label}</text>'
        )
    for dec in range(math.ceil(y_lo), math.floor(y_hi) + 1):
        out.append(
            f'<line x1="{_MARGIN}" y1="{sy(dec):.2f}" x2="{_MARGIN + _PANEL_W}" '
            f'y2="{sy(dec):.2f}" class="grid"/>'
        )
        out.append(
            f'<text x="{_MARGIN - 6}" y="{sy(dec):.2f}" class="lbl" '
            f'text-anchor="end">1e{dec}</text>'
        )
    path = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in coords)
    out.append(f'<polyline points="{path}" class="data"/>')
    for a, b in coords:
        out.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" class="dot"/>')
    if series.slope is not None and series.intercept is not None:
        ya = series.slope * cx[0] + series.intercept
        yb = series.slope * cx[-1] + series.intercept
        out.append(
            f'<line x1="{sx(cx[0]):.2f}" y1="{sy(ya):.2f}" '
            f'x2="{sx(cx[-1]):.2f}" y2="{sy(yb):.2f}" class="fit"/>'
        )
        out.append(
            f'<text x="{_MARGIN + _PANEL_W - 6}" y="{top + 18}" class="lbl" '
            f'text-anchor="end">slope {format_float(series.slope)}</text>'
        )
    if series.annotation:
        out.append(
            f'<text x="{_MARGIN}" y="{top + _PANEL_H + 34}" class="lbl">'
            f"{series.annotation}</text>"
        )
    return out


def render_svg(plot_series):
    """Static multi-panel SVG of exponent fits and decay curves; bytes."""
    panels = list(plot_series)
    height = _MARGIN + len(panels) * (_PANEL_H + 2 * _MARGIN)
    width = 2 * _MARGIN + _PANEL_W
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<style>"
        ".frame{fill:none;stroke:#333;stroke-width:1}"
        ".grid{stroke:#ddd;stroke-width:1}"
        ".data{fill:none;stroke:#1f77b4;stroke-width:1.5}"
        ".dot{fill:#1f77b4}"
        ".fit{stroke:#d62728;stroke-width:1.5;stroke-dasharray:6 3}"
        ".title{font:14px sans-serif;fill:#111}"
        ".lbl{font:11px sans-serif;fill:#444}"
        "</style>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    top = _MARGIN
    for series in panels:
        body.extend(_panel_svg(series, top))
        top += _PANEL_H + 2 * _MARGIN
    body.append("</svg>")
    return ("\n".join(body) + "\n").encode()


def emit_report(reports, fmt, path, plots=None):
    """Write reports (or plots, for svg-plot) to path; returns the path.

    fmt is one of json, csv, svg-plot.  Output bytes depend only on the
    inputs, so identical calls write identical files.
    """
    if fmt == "json":
        data = render_json(reports)
    elif fmt == "csv":
        data = render_csv(reports)
    elif fmt == "svg-plot":
        data = render_svg(plots if plots is not None else [])
    else:
        raise ValueError(f"format must be json, csv, or svg-plot, got {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(data)
    return path
