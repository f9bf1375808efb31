"""Tests for verification records and deterministic report emission.

The emitters promise byte-for-byte determinism: fixed key order, canonical
float formatting, no timestamps.  The digest oracle is frozen from the
documented construction (sorted key=value pairs joined by '&', sha256,
first 12 hex digits).
"""

import hashlib
import json
import math

import numpy as np
import pytest

from fracspde.report import (
    PlotSeries,
    all_passed,
    csv_text,
    emit_report,
    format_float,
    inputs_digest,
    make_check,
    render_csv,
    render_json,
    render_svg,
)


class TestFormatFloat:
    def test_canonical_cases(self):
        assert format_float(0.0) == "0"
        assert format_float(-0.0) == "0"
        assert format_float(math.pi) == "3.14159265359"
        assert format_float(1e-7) == "1e-07"
        assert format_float(-1.5e300) == "-1.5e+300"
        assert format_float(math.nan) == "nan"
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"

    def test_twelve_digit_collapse(self):
        # values equal at 12 significant digits share a representation
        assert format_float(0.1 + 0.2) == format_float(0.3) == "0.3"


class TestInputsDigest:
    def test_frozen_value(self):
        assert inputs_digest({"eq": "wave", "h": "0.3"}) == "2cabf9c3e3bf"

    def test_key_order_independent(self):
        a = inputs_digest({"a": 1, "b": 2, "c": "x"})
        b = inputs_digest({"c": "x", "b": 2, "a": 1})
        assert a == b

    def test_float_canonicalisation(self):
        assert inputs_digest({"x": 0.1 + 0.2}) == inputs_digest({"x": 0.3})

    def test_sensitive_to_values(self):
        assert inputs_digest({"a": 1}) != inputs_digest({"a": 2})

    def test_matches_documented_construction(self):
        params = {"h": 0.35, "n": 100}
        manual = hashlib.sha256(
            f"h={format_float(0.35)}&n=100".encode()).hexdigest()[:12]
        assert inputs_digest(params) == manual


class TestMakeCheck:
    def test_tolerance_rule(self):
        ok = make_check("c", computed=1.05, reference=1.0, tolerance=0.1)
        bad = make_check("c", computed=1.25, reference=1.0, tolerance=0.1)
        assert ok.passed and not bad.passed

    def test_standard_error_rule(self):
        ok = make_check("c", computed=1.25, reference=1.0, standard_error=0.1)
        bad = make_check("c", computed=1.35, reference=1.0, standard_error=0.1)
        assert ok.passed and not bad.passed

    def test_either_rule_suffices(self):
        rep = make_check("c", computed=1.25, reference=1.0,
                         tolerance=0.05, standard_error=0.1)
        assert rep.passed

    def test_requires_a_criterion(self):
        with pytest.raises(ValueError, match="tolerance or a standard error"):
            make_check("c", computed=1.0, reference=1.0)

    def test_all_passed(self):
        good = make_check("a", 1.0, 1.0, tolerance=0.1)
        bad = make_check("b", 2.0, 1.0, tolerance=0.1)
        assert all_passed([good])
        assert not all_passed([good, bad])
        assert all_passed([])


def sample_reports():
    return [
        make_check("alpha", computed=0.7012, reference=0.7, tolerance=0.05,
                   inputs={"h": 0.35}, runtime=1.25),
        make_check("beta", computed=3.4, reference=3.0, standard_error=0.05,
                   inputs={"n": 100}),
        make_check("gamma", computed=math.nan, reference=1.0, tolerance=0.1),
    ]


class TestRenderJson:
    def test_deterministic_bytes(self):
        assert render_json(sample_reports()) == render_json(sample_reports())

    def test_parses_with_fixed_fields(self):
        rows = json.loads(render_json(sample_reports()))
        assert [r["check_name"] for r in rows] == ["alpha", "beta", "gamma"]
        assert rows[0]["pass"] is True
        assert rows[1]["pass"] is False
        assert rows[0]["tolerance"] == 0.05
        assert rows[0]["standard_error"] is None
        assert rows[2]["computed"] == "nan"
        assert list(rows[0]) == [
            "check_name", "inputs_digest", "computed", "reference",
            "tolerance", "standard_error", "pass", "runtime",
        ]

    def test_empty(self):
        assert render_json([]) == b"[]\n"


class TestRenderCsv:
    def test_deterministic_bytes(self):
        assert render_csv(sample_reports()) == render_csv(sample_reports())

    def test_layout(self):
        lines = render_csv(sample_reports()).decode().splitlines()
        assert lines[0] == ("check_name,inputs_digest,computed,reference,"
                            "tolerance,standard_error,pass,runtime")
        assert len(lines) == 4
        alpha = lines[1].split(",")
        assert alpha[0] == "alpha"
        assert alpha[2] == "0.7012"
        assert alpha[5] == ""  # no standard error
        assert alpha[6] == "true"
        beta = lines[2].split(",")
        assert beta[4] == "" and beta[6] == "false"


class TestCsvText:
    SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
               2.2250738585072014e-308, 1e16, -1e16, 3.0, -7.0, 1e15 + 1.0, 2.0**53,
               0.1 + 0.2, math.pi, -1.5e300, 1e-7, 123456789012.5, 0.5]

    def test_float_block_matches_format_float_cell_for_cell(self):
        block = np.array(self.SPECIAL).reshape(-1, 3)
        text = csv_text(("a", "b", "c"), block)
        lines = text.splitlines()
        assert text.endswith("\n") and lines[0] == "a,b,c"
        cells = [line.split(",") for line in lines[1:]]
        assert cells == [[format_float(v) for v in row] for row in block.tolist()]
        # and byte for byte the cell-by-cell path
        assert text == csv_text(("a", "b", "c"), block.tolist())

    @pytest.mark.parametrize("shape", [(0, 3), (4, 1), (3, 0)])
    def test_float_block_edge_shapes(self, shape):
        block = np.arange(float(np.prod(shape))).reshape(shape) - 1.0
        assert csv_text(("x",), block) == csv_text(("x",), block.tolist())

    def test_other_arrays_go_cell_by_cell(self):
        # float32 cells are not floats, so they keep the str route
        block = np.array([[0.1, -0.0]], dtype=np.float32)
        assert csv_text(("a", "b"), block) == "a,b\n" + ",".join(str(v) for v in block[0]) + "\n"


def fit_series():
    lags = (0.1, 0.05, 0.025, 0.0125)
    moments = tuple(0.4 * lag**0.7 for lag in lags)
    return PlotSeries(name="wave-space", x=lags, y=moments, axes="loglog",
                      slope=0.7, intercept=math.log10(0.4),
                      annotation="slope 0.7 +- 0.01, r2 1.0")


class TestRenderSvg:
    def test_deterministic_bytes(self):
        a = render_svg([fit_series()])
        b = render_svg([fit_series()])
        assert a == b

    def test_fit_line_and_annotation(self):
        svg = render_svg([fit_series()]).decode()
        assert svg.startswith("<svg")
        assert 'class="fit"' in svg
        assert "slope 0.7" in svg
        assert "wave-space" in svg
        assert "r2 1.0" in svg
        assert svg.count('class="dot"') == 4

    def test_semilogy_panel(self):
        series = PlotSeries(name="delta-decay", x=(1.0, 2.0, 3.0),
                            y=(0.1, 0.01, 0.001), axes="semilogy")
        svg = render_svg([series]).decode()
        assert "delta-decay" in svg
        assert 'class="fit"' not in svg

    def test_no_positive_data(self):
        series = PlotSeries(name="flat", x=(1.0, 2.0), y=(0.0, 0.0))
        svg = render_svg([series]).decode()
        assert "no positive data" in svg

    def test_multi_panel(self):
        svg = render_svg([fit_series(), fit_series()]).decode()
        assert svg.count("wave-space") == 2


class TestEmitReport:
    def test_writes_each_format(self, tmp_path):
        reports = sample_reports()
        for fmt, renderer in (("json", render_json), ("csv", render_csv)):
            path = tmp_path / f"out.{fmt}"
            emit_report(reports, fmt, path)
            assert path.read_bytes() == renderer(reports)
        path = tmp_path / "out.svg"
        emit_report([], "svg-plot", path, plots=[fit_series()])
        assert path.read_bytes() == render_svg([fit_series()])

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format must be"):
            emit_report([], "yaml", tmp_path / "x")
