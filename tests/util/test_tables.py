"""Tests for table rendering."""

import pytest

from repro.util.tables import (
    Table,
    format_bps,
    format_count,
    format_pct,
    format_si,
)


class TestFormatters:
    def test_count(self):
        assert format_count(4039485) == "4,039,485"

    def test_count_rounds(self):
        assert format_count(12.7) == "13"

    def test_pct(self):
        assert format_pct(0.0121) == "1.21%"

    def test_pct_digits(self):
        assert format_pct(0.5, digits=0) == "50%"

    def test_si_thousands(self):
        assert format_si(21800) == "21.8K"

    def test_si_millions(self):
        assert format_si(7_000_000) == "7M"

    def test_si_small(self):
        assert format_si(42) == "42"

    def test_bps_gbps(self):
        assert format_bps(1.4e9) == "1.4 Gbps"

    def test_bps_mbps(self):
        assert format_bps(247e6) == "247 Mbps"


class TestTable:
    def test_render_includes_headers_and_rows(self):
        table = Table(["a", "b"], title="T")
        table.add_row(["x", 1])
        rendered = table.render()
        assert "T" in rendered
        assert "a" in rendered and "b" in rendered
        assert "x" in rendered

    def test_rejects_wrong_arity(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(["only one"])

    def test_number_formatting(self):
        table = Table(["n"])
        table.add_row([1234567])
        assert "1,234,567" in table.render()

    def test_alignment_consistent(self):
        table = Table(["col"])
        table.add_row(["short"])
        table.add_row(["a much longer cell"])
        lines = table.render().splitlines()
        data_lines = lines[1:]  # skip title-less header
        widths = {len(line) for line in data_lines}
        assert len(widths) == 1

    def test_separator(self):
        table = Table(["a"])
        table.add_row(["x"])
        table.add_separator()
        table.add_row(["y"])
        assert table.render().count("---") >= 1

    def test_caption(self):
        table = Table(["a"])
        table.caption = "the caption"
        table.add_row(["x"])
        assert table.render().endswith("the caption")
