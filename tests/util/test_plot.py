"""Tests for the ASCII plotting helpers."""

import pytest

from repro.util.plot import ascii_scatter, ascii_series


class TestScatter:
    def test_empty(self):
        assert "(no data)" in ascii_scatter([], [], title="T")

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ascii_scatter([1], [1, 2])

    def test_contains_markers(self):
        text = ascii_scatter([1, 2, 3], [1, 2, 3], width=20, height=8)
        assert text.count("o") == 3

    def test_density_escalation(self):
        text = ascii_scatter([1, 1, 1], [1, 1, 1], width=10, height=5)
        assert "@" in text

    def test_log_axes(self):
        text = ascii_scatter([1, 10, 100, 1000], [1, 10, 100, 1000],
                             log_x=True, log_y=True, width=30, height=9)
        assert "1e+0" in text and "1e+3" in text

    def test_title_and_labels(self):
        text = ascii_scatter([1, 2], [3, 4], title="My Plot",
                             x_label="dur", y_label="impact")
        assert text.startswith("My Plot")
        assert "dur" in text and "impact" in text

    def test_geometry(self):
        text = ascii_scatter([1, 2], [1, 2], width=25, height=7)
        plot_rows = [l for l in text.splitlines() if "|" in l]
        assert len(plot_rows) == 7


class TestSeries:
    def test_empty(self):
        assert "(no data)" in ascii_series([], title="S")

    def test_column_shape(self):
        points = [(i, i) for i in range(50)]
        text = ascii_series(points, width=25, height=6)
        rows = [l for l in text.splitlines() if "|" in l]
        assert len(rows) == 6
        # Rising series: the top row has hashes only on the right side.
        top = rows[0].split("|")[1]
        assert top.strip().startswith("#") is False or \
            top.index("#") > len(top) // 2

    def test_axis_labels(self):
        text = ascii_series([(0, 1.0), (10, 100.0)], log_y=True)
        assert "1e+2" in text
