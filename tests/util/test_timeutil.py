"""Tests for the time axis."""

import pytest
from hypothesis import given, strategies as st

from repro.util.timeutil import (
    DAY,
    FIVE_MINUTES,
    Timeline,
    Window,
    day_start,
    format_ts,
    iter_days,
    iter_windows,
    month_key,
    parse_ts,
    window_start,
)

TS = st.integers(min_value=0, max_value=2 ** 33)


class TestParseFormat:
    def test_parse_date_only(self):
        assert parse_ts("2020-11-01") == 1604188800

    def test_parse_with_time(self):
        assert parse_ts("2020-11-01 00:05") == 1604188800 + 300

    def test_parse_with_seconds(self):
        assert parse_ts("2020-11-01 00:00:30") == 1604188830

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_ts("not a date")

    @given(TS)
    def test_roundtrip_to_minute(self, ts):
        ts -= ts % 60
        assert parse_ts(format_ts(ts)) == ts


class TestWindowStart:
    @given(TS)
    def test_five_minute_alignment(self, ts):
        start = window_start(ts)
        assert start % FIVE_MINUTES == 0
        assert start <= ts < start + FIVE_MINUTES

    @given(TS)
    def test_day_alignment(self, ts):
        start = day_start(ts)
        assert start % DAY == 0
        assert start <= ts < start + DAY

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            window_start(100, 0)

    @given(TS)
    def test_idempotent(self, ts):
        assert window_start(window_start(ts)) == window_start(ts)


class TestIterWindows:
    def test_covers_interval(self):
        windows = list(iter_windows(0, 1500))
        assert windows == [0, 300, 600, 900, 1200]

    def test_unaligned_start(self):
        windows = list(iter_windows(250, 650))
        assert windows == [0, 300, 600]

    def test_empty_when_end_before_start(self):
        assert list(iter_windows(600, 300)) == []

    def test_iter_days(self):
        days = list(iter_days(parse_ts("2021-01-01"), parse_ts("2021-01-04")))
        assert len(days) == 3
        assert all(d % DAY == 0 for d in days)


class TestWindow:
    def test_duration(self):
        assert Window(0, 3600).duration == 3600

    def test_contains_half_open(self):
        w = Window(100, 200)
        assert w.contains(100)
        assert w.contains(199)
        assert not w.contains(200)
        assert not w.contains(99)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Window(200, 100)

    def test_expand(self):
        w = Window(1000, 2000).expand(after=200)
        assert (w.start, w.end) == (1000, 2200)

    def test_buckets(self):
        w = Window(100, 700)
        assert list(w.buckets()) == [0, 300, 600]


class TestMonthKey:
    def test_basic(self):
        assert month_key(parse_ts("2021-03-15 12:00")) == (2021, 3)

    def test_month_boundary(self):
        assert month_key(parse_ts("2021-04-01") - 1) == (2021, 3)
        assert month_key(parse_ts("2021-04-01")) == (2021, 4)


class TestTimeline:
    def test_paper_window_is_17_months(self):
        assert len(list(Timeline().months())) == 17

    def test_paper_window_days(self):
        # Nov 2020 .. Mar 2022 inclusive: 516 days.
        assert len(list(Timeline().days())) == 516

    def test_months_in_order(self):
        months = list(Timeline().months())
        assert months[0] == (2020, 11)
        assert months[-1] == (2022, 3)
        assert sorted(set(months), key=lambda m: (m[0], m[1])) == months

    def test_contains(self):
        timeline = Timeline()
        assert parse_ts("2021-06-15") in timeline
        assert parse_ts("2022-04-01") not in timeline

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Timeline("2021-01-01", "2020-01-01")
