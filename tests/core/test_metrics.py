"""Tests for Equation 1 and the impact series machinery."""

import pytest

from repro.core.metrics import (
    compute_baseline,
    impact_on_rtt,
    impact_series,
)
from repro.dns.rcode import ResponseStatus
from repro.openintel.storage import MeasurementStore
from repro.util.timeutil import DAY, FIVE_MINUTES, Window


class TestImpactOnRtt:
    def test_equation_one(self):
        assert impact_on_rtt(200.0, 20.0) == 10.0

    def test_none_propagates(self):
        assert impact_on_rtt(None, 20.0) is None
        assert impact_on_rtt(200.0, None) is None

    def test_zero_baseline(self):
        assert impact_on_rtt(200.0, 0.0) is None


def _store_with_attack_day():
    """Day 0: quiet baseline at 20 ms. Day 1: an attack window where RTT
    rises to 200 ms in one bucket with some timeouts."""
    store = MeasurementStore()
    for i in range(20):
        store.add_fast(1, 1000 + i, ResponseStatus.OK, 20.0, False)
    attack_ts = DAY + 6 * FIVE_MINUTES
    for i in range(8):
        store.add_fast(1, attack_ts + i, ResponseStatus.OK, 200.0, True)
    for i in range(2):
        store.add_fast(1, attack_ts + 10 + i, ResponseStatus.TIMEOUT,
                       15000.0, True)
    # A later healthy bucket.
    for i in range(5):
        store.add_fast(1, attack_ts + 2 * FIVE_MINUTES + i,
                       ResponseStatus.OK, 22.0, True)
    return store, attack_ts


class TestComputeBaseline:
    def test_day_baseline(self):
        store, attack_ts = _store_with_attack_day()
        assert compute_baseline(store, 1, attack_ts, "day") == 20.0

    def test_missing_baseline(self):
        store, _ = _store_with_attack_day()
        assert compute_baseline(store, 1, 10 * DAY, "day") is None

    def test_week_baseline_averages_days(self):
        store = MeasurementStore()
        store.add_fast(1, 100, ResponseStatus.OK, 10.0, False)          # day 0
        store.add_fast(1, DAY + 100, ResponseStatus.OK, 30.0, False)    # day 1
        assert compute_baseline(store, 1, 2 * DAY + 5, "week") == 20.0

    def test_unknown_kind(self):
        store, _ = _store_with_attack_day()
        with pytest.raises(ValueError):
            compute_baseline(store, 1, DAY, "fortnight")


class TestImpactSeries:
    def _series(self):
        store, attack_ts = _store_with_attack_day()
        window = Window(attack_ts, attack_ts + 3 * FIVE_MINUTES)
        return impact_series(store, 1, window)

    def test_baseline_from_day_before(self):
        series = self._series()
        assert series.baseline_rtt == 20.0

    def test_points_per_bucket(self):
        series = self._series()
        assert len(series.points) == 2  # attack bucket + recovery bucket

    def test_max_impact(self):
        series = self._series()
        assert series.max_impact == pytest.approx(10.0)

    def test_mean_impact_below_max(self):
        series = self._series()
        assert series.mean_impact < series.max_impact

    def test_counts(self):
        series = self._series()
        assert series.n_measured == 15
        assert series.n_failed == 2
        assert series.n_timeouts == 2
        assert series.n_servfails == 0
        assert series.failure_rate == pytest.approx(2 / 15)

    def test_no_baseline_means_no_impact(self):
        store = MeasurementStore()
        store.add_fast(1, 100, ResponseStatus.OK, 20.0, True)
        series = impact_series(store, 1, Window(0, FIVE_MINUTES))
        assert series.baseline_rtt is None
        assert series.max_impact is None
        assert series.n_measured == 1

    def test_empty_window(self):
        store, _ = _store_with_attack_day()
        series = impact_series(store, 1, Window(5 * DAY, 5 * DAY + 100))
        assert series.points == []
        assert series.failure_rate == 0.0
