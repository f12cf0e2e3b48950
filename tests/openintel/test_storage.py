"""Tests for measurement records and aggregate storage."""

import pytest

from repro.dns.rcode import ResponseStatus
from repro.openintel.records import Measurement
from repro.openintel.storage import Aggregate, MeasurementStore
from repro.util.timeutil import DAY, FIVE_MINUTES, window_start


def _bucket(store, nsset_id, ts):
    """The dense 5-minute aggregate of ``nsset_id`` covering ``ts``."""
    return store.buckets.get((nsset_id, window_start(ts)))


class TestMeasurement:
    def test_ok_property(self):
        m = Measurement(0, 1, 2, ResponseStatus.OK, 10.0)
        assert m.ok
        assert not Measurement(0, 1, 2, ResponseStatus.TIMEOUT, 10.0).ok

    def test_validation(self):
        with pytest.raises(ValueError):
            Measurement(0, 1, 2, ResponseStatus.OK, -1.0)
        with pytest.raises(ValueError):
            Measurement(0, 1, 2, ResponseStatus.OK, 1.0, n_attempts=0)


class TestAggregate:
    def test_ok_statistics(self):
        agg = Aggregate()
        agg.add(ResponseStatus.OK, 10.0)
        agg.add(ResponseStatus.OK, 30.0)
        assert agg.n == 2
        assert agg.avg_rtt == 20.0
        assert agg.rtt_min == 10.0
        assert agg.rtt_max == 30.0
        assert agg.failure_rate == 0.0

    def test_error_counting(self):
        agg = Aggregate()
        agg.add(ResponseStatus.OK, 10.0)
        agg.add(ResponseStatus.TIMEOUT, 15000.0)
        agg.add(ResponseStatus.SERVFAIL, 5.0)
        agg.add(ResponseStatus.NETWORK_ERROR, 0.0)
        assert agg.errors == 3
        assert agg.timeout_n == 1
        assert agg.servfail_n == 1
        assert agg.other_err_n == 1
        assert agg.failure_rate == 0.75

    def test_all_failed_has_no_avg(self):
        agg = Aggregate()
        agg.add(ResponseStatus.TIMEOUT, 15000.0)
        assert agg.avg_rtt is None

    def test_merge(self):
        a = Aggregate()
        a.add(ResponseStatus.OK, 10.0)
        b = Aggregate()
        b.add(ResponseStatus.OK, 30.0)
        b.add(ResponseStatus.TIMEOUT, 1.0)
        a.merge(b)
        assert a.n == 3
        assert a.avg_rtt == 20.0
        assert a.timeout_n == 1

    def test_copy_is_independent(self):
        a = Aggregate()
        a.add(ResponseStatus.OK, 10.0)
        dup = a.copy()
        assert dup == a
        dup.add(ResponseStatus.OK, 99.0)
        assert a.n == 1
        assert a.avg_rtt == 10.0


class TestMeasurementStore:
    def _store(self):
        store = MeasurementStore()
        # Day 0: two quiet measurements. Day 1: one dense one.
        store.add_fast(7, 1000, ResponseStatus.OK, 10.0, False)
        store.add_fast(7, 2000, ResponseStatus.OK, 20.0, False)
        store.add_fast(7, DAY + 500, ResponseStatus.OK, 200.0, True)
        return store

    def test_daily_aggregation(self):
        store = self._store()
        agg = store.day_aggregate(7, 0)
        assert agg.n == 2
        assert agg.avg_rtt == 15.0

    def test_baseline_is_previous_day(self):
        store = self._store()
        assert store.baseline_rtt(7, DAY + 600) == 15.0

    def test_baseline_missing_day(self):
        assert self._store().baseline_rtt(7, 5 * DAY) is None

    def test_bucket_only_when_dense(self):
        store = self._store()
        assert _bucket(store, 7, 1000) is None
        assert _bucket(store, 7, DAY + 500) is not None

    def test_buckets_in_range(self):
        store = MeasurementStore()
        for i in range(5):
            store.add_fast(1, i * FIVE_MINUTES + 10, ResponseStatus.OK,
                           10.0, True)
        buckets = list(store.buckets_in(1, 0, 3 * FIVE_MINUTES))
        assert len(buckets) == 3
        assert [ts for ts, _ in buckets] == [0, FIVE_MINUTES, 2 * FIVE_MINUTES]

    def test_domains_measured(self):
        store = MeasurementStore()
        for i in range(7):
            store.add_fast(1, 100 + i, ResponseStatus.OK, 10.0, True)
        assert sum(agg.n for _, agg in store.buckets_in(1, 0, FIVE_MINUTES)) == 7

    def test_n_measurements(self):
        assert self._store().n_measurements == 3

    def test_merge_stores(self):
        a = self._store()
        b = self._store()
        a.merge(b)
        assert a.n_measurements == 6
        assert a.day_aggregate(7, 0).n == 4
        assert _bucket(a, 7, DAY + 500).n == 2

    def test_merge_does_not_alias_donor_aggregates(self):
        # Regression: merge used to adopt the donor's Aggregate objects
        # by reference for new keys, so a later add into the combined
        # store silently mutated the donor too.
        donor = self._store()
        combined = MeasurementStore()
        combined.merge(donor)
        before = donor.day_aggregate(7, 0).state()
        combined.add_fast(7, 1500, ResponseStatus.OK, 500.0, False)
        combined.day_aggregate(7, 0).add(ResponseStatus.TIMEOUT, 1.0)
        assert donor.day_aggregate(7, 0).state() == before
        # ... and the same for dense buckets.
        bucket_before = _bucket(donor, 7, DAY + 500).state()
        combined.add_fast(7, DAY + 510, ResponseStatus.OK, 9.0, True)
        assert _bucket(donor, 7, DAY + 500).state() == bucket_before

    def test_merge_into_populated_store_leaves_donor_alone(self):
        a = self._store()
        b = self._store()
        before = b.day_aggregate(7, 0).state()
        a.merge(b)
        a.day_aggregate(7, 0).add(ResponseStatus.OK, 123.0)
        assert b.day_aggregate(7, 0).state() == before

    def test_store_equality(self):
        assert self._store() == self._store()
        other = self._store()
        other.add_fast(7, 3000, ResponseStatus.OK, 11.0, False)
        assert self._store() != other

    def test_rejected_rows_counted_not_aggregated(self):
        store = self._store()
        store.add_fast(7, 4000, ResponseStatus.OK, float("nan"), False)
        store.add_fast(7, 4000, ResponseStatus.OK, -5.0, False)
        store.add_fast(7, 4000, ResponseStatus.OK,
                       MeasurementStore.MAX_RTT_MS * 2, False)
        assert store.n_rejected == 3
        assert store.n_measurements == 3
        assert store.day_aggregate(7, 0).is_valid

    def test_separate_nssets(self):
        store = MeasurementStore()
        store.add_fast(1, 100, ResponseStatus.OK, 10.0, False)
        store.add_fast(2, 100, ResponseStatus.OK, 99.0, False)
        assert store.day_avg_rtt(1, 0) == 10.0
        assert store.day_avg_rtt(2, 0) == 99.0
