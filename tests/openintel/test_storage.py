"""Tests for aggregate storage."""


from repro.dns.rcode import ResponseStatus
from repro.openintel.storage import Aggregate, MeasurementStore
from repro.util.timeutil import DAY, FIVE_MINUTES, window_start


def _bucket(store, nsset_id, ts):
    """The dense 5-minute aggregate of ``nsset_id`` covering ``ts``."""
    return store.buckets.get((nsset_id, window_start(ts)))


class TestAggregate:
    def test_ok_statistics(self):
        agg = Aggregate()
        agg.add(ResponseStatus.OK, 10.0)
        agg.add(ResponseStatus.OK, 30.0)
        assert agg.n == 2
        assert agg.avg_rtt == 20.0
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


class _Draws:
    """A stand-in for the crawl's quiet-day draws: every cell is two OK
    rows of 10 and 30 ms, and each draw is logged."""

    def __init__(self, filled):
        self.filled = filled

    def draw(self, key):
        self.filled.append(key)
        agg = Aggregate()
        agg.add(ResponseStatus.OK, 10.0)
        agg.add(ResponseStatus.OK, 30.0)
        return agg


class TestDeferredCells:
    """A deferred daily cell is drawn by the store's ``quiet`` on its
    first value read, once, and never by a read of the keys."""

    @staticmethod
    def _store():
        filled = []
        store = MeasurementStore(quiet=_Draws(filled))
        store.defer((1, 0), 2)
        store.defer((2, 0), 2)
        return store, filled

    def test_keys_len_and_del_draw_nothing(self):
        store, filled = self._store()
        assert store.n_measurements == 4
        assert sorted(store.daily) == [(1, 0), (2, 0)]
        assert len(store.daily) == 2 and (1, 0) in store.daily
        del store.daily[(2, 0)]
        assert (2, 0) not in store.daily
        assert filled == []

    def test_a_cell_is_drawn_once_on_first_read(self):
        store, filled = self._store()
        assert store.day_avg_rtt(1, 0) == 20.0
        assert store.day_aggregate(1, 0) is store.daily[(1, 0)]
        assert store.day_aggregate(3, 0) is None
        assert filled == [(1, 0)]
        assert [agg.n for agg in store.daily.values()] == [2, 2]
        assert filled == [(1, 0), (2, 0)]

    def test_a_row_for_a_deferred_cell_is_added_to_its_draw(self):
        store, filled = self._store()
        store.add_fast(1, 100, ResponseStatus.OK, 20.0, False)
        assert filled == [(1, 0)]
        assert store.daily[(1, 0)].state() == (3, 3, 60.0, 0, 0, 0)
        assert store.n_measurements == 5

    def test_equality_and_merge_draw_every_cell(self):
        store, filled = self._store()
        twin, _ = self._store()
        assert store == twin
        merged = MeasurementStore()
        merged.merge(store)
        assert merged.daily == twin.daily
        assert merged.n_measurements == 4
        assert sorted(filled) == [(1, 0), (2, 0)]

    def test_split_keeps_unchanged_draws_deferred(self):
        store, filled = self._store()
        store.daily[(1, 0)]
        keys, aggregates = store.daily.split()
        assert keys == [(1, 0), (2, 0)] and aggregates == {}
        assert filled == [(1, 0)]

    def test_split_gives_changed_cells_as_aggregates(self):
        store, _ = self._store()
        store.defer((3, 0), 2)
        store.add_fast(1, 100, ResponseStatus.OK, 20.0, False)
        donor = MeasurementStore()
        donor.add_fast(2, 100, ResponseStatus.TIMEOUT, 0.0, False)
        store.merge(donor)
        replaced = Aggregate()
        store.daily[(3, 0)] = replaced
        keys, aggregates = store.daily.split()
        assert keys == []
        assert aggregates[(1, 0)].state() == (3, 3, 60.0, 0, 0, 0)
        assert aggregates[(2, 0)].state() == (3, 2, 40.0, 1, 0, 0)
        assert aggregates[(3, 0)] is replaced
