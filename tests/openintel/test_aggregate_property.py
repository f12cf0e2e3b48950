"""Property tests for the aggregate storage invariants."""

from hypothesis import given, settings, strategies as st

from repro.dns.rcode import ResponseStatus
from repro.openintel.storage import Aggregate, MeasurementStore
from repro.util.timeutil import DAY

STATUS = st.sampled_from([ResponseStatus.OK, ResponseStatus.TIMEOUT,
                          ResponseStatus.SERVFAIL,
                          ResponseStatus.NETWORK_ERROR])
RTT = st.floats(min_value=0.1, max_value=20_000, allow_nan=False)
SAMPLE = st.tuples(STATUS, RTT)


class TestAggregateProperties:
    @settings(max_examples=80)
    @given(st.lists(SAMPLE, min_size=1, max_size=80))
    def test_counts_partition(self, samples):
        agg = Aggregate()
        for status, rtt in samples:
            agg.add(status, rtt)
        assert agg.n == len(samples)
        assert agg.ok_n + agg.errors == agg.n
        assert agg.timeout_n + agg.servfail_n + agg.other_err_n == agg.errors

    @settings(max_examples=80)
    @given(st.lists(SAMPLE, min_size=1, max_size=80))
    def test_avg_within_bounds(self, samples):
        agg = Aggregate()
        for status, rtt in samples:
            agg.add(status, rtt)
        ok_rtts = [rtt for status, rtt in samples
                   if status is ResponseStatus.OK]
        if agg.ok_n:
            assert min(ok_rtts) - 1e-9 <= agg.avg_rtt <= max(ok_rtts) + 1e-9
        else:
            assert agg.avg_rtt is None

    @settings(max_examples=60)
    @given(st.lists(SAMPLE, max_size=50), st.lists(SAMPLE, max_size=50))
    def test_merge_equals_combined(self, left_samples, right_samples):
        left = Aggregate()
        for status, rtt in left_samples:
            left.add(status, rtt)
        right = Aggregate()
        for status, rtt in right_samples:
            right.add(status, rtt)
        combined = Aggregate()
        for status, rtt in left_samples + right_samples:
            combined.add(status, rtt)
        left.merge(right)
        assert left.n == combined.n
        assert left.ok_n == combined.ok_n
        assert left.timeout_n == combined.timeout_n
        if combined.ok_n:
            assert abs(left.avg_rtt - combined.avg_rtt) < 1e-6


class TestStoreProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.integers(0, 3 * DAY - 1),
                              STATUS, RTT, st.booleans()),
                    max_size=120))
    def test_daily_totals_match_ingest(self, rows):
        store = MeasurementStore()
        for nsset_id, ts, status, rtt, dense in rows:
            store.add_fast(nsset_id, ts, status, rtt, dense)
        assert store.n_measurements == len(rows)
        daily_total = sum(agg.n for agg in store.daily.values())
        assert daily_total == len(rows)
        # Bucket totals never exceed daily totals (buckets are a subset).
        bucket_total = sum(agg.n for agg in store.buckets.values())
        dense_rows = sum(1 for *_, dense in rows if dense)
        assert bucket_total == dense_rows

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3 * DAY - 1), STATUS, RTT),
                    min_size=1, max_size=100))
    def test_buckets_in_covers_all_dense(self, rows):
        store = MeasurementStore()
        for ts, status, rtt in rows:
            store.add_fast(1, ts, status, rtt, True)
        covered = sum(agg.n for _, agg in store.buckets_in(1, 0, 3 * DAY))
        assert covered == len(rows)
