"""Aggregated measurement storage.

The paper aggregates OpenINTEL per NSSet in 5-minute intervals (the
RSDoS granularity): domain count, average/min/max RTT, and error counts
(§4.1). Keeping raw per-query rows for 17 months x the namespace is what
the authors used Spark for; this store instead aggregates on ingest —
daily everywhere (for the day-before baselines) and at 5-minute
granularity on *dense* days (days on which an attack touches the NSSet),
which is provably sufficient for every metric in the paper's analysis.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.dns.rcode import ResponseStatus
from repro.util.timeutil import DAY, FIVE_MINUTES, day_start, window_start


class Aggregate:
    """Per-(NSSet, interval) statistics: the §4.1 tuple."""

    __slots__ = ("n", "ok_n", "rtt_sum", "rtt_min", "rtt_max",
                 "timeout_n", "servfail_n", "other_err_n")

    def __init__(self) -> None:
        self.n = 0
        self.ok_n = 0
        #: running sum of OK RTTs.
        self.rtt_sum = 0.0
        self.rtt_min = float("inf")
        self.rtt_max = 0.0
        self.timeout_n = 0
        self.servfail_n = 0
        self.other_err_n = 0

    def add(self, status: ResponseStatus, rtt_ms: float) -> None:
        self.n += 1
        if status is ResponseStatus.OK:
            self.ok_n += 1
            self.rtt_sum += rtt_ms
            if rtt_ms < self.rtt_min:
                self.rtt_min = rtt_ms
            if rtt_ms > self.rtt_max:
                self.rtt_max = rtt_ms
        elif status is ResponseStatus.TIMEOUT:
            self.timeout_n += 1
        elif status is ResponseStatus.SERVFAIL:
            self.servfail_n += 1
        else:
            self.other_err_n += 1

    def merge(self, other: "Aggregate") -> None:
        self.n += other.n
        self.ok_n += other.ok_n
        self.rtt_sum += other.rtt_sum
        self.rtt_min = min(self.rtt_min, other.rtt_min)
        self.rtt_max = max(self.rtt_max, other.rtt_max)
        self.timeout_n += other.timeout_n
        self.servfail_n += other.servfail_n
        self.other_err_n += other.other_err_n

    def copy(self) -> "Aggregate":
        """An independent copy."""
        dup = Aggregate()
        dup.n = self.n
        dup.ok_n = self.ok_n
        dup.rtt_sum = self.rtt_sum
        dup.rtt_min = self.rtt_min
        dup.rtt_max = self.rtt_max
        dup.timeout_n = self.timeout_n
        dup.servfail_n = self.servfail_n
        dup.other_err_n = self.other_err_n
        return dup

    @property
    def errors(self) -> int:
        return self.timeout_n + self.servfail_n + self.other_err_n

    @property
    def failure_rate(self) -> float:
        return self.errors / self.n if self.n else 0.0

    @property
    def avg_rtt(self) -> Optional[float]:
        """Mean RTT over answered (OK) queries; None when all failed."""
        return self.rtt_sum / self.ok_n if self.ok_n else None

    @property
    def is_valid(self) -> bool:
        """Internal consistency check consumed by the degradation paths.

        A corrupt bucket (chaos-injected or genuinely damaged telemetry)
        fails one of these invariants; analyses must skip it and mark
        their output degraded rather than divide by its columns.
        """
        if self.n < 0 or self.ok_n < 0 or self.timeout_n < 0 \
                or self.servfail_n < 0 or self.other_err_n < 0:
            return False
        if self.ok_n + self.timeout_n + self.servfail_n + self.other_err_n \
                != self.n:
            return False
        if not math.isfinite(self.rtt_sum):
            return False
        if self.ok_n and (not math.isfinite(self.rtt_min)
                          or not math.isfinite(self.rtt_max)
                          or self.rtt_min > self.rtt_max):
            return False
        return True

    def state(self) -> Tuple:
        """The aggregate's observable columns, for exact comparison."""
        return (self.n, self.ok_n, self.rtt_sum, self.rtt_min,
                self.rtt_max, self.timeout_n, self.servfail_n,
                self.other_err_n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Aggregate):
            return NotImplemented
        # NaN columns (chaos-corrupted sums) compare equal to themselves
        # so two identically-damaged stores are still equal.
        return all(a == b or (a != a and b != b)
                   for a, b in zip(self.state(), other.state()))

    __hash__ = None  # mutable; equality is by value

    def __repr__(self) -> str:
        avg = f"{self.avg_rtt:.1f}ms" if self.ok_n else "n/a"
        return (f"Aggregate(n={self.n}, ok={self.ok_n}, avg={avg}, "
                f"to={self.timeout_n}, sf={self.servfail_n})")


class MeasurementStore:
    """Daily + dense 5-minute aggregates per NSSet."""

    #: rtt sanity ceiling for ingest: far above any real deadline, low
    #: enough to reject inf/NaN and garbage (comparison-only, hot path).
    MAX_RTT_MS = 1e9

    def __init__(self) -> None:
        self.daily: Dict[Tuple[int, int], Aggregate] = {}
        self.buckets: Dict[Tuple[int, int], Aggregate] = {}
        self.n_measurements = 0
        #: malformed rows rejected at ingest (negative/NaN/inf RTTs).
        self.n_rejected = 0
        #: donor stores folded in via :meth:`merge` (serve's day partitions).
        self.n_merges = 0

    @classmethod
    def deferred(cls, n_measurements: int, n_rejected: int, n_merges: int,
                 n_daily: int, n_buckets: int,
                 build_table: Callable[[str], Dict[Tuple[int, int],
                                                   Aggregate]]
                 ) -> "MeasurementStore":
        """A store with its ingest totals and table row counts set, and
        its ``daily`` and ``buckets`` tables built by
        ``build_table(name)`` the first time something reads them.

        The phase cache restores stores this way: a warm run that never
        reads a table never pays for building it, not even to count it.
        """
        store = cls.__new__(cls)
        store.n_measurements = n_measurements
        store.n_rejected = n_rejected
        store.n_merges = n_merges
        store._unbuilt_rows = {"daily": n_daily, "buckets": n_buckets}
        store._build_table = build_table
        return store

    # Only a deferred store reaches these two: ``__init__``'s instance
    # attributes shadow them, and so does the built table once cached.

    @cached_property
    def daily(self) -> Dict[Tuple[int, int], Aggregate]:
        return self._build_table("daily")

    @cached_property
    def buckets(self) -> Dict[Tuple[int, int], Aggregate]:
        return self._build_table("buckets")

    # -- ingest --------------------------------------------------------------

    def add_fast(self, nsset_id: int, ts: int, status: ResponseStatus,
                 rtt_ms: float, dense: bool) -> None:
        """Allocation-light ingest used by the measurement hot loop.

        Malformed rows are counted and dropped, never aggregated: a NaN
        entering a sum column would silently poison every downstream
        average (the chained comparison below is False for NaN, so NaN,
        inf, and negative RTTs all fail it).
        """
        if not 0.0 <= rtt_ms <= self.MAX_RTT_MS:
            self.n_rejected += 1
            return
        self.n_measurements += 1
        day_key = (nsset_id, ts - ts % DAY)
        agg = self.daily.get(day_key)
        if agg is None:
            agg = Aggregate()
            self.daily[day_key] = agg
        agg.add(status, rtt_ms)
        if dense:
            bucket_key = (nsset_id, ts - ts % FIVE_MINUTES)
            bagg = self.buckets.get(bucket_key)
            if bagg is None:
                bagg = Aggregate()
                self.buckets[bucket_key] = bagg
            bagg.add(status, rtt_ms)

    # -- queries ---------------------------------------------------------------

    def day_aggregate(self, nsset_id: int, day: int) -> Optional[Aggregate]:
        return self.daily.get((nsset_id, day_start(day)))

    def day_avg_rtt(self, nsset_id: int, day: int) -> Optional[float]:
        agg = self.day_aggregate(nsset_id, day)
        return agg.avg_rtt if agg else None

    def baseline_rtt(self, nsset_id: int, ts: int) -> Optional[float]:
        """The §4.1 baseline: average RTT on the *day before* ``ts``."""
        return self.day_avg_rtt(nsset_id, day_start(ts) - DAY)

    def buckets_in(self, nsset_id: int, start: int, end: int
                   ) -> Iterator[Tuple[int, Aggregate]]:
        """(bucket_ts, aggregate) pairs for a NSSet within [start, end)."""
        ts = window_start(start)
        while ts < end:
            agg = self.buckets.get((nsset_id, ts))
            if agg is not None:
                yield ts, agg
            ts += FIVE_MINUTES

    # -- maintenance -----------------------------------------------------------

    def merge(self, other: "MeasurementStore") -> None:
        """Fold another store's aggregates into this one.

        Serve assembles each events partition this way from the crawl
        day partitions it reads. Their keys carry the day or 5-minute
        bucket, so no two partitions share a key.

        Newly-adopted aggregates are *copied*: adopting by reference
        would alias the donor's objects, so a later ``add``/``merge``
        into the combined store would silently mutate the donor too.
        """
        for key, agg in other.daily.items():
            mine = self.daily.get(key)
            if mine is None:
                self.daily[key] = agg.copy()
            else:
                mine.merge(agg)
        for key, agg in other.buckets.items():
            mine = self.buckets.get(key)
            if mine is None:
                self.buckets[key] = agg.copy()
            else:
                mine.merge(agg)
        self.n_measurements += other.n_measurements
        self.n_rejected += other.n_rejected
        self.n_merges += 1 + other.n_merges

    def publish_metrics(self, registry) -> None:
        """Emit ingest/reject/merge totals as ``repro.store.*`` metrics.

        ``registry`` is a :class:`repro.obs.MetricsRegistry` (kept
        untyped here so storage stays import-light). Counters carry the
        lifetime totals; gauges carry the current aggregate population.
        No deferred table is built to publish them.
        """
        if not registry.enabled:
            return
        registry.counter("repro.store.ingested").inc(self.n_measurements)
        registry.counter("repro.store.rejected").inc(self.n_rejected)
        registry.counter("repro.store.merges").inc(self.n_merges)
        registry.gauge("repro.store.daily_aggregates").set(
            self._rows("daily"))
        registry.gauge("repro.store.bucket_aggregates").set(
            self._rows("buckets"))

    def _rows(self, table: str) -> int:
        """A table's row count; a deferred table that was never built
        is counted from its artifact, not built."""
        built = self.__dict__.get(table)
        if built is not None:
            return len(built)
        return self._unbuilt_rows[table]

    def __eq__(self, other: object) -> bool:
        """Exact (bit-for-bit observable) store equality.

        Compares every aggregate's columns with exact float equality —
        the contract the determinism and warm == cold tests assert.
        """
        if not isinstance(other, MeasurementStore):
            return NotImplemented
        return (self.n_measurements == other.n_measurements
                and self.n_rejected == other.n_rejected
                and self.daily == other.daily
                and self.buckets == other.buckets)

    __hash__ = None  # mutable; equality is by value
