"""Aggregated measurement storage.

The paper aggregates OpenINTEL per NSSet in 5-minute intervals (the
RSDoS granularity) and reads domain counts, average RTTs and error
counts from them (§4.1). An :class:`Aggregate` keeps exactly that
count/sum/error tuple. It keeps no minimum or maximum RTT: the impact
metric is a ratio of average RTTs, so nothing reads an extreme, and a
count or a sum can be drawn for a whole (NSSet, interval) at once where
a per-row extreme cannot.

Keeping raw per-query rows for 17 months x the namespace is what
the authors used Spark for; this store instead keeps aggregates only —
daily everywhere (for the day-before baselines) and at 5-minute
granularity on *dense* days (days on which an attack touches the NSSet),
which is provably sufficient for every metric in the paper's analysis.

Most rows are aggregated on ingest. A quiet day of an NSSet the crawl
answers in closed form is *deferred* instead: the crawl counts its rows
and records its key, and the :class:`DailyTable` draws the cell's
aggregate the first time something reads it. The §4.1 impact metric
reads a daily aggregate only for the day before an impact window, so a
study draws few of those cells. Saving a store draws none: the phase
cache writes each deferred cell as its key, with the few inputs its
draw reads, and a loaded store draws it on first read as the crawl
would have.
"""

from __future__ import annotations

import math
import random
from collections.abc import MutableMapping
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.dns.rcode import ResponseStatus
from repro.util.rng import derive_seed, seed_prefix
from repro.util.timeutil import DAY, FIVE_MINUTES, day_start, window_start


class Aggregate:
    """Per-(NSSet, interval) statistics: the §4.1 tuple."""

    __slots__ = ("n", "ok_n", "rtt_sum", "timeout_n", "servfail_n",
                 "other_err_n")

    def __init__(self) -> None:
        self.n = 0
        self.ok_n = 0
        #: running sum of OK RTTs.
        self.rtt_sum = 0.0
        self.timeout_n = 0
        self.servfail_n = 0
        self.other_err_n = 0

    def add(self, status: ResponseStatus, rtt_ms: float) -> None:
        self.n += 1
        if status is ResponseStatus.OK:
            self.ok_n += 1
            self.rtt_sum += rtt_ms
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
        self.timeout_n += other.timeout_n
        self.servfail_n += other.servfail_n
        self.other_err_n += other.other_err_n

    def copy(self) -> "Aggregate":
        """An independent copy."""
        dup = Aggregate()
        dup.n = self.n
        dup.ok_n = self.ok_n
        dup.rtt_sum = self.rtt_sum
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
        return math.isfinite(self.rtt_sum)

    def state(self) -> Tuple:
        """The aggregate's observable columns, for exact comparison."""
        return (self.n, self.ok_n, self.rtt_sum, self.timeout_n,
                self.servfail_n, self.other_err_n)

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


def domain_seed_prefix(crawl_seed: int, domain_id: int):
    """The root of one domain's per-day crawl streams.

    A copy updated with ``str(day)`` digests to the seed of the
    (domain, day) stream, ``derive_seed(derive_seed(crawl_seed,
    domain_id), day)``, at half the hashing.
    """
    return seed_prefix(derive_seed(crawl_seed, str(domain_id)))


class _QuietDays:
    """Draws the deferred quiet (NSSet, day) cells of one crawl.

    A draw reads only the crawl seed and, per NSSet, its members' base
    RTTs and its domain ids in directory order. A saved store keeps
    exactly these for its deferred cells, so a loaded store draws a cell
    bit for bit as the crawl that deferred it would have; and the store
    keeps neither the platform nor the world alive.
    """

    def __init__(self, crawl_seed: int,
                 rtts: Dict[int, Tuple[float, ...]],
                 domains: Dict[int, List[int]]) -> None:
        self.crawl_seed = crawl_seed
        #: NSSet -> its members' base RTTs, in delegation order.
        self.rtts = rtts
        #: NSSet -> its domains' ids, in directory order.
        self.domains = domains
        #: NSSet -> its domains' seed prefixes, built on its first draw.
        self._prefixes: Dict[int, List] = {}
        self._rng = random.Random()

    def draw(self, key: Tuple[int, int]) -> Aggregate:
        """One cell, drawn row by row: each of the NSSet's domains in
        directory order, on its own (domain, day) stream, with the
        draws a quiet-day query takes."""
        nsset_id, day = key
        rtts = self.rtts[nsset_id]
        n_rtts = len(rtts)
        prefixes = self._prefixes.get(nsset_id)
        if prefixes is None:
            prefixes = self._prefixes[nsset_id] = [
                domain_seed_prefix(self.crawl_seed, domain_id)
                for domain_id in self.domains[nsset_id]]
        day_key = str(day).encode("utf-8")
        reseed, draw, expo = (self._rng.seed, self._rng.random,
                              self._rng.expovariate)
        from_bytes = int.from_bytes
        # Every row is OK, and the sum runs in row order from 0.0, as
        # ``Aggregate.add`` would run it.
        rtt_sum = 0.0
        for prefix in prefixes:
            h = prefix.copy()
            h.update(day_key)
            reseed(from_bytes(h.digest(), "big"))
            rtt_sum += rtts[int(draw() * n_rtts)] + expo(0.5)
        agg = Aggregate()
        agg.n = agg.ok_n = len(prefixes)
        agg.rtt_sum = rtt_sum
        return agg


class DailyTable(MutableMapping):
    """The daily aggregates, keyed by ``(nsset_id, day)``.

    The key set is exact. A deferred cell holds no aggregate until it
    is read: the first read draws it with ``quiet.draw(key)`` and keeps
    the draw. Reading values (``[]``, ``get``, ``values()``,
    ``items()``, ``==``) draws the cells read; the keys, ``in``, ``len``
    and ``del`` draw none.

    A deferred cell stays deferred while its draw is unchanged, however
    often it is read: :meth:`split` gives it to a save as its key, so a
    save draws nothing and writes the same bytes before and after any
    read. A draw changed in place (``add_fast`` or ``merge`` adding to
    it) or a cell replaced by ``[]=`` is saved as its aggregate.
    """

    __slots__ = ("cells", "quiet", "_drawn")

    def __init__(self, cells: Optional[Dict] = None,
                 quiet: Optional[_QuietDays] = None) -> None:
        #: key -> its aggregate, or ``None`` while the cell is deferred.
        self.cells: Dict[Tuple[int, int], Optional[Aggregate]] = (
            {} if cells is None else cells)
        #: what draws the deferred cells; a table that defers none
        #: needs none.
        self.quiet = quiet
        #: deferred key -> (its draw, the draw's state when drawn).
        self._drawn: Dict[Tuple[int, int], Tuple[Aggregate, Tuple]] = {}

    def __getitem__(self, key: Tuple[int, int]) -> Aggregate:
        agg = self.cells[key]
        if agg is None:
            drawn = self._drawn.get(key)
            if drawn is not None:
                return drawn[0]
            agg = self.quiet.draw(key)
            self._drawn[key] = (agg, agg.state())
        return agg

    def __contains__(self, key) -> bool:
        return key in self.cells

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __setitem__(self, key: Tuple[int, int], agg: Aggregate) -> None:
        self.cells[key] = agg
        self._drawn.pop(key, None)

    def __delitem__(self, key: Tuple[int, int]) -> None:
        del self.cells[key]
        self._drawn.pop(key, None)

    def split(self) -> Tuple[List[Tuple[int, int]],
                             Dict[Tuple[int, int], Aggregate]]:
        """``(deferred keys, aggregates)``: the cells a save writes as
        keys (never drawn, or drawn and unchanged), and the rest. Draws
        nothing."""
        keys, aggregates = [], {}
        for key, agg in self.cells.items():
            if agg is None:
                drawn = self._drawn.get(key)
                if drawn is None or drawn[0].state() == drawn[1]:
                    keys.append(key)
                    continue
                agg = drawn[0]
            aggregates[key] = agg
        return keys, aggregates


class MeasurementStore:
    """Daily + dense 5-minute aggregates per NSSet.

    ``quiet`` draws a deferred daily cell (see :meth:`defer`); a store
    that defers nothing needs none.
    """

    #: rtt sanity ceiling for ingest: far above any real deadline, low
    #: enough to reject inf/NaN and garbage (comparison-only, hot path).
    MAX_RTT_MS = 1e9

    def __init__(self, quiet: Optional[_QuietDays] = None) -> None:
        self.daily = DailyTable(quiet=quiet)
        self.buckets: Dict[Tuple[int, int], Aggregate] = {}
        self.n_measurements = 0
        #: malformed rows rejected at ingest (negative/NaN/inf RTTs).
        self.n_rejected = 0
        #: donor stores folded in via :meth:`merge` (serve's day partitions).
        self.n_merges = 0

    @classmethod
    def deferred(cls, n_measurements: int, n_rejected: int, n_merges: int,
                 n_daily: int, n_buckets: int,
                 build_table: Callable[[str], MutableMapping]
                 ) -> "MeasurementStore":
        """A store with its ingest totals and table row counts set, and
        its ``daily`` (a :class:`DailyTable`, whose saved deferred cells
        stay deferred) and ``buckets`` tables built by
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
    def daily(self) -> DailyTable:
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
        cells = self.daily.cells
        agg = cells.get(day_key)
        if agg is None:
            # A deferred cell is drawn before it takes another row.
            agg = self.daily.get(day_key)
            if agg is None:
                agg = cells[day_key] = Aggregate()
        agg.add(status, rtt_ms)
        if dense:
            bucket_key = (nsset_id, ts - ts % FIVE_MINUTES)
            bagg = self.buckets.get(bucket_key)
            if bagg is None:
                bagg = Aggregate()
                self.buckets[bucket_key] = bagg
            bagg.add(status, rtt_ms)

    def defer(self, key: Tuple[int, int], n_rows: int) -> None:
        """Count a daily cell's ``n_rows`` rows now; ``quiet`` draws its
        aggregate when it is first read, and a save writes only its key.

        Only rows the ingest guard cannot reject may be deferred: they
        are counted without being seen.
        """
        self.daily.cells[key] = None
        self.n_measurements += n_rows

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
