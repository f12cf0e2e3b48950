"""The daily measurement crawl (serial and multi-process).

Each registered domain is measured once per UTC day at a stable
per-domain time-of-day (OpenINTEL spreads its crawl over the day), by
resolving its NS RRset through the agnostic resolver against the world.

The hot loop fast-paths quiet days — days on which no attack touches any
of the domain's nameserver addresses or their /24s — by sampling the
baseline reply directly instead of running the resolver state machine;
the two paths are statistically identical in quiet conditions (a test
asserts this) because an unloaded server always answers its first query.

Determinism and sharding
------------------------

Every random draw a domain-day needs (nameserver choice, reply
sampling, jitter) comes from a private stream seeded by
``derive_seed(crawl_seed, domain_id, day)``. A domain-day is therefore
a closed unit of work whose samples depend on nothing but its key —
not on how many domains were crawled before it, nor in which process.
Combined with the store's order-invariant exact RTT sums, this makes
the crawl's output *bit-for-bit identical for any worker count*: the
serial crawl and an N-worker sharded crawl produce equal stores (a
test asserts it), so parallelising the dominant pipeline cost changes
no downstream number.

:meth:`OpenIntelPlatform.run_parallel` shards the domain population
across processes forked from the parent — workers inherit the
pre-built world and the fully-configured platform (resolver config,
oversampling, transport) by memory, so nothing is rebuilt per worker
and nothing is dropped on the way in.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.dns.rcode import ResponseStatus
from repro.dns.resolver import AgnosticResolver, ResolverConfig
from repro.dns.rr import RRType
from repro.obs import NULL_TELEMETRY, RunTelemetry
from repro.obs.merge import capture_telemetry, merge_capture
from repro.openintel.records import Measurement
from repro.openintel.stats import CrawlStats
from repro.openintel.storage import MeasurementStore
from repro.util.rng import derive_seed
from repro.util.timeutil import DAY, day_start, iter_days
from repro.world.simulation import World

# Per-NSSet quiet-day behaviour classes.
_NORMAL = 0          # all members are live authoritatives
_ANSWERING_TARGET = 1  # all members are misconfig targets that answer
_DEAD = 2            # no member ever answers (private IPs, NAS, lame)
_MIXED = 3           # anything else: always take the slow path


class OpenIntelPlatform:
    """Drives the daily crawl and fills a :class:`MeasurementStore`."""

    def __init__(self, world: World, config: Optional[ResolverConfig] = None,
                 dense_oversampling: int = 6, transport=None,
                 telemetry: Optional[RunTelemetry] = None):
        if dense_oversampling < 1:
            raise ValueError("dense_oversampling must be >= 1")
        self.telemetry = telemetry or NULL_TELEMETRY
        #: shard counters collected when telemetry is enabled (``None``
        #: otherwise, so the hot loop pays a single identity check).
        #: Telemetry only observes — with it on or off the crawl draws
        #: the same random streams and fills an identical store.
        self.stats: Optional[CrawlStats] = (
            CrawlStats() if self.telemetry.enabled else None)
        self.world = world
        self.config = config or world.config.resolver
        self.rng = world.rngs.stream("openintel")
        #: the datagram path queries travel; fault injection wraps it
        #: here without the world's ground truth noticing.
        self.transport = transport or world.transport
        self.resolver = AgnosticResolver(self.transport, self.rng, self.config)
        self.store = MeasurementStore()
        #: OpenINTEL sends many query types per domain per day (NS, SOA,
        #: A, AAAA, MX, ...), all of which exercise the same NSSet and
        #: feed the paper's RTT aggregates. We replay that multiplicity
        #: only on *dense* (attack-window) days, where it matters for
        #: the >=5-measured-domains event threshold; on quiet days one
        #: query per day is statistically sufficient for the baselines.
        self.dense_oversampling = dense_oversampling
        #: (index, count): crawl only every count-th domain starting at
        #: index — the unit of work for the multi-process crawl.
        self.shard: Tuple[int, int] = (0, 1)
        self._offsets: List[int] = []
        self._domain_seeds: List[int] = []
        self._classes: Dict[int, int] = {}
        self._quiet_rtts: Dict[int, Tuple[float, ...]] = {}
        self._prepare()

    def _prepare(self) -> None:
        directory = self.world.directory
        seed = self.world.rngs.spawn_seed("openintel-offsets")
        self._offsets = [
            derive_seed(seed, str(d.domain_id)) % DAY
            for d in directory.domains
        ]
        # Root of the per-(domain, day) streams; the per-domain prefix
        # is hashed once here so the hot loop derives one level only.
        crawl_seed = self.world.rngs.spawn_seed("openintel-crawl")
        self._domain_seeds = [
            derive_seed(crawl_seed, str(d.domain_id))
            for d in directory.domains
        ]
        for nsset_id, ips in directory.nssets.items():
            members = [self.world.nameservers_by_ip.get(ip) for ip in ips]
            if any(ns is None for ns in members):
                self._classes[nsset_id] = _MIXED
                continue
            if all(ns.is_misconfig_target for ns in members):
                if all(ns.answers_queries for ns in members):
                    self._classes[nsset_id] = _ANSWERING_TARGET
                    self._quiet_rtts[nsset_id] = tuple(
                        ns.base_rtt_ms for ns in members)
                elif not any(ns.answers_queries for ns in members):
                    self._classes[nsset_id] = _DEAD
                else:
                    self._classes[nsset_id] = _MIXED
                continue
            if any(ns.is_misconfig_target for ns in members):
                self._classes[nsset_id] = _MIXED
                continue
            self._classes[nsset_id] = _NORMAL
            self._quiet_rtts[nsset_id] = tuple(ns.base_rtt_ms for ns in members)

    # -- single measurement -------------------------------------------------------

    def measure_domain(self, domain_id: int, ts: int) -> Measurement:
        """Resolve one domain at one instant (always the full resolver)."""
        record = self.world.directory[domain_id]
        result = self.resolver.resolve(
            record.name, RRType.NS, record.delegation.nameserver_ips, ts)
        return Measurement(ts=ts, domain_id=domain_id,
                           nsset_id=record.nsset_id, status=result.status,
                           rtt_ms=result.rtt_ms, n_attempts=result.n_attempts)

    # -- the crawl ---------------------------------------------------------------

    def run(self, start: Optional[int] = None,
            end: Optional[int] = None) -> MeasurementStore:
        """Measure every domain daily over [start, end); returns the store."""
        timeline = self.world.timeline
        start = day_start(start if start is not None else timeline.start)
        end = end if end is not None else timeline.end
        directory = self.world.directory
        domains = directory.domains
        offsets = self._offsets
        domain_seeds = self._domain_seeds
        classes = self._classes
        quiet_rtts = self._quiet_rtts
        store = self.store
        add = store.add_fast
        dense_days_of = self.world.dense_days_of
        deadline = self.config.deadline_ms

        # One private stream, reseeded per (domain, day): samples depend
        # only on the work unit's key, never on crawl order or sharding.
        day_rng = random.Random()
        rng_random = day_rng.random
        rng_expo = day_rng.expovariate
        reseed = day_rng.seed
        resolver = AgnosticResolver(self.transport, day_rng, self.config)
        restore = self.world.set_transport_rng(day_rng)
        stats = self.stats
        try:
            shard, n_shards = self.shard
            for day in iter_days(start, end):
                day_name = str(day)
                for record in (domains if n_shards == 1
                               else domains[shard::n_shards]):
                    domain_id = record.domain_id
                    nsset_id = record.nsset_id
                    reseed(derive_seed(domain_seeds[domain_id], day_name))
                    dense = day in dense_days_of(nsset_id)
                    if not dense:
                        klass = classes[nsset_id]
                        ts = day + offsets[domain_id]
                        if klass <= _ANSWERING_TARGET:  # _NORMAL or answering
                            rtts = quiet_rtts[nsset_id]
                            base = rtts[int(rng_random() * len(rtts))]
                            rtt = base + rng_expo(0.5)
                            add(nsset_id, ts, ResponseStatus.OK, rtt, False)
                            if stats is not None:
                                stats.domain_days += 1
                                stats.fast_path_days += 1
                                stats.add_ok(rtt)
                            continue
                        if klass == _DEAD:
                            add(nsset_id, ts, ResponseStatus.TIMEOUT,
                                deadline, False)
                            if stats is not None:
                                stats.domain_days += 1
                                stats.dead_days += 1
                                stats.timeout += 1
                            continue
                    n_queries = self.dense_oversampling if dense else 1
                    stride = DAY // n_queries
                    ns_ips = record.delegation.nameserver_ips
                    if stats is not None:
                        stats.domain_days += 1
                        stats.resolver_days += 1
                        stats.queries += n_queries
                    for j in range(n_queries):
                        ts_j = day + (offsets[domain_id] + j * stride) % DAY
                        result = resolver.resolve(record.name, RRType.NS,
                                                  ns_ips, ts_j)
                        add(nsset_id, ts_j, result.status,
                            result.rtt_ms, dense)
                        if stats is not None:
                            stats.add_result(result.status, result.rtt_ms)
        finally:
            self.world.set_transport_rng(restore)
        return store

    # -- the multi-process crawl ----------------------------------------------

    def run_parallel(self, n_workers: int = 4, start: Optional[int] = None,
                     end: Optional[int] = None) -> MeasurementStore:
        """Crawl with ``n_workers`` processes forked from this platform.

        Workers inherit the pre-built world and this platform's full
        configuration (resolver config, oversampling, transport) through
        ``fork`` — nothing is rebuilt per worker — and each crawls an
        interleaved shard of the domain population.
        The parent folds the per-shard stores into :attr:`store`.

        The result is **bit-for-bit identical for any** ``n_workers``
        (including the serial ``run``): per-(domain, day) derived RNG
        streams make each shard's samples order-independent, and the
        store's exact sums make the merge order-independent.

        Stateful transports (e.g. the chaos injector's wrapper) must use
        the serial crawl: their draws and fault logs live in the parent
        and cannot be meaningfully merged across forked workers —
        :func:`repro.core.pipeline.run_study` enforces this.

        Platforms without the ``fork`` start method fall back to the
        serial crawl.
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if n_workers == 1:
            return self.run(start, end)
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():  # pragma: no cover
            return self.run(start, end)
        global _FORK_PARENT
        jobs = [(shard, n_workers, start, end) for shard in range(n_workers)]
        journal = self.telemetry.journal
        for shard in range(n_workers):
            journal.emit("worker.start", surface="crawl", shard=shard,
                         n_shards=n_workers)
        _FORK_PARENT = self
        try:
            with multiprocessing.get_context("fork").Pool(n_workers) as pool:
                for done, (store, stats, capture) in enumerate(
                        pool.imap(_crawl_shard, jobs), start=1):
                    self.store.merge(store)
                    if self.stats is not None and stats is not None:
                        self.stats.merge(stats)
                    if capture is not None:
                        # imap yields in job order, so shard == done-1;
                        # folding here keeps the merge deterministic.
                        merge_capture(self.telemetry, capture,
                                      shard=done - 1)
                    journal.emit("worker.finish", surface="crawl",
                                 shard=done - 1,
                                 rows=stats.rows if stats is not None
                                 else None)
        finally:
            _FORK_PARENT = None
        return self.store


# ---------------------------------------------------------------------------
# Multi-process crawl plumbing
# ---------------------------------------------------------------------------

#: The platform being sharded; set by :meth:`run_parallel` immediately
#: before forking so workers find it in their inherited memory.
_FORK_PARENT: Optional[OpenIntelPlatform] = None


def _crawl_shard(args) -> Tuple[MeasurementStore, Optional[CrawlStats],
                                Optional[dict]]:
    """Worker entry point: crawl one shard of the domain population.

    Runs in a child forked from the parent, so ``_FORK_PARENT`` *is*
    the parent's fully-configured platform (same world, resolver
    config, oversampling, transport) — only the shard assignment and
    fresh output store/stats are local to this process. Returns the
    shard's filled :class:`MeasurementStore`; the shard's
    :class:`CrawlStats` (``None`` when telemetry is off) rides back
    with it for the parent to merge.

    When the parent's telemetry is enabled, the shard also runs under
    its own fresh telemetry bundle — a ``crawl.shard`` span plus its
    stats published to a shard-local registry — and ships the capture
    back as the third element for the parent to stitch under its
    ``crawl`` span with a ``shard`` label (:mod:`repro.obs.merge`).
    Forked children share the parent's monotonic clock domain, so the
    grafted span offsets line up without rebasing. The shard's journal
    stays the null journal: only the parent writes the journal file
    (the forked file descriptor is not safely shareable).
    """
    shard, n_shards, start, end = args
    platform = _FORK_PARENT
    assert platform is not None, "_crawl_shard outside run_parallel"
    platform.shard = (shard, n_shards)
    platform.store = MeasurementStore()
    platform.stats = CrawlStats() if platform.stats is not None else None
    shard_telemetry = None
    if platform.telemetry.enabled:
        shard_telemetry = RunTelemetry.create(clock=platform.telemetry.clock)
        platform.telemetry = shard_telemetry
    if shard_telemetry is None:
        store = platform.run(start, end)
    else:
        with shard_telemetry.tracer.span("crawl.shard", shard=shard,
                                         n_shards=n_shards) as span:
            store = platform.run(start, end)
            if platform.stats is not None:
                span.annotate(rows=platform.stats.rows)
    capture = None
    if shard_telemetry is not None:
        if platform.stats is not None:
            platform.stats.publish(shard_telemetry.registry)
        capture = capture_telemetry(shard_telemetry)
    return store, platform.stats, capture
