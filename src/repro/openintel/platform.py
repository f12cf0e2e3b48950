"""The daily measurement crawl.

Each registered domain is measured once per UTC day at a stable
per-domain time-of-day (OpenINTEL spreads its crawl over the day), by
resolving its NS RRset through the agnostic resolver against the world.

The hot loop fast-paths quiet days — days on which no attack touches any
of the domain's nameserver addresses or their /24s — by sampling the
baseline reply directly instead of running the resolver state machine;
the two paths are statistically identical in quiet conditions (a test
asserts this) because an unloaded server always answers its first query.

Determinism
-----------

Every random draw a domain-day needs (nameserver choice, reply
sampling, jitter) comes from a private stream seeded by
``derive_seed(crawl_seed, domain_id, day)``. A domain-day is therefore
a closed unit of work whose samples depend on nothing but its key —
not on how many domains or days were crawled before it. That is what
lets the serve layer crawl one day at a time: a day-windowed crawl
fills exactly the aggregates a full-range crawl fills for that day.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.dns.rcode import ResponseStatus
from repro.dns.resolver import AgnosticResolver, ResolverConfig
from repro.dns.rr import RRType
from repro.obs import NULL_TELEMETRY, RunTelemetry
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
        #: crawl counters collected when telemetry is enabled (``None``
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
        # only on the work unit's key, never on crawl order or window.
        day_rng = random.Random()
        rng_random = day_rng.random
        rng_expo = day_rng.expovariate
        reseed = day_rng.seed
        resolver = AgnosticResolver(self.transport, day_rng, self.config)
        restore = self.world.set_transport_rng(day_rng)
        stats = self.stats
        try:
            for day in iter_days(start, end):
                day_name = str(day)
                for record in domains:
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
