"""The daily measurement crawl.

Each registered domain is measured once per UTC day at a stable
per-domain time-of-day (OpenINTEL spreads its crawl over the day), by
resolving its NS RRset through the agnostic resolver against the world.
A *dense* day — one on which an attack's impact window touches a member
address of the domain's NSSet or a member's /24, padded one recovery
day — sends several queries spread over the day instead of one.

The hot loop answers three kinds of query:

* **A quiet day.** The baseline reply is sampled directly instead of
  running the resolver state machine; the two are statistically
  identical in quiet conditions (a test asserts this) because an
  unloaded server always answers its first query. A never-answering
  NSSet records a timeout and draws nothing.
* **A quiet instant on a dense day.** Outside every busy span of the
  NSSet (:meth:`World.busy_spans_of`) each member's load is quiet, so
  when the slowest member's base RTT plus the largest possible jitter
  fits the first retransmission timer, the resolver's first pick always
  answers OK. The loop takes exactly the resolver's draws — the server
  choice and one jitter sample — and records what it would record.
* **A busy instant** (and any query of a mixed NSSet): the full
  resolver, transport and capacity model.

A platform built with ``transport=`` keeps every dense-day query on the
resolver: an injected transport (chaos transport faults) draws once per
query, so answering a query without it would shift every later draw.
The study passes one only when the chaos policy has transport faults,
so a chaos run whose faults all lie elsewhere (feed, store, ingest)
takes the same quiet branches as a clean run. Keying transport faults by
``(ns_ip, qname, ts)`` would let those runs take the quiet branch too.

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

import hashlib
import math
import random
from bisect import bisect_right
from typing import Dict, List, Optional, Set, Tuple

from repro.dns.rcode import ResponseStatus
from repro.dns.resolver import AgnosticResolver, ResolverConfig
from repro.dns.rr import RRType
from repro.obs import NULL_TELEMETRY, RunTelemetry
from repro.openintel.records import Measurement
from repro.openintel.stats import CrawlStats
from repro.openintel.storage import MeasurementStore
from repro.util.rng import derive_seed, seed_prefix
from repro.util.timeutil import DAY, day_start, iter_days
from repro.world.simulation import World

# Per-NSSet quiet-day behaviour classes.
_NORMAL = 0          # all members are live authoritatives
_ANSWERING_TARGET = 1  # all members are misconfig targets that answer
_DEAD = 2            # no member ever answers (private IPs, NAS, lame)
_MIXED = 3           # anything else: always take the slow path

#: The largest ``expovariate(0.5)`` draw ``random()`` can produce
#: (``random()`` never exceeds ``1 - 2**-53``): ~73.47 ms of jitter.
_MAX_JITTER_MS = -math.log(2.0 ** -53) / 0.5

#: OpenINTEL sends many query types per domain per day (NS, SOA, A,
#: AAAA, MX, ...), all of which exercise the same NSSet and feed the
#: paper's RTT aggregates. The crawl replays that multiplicity only on
#: *dense* (attack-window) days, where it matters for the
#: >=5-measured-domains event threshold; on quiet days one query per day
#: is statistically sufficient for the baselines.
DENSE_OVERSAMPLING = 6


class OpenIntelPlatform:
    """Drives the daily crawl and fills a :class:`MeasurementStore`."""

    def __init__(self, world: World, config: Optional[ResolverConfig] = None,
                 transport=None, telemetry: Optional[RunTelemetry] = None):
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
        #: an injected transport (chaos) may draw or fault per query, so
        #: it keeps every dense-day query on the resolver.
        self._own_transport = transport is None
        self.resolver = AgnosticResolver(self.transport, self.rng, self.config)
        self.store = MeasurementStore()
        self._offsets: List[int] = []
        self._seed_prefixes: List[hashlib.blake2b] = []
        self._classes: Dict[int, int] = {}
        self._quiet_rtts: Dict[int, Tuple[float, ...]] = {}
        #: NSSets whose quiet instants on dense days are answered in
        #: closed form, and their members' base RTTs.
        self._quiet_instants: Set[int] = set()
        self._base_rtts: Dict[int, float] = {}
        self._prepare()

    def _prepare(self) -> None:
        directory = self.world.directory
        seed = self.world.rngs.spawn_seed("openintel-offsets")
        self._offsets = [
            derive_seed(seed, str(d.domain_id)) % DAY
            for d in directory.domains
        ]
        # Root of the per-(domain, day) streams. Each domain's seed is
        # hashed once here, up to the day: the hot loop copies that
        # state and adds the day, which equals
        # ``derive_seed(domain_seed, str(day))`` at half the cost.
        crawl_seed = self.world.rngs.spawn_seed("openintel-crawl")
        self._seed_prefixes = [
            seed_prefix(derive_seed(crawl_seed, str(d.domain_id)))
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
        # A quiet server's reply always beats the resolver's first timer
        # when the slowest member's base RTT plus the largest jitter does.
        timeout = self.config.attempt_timeout_ms
        self._quiet_instants = {
            nsset_id for nsset_id, rtts in self._quiet_rtts.items()
            if rtts and max(rtts) + _MAX_JITTER_MS <= timeout}
        self._base_rtts = {ip: ns.base_rtt_ms for ip, ns
                           in self.world.nameservers_by_ip.items()}

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
        seed_prefixes = self._seed_prefixes
        classes = self._classes
        quiet_rtts = self._quiet_rtts
        store = self.store
        add = store.add_fast
        dense_days_of = self.world.dense_days_of
        busy_spans_of = self.world.busy_spans_of
        quiet_instants = (self._quiet_instants if self._own_transport
                          else frozenset())
        base_rtts = self._base_rtts
        deadline = self.config.deadline_ms

        # One private stream, reseeded per (domain, day): samples depend
        # only on the work unit's key, never on crawl order or window.
        day_rng = random.Random()
        rng_random = day_rng.random
        rng_expo = day_rng.expovariate
        choice = day_rng.choice
        reseed = day_rng.seed
        from_bytes = int.from_bytes
        resolver = AgnosticResolver(self.transport, day_rng, self.config)
        restore = self.world.set_transport_rng(day_rng)
        stats = self.stats
        try:
            for day in iter_days(start, end):
                day_key = str(day).encode("utf-8")
                for record in domains:
                    domain_id = record.domain_id
                    nsset_id = record.nsset_id
                    dense = day in dense_days_of(nsset_id)
                    klass = classes[nsset_id]
                    if not dense and klass == _DEAD:
                        # Draws nothing, so it needs no reseed.
                        add(nsset_id, day + offsets[domain_id],
                            ResponseStatus.TIMEOUT, deadline, False)
                        if stats is not None:
                            stats.domain_days += 1
                            stats.dead_days += 1
                            stats.timeout += 1
                        continue
                    h = seed_prefixes[domain_id].copy()
                    h.update(day_key)
                    reseed(from_bytes(h.digest(), "big"))
                    if not dense and klass <= _ANSWERING_TARGET:
                        # _NORMAL or an answering misconfig target
                        ts = day + offsets[domain_id]
                        rtts = quiet_rtts[nsset_id]
                        base = rtts[int(rng_random() * len(rtts))]
                        rtt = base + rng_expo(0.5)
                        add(nsset_id, ts, ResponseStatus.OK, rtt, False)
                        if stats is not None:
                            stats.domain_days += 1
                            stats.fast_path_days += 1
                            stats.add_ok(rtt)
                        continue
                    n_queries = DENSE_OVERSAMPLING if dense else 1
                    stride = DAY // n_queries
                    ns_ips = record.delegation.nameserver_ips
                    spans = (busy_spans_of(nsset_id)
                             if dense and nsset_id in quiet_instants
                             else None)
                    if stats is not None:
                        stats.domain_days += 1
                        stats.resolver_days += 1
                        stats.queries += n_queries
                    for j in range(n_queries):
                        ts_j = day + (offsets[domain_id] + j * stride) % DAY
                        if spans is not None \
                                and not bisect_right(spans, ts_j) & 1:
                            # A quiet instant: the resolver's first pick
                            # answers OK before its timer, drawing the
                            # same server choice and jitter as here.
                            ns_ip = (ns_ips[0] if len(ns_ips) == 1
                                     else choice(ns_ips))
                            rtt = base_rtts[ns_ip] + rng_expo(0.5)
                            add(nsset_id, ts_j, ResponseStatus.OK, rtt, True)
                            if stats is not None:
                                stats.quiet_queries += 1
                                stats.add_ok(rtt)
                            continue
                        result = resolver.resolve(record.name, RRType.NS,
                                                  ns_ips, ts_j)
                        add(nsset_id, ts_j, result.status,
                            result.rtt_ms, dense)
                        if stats is not None:
                            stats.add_result(result.status, result.rtt_ms)
        finally:
            self.world.set_transport_rng(restore)
        return store
