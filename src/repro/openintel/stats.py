"""Crawl statistics: the counters one crawl accumulates.

A :class:`CrawlStats` rides along the crawl when telemetry is enabled
and publishes its totals into the run's metrics registry
(``repro.crawl.*``) once the crawl is done.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Tuple

from repro.dns.rcode import ResponseStatus
from repro.obs.registry import DEFAULT_BUCKETS_MS, MetricsRegistry

__all__ = ["CrawlStats", "RTT_BUCKETS_MS"]

#: Fixed bucket bounds (ms) of the crawl RTT histogram.
RTT_BUCKETS_MS: Tuple[float, ...] = DEFAULT_BUCKETS_MS


class CrawlStats:
    """Counters one crawl accumulates."""

    __slots__ = ("domain_days", "fast_path_days", "dead_days",
                 "resolver_days", "queries", "quiet_queries", "ok",
                 "timeout", "servfail", "other", "rtt_bucket_counts",
                 "rtt_sum")

    def __init__(self) -> None:
        self.domain_days = 0
        #: quiet days answered from the closed-form fast path.
        self.fast_path_days = 0
        #: quiet days of never-answering NSSets (synthesized timeouts).
        self.dead_days = 0
        #: days that took the query path: dense days, and quiet days of
        #: NSSets with no closed form. Every domain-day is counted once
        #: as a fast-path, dead or resolver day.
        self.resolver_days = 0
        #: queries sent on resolver days (dense days send several per
        #: domain), whether or not they ran the resolver.
        self.queries = 0
        #: of those, dense-day queries at a quiet instant, answered in
        #: closed form without the resolver.
        self.quiet_queries = 0
        self.ok = 0
        self.timeout = 0
        self.servfail = 0
        self.other = 0
        self.rtt_bucket_counts: List[int] = [0] * (len(RTT_BUCKETS_MS) + 1)
        #: running sum of OK RTTs.
        self.rtt_sum = 0.0

    # -- collection (crawl hot loop) -----------------------------------------

    def add_ok(self, rtt_ms: float) -> None:
        """Record one answered measurement and its RTT."""
        self.ok += 1
        self.rtt_bucket_counts[bisect_left(RTT_BUCKETS_MS, rtt_ms)] += 1
        self.rtt_sum += rtt_ms

    def add_result(self, status: ResponseStatus, rtt_ms: float) -> None:
        """Record one resolver result."""
        if status is ResponseStatus.OK:
            self.add_ok(rtt_ms)
        elif status is ResponseStatus.TIMEOUT:
            self.timeout += 1
        elif status is ResponseStatus.SERVFAIL:
            self.servfail += 1
        else:
            self.other += 1

    # -- publish --------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Measurement rows produced (one per status recorded)."""
        return self.ok + self.timeout + self.servfail + self.other

    def publish(self, registry: MetricsRegistry) -> None:
        """Emit the totals as ``repro.crawl.*`` metrics."""
        counter = registry.counter
        counter("repro.crawl.domain_days").inc(self.domain_days)
        counter("repro.crawl.fast_path_days").inc(self.fast_path_days)
        counter("repro.crawl.dead_days").inc(self.dead_days)
        counter("repro.crawl.resolver_days").inc(self.resolver_days)
        counter("repro.crawl.queries").inc(self.queries)
        counter("repro.crawl.quiet_queries").inc(self.quiet_queries)
        counter("repro.crawl.rows").inc(self.rows)
        for status, n in (("ok", self.ok), ("timeout", self.timeout),
                          ("servfail", self.servfail), ("other", self.other)):
            counter("repro.crawl.responses", status=status).inc(n)
        registry.histogram("repro.crawl.rtt_ms", buckets=RTT_BUCKETS_MS) \
            .add_counts(self.rtt_bucket_counts, self.rtt_sum)

    def __repr__(self) -> str:
        return (f"CrawlStats(domain_days={self.domain_days}, "
                f"rows={self.rows}, ok={self.ok}, timeout={self.timeout}, "
                f"queries={self.queries})")
