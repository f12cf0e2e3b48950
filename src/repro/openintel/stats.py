"""Crawl statistics: the counters one crawl accumulates.

A :class:`CrawlStats` rides along the crawl when telemetry is enabled
and publishes its totals into the run's metrics registry
(``repro.crawl.*``) once the crawl is done.
"""

from __future__ import annotations

from repro.dns.rcode import ResponseStatus
from repro.obs.registry import MetricsRegistry

__all__ = ["CrawlStats"]


class CrawlStats:
    """Counters one crawl accumulates."""

    __slots__ = ("domain_days", "fast_path_days", "dead_days",
                 "resolver_days", "queries", "quiet_queries", "ok",
                 "timeout", "servfail", "other")

    def __init__(self) -> None:
        self.domain_days = 0
        #: quiet days of closed-form NSSets, counted as OK rows and
        #: deferred to the store (drawn when their cell is read).
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

    # -- collection (crawl hot loop) -----------------------------------------

    def add_result(self, status: ResponseStatus) -> None:
        """Record one resolver result."""
        if status is ResponseStatus.OK:
            self.ok += 1
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

    def __repr__(self) -> str:
        return (f"CrawlStats(domain_days={self.domain_days}, "
                f"rows={self.rows}, ok={self.ok}, timeout={self.timeout}, "
                f"queries={self.queries})")
