"""Tests for the daily crawl platform."""

import dataclasses
import random
from collections import Counter

import pytest

from repro.attacks.model import Attack, AttackVector
from repro.dns import resolver as resolver_module
from repro.dns.rcode import ResponseStatus
from repro.dns.resolver import AgnosticResolver
from repro.dns.rr import RRType
from repro.net.ip import parse_ip
from repro.obs import RunTelemetry
from repro.openintel import platform as platform_module
from repro.openintel.platform import (_MAX_JITTER_MS, DENSE_OVERSAMPLING,
                                      OpenIntelPlatform)
from repro.util.timeutil import DAY, Window, day_start, parse_ts
from repro.world import WorldConfig, build_world


@pytest.fixture(scope="module")
def platform(tiny_world):
    return OpenIntelPlatform(tiny_world)


@pytest.fixture(scope="module")
def store(platform):
    # The conftest tiny_study already runs a crawl, but that platform
    # object is private to run_study; run our own for inspection.
    return platform.run()


class TestCrawl:
    def test_every_domain_measured_daily(self, tiny_world, store):
        n_days = len(list(tiny_world.timeline.days()))
        # At least one measurement per domain per day (dense days add more).
        assert store.n_measurements >= len(tiny_world.directory) * n_days

    def test_daily_aggregates_cover_all_nssets(self, tiny_world, store):
        day0 = day_start(tiny_world.timeline.start)
        for nsset_id, domain_ids in tiny_world.directory.by_nsset.items():
            agg = store.day_aggregate(nsset_id, day0)
            assert agg is not None
            assert agg.n >= len(domain_ids)

    def test_quiet_nsset_all_ok(self, tiny_world, store):
        # Euskaltel is not attacked inside the tiny (March 2021) window.
        provider = tiny_world.providers["Euskaltel"]
        record = next(d for d in tiny_world.directory.domains
                      if d.provider_name == "Euskaltel"
                      and not d.misconfig and d.secondary_provider is None)
        agg = store.day_aggregate(record.nsset_id,
                                  day_start(tiny_world.timeline.start))
        assert agg is not None
        assert agg.errors == 0

    def test_misconfig_dead_targets_timeout(self, tiny_world, store):
        dead = [d for d in tiny_world.directory.domains
                if d.misconfig and d.delegation.nameserver_ips[0]
                == parse_ip("192.168.12.34")]
        if not dead:
            pytest.skip("no private-IP misconfig domain in tiny world")
        record = dead[0]
        agg = store.day_aggregate(record.nsset_id,
                                  day_start(tiny_world.timeline.start))
        assert agg.timeout_n == agg.n

    def test_misconfig_resolver_targets_resolve(self, tiny_world, store):
        google = [d for d in tiny_world.directory.domains
                  if d.misconfig and d.delegation.nameserver_ips[0]
                  == parse_ip("8.8.8.8")]
        if not google:
            pytest.skip("no 8.8.8.8 misconfig domain in tiny world")
        agg = store.day_aggregate(google[0].nsset_id,
                                  day_start(tiny_world.timeline.start))
        assert agg.errors == 0

    def test_transip_march_attack_recorded_densely(self, tiny_world, store):
        record = next(d for d in tiny_world.directory.domains
                      if d.provider_name == "TransIP" and not d.misconfig
                      and d.secondary_provider is None)
        start = parse_ts("2021-03-01 19:00")
        end = parse_ts("2021-03-02 01:00")
        measured = sum(agg.n for _, agg
                       in store.buckets_in(record.nsset_id, start, end))
        assert measured >= 5

    def test_transip_march_timeouts_near_paper(self, tiny_world, store):
        record = next(d for d in tiny_world.directory.domains
                      if d.provider_name == "TransIP" and not d.misconfig
                      and d.secondary_provider is None)
        start = parse_ts("2021-03-01 19:00")
        end = parse_ts("2021-03-02 01:00")
        total = failed = 0
        for _, agg in store.buckets_in(record.nsset_id, start, end):
            total += agg.n
            failed += agg.timeout_n
        # Paper Figure 3: ~20% of queries timed out.
        assert total > 20
        assert 0.08 < failed / total < 0.40

    def test_fast_path_matches_slow_path_statistically(self, tiny_world):
        # On a quiet day the fast path must be distributionally identical
        # to running the resolver: mean RTT within a fraction of a ms.
        resolver = AgnosticResolver(tiny_world.transport, random.Random(7))
        record = next(d for d in tiny_world.directory.domains
                      if d.provider_name == "Euskaltel" and not d.misconfig
                      and d.secondary_provider is None)
        quiet_ts = parse_ts("2021-03-25 12:00")
        slow = [resolver.resolve(record.name, RRType.NS,
                                 record.delegation.nameserver_ips, quiet_ts)
                for _ in range(400)]
        assert all(m.status is ResponseStatus.OK for m in slow)
        slow_mean = sum(m.rtt_ms for m in slow) / len(slow)
        ips = record.delegation.nameserver_ips
        base_mean = sum(tiny_world.nameservers_by_ip[ip].base_rtt_ms
                        for ip in ips) / len(ips)
        assert slow_mean == pytest.approx(base_mean + 2.0, abs=1.5)

    def test_run_subrange(self, tiny_world):
        platform = OpenIntelPlatform(tiny_world)
        start = tiny_world.timeline.start
        store = platform.run(start, start + 2 * DAY)
        per_day = len(tiny_world.directory)
        assert store.n_measurements >= 2 * per_day
        assert store.n_measurements < 4 * per_day

    def test_serial_crawl_is_repeatable(self, tiny_world, store):
        # Per-(domain, day) streams mean the crawl does not consume
        # the world's shared RNG state: same world, same store.
        assert OpenIntelPlatform(tiny_world).run() == store

    def test_deterministic(self, tiny_world, tiny_config):
        from repro.world import build_world

        w1 = build_world(tiny_config)
        w2 = build_world(tiny_config)
        s1 = OpenIntelPlatform(w1).run(w1.timeline.start,
                                       w1.timeline.start + 2 * DAY)
        s2 = OpenIntelPlatform(w2).run(w2.timeline.start,
                                       w2.timeline.start + 2 * DAY)
        assert s1.n_measurements == s2.n_measurements
        day = day_start(w1.timeline.start)
        for nsset_id in list(w1.directory.by_nsset)[:20]:
            a = s1.day_aggregate(nsset_id, day)
            b = s2.day_aggregate(nsset_id, day)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.n == b.n
                assert a.avg_rtt == pytest.approx(b.avg_rtt)


def _store_state(store):
    return ({key: agg.state() for key, agg in store.daily.items()},
            {key: agg.state() for key, agg in store.buckets.items()},
            store.n_measurements, store.n_rejected)


class TestEveryQueryEqualsTheResolver:
    """The crawl with its own transport must fill exactly the store a
    crawl fills when every query goes through the resolver (an injected
    transport keeps every query on the resolver)."""

    @pytest.mark.parametrize("config", [
        WorldConfig.tiny(seed=1),
        WorldConfig.tiny(seed=2),
        WorldConfig.tiny(seed=3),
        dataclasses.replace(WorldConfig.tiny(seed=1),
                            scenario_pack="amplification"),
    ], ids=["seed1", "seed2", "seed3", "amplification-seed1"])
    def test_store_equals_resolver_crawl(self, config):
        world = build_world(config)
        reference_world = build_world(config)
        store = OpenIntelPlatform(world).run()
        reference = OpenIntelPlatform(
            reference_world, transport=reference_world.transport).run()
        assert store.n_measurements > 0
        assert _store_state(store) == _store_state(reference)


def _record_resolves(monkeypatch):
    """Log the ``(qname, ts)`` of every resolver call."""
    calls = []
    resolve = AgnosticResolver.resolve

    def recording(self, qname, qtype, servers, when):
        calls.append((qname, when))
        return resolve(self, qname, qtype, servers, when)

    monkeypatch.setattr(AgnosticResolver, "resolve", recording)
    return calls


class TestQuietInstants:
    """A dense-day query at an instant no attack covers is answered in
    closed form; every other query still runs the resolver."""

    def test_quiet_branch_is_taken(self, tiny_world, monkeypatch):
        calls = _record_resolves(monkeypatch)
        platform = OpenIntelPlatform(tiny_world,
                                     telemetry=RunTelemetry.create())
        platform.run()
        stats = platform.stats
        assert stats.quiet_queries > 0
        assert len(calls) == stats.queries - stats.quiet_queries
        assert len(calls) < 0.1 * stats.queries

    @staticmethod
    def _crawl_day(attack_of, pick, monkeypatch):
        """Crawl one day of a tiny world whose only attack is
        ``attack_of(world, record, instants)``, for the first domain
        ``pick(world, record)`` accepts; returns the domain's query
        instants, its resolved instants, and the store with the
        all-resolver reference's."""
        world = build_world(WorldConfig.tiny())
        platform = OpenIntelPlatform(world)
        record = next(d for d in world.directory.domains
                      if d.nsset_id in platform._quiet_instants
                      and pick(world, d))
        day = day_start(world.timeline.start) + 10 * DAY
        stride = DAY // DENSE_OVERSAMPLING
        offset = platform._offsets[record.domain_id]
        instants = sorted(day + (offset + j * stride) % DAY
                          for j in range(DENSE_OVERSAMPLING))
        attack = attack_of(world, record, instants)
        reference_world = build_world(WorldConfig.tiny())
        reference_world.replace_attacks([dataclasses.replace(attack)])
        reference = OpenIntelPlatform(
            reference_world, transport=reference_world.transport
        ).run(day, day + DAY)
        world.replace_attacks([attack])
        calls = _record_resolves(monkeypatch)
        store = OpenIntelPlatform(world).run(day, day + DAY)
        resolved = [ts for qname, ts in calls if qname == record.name]
        return instants, resolved, _store_state(store), \
            _store_state(reference)

    def test_span_start_is_busy_and_end_is_quiet(self, monkeypatch):
        def attack_of(world, record, instants):
            return Attack(victim_ip=record.delegation.nameserver_ips[0],
                          window=Window(instants[2], instants[3]),
                          vectors=[AttackVector.udp_flood(53, 1e6)])

        instants, resolved, store, reference = self._crawl_day(
            attack_of, lambda world, record: True, monkeypatch)
        assert resolved == [instants[2]]
        assert store == reference

    def test_anycast_member_with_attacked_neighbour_keeps_resolver(
            self, monkeypatch):
        def anycast_member(world, record):
            return next((ip for ip in record.delegation.nameserver_ips
                         if world.nameservers_by_ip[ip].anycast is not None),
                        None)

        def attack_of(world, record, instants):
            # The site's load ignores its /24, but the span does not.
            neighbour = anycast_member(world, record) ^ 1
            assert neighbour not in record.delegation.nameserver_ips
            day = day_start(instants[0])
            return Attack(victim_ip=neighbour, window=Window(day, day + DAY),
                          vectors=[AttackVector.udp_flood(53, 1e6)])

        instants, resolved, store, reference = self._crawl_day(
            attack_of, lambda world, record: anycast_member(world, record)
            is not None, monkeypatch)
        assert sorted(resolved) == instants
        assert store == reference

    def test_slow_nssets_keep_resolver_under_short_timer(self, monkeypatch):
        # 200 ms - 73.47 ms of the largest jitter: an NSSet whose slowest
        # member's base RTT exceeds ~126.5 ms may miss the first timer.
        for module in (resolver_module, platform_module):
            monkeypatch.setattr(module, "ATTEMPT_TIMEOUT_MS", 200.0)
        world = build_world(WorldConfig.tiny(seed=1))
        reference_world = build_world(WorldConfig.tiny(seed=1))
        reference = OpenIntelPlatform(
            reference_world, transport=reference_world.transport).run()
        calls = _record_resolves(monkeypatch)
        platform = OpenIntelPlatform(world, telemetry=RunTelemetry.create())
        store = platform.run()
        assert _store_state(store) == _store_state(reference)
        assert platform.stats.quiet_queries > 0

        directory = world.directory
        slow = {nsset_id for nsset_id, ips in directory.nssets.items()
                if all(ip in world.nameservers_by_ip for ip in ips)
                and max(world.nameservers_by_ip[ip].base_rtt_ms
                        for ip in ips) > 200 - _MAX_JITTER_MS}
        days = set(world.timeline.days())
        expected = {(d.domain_id, day): DENSE_OVERSAMPLING
                    for d in directory.domains if d.nsset_id in slow
                    for day in world.dense_days_of(d.nsset_id) & days}
        assert expected
        by_name = {d.name: d for d in directory.domains}
        got = Counter((by_name[qname].domain_id, day_start(ts))
                      for qname, ts in calls
                      if by_name[qname].nsset_id in slow)
        assert got == expected


class TestCrawlStats:
    @pytest.fixture(scope="class")
    def stats(self, tiny_world):
        platform = OpenIntelPlatform(tiny_world,
                                     telemetry=RunTelemetry.create())
        platform.run()
        return platform.stats

    def test_stats_are_internally_consistent(self, stats):
        assert stats.domain_days == (stats.fast_path_days + stats.dead_days
                                     + stats.resolver_days)
        assert 0 < stats.quiet_queries <= stats.queries
        assert stats.rows == (stats.ok + stats.timeout + stats.servfail
                              + stats.other)
        assert stats.rows > 0

    def test_published_metrics_match_the_stats(self, stats):
        telemetry = RunTelemetry.create()
        stats.publish(telemetry.registry)
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters["repro.crawl.domain_days"] == stats.domain_days
        assert counters["repro.crawl.quiet_queries"] == stats.quiet_queries
        assert counters["repro.crawl.rows"] == stats.rows
        assert counters["repro.crawl.responses{status=ok}"] == stats.ok
