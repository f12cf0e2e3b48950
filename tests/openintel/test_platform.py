"""Tests for the daily crawl platform."""

import pytest

from repro.dns.rcode import ResponseStatus
from repro.net.ip import parse_ip
from repro.openintel.platform import OpenIntelPlatform
from repro.util.timeutil import DAY, day_start, parse_ts


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
        n_days = tiny_world.timeline.n_days
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
        measured = store.domains_measured(record.nsset_id, start, end)
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
        platform = OpenIntelPlatform(tiny_world)
        record = next(d for d in tiny_world.directory.domains
                      if d.provider_name == "Euskaltel" and not d.misconfig
                      and d.secondary_provider is None)
        quiet_ts = parse_ts("2021-03-25 12:00")
        slow = [platform.measure_domain(record.domain_id, quiet_ts)
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

    def test_rejects_bad_oversampling(self, tiny_world):
        with pytest.raises(ValueError):
            OpenIntelPlatform(tiny_world, dense_oversampling=0)

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
