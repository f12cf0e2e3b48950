"""Tests for anycast deployments and the quarterly census."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.anycast.census import CENSUS_DATES, AnycastCensus, CensusSnapshot
from repro.anycast.deployment import AnycastDeployment, AnycastSite
from repro.net.ip import parse_ip, slash24_of
from repro.util.timeutil import parse_ts


def make_deployment(n_sites=4, capacity=100_000.0):
    return AnycastDeployment.build(seed=7, n_sites=n_sites,
                                   per_site_capacity_pps=capacity)


class TestAnycastDeployment:
    def test_weights_normalized(self):
        deployment = make_deployment(6)
        assert sum(s.catchment_weight for s in deployment.sites) == \
            pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AnycastDeployment([])

    def test_spread_attack_conserves_rate(self):
        # Every site's load times its capacity is its catchment's share
        # of the attack; the shares add back up to the whole attack.
        deployment = make_deployment(5)
        absorbed = sum(deployment.load_at_site(site, 1_000_000.0)
                       * site.capacity_pps for site in deployment.sites)
        assert absorbed == pytest.approx(1_000_000.0)

    def test_site_for_region_prefers_local(self):
        sites = [AnycastSite("s0", "eu-west", 1.0, 1000.0),
                 AnycastSite("s1", "us-east", 5.0, 1000.0)]
        deployment = AnycastDeployment(sites)
        assert deployment.site_for_region("eu-west").site_id == "s0"

    def test_site_for_region_falls_back_to_largest(self):
        sites = [AnycastSite("s0", "eu-west", 1.0, 1000.0),
                 AnycastSite("s1", "us-east", 5.0, 1000.0)]
        deployment = AnycastDeployment(sites)
        assert deployment.site_for_region("oceania").site_id == "s1"

    def test_load_at_site_dilutes_attack(self):
        # The anycast resilience mechanism: per-site load is the
        # catchment share, so a 16-site deployment absorbs ~16x more.
        deployment = make_deployment(16, capacity=100_000.0)
        site = deployment.sites[0]
        util = deployment.load_at_site(site, 1_000_000.0)
        assert util < 1_000_000.0 / 100_000.0

    @given(st.integers(min_value=1, max_value=40))
    def test_build_site_count(self, n):
        assert len(make_deployment(n).sites) == n

    def test_build_rejects_bad_args(self):
        with pytest.raises(ValueError):
            AnycastDeployment.build(1, 0, 100.0)
        with pytest.raises(ValueError):
            AnycastDeployment.build(1, 4, 100.0, skew=1.5)


class TestCensusSnapshot:
    def test_slash24_matching(self):
        snap = CensusSnapshot(taken_at=0, anycast_slash24s={
            slash24_of(parse_ip("192.0.2.77"))})
        assert snap.is_anycast(parse_ip("192.0.2.1"))
        assert not snap.is_anycast(parse_ip("192.0.3.1"))


class TestAnycastCensus:
    def _census(self, recall=1.0):
        ips = [parse_ip("192.0.2.1"), parse_ip("198.51.100.1")]
        return AnycastCensus.observe_world(seed=5, anycast_ips=ips,
                                           recall=recall)

    def test_quarterly_snapshots(self):
        census = self._census()
        assert len(census.snapshots) == len(CENSUS_DATES)

    def test_snapshot_for_before_first_uses_first(self):
        census = self._census()
        ts = parse_ts("2020-11-15")  # before Jan-2021 census
        assert census.snapshot_for(ts) is census.snapshots[0]

    def test_snapshot_for_selects_most_recent(self):
        census = self._census()
        ts = parse_ts("2021-08-15")
        assert census.snapshot_for(ts).taken_at == parse_ts("2021-07-01")

    def test_perfect_recall_detects_all(self):
        census = self._census(recall=1.0)
        assert census.is_anycast(parse_ip("192.0.2.200"), parse_ts("2021-02-01"))

    def test_lower_bound_character(self):
        # With imperfect recall some snapshot misses some /24 — the
        # census is a lower bound, never an over-approximation.
        ips = [parse_ip(f"198.18.{i}.1") for i in range(120)]
        census = AnycastCensus.observe_world(seed=5, anycast_ips=ips,
                                             recall=0.7)
        detected = sum(len(s) for s in census.snapshots)
        total = len(CENSUS_DATES) * len(ips)
        assert detected < total
        for snap in census.snapshots:
            for s24 in snap.anycast_slash24s:
                assert s24 in {slash24_of(ip) for ip in ips}

    def test_rejects_bad_recall(self):
        with pytest.raises(ValueError):
            AnycastCensus.observe_world(1, [], recall=0.0)

    def test_label_nsset(self):
        census = self._census()
        ts = parse_ts("2021-02-01")
        anycast_ip = parse_ip("192.0.2.9")
        unicast_ip = parse_ip("203.0.113.9")
        assert census.label_nsset([anycast_ip], ts) == "anycast"
        assert census.label_nsset([unicast_ip], ts) == "unicast"
        assert census.label_nsset([anycast_ip, unicast_ip], ts) == "partial"
        assert census.label_nsset([], ts) == "unicast"

    def test_empty_census_labels_unicast(self):
        census = AnycastCensus()
        assert not census.is_anycast(parse_ip("192.0.2.1"), 0)

    def test_dump_load_roundtrip(self):
        census = self._census()
        buf = io.StringIO()
        census.dump(buf)
        buf.seek(0)
        loaded = AnycastCensus.load(buf)
        assert len(loaded.snapshots) == len(census.snapshots)
        for a, b in zip(loaded.snapshots, census.snapshots):
            assert a.taken_at == b.taken_at
            assert a.anycast_slash24s == b.anycast_slash24s

    def test_load_rejects_malformed(self):
        with pytest.raises(ValueError):
            AnycastCensus.load(io.StringIO('{"nope": 1}\n'))

    def test_deterministic(self):
        a = self._census(recall=0.8)
        b = self._census(recall=0.8)
        for snap_a, snap_b in zip(a.snapshots, b.snapshots):
            assert snap_a.anycast_slash24s == snap_b.anycast_slash24s
