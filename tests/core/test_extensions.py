"""Tests for the §9/§4.3 extensions: multi-vantage probing, end-user
caching impact, and the telescope visibility oracle."""

import random

import pytest

from repro.core.enduser import (
    CacheScenario,
    analytic_failure_share,
    caching_grid,
    simulate_enduser_impact,
)
from repro.core.vantage import (
    REGION_RTT_OFFSET_MS,
    CatchmentDisagreement,
    MultiVantageProber,
    VantageObservation,
    VantagePoint,
    masking_analysis,
)
from repro.core.visibility import analyze_visibility, match_attacks
from repro.dns.name import DomainName
from repro.dns.rr import RRType
from repro.dns.server import ServerReply
from repro.util.timeutil import DAY, FIVE_MINUTES, HOUR, Window, parse_ts
from repro.world.capacity import LoadBreakdown
from repro.world.config import WorldConfig
from repro.world.simulation import build_world


class TestVantagePoint:
    def test_rejects_unknown_region(self, tiny_world):
        with pytest.raises(ValueError):
            VantagePoint(tiny_world, "atlantis")

    def test_unicast_load_identical_across_vantages(self, tiny_world):
        transip = tiny_world.providers["TransIP"]
        ns = transip.nameservers[0]
        ts = parse_ts("2021-03-01 20:00")
        home = VantagePoint(tiny_world, "eu-west")
        far = VantagePoint(tiny_world, "ap-east")
        assert home.load_at(ns, ts).server_util == \
            far.load_at(ns, ts).server_util

    def test_far_vantage_sees_higher_rtt(self, tiny_world):
        euskaltel = tiny_world.providers["Euskaltel"]
        ns = euskaltel.nameservers[0]
        quiet = parse_ts("2021-03-25 12:00")
        home = VantagePoint(tiny_world, "eu-west")
        far = VantagePoint(tiny_world, "us-east")
        home_rtts = [home.transport(ns.ip, "x.com", None, quiet).rtt_ms
                     for _ in range(30)]
        far_rtts = [far.transport(ns.ip, "x.com", None, quiet).rtt_ms
                    for _ in range(30)]
        gap = (sum(far_rtts) - sum(home_rtts)) / 30
        assert gap == pytest.approx(REGION_RTT_OFFSET_MS["us-east"], abs=3)

    def test_anycast_routed_to_regional_site(self, tiny_world):
        # The March 18 mega-peak campaign hits Google's anycast fleet.
        google = tiny_world.providers["Google"]
        ns = google.nameservers[0]
        ts = parse_ts("2021-03-18 10:10")
        assert tiny_world.load_at(ns, ts).server_util > 0
        loads = {region: VantagePoint(tiny_world, region).load_at(ns, ts)
                 for region in ("eu-west", "us-east", "ap-east")}
        utils = {r: l.server_util for r, l in loads.items()}
        # Different catchments absorb different attack shares.
        assert len({round(u, 9) for u in utils.values()}) > 1


class TestMultiVantageProber:
    def test_probe_shapes(self, tiny_world):
        prober = MultiVantageProber(tiny_world,
                                    regions=("eu-west", "us-east"))
        ns_ip = tiny_world.providers["TransIP"].nameservers[0].ip
        result = prober.probe(ns_ip, parse_ts("2021-03-25 12:00"),
                              n_probes=10)
        assert len(result.observations) == 2
        for obs in result.observations:
            assert 0.0 <= obs.answered_share <= 1.0

    def test_quiet_server_no_disagreement(self, tiny_world):
        prober = MultiVantageProber(tiny_world)
        ns_ip = tiny_world.providers["Euskaltel"].nameservers[0].ip
        result = prober.probe(ns_ip, parse_ts("2021-03-25 12:00"))
        assert result.max_disagreement == 0.0
        assert result.masked_from == []

    def test_rejects_empty_regions(self, tiny_world):
        with pytest.raises(ValueError):
            MultiVantageProber(tiny_world, regions=())

    def test_rejects_bad_probe_count(self, tiny_world):
        prober = MultiVantageProber(tiny_world)
        with pytest.raises(ValueError):
            prober.probe(1, 0, n_probes=0)

    def test_masking_analysis_runs(self, tiny_study):
        results = masking_analysis(tiny_study.world, tiny_study.feed,
                                   max_attacks=10, n_probes=10)
        assert 0 < len(results) <= 10
        for result in results:
            assert len(result.observations) == 3


class _ReferenceVantage:
    """The region-bound load model and transport written out from the
    world's private attack index and weights, kept as the reference
    :class:`VantagePoint` must equal."""

    def __init__(self, world, region):
        self.world = world
        self.region = region
        self._rtt_offset = REGION_RTT_OFFSET_MS[region]
        self._rng = world.rngs.stream("vantage", region)

    def load_at(self, ns, ts):
        if ns.anycast is None:
            return self.world.load_at(ns, ts)
        site = ns.anycast.site_for_region(self.region)
        attacks = self.world._index.active_on_ip(ns.ip, ts)
        blackout = any(
            (bw := a.blackout_window()) is not None and bw.contains(int(ts))
            for a in attacks)
        server_cost = 0.0
        app_pps = 0.0
        for attack in attacks:
            pps = attack.effective_pps(int(ts))
            if pps <= 0.0:
                continue
            server_frac, app_frac, _ = \
                self.world._attack_weights[attack.attack_id]
            server_cost += pps * server_frac
            app_pps += pps * app_frac
        share = site.catchment_weight
        return LoadBreakdown(
            server_util=server_cost * share / site.capacity_pps,
            link_util=0.0,
            app_util=app_pps * share / site.capacity_pps,
            blackout=blackout)

    def transport(self, ns_ip, qname, qtype, ts):
        ns = self.world.nameservers_by_ip.get(ns_ip)
        if ns is None:
            return ServerReply.dropped()
        if ns.is_misconfig_target:
            if not ns.answers_queries:
                return ServerReply.dropped()
            return ServerReply.ok(ns.base_rtt_ms + self._rtt_offset
                                  + self._rng.expovariate(0.5))
        load = self.load_at(ns, ts)
        return self.world.capacity_model.sample_reply(
            self._rng, ns.base_rtt_ms + self._rtt_offset, load)


def _reference_probe(vantages, ns_ip, ts, n_probes):
    """``MultiVantageProber.probe`` over :class:`_ReferenceVantage` s."""
    qname = DomainName("probe.invalid")
    result = CatchmentDisagreement(ns_ip=ns_ip, ts=ts)
    for vantage in vantages:
        answered = sum(
            vantage.transport(ns_ip, qname, RRType.NS, ts).answered
            for _ in range(n_probes))
        result.observations.append(VantageObservation(
            region=vantage.region,
            answered_share=answered / n_probes))
    return result


class TestVantageIsReference:
    """VantagePoint's load and MultiVantageProber's replies equal the
    reference's, value for value and draw for draw."""

    REGIONS = ("eu-west", "us-east", "ap-east")

    @staticmethod
    def _instants(world, ip):
        """Instants inside every attack on ``ip``, plus one quiet one."""
        out = [world.timeline.start + DAY // 2]
        for attack in (a for a in world.attacks if a.victim_ip == ip):
            window = attack.impact_window
            step = max(FIVE_MINUTES, window.duration // 8)
            out.extend(range(window.start, window.end, step))
            out.append(window.end - 1)
        return out

    @staticmethod
    def _pair():
        # Two worlds, so the reference and the real vantages draw from
        # equal, separate ``vantage`` streams.
        return build_world(WorldConfig.tiny()), build_world(WorldConfig.tiny())

    def test_anycast_load_and_probes_equal_reference(self):
        ref_world, world = self._pair()
        anycast = sorted(ip for ip, ns in world.nameservers_by_ip.items()
                         if ns.anycast is not None)
        assert anycast
        ref_vantages = [_ReferenceVantage(ref_world, region)
                        for region in self.REGIONS]
        prober = MultiVantageProber(world, self.REGIONS)
        n_loaded = 0
        for ip in anycast:
            ns, ref_ns = world.nameservers_by_ip[ip], \
                ref_world.nameservers_by_ip[ip]
            for ts in self._instants(world, ip):
                for ref, vantage in zip(ref_vantages, prober.vantages):
                    expected = ref.load_at(ref_ns, ts)
                    assert vantage.load_at(ns, ts) == expected
                    n_loaded += expected.server_util > 0
                assert prober.probe(ip, ts, n_probes=5) == \
                    _reference_probe(ref_vantages, ip, ts, 5)
        assert n_loaded > 0  # some instants carry attack load

    def test_unicast_and_misconfig_probes_equal_reference(self):
        ref_world, world = self._pair()
        attacked = sorted({a.victim_ip for a in world.attacks
                           if a.victim_ip in world.nameservers_by_ip})
        unicast = [ip for ip in attacked
                   if world.nameservers_by_ip[ip].anycast is None][:10]
        misconfig = sorted(ip for ip, ns in world.nameservers_by_ip.items()
                           if ns.is_misconfig_target)
        assert unicast and misconfig
        ref_vantages = [_ReferenceVantage(ref_world, region)
                        for region in self.REGIONS]
        prober = MultiVantageProber(world, self.REGIONS)
        for ip in unicast + misconfig + [1]:  # 1: no such nameserver
            for ts in self._instants(world, ip):
                assert prober.probe(ip, ts, n_probes=5) == \
                    _reference_probe(ref_vantages, ip, ts, 5)


class TestEndUserCaching:
    ATTACK = Window(0, 2 * HOUR)

    def test_high_ttl_popular_domain_protected(self):
        # §6.3.1: popular + high TTL -> the cache usually carries users
        # through a 2h attack (the entry expires mid-attack only when
        # its uniform phase lands inside the window: ~8% of the time).
        scenario = CacheScenario(queries_per_hour=100.0, ttl_s=86400)
        impacts = [simulate_enduser_impact(random.Random(seed), scenario,
                                           self.ATTACK, failure_p=1.0)
                   for seed in range(20)]
        mean_share = sum(i.failure_share for i in impacts) / len(impacts)
        assert mean_share < 0.25
        unaffected = sum(1 for i in impacts if i.failure_share == 0.0)
        assert unaffected >= 12

    def test_low_ttl_fails_quickly(self):
        rng = random.Random(2)
        scenario = CacheScenario(queries_per_hour=100.0, ttl_s=60)
        impact = simulate_enduser_impact(rng, scenario, self.ATTACK,
                                         failure_p=1.0)
        assert impact.failure_share > 0.8
        # The same draws over the attack's first ten minutes already
        # fail a query.
        first_minutes = Window(self.ATTACK.start, self.ATTACK.start + 10 * 60)
        early = simulate_enduser_impact(random.Random(2), scenario,
                                        first_minutes, failure_p=1.0)
        assert early.n_failed > 0

    def test_partial_loss_mostly_tolerated(self):
        # Moura et al. 2018: caching tolerates ~50% loss well.
        rng = random.Random(3)
        scenario = CacheScenario(queries_per_hour=60.0, ttl_s=3600)
        impact = simulate_enduser_impact(rng, scenario, self.ATTACK,
                                         failure_p=0.5)
        assert impact.failure_share < 0.10

    def test_unpopular_domain_suffers_more(self):
        popular = simulate_enduser_impact(
            random.Random(4), CacheScenario(600.0, 300), self.ATTACK, 0.9)
        rare = simulate_enduser_impact(
            random.Random(4), CacheScenario(2.0, 300), self.ATTACK, 0.9)
        assert rare.failure_share >= popular.failure_share

    def test_analytic_matches_simulation(self):
        scenario = CacheScenario(queries_per_hour=120.0, ttl_s=600)
        window = Window(0, 24 * HOUR)
        sims = [simulate_enduser_impact(random.Random(s), scenario, window,
                                        failure_p=0.5)
                for s in range(8)]
        measured = sum(i.n_failed for i in sims) / max(
            1, sum(i.n_queries for i in sims))
        predicted = analytic_failure_share(scenario, window.duration, 0.5)
        assert measured == pytest.approx(predicted, abs=0.02)

    def test_grid_monotone_in_ttl(self):
        # Average over several grid seeds: higher TTLs protect more.
        totals = {60: 0.0, 3600: 0.0, 86400: 0.0}
        for seed in range(10):
            grid = caching_grid(seed, self.ATTACK, failure_p=1.0,
                                popularities=(100.0,),
                                ttls=(60, 3600, 86400))
            for scenario, impact in grid:
                totals[scenario.ttl_s] += impact.failure_share
        assert totals[60] > totals[3600] > totals[86400]

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            CacheScenario(queries_per_hour=0.0, ttl_s=60)
        with pytest.raises(ValueError):
            CacheScenario(queries_per_hour=1.0, ttl_s=-1)
        with pytest.raises(ValueError):
            simulate_enduser_impact(random.Random(1),
                                    CacheScenario(1.0, 60),
                                    self.ATTACK, failure_p=1.5)


class TestVisibilityOracle:
    def test_matches_pair_overlapping(self, tiny_study):
        matches = match_attacks(tiny_study.world.attacks, tiny_study.feed)
        assert len(matches) == len(tiny_study.world.attacks)
        detected = [m for m in matches if m.detected]
        assert detected
        for match in detected[:20]:
            assert match.inferred.victim_ip == match.truth.victim_ip

    def test_invisible_attacks_never_detected(self, tiny_study):
        report = analyze_visibility(tiny_study.world.attacks,
                                    tiny_study.feed)
        # Interval-matching collisions (an invisible attack overlapping
        # a visible one on the same victim) can produce rare spurious
        # matches; genuine detection is impossible.
        assert report.class_rate("invisible (reflected/unspoofed)") <= 0.1

    def test_visible_attacks_mostly_detected(self, tiny_study):
        report = analyze_visibility(tiny_study.world.attacks,
                                    tiny_study.feed)
        assert report.class_rate("randomly spoofed (visible)") > 0.85

    def test_multivector_underestimated(self, tiny_study):
        report = analyze_visibility(tiny_study.world.attacks,
                                    tiny_study.feed)
        if report.multivector_underestimate is None:
            pytest.skip("no multi-vector attacks detected in tiny world")
        # The telescope misses the invisible vector: inferred < true.
        assert report.multivector_underestimate < 0.9
        # Pure spoofed attacks are estimated roughly correctly.
        assert report.pure_spoofed_estimate == pytest.approx(1.0, abs=0.35)

    def test_detection_rate_below_one(self, tiny_study):
        report = analyze_visibility(tiny_study.world.attacks,
                                    tiny_study.feed)
        assert 0.5 < report.detection_rate < 1.0
