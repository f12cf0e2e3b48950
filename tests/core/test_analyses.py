"""Tests for the §6 analyses over the small 3-month study."""

import pytest

from repro.core.correlation import (
    attack_duration_modes,
    attack_intensity_modes,
    duration_impact_buckets,
)
from repro.core.longitudinal import (
    affected_domains_by_month,
    dataset_totals,
)
from repro.core.ports import analyze_successful_ports
from repro.core.resilience import complete_failure_prefix_shares
from repro.core.topasn import top_attacked_asns, top_attacked_ips
from repro.net.ip import parse_ip
from repro.net.ports import PORT_DNS, PROTO_ICMP, PROTO_TCP, PROTO_UDP


class TestMonthlySummary:
    def test_covers_study_months(self, small_study):
        summary = small_study.monthly
        keys = [row.key for row in summary.rows]
        assert keys == [(2021, 1), (2021, 2), (2021, 3)]

    def test_totals_consistent(self, small_study):
        summary = small_study.monthly
        assert summary.total_attacks == len(small_study.feed.attacks)
        assert summary.total_dns_attacks == len(small_study.join.dns_attacks)

    def test_dns_share_in_paper_ballpark(self, small_study):
        # Paper Table 3: monthly DNS share 0.57%..2.12%.
        lo, hi = small_study.monthly.dns_share_range()
        assert 0.003 < lo
        assert hi < 0.05

    def test_ip_counts(self, small_study):
        summary = small_study.monthly
        assert summary.unique_dns_ips() <= summary.unique_ips()
        for row in summary.rows:
            assert row.total_ips <= row.total_attacks

    def test_dataset_totals(self, small_study):
        totals = dataset_totals(small_study.feed.attacks)
        assert totals["attacks"] == len(small_study.feed.attacks)
        assert totals["slash24s"] <= totals["ips"]


class TestAffectedDomains:
    def test_monthly_affected(self, small_study):
        rows = affected_domains_by_month(small_study.join,
                                         small_study.world.directory)
        assert rows
        for (key, unique, peak) in rows:
            assert peak <= unique or unique == 0
            assert key[0] == 2021

    def test_mega_peaks_present(self, small_study):
        # The scripted mega-provider campaigns create months where a
        # single attack touches a large slice of the namespace.
        rows = affected_domains_by_month(small_study.join,
                                         small_study.world.directory)
        n_domains = len(small_study.world.directory)
        assert max(peak for _, _, peak in rows) > n_domains * 0.05


class TestPortAnalysis:
    def test_shares_sum_to_one(self, small_study):
        ports = small_study.ports
        total_share = sum(ports.proto_share(p)
                          for p in (PROTO_TCP, PROTO_UDP, PROTO_ICMP))
        assert total_share == pytest.approx(1.0)

    def test_single_port_dominates(self, small_study):
        # Paper: 80.7% single port.
        assert 0.6 < small_study.ports.single_port_share < 0.95

    def test_tcp_dominates(self, small_study):
        assert small_study.ports.proto_share(PROTO_TCP) > 0.6

    def test_top_ports(self, small_study):
        rows = small_study.ports.top_ports(proto=PROTO_TCP, n=3)
        assert rows
        names = [r[1] for r in rows]
        assert "HTTP" in names or "DNS" in names

    def test_successful_ports_skew_to_dns(self, small_study):
        ok = small_study.successful_ports
        if ok.n_attacks == 0:
            pytest.skip("no successful attacks in the small study")
        # Paper §6.3.1: successful attacks target port 53 more often.
        assert ok.port_share(PORT_DNS) >= small_study.ports.port_share(PORT_DNS)

    def test_successful_counts_attack_once(self, small_study):
        ok = analyze_successful_ports(small_study.events)
        failing_attacks = {(e.attack.victim_ip, e.attack.start)
                           for e in small_study.events if e.has_failures}
        assert ok.n_attacks == len(failing_attacks)


class TestFailureAnalysis:
    def test_counts_consistent(self, small_study):
        analysis = small_study.failures
        assert analysis.n_events == len(small_study.events)
        assert analysis.n_failing_events == len(analysis.scatter)
        assert analysis.n_failed_queries >= analysis.n_failing_events

    def test_failure_split_parts_sum(self, small_study):
        analysis = small_study.failures
        assert (analysis.n_timeout_queries + analysis.n_servfail_queries
                <= analysis.n_failed_queries)

    def test_timeouts_dominate(self, small_study):
        analysis = small_study.failures
        assert analysis.n_failed_queries > 0
        # Paper §6.3.1 (Figure 7): 92% of failed queries time out, 8%
        # return SERVFAIL.
        assert analysis.timeout_share_of_failures >= 0.85

    def test_failing_mostly_unicast(self, small_study):
        analysis = small_study.failures
        assert analysis.n_failing_events > 0
        # Paper §6.3.1: 99% of failing domains are on unicast NSSets.
        assert analysis.unicast_share_of_failing >= 0.95


class TestImpactAnalysis:
    def test_grid_counts(self, small_study):
        impact = small_study.impact
        assert sum(impact.grid.values()) == impact.n_with_impact

    def test_thresholds_nested(self, small_study):
        impact = small_study.impact
        assert impact.over_100x <= impact.over_10x <= impact.n_with_impact

    def test_top_companies_sorted(self, small_study):
        ranking = small_study.top_companies(10)
        impacts = [impact for _, impact in ranking]
        assert impacts == sorted(impacts, reverse=True)

    def test_scripted_campaigns_top_small_study(self, small_study):
        # Jan-Mar 2021 contains the TransIP March campaign and the
        # NForce Table-6 attack; one of those scripted incidents must
        # dominate the company ranking with a >50x impact.
        ranking = small_study.top_companies(3)
        assert ranking[0][0] in ("TransIP", "NForce B.V.")
        assert ranking[0][1] > 50
        assert "TransIP" in [name for name, _ in ranking]


class TestCorrelationAnalysis:
    def test_pearson_low(self, small_study):
        # The paper's key negative result: intensity does not predict
        # impact.
        corr = small_study.correlation
        assert abs(corr.intensity_pearson) < 0.75

    def test_summary_renders(self, small_study):
        assert "r(intensity" in small_study.correlation.summary()

    def test_duration_buckets_cover_events(self, small_study):
        rows = duration_impact_buckets(small_study.events)
        assert sum(n for _, n, _ in rows) == len(small_study.events)
        assert all(high <= n for _, n, high in rows)

    def test_attack_modes_bimodal(self, small_study):
        attacks = [c.attack for c in small_study.join.dns_direct_attacks]
        duration_modes = attack_duration_modes(attacks)
        assert duration_modes
        # Paper: modes at ~15 min and ~1 h; generator noise allowed.
        assert 5 * 60 < duration_modes[0] < 3 * 3600

    def test_intensity_modes(self, small_study):
        attacks = [c.attack for c in small_study.join.dns_direct_attacks]
        modes = attack_intensity_modes(attacks)
        assert modes
        assert all(m > 0 for m in modes)


class TestResilienceAnalysis:
    def test_strata_cover_events(self, small_study):
        res = small_study.resilience
        total = sum(g.n_events for g in res.by_anycast.values())
        assert total == len(small_study.events)
        assert sum(g.n_events for g in res.by_asn_count.values()) == total
        assert sum(g.n_events for g in res.by_prefix_count.values()) == total

    def test_anycast_never_catastrophic(self, small_study):
        # Paper Figure 11: no anycast NSSet saw a 100-fold increase.
        assert small_study.resilience.anycast_over_100x() == 0

    def test_unicast_worse_than_anycast(self, small_study):
        res = small_study.resilience
        unicast = res.by_anycast.get("unicast")
        anycast = res.by_anycast.get("anycast")
        if not unicast or not anycast or not unicast.impacts:
            pytest.skip("missing stratum")
        assert (unicast.max_impact or 0) > (anycast.max_impact or 0)

    def test_complete_failure_shares_sum(self, small_study):
        shares = complete_failure_prefix_shares(small_study.events)
        if shares:
            assert sum(shares.values()) == pytest.approx(1.0)


class TestTopTargets:
    def test_top_asns_sorted(self, small_study):
        ranked = top_attacked_asns(small_study.join, small_study.metadata)
        counts = [r.n_attacks for r in ranked]
        assert counts == sorted(counts, reverse=True)

    def test_google_among_top(self, small_study):
        # 8.8.8.8/8.8.4.4 hot targets put Google on top (Table 4).
        ranked = top_attacked_asns(small_study.join, small_study.metadata, 5)
        assert "Google" in [r.company for r in ranked]

    def test_top_ips_flag_open_resolvers(self, small_study):
        ranked = top_attacked_ips(small_study.join, small_study.metadata,
                                  small_study.open_resolvers, 10)
        google_dns = [r for r in ranked if r.ip == parse_ip("8.8.4.4")]
        if google_dns:
            assert google_dns[0].is_open_resolver

    def test_filtered_removes_open_resolvers(self, small_study):
        filtered = top_attacked_ips(small_study.join, small_study.metadata,
                                    small_study.open_resolvers, 10,
                                    filtered=True)
        assert all(not r.is_open_resolver for r in filtered)

    def test_ip_text(self, small_study):
        ranked = top_attacked_ips(small_study.join, small_study.metadata,
                                  small_study.open_resolvers, 1)
        assert ranked[0].ip_text.count(".") == 3
