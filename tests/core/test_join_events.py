"""Tests for the dataset join, NSSet metadata, and event extraction."""

import pytest

from repro.core.events import EVENT_MIN_DOMAINS, extract_events
from repro.core.join import AttackClass, join_datasets
from repro.net.ip import parse_ip, slash24_of


@pytest.fixture(scope="module")
def metadata(tiny_study):
    return tiny_study.metadata


class TestJoin:
    def test_classification_partition(self, tiny_study):
        join = tiny_study.join
        assert len(join) == len(tiny_study.feed.attacks)
        total = sum(len(join.by_class(k)) for k in AttackClass)
        assert total == len(join)

    def test_direct_attacks_have_domains(self, tiny_study):
        for classified in tiny_study.join.dns_direct_attacks:
            assert classified.affected_domains > 0
            assert classified.nsset_ids

    def test_direct_victims_are_nameservers(self, tiny_study):
        ns_ips = tiny_study.world.directory.nameserver_ips()
        for classified in tiny_study.join.dns_direct_attacks:
            assert classified.victim_ip in ns_ips

    def test_open_resolver_classification(self, tiny_study):
        for classified in tiny_study.join.classified:
            if classified.victim_ip == parse_ip("8.8.8.8"):
                assert classified.klass is AttackClass.DNS_OPEN_RESOLVER

    def test_other_victims_not_nameservers(self, tiny_study):
        ns_ips = tiny_study.world.directory.nameserver_ips()
        for classified in tiny_study.join.by_class(AttackClass.OTHER):
            assert classified.victim_ip not in ns_ips

    def test_same_s24_classification(self, tiny_study):
        ns_s24s = {slash24_of(ip)
                   for ip in tiny_study.world.directory.nameserver_ips()}
        for classified in tiny_study.join.by_class(AttackClass.DNS_SAME_S24):
            assert slash24_of(classified.victim_ip) in ns_s24s

    def test_join_without_openresolver_scan(self, tiny_study):
        join = join_datasets(tiny_study.feed.attacks,
                             tiny_study.world.directory, None)
        # Without the scan, resolver IPs count as direct.
        assert not join.by_class(AttackClass.DNS_OPEN_RESOLVER)

    def test_dns_attacks_includes_open_resolvers(self, tiny_study):
        join = tiny_study.join
        dns = join.dns_attacks
        assert len(dns) >= len(join.dns_direct_attacks)


class TestNSSetMetadata:
    def test_info_structure(self, tiny_study, metadata):
        record = next(d for d in tiny_study.world.directory.domains
                      if d.provider_name == "TransIP" and not d.misconfig
                      and d.secondary_provider is None)
        info = metadata.info(record.nsset_id, tiny_study.world.timeline.start)
        assert info.n_slash24 == 3       # paper: three subnets
        assert info.n_asns == 1          # one ASN
        assert info.anycast_label == "unicast"
        assert info.company == "TransIP"
        assert info.single_asn and not info.single_prefix

    def test_anycast_label(self, tiny_study, metadata):
        record = next(d for d in tiny_study.world.directory.domains
                      if d.provider_name == "Cloudflare" and not d.misconfig
                      and d.secondary_provider is None)
        info = metadata.info(record.nsset_id, tiny_study.world.timeline.start)
        assert info.anycast_label in ("anycast", "partial")  # census recall

    def test_milru_single_prefix_single_asn(self, tiny_study, metadata):
        record = tiny_study.world.directory.get_by_name("mil.ru")
        info = metadata.info(record.nsset_id, tiny_study.world.timeline.start)
        assert info.single_prefix
        assert info.single_asn
        assert info.is_unicast

    def test_info_cached(self, tiny_study, metadata):
        record = tiny_study.world.directory.domains[0]
        ts = tiny_study.world.timeline.start
        assert metadata.info(record.nsset_id, ts) is \
            metadata.info(record.nsset_id, ts + 60)

    def test_company_of_ip(self, tiny_study, metadata):
        assert metadata.company_of_ip(parse_ip("8.8.8.8")) == "Google"
        assert metadata.company_of_ip(parse_ip("192.168.12.34")) == "Private IP"

    def test_n_domains_counts_members(self, tiny_study, metadata):
        record = next(d for d in tiny_study.world.directory.domains
                      if not d.misconfig)
        info = metadata.info(record.nsset_id, tiny_study.world.timeline.start)
        assert info.n_domains == len(
            tiny_study.world.directory.domains_of_nsset(record.nsset_id))


class TestEvents:
    def test_min_domains_threshold(self, tiny_study):
        for event in tiny_study.events:
            assert event.n_measured >= EVENT_MIN_DOMAINS

    def test_higher_threshold_fewer_events(self, tiny_study):
        stricter = extract_events(tiny_study.join, tiny_study.store,
                                  tiny_study.metadata, min_domains=50)
        assert len(stricter) <= len(tiny_study.events)

    def test_events_only_direct(self, tiny_study):
        direct_ips = {c.victim_ip for c in tiny_study.join.dns_direct_attacks}
        for event in tiny_study.events:
            assert event.attack.victim_ip in direct_ips

    def test_transip_march_event_present(self, tiny_study):
        transip = [e for e in tiny_study.events if e.company == "TransIP"]
        assert transip
        big = max(transip, key=lambda e: e.n_measured)
        # Paper Figure 3: ~20% timeouts during the March attack.
        assert 0.05 < big.failure_rate < 0.45
        # Paper Figure 2: a massive RTT impairment.
        assert big.max_impact is None or big.max_impact > 5

    def test_event_accessors(self, tiny_study):
        event = tiny_study.events[0]
        assert event.duration_s == event.attack.duration_s
        assert event.intensity_ppm == event.attack.max_ppm
        assert event.nsset_id == event.info.nsset_id
        assert "AttackEvent" in repr(event)
