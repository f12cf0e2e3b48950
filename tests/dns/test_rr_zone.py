"""Tests for delegations."""

from repro.dns.name import DomainName
from repro.dns.zone import Delegation
from repro.net.ip import parse_ip


class TestDelegation:
    def _delegation(self):
        return Delegation.build("example.com", {
            "ns1.host.net": (parse_ip("192.0.2.1"),),
            "ns2.host.net": (parse_ip("192.0.2.2"), parse_ip("192.0.2.3")),
        })

    def test_nameserver_ips_sorted_unique(self):
        d = self._delegation()
        assert d.nameserver_ips == tuple(sorted(d.nameserver_ips))
        assert len(set(d.nameserver_ips)) == 3

    def test_shared_ip_deduplicated(self):
        d = Delegation.build("example.com", {
            "ns1.host.net": (5,),
            "ns2.host.net": (5,),
        })
        assert d.nameserver_ips == (5,)

    def test_hosts(self):
        d = self._delegation()
        assert DomainName("ns1.host.net") in [host for host, _ in d.ns_addrs]

    def test_addresses_of(self):
        d = self._delegation()
        assert dict(d.ns_addrs)[DomainName("ns2.host.net")] == (
            parse_ip("192.0.2.2"), parse_ip("192.0.2.3"))

    def test_len(self):
        assert len(self._delegation()) == 2

    def test_hashable(self):
        assert hash(self._delegation()) == hash(self._delegation())
