"""Tests for the address plan and AS registry."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.ip import IPv4Prefix, network_of, parse_ip
from repro.topology.generator import ANALOG_ORGS, N_FILLER_ORGS, generate_topology
from repro.topology.internet import (
    RESERVED_PREFIXES,
    TELESCOPE_SLASH9,
    AllocationError,
    InternetTopology,
    overlaps_reserved,
)


def _contains(outer, inner):
    return inner.length >= outer.length and outer.contains_ip(inner.network)


def _reserved_ip(text):
    return overlaps_reserved(IPv4Prefix(parse_ip(text), 32))


class TestReservedSpace:
    def test_telescope_reserved(self):
        assert _reserved_ip("44.0.0.1")
        assert _reserved_ip("44.128.0.1")

    def test_rfc1918_reserved(self):
        assert _reserved_ip("10.1.2.3")
        assert _reserved_ip("192.168.1.1")

    def test_public_not_reserved(self):
        assert not _reserved_ip("8.8.8.8")

    def test_covers_both_directions(self):
        assert overlaps_reserved(IPv4Prefix.parse("10.1.0.0/16"))  # inside
        assert overlaps_reserved(IPv4Prefix.parse("0.0.0.0/0"))    # contains

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([edge for r in RESERVED_PREFIXES
                            for edge in (r.first, r.last)]),
           st.integers(min_value=-(2 ** 20), max_value=2 ** 20),
           st.integers(min_value=0, max_value=32))
    def test_covers_is_containment_either_way(self, edge, offset, length):
        # The range-overlap test against its definition: CIDR blocks
        # overlap exactly when one contains the other.
        base = min(max(edge + offset, 0), 2 ** 32 - 1)
        prefix = IPv4Prefix(network_of(base, length), length)
        assert overlaps_reserved(prefix) == any(
            _contains(r, prefix) or _contains(prefix, r)
            for r in RESERVED_PREFIXES)


class TestInternetTopology:
    def _topology(self):
        internet = InternetTopology()
        org = internet.add_org("Acme", "US")
        return internet, internet.add_as(org)

    def test_allocate_announces(self):
        internet, asys = self._topology()
        prefix = internet.allocate(asys, 20)
        assert internet.origin_asn(prefix.network) == asys.number
        assert prefix in asys.prefixes

    def test_allocations_disjoint(self):
        internet, asys = self._topology()
        prefixes = [internet.allocate(asys, 22) for _ in range(50)]
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1:]:
                assert not _contains(a, b) and not _contains(b, a)

    def test_allocations_avoid_reserved(self):
        internet, asys = self._topology()
        for _ in range(100):
            prefix = internet.allocate(asys, 20)
            assert not overlaps_reserved(prefix)

    def test_announce_rejects_reserved(self):
        internet, asys = self._topology()
        with pytest.raises(AllocationError):
            internet.announce(asys, TELESCOPE_SLASH9)
        with pytest.raises(AllocationError):
            internet.announce(asys, IPv4Prefix.parse("10.0.0.0/8"))

    def test_announce_rejects_duplicate_different_origin(self):
        internet, asys = self._topology()
        other = internet.add_as(internet.add_org("Other"))
        prefix = internet.allocate(asys, 20)
        with pytest.raises(AllocationError):
            internet.announce(other, prefix)

    def test_explicit_announce_low_space(self):
        internet, asys = self._topology()
        prefix = IPv4Prefix.parse("8.8.8.0/24")
        internet.announce(asys, prefix)
        assert internet.origin_asn(parse_ip("8.8.8.8")) == asys.number

    def test_origin_lookup_longest_match(self):
        internet, asys = self._topology()
        other = internet.add_as(internet.add_org("Other"))
        internet.announce(asys, IPv4Prefix.parse("100.0.0.0/8"))
        internet.announce(other, IPv4Prefix.parse("100.1.0.0/16"))
        assert internet.origin_asn(parse_ip("100.1.2.3")) == other.number
        assert internet.origin_asn(parse_ip("100.2.2.3")) == asys.number

    def test_duplicate_asn_rejected(self):
        internet, asys = self._topology()
        with pytest.raises(ValueError):
            internet.add_as(asys.org, number=asys.number)

    def test_duplicate_org_id_rejected(self):
        internet = InternetTopology()
        internet.add_org("A", org_id="x")
        with pytest.raises(ValueError):
            internet.add_org("B", org_id="x")

    def test_allocate_rejects_silly_lengths(self):
        internet, asys = self._topology()
        with pytest.raises(AllocationError):
            internet.allocate(asys, 4)
        with pytest.raises(AllocationError):
            internet.allocate(asys, 30)

    def test_routes_enumeration(self):
        internet, asys = self._topology()
        internet.allocate(asys, 20)
        internet.allocate(asys, 24)
        assert len(list(internet.route_trie().items())) == 2


class TestGenerateTopology:
    def test_analog_orgs_present(self):
        gen = generate_topology(random.Random(1))
        for name, asn, country in ANALOG_ORGS:
            asys = gen.analog_as[name]
            assert asys.number == asn
            assert asys.org.country == country
            assert asys.prefixes  # has address space

    def test_filler_count(self):
        gen = generate_topology(random.Random(1))
        assert len(gen.filler_as) >= N_FILLER_ORGS

    def test_deterministic(self):
        a = generate_topology(random.Random(9))
        b = generate_topology(random.Random(9))
        assert [x.number for x in a.filler_as] == [x.number for x in b.filler_as]
        assert ([str(p) for x in a.filler_as for p in x.prefixes]
                == [str(p) for x in b.filler_as for p in x.prefixes])

