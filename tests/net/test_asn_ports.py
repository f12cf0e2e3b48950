"""Tests for AS/Organization types and port/protocol constants."""

import pytest

from repro.net.asn import AS, Organization
from repro.net.ip import IPv4Prefix
from repro.net.ports import (
    PORT_DNS,
    PORT_HTTP,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    port_name,
    proto_name,
    validate_port,
    validate_proto,
)


class TestOrganization:
    def test_str(self):
        org = Organization("o1", "Acme", "US")
        assert str(org) == "Acme"

    def test_frozen(self):
        org = Organization("o1", "Acme", "US")
        with pytest.raises(AttributeError):
            org.name = "Other"


class TestAS:
    def _make(self, number=64512):
        return AS(number=number, org=Organization("o1", "Acme", "NL"))

    def test_country_defaults_to_org(self):
        assert self._make().country == "NL"

    def test_rejects_bad_asn(self):
        with pytest.raises(ValueError):
            AS(number=0, org=Organization("o", "x"))

    def test_announce_idempotent(self):
        asys = self._make()
        prefix = IPv4Prefix.parse("10.0.0.0/8")
        asys.announce(prefix)
        asys.announce(prefix)
        assert asys.prefixes == [prefix]

    def test_equality_by_number(self):
        assert self._make(1) == AS(number=1, org=Organization("o2", "Other"))
        assert self._make(1) != self._make(2)

    def test_hashable(self):
        assert len({self._make(1), self._make(1)}) == 1


class TestPorts:
    def test_constants(self):
        assert PORT_DNS == 53
        assert PORT_HTTP == 80
        assert (PROTO_ICMP, PROTO_TCP, PROTO_UDP) == (1, 6, 17)

    def test_proto_name(self):
        assert proto_name(PROTO_TCP) == "TCP"
        assert proto_name(99) == "proto99"

    def test_port_name(self):
        assert port_name(53) == "DNS"
        assert port_name(12345) == "12345"

    def test_validate_port(self):
        assert validate_port(0) == 0
        assert validate_port(65535) == 65535
        with pytest.raises(ValueError):
            validate_port(65536)
        with pytest.raises(ValueError):
            validate_port(-1)

    def test_validate_proto(self):
        assert validate_proto(6) == 6
        with pytest.raises(ValueError):
            validate_proto(256)
