"""Tests for IPv4 address/prefix primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.net.ip import (
    IPV4_SPACE,
    IPv4Prefix,
    coerce_ip,
    ip_to_str,
    mask_of,
    network_of,
    parse_ip,
    parse_prefix,
    slash24_of,
)

IP_INTS = st.integers(min_value=0, max_value=IPV4_SPACE - 1)


class TestParseIp:
    def test_basic(self):
        assert parse_ip("8.8.8.8") == 0x08080808

    def test_edges(self):
        assert parse_ip("0.0.0.0") == 0
        assert parse_ip("255.255.255.255") == IPV4_SPACE - 1

    @pytest.mark.parametrize("bad", [
        "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.x", "", "1..2.3",
        "1.2.3.1234", "-1.2.3.4",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_ip(bad)

    @given(IP_INTS)
    def test_roundtrip(self, value):
        assert parse_ip(ip_to_str(value)) == value

    def test_ip_to_str_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ip_to_str(IPV4_SPACE)
        with pytest.raises(ValueError):
            ip_to_str(-1)


class TestCoerce:
    def test_from_int(self):
        assert coerce_ip(5) == 5

    def test_from_str(self):
        assert coerce_ip("1.2.3.4") == 0x01020304

    def test_rejects_out_of_range_int(self):
        with pytest.raises(ValueError):
            coerce_ip(IPV4_SPACE)


class TestMasks:
    def test_mask_of(self):
        assert mask_of(0) == 0
        assert mask_of(24) == 0xFFFFFF00
        assert mask_of(32) == 0xFFFFFFFF

    def test_mask_rejects_bad_length(self):
        with pytest.raises(ValueError):
            mask_of(33)

    @given(IP_INTS)
    def test_slash24(self, ip):
        assert slash24_of(ip) == network_of(ip, 24)
        assert slash24_of(ip) <= ip


class TestIPv4Prefix:
    def test_parse(self):
        prefix = IPv4Prefix.parse("192.0.2.0/24")
        assert prefix.length == 24
        assert prefix.num_addresses == 256

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError):
            IPv4Prefix(parse_ip("192.0.2.1"), 24)

    def test_contains_ip(self):
        prefix = IPv4Prefix.parse("10.0.0.0/8")
        assert prefix.contains_ip("10.255.255.255")
        assert not prefix.contains_ip("11.0.0.0")

    def test_contains_operator(self):
        assert "10.0.0.1" in IPv4Prefix.parse("10.0.0.0/24")

    def test_first_last(self):
        prefix = IPv4Prefix.parse("192.0.2.0/30")
        assert prefix.first == parse_ip("192.0.2.0")
        assert prefix.last == parse_ip("192.0.2.3")

    def test_random_ip_inside(self, rng):
        prefix = IPv4Prefix.parse("10.20.30.0/24")
        for _ in range(50):
            assert prefix.contains_ip(prefix.random_ip(rng))

    def test_equality_hash(self):
        a = IPv4Prefix.parse("10.0.0.0/8")
        b = IPv4Prefix.parse("10.0.0.0/8")
        assert a == b and hash(a) == hash(b)

    def test_ordering(self):
        assert IPv4Prefix.parse("10.0.0.0/8") < IPv4Prefix.parse("11.0.0.0/8")

    def test_slash9_plus_slash10_coverage(self):
        # The telescope ratio the paper's footnote relies on.
        total = (IPv4Prefix.parse("44.0.0.0/9").num_addresses
                 + IPv4Prefix.parse("44.128.0.0/10").num_addresses)
        assert IPV4_SPACE / total == pytest.approx(341.33, abs=0.01)

    @given(IP_INTS, st.integers(min_value=0, max_value=32))
    def test_containing_always_contains(self, ip, length):
        prefix = IPv4Prefix(network_of(ip, length), length)
        assert prefix.contains_ip(ip)


class TestParsePrefix:
    def test_canonicalizes(self):
        base, length = parse_prefix("10.1.2.3/8")
        assert ip_to_str(base) == "10.0.0.0"
        assert length == 8

    @pytest.mark.parametrize("bad", ["10.0.0.0", "10.0.0.0/ab", "10.0.0.0/"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_prefix(bad)
