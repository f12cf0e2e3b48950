"""Tests for the darknet address space and sampling math."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.net.ip import IPV4_SPACE, IPv4Prefix
from repro.telescope.darknet import EXTRAPOLATION, TELESCOPE_COVERAGE, Darknet


class TestCoverage:
    def test_paper_ratio(self):
        # /9 + /10 = 1/341.33 of IPv4 space (paper footnote 2).
        darknet = Darknet()
        assert 1 / darknet.coverage == pytest.approx(341.33, abs=0.01)
        assert EXTRAPOLATION == pytest.approx(1 / darknet.coverage, abs=0.01)
        assert TELESCOPE_COVERAGE == pytest.approx(1 / 341.33, rel=1e-4)

    def test_address_count(self):
        assert Darknet().n_addresses == 12_582_912

    def test_slash16_count(self):
        # A /9 holds 128 /16s, a /10 holds 64.
        assert Darknet().n_slash16s == 192

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Darknet(prefixes=())

    def test_custom_prefixes(self):
        darknet = Darknet(prefixes=(IPv4Prefix.parse("198.18.0.0/16"),))
        assert darknet.n_addresses == 65536
        assert 1 / darknet.coverage == pytest.approx(65536.0)


class TestMembershipAndSampling:
    def test_contains(self):
        darknet = Darknet()
        assert darknet.contains(IPv4Prefix.parse("44.0.0.0/9").network + 5)
        assert darknet.contains(IPv4Prefix.parse("44.128.0.0/10").network + 5)
        assert not darknet.contains(0x08080808)

    def test_sample_address_always_inside(self):
        darknet = Darknet()
        rng = random.Random(1)
        for _ in range(500):
            assert darknet.contains(darknet.sample_address(rng))

    def test_sample_covers_both_prefixes(self):
        darknet = Darknet()
        rng = random.Random(2)
        in_slash10 = sum(
            1 for _ in range(3000)
            if IPv4Prefix.parse("44.128.0.0/10").contains_ip(
                darknet.sample_address(rng)))
        # /10 is one third of the darknet.
        assert 800 < in_slash10 < 1200


class TestExpectations:
    def test_expected_hits_linear(self):
        darknet = Darknet()
        assert darknet.expected_hits(341.33e6) == pytest.approx(1e6, rel=1e-3)

    def test_expected_unique_slash16_saturates(self):
        darknet = Darknet()
        assert darknet.expected_unique_slash16(0) == 0.0
        assert darknet.expected_unique_slash16(10) == pytest.approx(10, rel=0.05)
        assert darknet.expected_unique_slash16(1e9) == pytest.approx(192)

    def test_expected_unique_addresses_saturates_at_pool(self):
        darknet = Darknet()
        pool_in_darknet = 1000.0
        assert darknet.expected_unique_addresses(1e9, pool_in_darknet) == \
            pytest.approx(1000.0)

    @given(st.floats(min_value=0, max_value=1e7),
           st.floats(min_value=1, max_value=1e7))
    def test_unique_never_exceeds_packets_or_pool(self, packets, pool):
        darknet = Darknet()
        unique = darknet.expected_unique_addresses(packets, pool)
        assert unique <= pool + 1e-6
        assert unique <= packets + 1e-6
