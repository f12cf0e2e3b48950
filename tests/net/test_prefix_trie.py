"""Tests for the radix trie, including a brute-force LPM property check."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.ip import IPV4_SPACE, IPv4Prefix, network_of
from repro.net.prefix_trie import PrefixTrie


class TestBasics:
    def test_empty_lookup(self):
        assert PrefixTrie().lookup("1.2.3.4") is None

    def test_insert_and_exact(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "a")
        assert trie.exact("10.0.0.0/8") == "a"
        assert trie.exact("10.0.0.0/9") is None

    def test_replace_value(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "a")
        trie.insert("10.0.0.0/8", "b")
        assert trie.exact("10.0.0.0/8") == "b"
        assert len(trie) == 1

    def test_longest_match_prefers_specific(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", "outer")
        trie.insert("10.1.0.0/16", "inner")
        assert trie.lookup("10.1.2.3") == "inner"
        assert trie.lookup("10.2.2.3") == "outer"

    def test_longest_match_returns_prefix(self):
        trie = PrefixTrie()
        trie.insert("10.1.0.0/16", "x")
        (network, length), value = trie.longest_match("10.1.200.200")
        assert length == 16
        assert network == network_of(network, 16)
        assert value == "x"

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert("0.0.0.0/0", "default")
        assert trie.lookup("203.0.113.7") == "default"

    def test_host_route(self):
        trie = PrefixTrie()
        trie.insert("192.0.2.1/32", "host")
        assert trie.lookup("192.0.2.1") == "host"
        assert trie.lookup("192.0.2.2") is None

    def test_accepts_ipv4prefix_objects(self):
        trie = PrefixTrie()
        trie.insert(IPv4Prefix.parse("10.0.0.0/8"), 1)
        assert trie.lookup("10.0.0.1") == 1

    def test_len(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", 1)
        trie.insert("11.0.0.0/8", 2)
        assert len(trie) == 2


class TestCoveredAndItems:
    def test_covered(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", 1)
        trie.insert("10.1.0.0/16", 2)
        trie.insert("11.0.0.0/8", 3)
        covered = {length for (_, length), _ in trie.covered("10.0.0.0/8")}
        assert covered == {8, 16}

    def test_items_in_address_order(self):
        trie = PrefixTrie()
        trie.insert("11.0.0.0/8", 3)
        trie.insert("10.0.0.0/8", 1)
        networks = [net for (net, _), _ in trie.items()]
        assert networks == sorted(networks)

    def test_covered_empty_subtree(self):
        trie = PrefixTrie()
        trie.insert("10.0.0.0/8", 1)
        assert list(trie.covered("11.0.0.0/8")) == []


def _brute_force_lpm(entries, ip):
    best = None
    for (network, length), value in entries:
        mask = 0 if length == 0 else ((1 << length) - 1) << (32 - length)
        if ip & mask == network and (best is None or length > best[0]):
            best = (length, value)
    return best[1] if best else None


PREFIXES = st.tuples(
    st.integers(min_value=0, max_value=IPV4_SPACE - 1),
    st.integers(min_value=0, max_value=32),
)


class TestLpmProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(PREFIXES, min_size=1, max_size=40),
           st.lists(st.integers(min_value=0, max_value=IPV4_SPACE - 1),
                    min_size=1, max_size=20))
    def test_matches_brute_force(self, raw_prefixes, ips):
        trie = PrefixTrie()
        entries = []
        for i, (base, length) in enumerate(raw_prefixes):
            network = network_of(base, length)
            trie.insert((network, length), i)
            entries.append(((network, length), i))
        # Later duplicate inserts overwrite: keep last per prefix.
        dedup = {}
        for key, value in entries:
            dedup[key] = value
        entries = [(k, v) for k, v in dedup.items()]
        for ip in ips:
            assert trie.lookup(ip) == _brute_force_lpm(entries, ip)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(PREFIXES, min_size=1, max_size=30))
    def test_items_roundtrip(self, raw_prefixes):
        trie = PrefixTrie()
        expected = {}
        for i, (base, length) in enumerate(raw_prefixes):
            network = network_of(base, length)
            trie.insert((network, length), i)
            expected[(network, length)] = i
        assert dict(trie.items()) == expected
        assert len(trie) == len(expected)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(PREFIXES, min_size=1, max_size=30))
    def test_copy_is_equal_and_independent(self, raw_prefixes):
        trie = PrefixTrie()
        for i, (base, length) in enumerate(raw_prefixes):
            trie.insert((network_of(base, length), length), i)
        before = list(trie.items())
        clone = trie.copy()
        assert list(clone.items()) == before
        assert len(clone) == len(trie)
        clone.insert(before[0][0], "changed")
        clone.insert((0, 0), "default")
        clone.insert((0xFFFFFFFF, 32), "host")
        assert list(trie.items()) == before
        assert len(trie) == len(before)


class TestScale:
    def test_many_inserts(self):
        rng = random.Random(3)
        trie = PrefixTrie()
        inserted = {}
        for _ in range(3000):
            base = rng.randrange(IPV4_SPACE)
            length = rng.randint(8, 24)
            network = network_of(base, length)
            trie.insert((network, length), (network, length))
            inserted[(network, length)] = True
        assert len(trie) == len(inserted)
        # Every stored prefix must find itself.
        for network, length in list(inserted)[:200]:
            (got_net, got_len), _ = trie.longest_match(network)
            assert got_len >= length or (got_net, got_len) in inserted
