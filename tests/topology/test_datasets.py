"""Tests for prefix2AS and AS2Org datasets, including serialization."""

import io
import random

import pytest

from repro.net.asn import Organization
from repro.net.ip import IPv4Prefix, parse_ip
from repro.topology.as2org import AS2Org
from repro.topology.generator import generate_topology
from repro.topology.prefix2as import Prefix2AS


@pytest.fixture(scope="module")
def gen():
    return generate_topology(random.Random(2))


class TestPrefix2AS:
    def test_from_topology_lookup(self, gen):
        dataset = Prefix2AS.from_topology(gen.internet)
        google = gen.analog_as["Google"]
        ip = google.prefixes[0].network + 7
        assert dataset.lookup(ip) == google.number

    def test_unrouted_is_none(self, gen):
        dataset = Prefix2AS.from_topology(gen.internet)
        assert dataset.lookup(parse_ip("203.0.113.1")) is None

    def test_len_matches_routes(self, gen):
        dataset = Prefix2AS.from_topology(gen.internet)
        routes = gen.internet.route_trie().items()
        assert list(dataset.entries()) == [(IPv4Prefix(*prefix), asn)
                                           for prefix, asn in routes]
        assert len(dataset) == len(gen.internet.route_trie())

    def test_is_a_snapshot(self):
        gen = generate_topology(random.Random(5))
        dataset = Prefix2AS.from_topology(gen.internet)
        asys = gen.internet.add_as(gen.internet.add_org("Late", "NL"))
        late = gen.internet.allocate(asys, 24)
        assert dataset.lookup(late.network) is None
        assert len(dataset) == len(gen.internet.route_trie()) - 1

    def test_rejects_bad_asn(self):
        with pytest.raises(ValueError):
            Prefix2AS().add(IPv4Prefix.parse("10.0.0.0/8"), 0)

    def test_dump_load_roundtrip(self, gen):
        dataset = Prefix2AS.from_topology(gen.internet)
        buf = io.StringIO()
        dataset.dump(buf)
        buf.seek(0)
        loaded = Prefix2AS.load(buf)
        assert len(loaded) == len(dataset)
        google = gen.analog_as["Google"]
        assert loaded.lookup(google.prefixes[0].network) == google.number

    def test_load_handles_moas(self):
        buf = io.StringIO("10.0.0.0\t8\t64512_64513\n")
        dataset = Prefix2AS.load(buf)
        assert dataset.lookup(parse_ip("10.1.1.1")) == 64512

    def test_load_skips_comments_and_blanks(self):
        buf = io.StringIO("# comment\n\n10.0.0.0\t8\t1\n")
        assert len(Prefix2AS.load(buf)) == 1

    def test_load_rejects_malformed(self):
        with pytest.raises(ValueError):
            Prefix2AS.load(io.StringIO("10.0.0.0 8 1\n"))


class TestAS2Org:
    def test_from_topology(self, gen):
        dataset = AS2Org.from_topology(gen.internet)
        google = gen.analog_as["Google"]
        assert dataset.name_of(google.number) == "Google"
        assert dict(dataset.items())[google.number].country == "US"

    def test_unknown_asn_fallback(self):
        dataset = AS2Org()
        assert dataset.name_of(65000) == "AS65000"
        assert 65000 not in dataset

    def test_contains(self, gen):
        dataset = AS2Org.from_topology(gen.internet)
        assert gen.analog_as["Google"].number in dataset

    def test_rejects_bad_asn(self):
        with pytest.raises(ValueError):
            AS2Org().add(0, Organization("o", "x"))

    def test_dump_load_roundtrip(self, gen):
        dataset = AS2Org.from_topology(gen.internet)
        buf = io.StringIO()
        dataset.dump(buf)
        buf.seek(0)
        loaded = AS2Org.load(buf)
        assert len(loaded) == len(dataset)
        google = gen.analog_as["Google"]
        assert loaded.name_of(google.number) == "Google"
        # Shared org objects are re-linked.
        assert dict(loaded.items())[google.number].org_id == \
            dict(dataset.items())[google.number].org_id

    def test_load_rejects_malformed(self):
        with pytest.raises(ValueError):
            AS2Org.load(io.StringIO('{"asn": "x"}\n'))
