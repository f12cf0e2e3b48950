"""Tests for the open-resolver scan and dataset bundle I/O."""

import io

import pytest

from repro.datasets.io import dataset_bundle_dump, dataset_bundle_load
from repro.datasets.openresolvers import OpenResolverScan
from repro.net.ip import parse_ip


class TestOpenResolverScan:
    def test_membership(self):
        scan = OpenResolverScan([parse_ip("8.8.8.8")])
        assert scan.is_open_resolver(parse_ip("8.8.8.8"))
        assert parse_ip("8.8.8.8") in scan
        assert parse_ip("9.9.9.9") not in scan

    def test_add_accepts_strings(self):
        scan = OpenResolverScan()
        scan.add("1.1.1.1")
        assert parse_ip("1.1.1.1") in scan

    def test_from_world(self, tiny_world):
        scan = OpenResolverScan.from_world(tiny_world)
        assert parse_ip("8.8.8.8") in scan
        assert parse_ip("8.8.4.4") in scan
        assert parse_ip("1.1.1.1") in scan
        # Bing is a misconfig target but not an open resolver.
        assert parse_ip("204.79.197.200") not in scan

    def test_dump_load_roundtrip(self):
        scan = OpenResolverScan([parse_ip("8.8.8.8"), parse_ip("1.1.1.1")],
                                scanned_at=12345)
        buf = io.StringIO()
        scan.dump(buf)
        buf.seek(0)
        loaded = OpenResolverScan.load(buf)
        assert len(loaded) == 2
        assert loaded.scanned_at == 12345
        assert parse_ip("8.8.8.8") in loaded


class TestDatasetBundle:
    def test_roundtrip(self, tmp_path, tiny_study):
        path = str(tmp_path / "bundle")
        dataset_bundle_dump(
            path,
            feed=tiny_study.feed,
            prefix2as=tiny_study.world.prefix2as,
            as2org=tiny_study.world.as2org,
            census=tiny_study.world.census,
            openresolvers=tiny_study.open_resolvers,
        )
        bundle = dataset_bundle_load(path)
        assert bundle.feed_records is not None
        assert len(bundle.feed_records) == len(tiny_study.feed.records)
        assert len(bundle.prefix2as) == len(
            list(tiny_study.world.prefix2as.entries()))
        assert len(bundle.as2org) > 0
        assert len(bundle.census.snapshots) == \
            len(tiny_study.world.census.snapshots)
        assert parse_ip("8.8.8.8") in bundle.openresolvers

    def test_partial_dump(self, tmp_path, tiny_study):
        path = str(tmp_path / "partial")
        dataset_bundle_dump(path, openresolvers=tiny_study.open_resolvers)
        bundle = dataset_bundle_load(path)
        assert bundle.openresolvers is not None
        assert bundle.feed_records is None
        assert bundle.census is None
