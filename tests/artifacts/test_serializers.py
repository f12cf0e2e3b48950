"""Exact round-trip tests for the phase-artifact serializers.

Every artifact must satisfy two contracts: ``loads(dumps(x))`` is
semantically equal to ``x`` (bit-for-bit on every float), and
``dumps(loads(dumps(x))) == dumps(x)`` (deterministic bytes). The
packed feed and store blobs must also be checked whole at load time:
every damaged or foreign blob is a :class:`ValueError`, so the phase
cache counts it as a miss.
"""

import json
import sys
from array import array

import pytest

from repro.artifacts.cache import PhaseCache
from repro.artifacts.serializers import (PHASE_SERIALIZERS, dumps_events,
                                         dumps_feed, dumps_join, dumps_store,
                                         loads_events, loads_feed, loads_join,
                                         loads_store)
from repro.artifacts.store import ArtifactStore
from repro.core.join import DatasetJoin
from repro.dns.rcode import ResponseStatus
from repro.obs import RunJournal, RunTelemetry, read_journal
from repro.openintel.storage import MeasurementStore
from repro.telescope.feed import FeedRecord, RSDoSFeed


class TestFeedRoundTrip:
    def test_exact(self, tiny_study):
        loaded = loads_feed(dumps_feed(tiny_study.feed))
        assert loaded.records == tiny_study.feed.records
        assert loaded.attacks == tiny_study.feed.attacks

    def test_deterministic_bytes(self, tiny_study):
        data = dumps_feed(tiny_study.feed)
        assert dumps_feed(loads_feed(data)) == data

    def test_records_built_on_first_access(self, tiny_study):
        data = dumps_feed(tiny_study.feed)
        loaded = loads_feed(data)
        assert "records" not in vars(loaded)
        assert loaded.attacks == tiny_study.feed.attacks
        assert loaded.records == tiny_study.feed.records
        assert "records" in vars(loaded)
        assert dumps_feed(loaded) == data


class TestStoreRoundTrip:
    def test_exact(self, tiny_study):
        loaded = loads_store(dumps_store(tiny_study.store))
        assert loaded == tiny_study.store

    def test_ingest_totals_survive(self, tiny_study):
        loaded = loads_store(dumps_store(tiny_study.store))
        assert loaded.n_measurements == tiny_study.store.n_measurements
        assert loaded.n_rejected == tiny_study.store.n_rejected
        assert loaded.n_merges == tiny_study.store.n_merges

    def test_deterministic_bytes(self, tiny_study):
        data = dumps_store(tiny_study.store)
        assert dumps_store(loads_store(data)) == data

    def test_tables_built_on_first_access(self, tiny_study):
        loaded = loads_store(dumps_store(tiny_study.store))
        assert not {"daily", "buckets"} & set(vars(loaded))
        assert loaded.daily == tiny_study.store.daily
        assert "buckets" not in vars(loaded)
        assert loaded.buckets == tiny_study.store.buckets

    def test_metrics_without_building_tables(self, tiny_study):
        def store_metrics(store):
            telemetry = RunTelemetry.create()
            store.publish_metrics(telemetry.registry)
            metrics = telemetry.snapshot()["metrics"]
            return {kind: {k: v for k, v in metrics[kind].items()
                           if k.startswith("repro.store.")}
                    for kind in ("counters", "gauges")}

        loaded = loads_store(dumps_store(tiny_study.store))
        published = store_metrics(loaded)
        assert not {"daily", "buckets"} & set(vars(loaded))
        assert published == store_metrics(tiny_study.store)
        assert published["gauges"]["repro.store.bucket_aggregates"] > 0

    def test_all_failure_bucket_and_float_sum_are_exact(self):
        store = MeasurementStore()
        store.add_fast(7, 0, ResponseStatus.TIMEOUT, 0.0, dense=True)
        store.add_fast(7, 0, ResponseStatus.OK, 0.1 + 0.2, dense=False)
        loaded = loads_store(dumps_store(store))
        assert loaded == store
        assert loaded.buckets[(7, 0)].avg_rtt is None
        assert loaded.daily[(7, 0)].rtt_sum == 0.1 + 0.2


class TestJoinRoundTrip:
    def test_exact(self, tiny_study):
        loaded = loads_join(dumps_join(tiny_study.join))
        assert loaded.classified == tiny_study.join.classified
        assert loaded.rejected == []

    def test_deterministic_bytes(self, tiny_study):
        data = dumps_join(tiny_study.join)
        assert dumps_join(loads_join(data)) == data

    def test_degraded_join_refused(self, tiny_study):
        degraded = DatasetJoin()
        degraded.classified.extend(tiny_study.join.classified)
        degraded.rejected.append(object())
        with pytest.raises(ValueError, match="rejected"):
            dumps_join(degraded)


class TestEventsRoundTrip:
    def test_exact(self, tiny_study):
        loaded = loads_events(dumps_events(tiny_study.events))
        assert loaded == tiny_study.events

    def test_deterministic_bytes(self, tiny_study):
        data = dumps_events(tiny_study.events)
        assert dumps_events(loads_events(data)) == data


class TestSchemaGuards:
    def test_wrong_schema_rejected(self, tiny_study):
        data = dumps_feed(tiny_study.feed)
        with pytest.raises(ValueError, match="schema mismatch"):
            loads_store(data)

    def test_v1_store_blob_is_a_cache_miss(self, tmp_path):
        # The retired row layout: one list per aggregate.
        v1_blob = json.dumps({
            "schema": "repro.artifacts.store/v1",
            "n_measurements": 1, "n_rejected": 0, "n_merges": 0,
            "daily": [[7, 0, 1, 1, 20.0, 20.0, 20.0, 0, 0, 0]],
            "buckets": []}).encode()
        with pytest.raises(ValueError, match="schema mismatch"):
            loads_store(v1_blob)
        telemetry = RunTelemetry.create()
        cache = PhaseCache(ArtifactStore(str(tmp_path)), telemetry)
        cache.store.put("v1-key", v1_blob, phase="crawl")
        assert cache.fetch("crawl", "v1-key") is None
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert [k for k in counters if k.startswith("repro.cache.")] == \
            ["repro.cache.misses{phase=crawl}"]

    def test_registry_covers_every_phase(self):
        assert set(PHASE_SERIALIZERS) == \
            {"telescope", "crawl", "join", "events"}
        for dumps, loads in PHASE_SERIALIZERS.values():
            assert callable(dumps) and callable(loads)


# -- the packed container -------------------------------------------------------


def _edit_header(blob, edit):
    """``blob`` with its JSON header line rewritten by ``edit``."""
    end = blob.index(b"\n")
    header = json.loads(blob[:end])
    edit(header)
    return json.dumps(header).encode() + blob[end:]


def _grow_first_table(header):
    """One more row in every column of the first table: the directory
    then promises more bytes than the blob holds."""
    table = header["columns"][0][0].split(".")[0]
    for entry in header["columns"]:
        if entry[0].startswith(table + "."):
            entry[2] += 1


def _unknown_code(header):
    header["columns"][0][1] = "z"


#: phase -> (column, the columns an older layout carried after it): the
#: crawl's retired rtt_min/rtt_max, and one made-up telescope column.
RETIRED_COLUMNS = {"crawl": ("rtt_sum", ("rtt_min", "rtt_max")),
                   "telescope": ("max_ppm", ("mean_ppm",))}


def _with_retired_columns(blob, phase):
    """``blob`` with the phase's retired columns back in every table:
    the directory names them and the column section carries their
    bytes, so only the layout check can refuse the blob."""
    after, retired = RETIRED_COLUMNS[phase]
    end = blob.index(b"\n")
    header = json.loads(blob[:end])
    body, offset = blob[end + 1:], 0
    directory, parts = [], []
    for name, code, count in header["columns"]:
        directory.append([name, code, count])
        parts.append(body[offset:offset + 8 * count])
        offset += 8 * count
        table, column = name.split(".")
        if column == after:
            for extra in retired:
                directory.append([f"{table}.{extra}", "d", count])
                parts.append(bytes(8 * count))
    assert len(directory) > len(header["columns"])
    header["columns"] = directory
    return json.dumps(header).encode() + b"\n" + b"".join(parts)


LEGACY_BLOBS = {
    "telescope": {"schema": "repro.artifacts.feed/v1",
                  "record_fields": [], "attack_fields": [],
                  "records": [], "attacks": []},
    "crawl": {"schema": "repro.artifacts.store/v2",
              "columns": [], "n_measurements": 0, "n_rejected": 0,
              "n_merges": 0, "daily": {}, "buckets": {}},
}

#: name -> (blob, phase) -> a damaged or foreign blob.
CORRUPTIONS = {
    "truncated": lambda blob, phase: blob[:-1],
    "header_only": lambda blob, phase: blob[:blob.index(b"\n")],
    "trailing_bytes": lambda blob, phase: blob + b"\0",
    "directory_disagrees": lambda blob, phase: _edit_header(
        blob, _grow_first_table),
    "unknown_type_code": lambda blob, phase: _edit_header(
        blob, _unknown_code),
    "legacy_json": lambda blob, phase: json.dumps(
        LEGACY_BLOBS[phase]).encode(),
    "retired_columns": _with_retired_columns,
}


def _artifact(study, phase):
    return study.feed if phase == "telescope" else study.store


@pytest.mark.parametrize("phase", ["telescope", "crawl"])
class TestPackedIntegrity:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_loads_raises_value_error(self, tiny_study, phase, corruption):
        dumps, loads = PHASE_SERIALIZERS[phase]
        blob = CORRUPTIONS[corruption](dumps(_artifact(tiny_study, phase)),
                                       phase)
        with pytest.raises(ValueError):
            loads(blob)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_entry_misses_then_refills(self, tiny_study, tmp_path,
                                               phase, corruption):
        dumps = PHASE_SERIALIZERS[phase][0]
        artifact = _artifact(tiny_study, phase)
        telemetry = RunTelemetry.create()
        journal = RunJournal(tmp_path / "run.jsonl")
        telemetry.attach_journal(journal)
        cache = PhaseCache(ArtifactStore(str(tmp_path / "cache")), telemetry)
        cache.store.put("k", CORRUPTIONS[corruption](dumps(artifact), phase),
                        phase=phase)
        assert cache.fetch(phase, "k") is None
        assert cache.save(phase, "k", artifact)
        refilled = cache.fetch(phase, "k")
        journal.close()
        assert dumps(refilled) == dumps(artifact)
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters[f"repro.cache.misses{{phase={phase}}}"] == 1
        assert counters[f"repro.cache.hits{{phase={phase}}}"] == 1
        events = [(r["type"], r.get("corrupt"))
                  for r in read_journal(tmp_path / "run.jsonl")
                  if r["type"].startswith("cache.")]
        assert events == [("cache.miss", True), ("cache.save", None),
                          ("cache.hit", None)]


def _one_aggregate_store():
    store = MeasurementStore()
    store.add_fast(7, 0, ResponseStatus.OK, 20.0, dense=True)
    return store


def _set_daily(column, value):
    store = _one_aggregate_store()
    setattr(store.daily[(7, 0)], column, value)
    return store


def _feed_with(**fields):
    record = dict(window_ts=0, victim_ip=1, proto=6, first_port=80,
                  n_ports=1, n_packets=30, max_ppm=12.5, n_slash16=3,
                  n_unique_sources=9)
    record.update(fields)
    return RSDoSFeed([FeedRecord(**record)], [])


UNHOLDABLE = {
    "int_beyond_int64": ("crawl", lambda: _set_daily("n", 2 ** 63)),
    "float_in_int_column": ("crawl", lambda: _set_daily("ok_n", 1.5)),
    "int_a_double_rounds": ("crawl",
                            lambda: _set_daily("rtt_sum", 2 ** 53 + 1)),
    "str_in_float_column": ("crawl", lambda: _set_daily("rtt_sum", "20")),
    "feed_int_beyond_int64": ("telescope",
                              lambda: _feed_with(n_packets=-2 ** 63 - 1)),
    "feed_float_in_int_column": ("telescope",
                                 lambda: _feed_with(window_ts=0.5)),
}


class TestUnholdableValues:
    @pytest.mark.parametrize("case", sorted(UNHOLDABLE))
    def test_dumps_raises_value_error(self, case):
        phase, build = UNHOLDABLE[case]
        with pytest.raises(ValueError, match="cannot hold"):
            PHASE_SERIALIZERS[phase][0](build())

    @pytest.mark.parametrize("case", sorted(UNHOLDABLE))
    def test_cache_skips_instead_of_crashing(self, tmp_path, case):
        phase, build = UNHOLDABLE[case]
        telemetry = RunTelemetry.create()
        cache = PhaseCache(ArtifactStore(str(tmp_path)), telemetry)
        assert cache.save(phase, "k", build()) is False
        assert not cache.store.has("k")
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters[f"repro.cache.skipped{{phase={phase}}}"] == 1

    def test_exact_int_in_float_column_round_trips(self):
        store = _set_daily("rtt_sum", 20)
        loaded = loads_store(dumps_store(store))
        assert loaded == store
        assert type(loaded.daily[(7, 0)].rtt_sum) is float


# -- deferred quiet cells -------------------------------------------------------


def _decode(blob):
    """``blob``'s header and each column's values, by column name."""
    end = blob.index(b"\n")
    header, body = json.loads(blob[:end]), blob[end + 1:]
    columns, offset = {}, 0
    for name, code, count in header["columns"]:
        values = array(code, body[offset:offset + 8 * count])
        if sys.byteorder == "big":
            values.byteswap()
        columns[name] = values.tolist()
        offset += 8 * count
    return header, columns


def _encode(header, columns):
    """The blob of ``header`` and ``columns``, its directory recounted."""
    directory = [[name, code, len(columns[name])]
                 for name, code, _ in header["columns"]]
    parts = []
    for name, code, _ in directory:
        values = array(code, columns[name])
        if sys.byteorder == "big":
            values.byteswap()
        parts.append(values.tobytes())
    header = json.dumps(dict(header, columns=directory), sort_keys=True,
                        separators=(",", ":"))
    return header.encode() + b"\n" + b"".join(parts)


def _zero_rtts(header, columns):
    """The first NSSet keeps its domains but no RTT to draw from."""
    n = columns["quiet.n_rtts"][0]
    columns["quiet.n_rtts"][0] = 0
    del columns["quiet_rtts.rtt_ms"][:n]


def _key_of_a_quiet_nssets_aggregate(header, columns):
    """A deferred key that is also an aggregated daily cell (a dense day
    of an NSSet with draw inputs)."""
    quiet = set(columns["quiet.nsset_id"])
    row = next(i for i, nsset_id in enumerate(columns["daily.nsset_id"])
               if nsset_id in quiet)
    columns["deferred.nsset_id"][0] = columns["daily.nsset_id"][row]
    columns["deferred.ts"][0] = columns["daily.ts"][row]


#: name -> an edit of a saved store's deferred columns that its load
#: must refuse: the blob's structure is wrong.
DEFERRED_STRUCTURE = {
    "key_columns_differ_in_length":
        lambda header, columns: columns["deferred.ts"].pop(),
    "rtt_count_disagrees":
        lambda header, columns: columns["quiet.n_rtts"].__setitem__(
            0, columns["quiet.n_rtts"][0] + 1),
    "domain_column_short":
        lambda header, columns: columns["quiet_domains.domain_id"].pop(),
    "nsset_without_rtts": _zero_rtts,
    "no_crawl_seed":
        lambda header, columns: header.__setitem__("crawl_seed", None),
    "crawl_seed_not_an_int":
        lambda header, columns: header.__setitem__("crawl_seed", "1"),
}

#: name -> (edit, message): what the daily table's build must refuse.
DEFERRED_CONTENTS = {
    "key_without_draw_inputs": (
        lambda header, columns: columns["deferred.nsset_id"].__setitem__(
            0, max(columns["quiet.nsset_id"]) + 1),
        "has no draw inputs"),
    "nsset_inputs_twice": (
        lambda header, columns: columns["quiet.nsset_id"].__setitem__(
            1, columns["quiet.nsset_id"][0]),
        "saved twice"),
    "key_deferred_and_aggregated": (_key_of_a_quiet_nssets_aggregate,
                                    "both deferred and aggregated"),
}


def _damaged(store, edit):
    header, columns = _decode(dumps_store(store))
    assert columns["deferred.nsset_id"] and len(columns["quiet.nsset_id"]) > 1
    edit(header, columns)
    return _encode(header, columns)


class TestDeferredCells:
    def test_decode_encode_is_the_identity(self, tiny_study):
        blob = dumps_store(tiny_study.store)
        assert _encode(*_decode(blob)) == blob

    def test_a_drawn_unchanged_cell_is_saved_as_its_key(self, tiny_study):
        blob = dumps_store(tiny_study.store)
        loaded = loads_store(blob)
        key = next(k for k, agg in loaded.daily.cells.items() if agg is None)
        drawn = loaded.daily[key]
        assert drawn.n > 0
        assert dumps_store(loaded) == blob
        assert loads_store(blob).daily.cells[key] is None

    def test_a_changed_cell_is_saved_as_its_aggregate(self, tiny_study):
        loaded = loads_store(dumps_store(tiny_study.store))
        key = next(k for k, agg in loaded.daily.cells.items() if agg is None)
        loaded.add_fast(key[0], key[1], ResponseStatus.OK, 20.0, False)
        again = loads_store(dumps_store(loaded))
        assert again.daily.cells[key] == loaded.daily[key]
        assert again == loaded

    def test_header_carries_the_crawl_seed(self, tiny_study):
        header, columns = _decode(dumps_store(tiny_study.store))
        assert type(header["crawl_seed"]) is int
        assert len(columns["deferred.nsset_id"]) > \
            len(columns["daily.nsset_id"])

    def test_a_store_without_deferred_cells_has_no_crawl_seed(self):
        header, columns = _decode(dumps_store(_one_aggregate_store()))
        assert header["crawl_seed"] is None
        assert columns["deferred.nsset_id"] == columns["quiet.nsset_id"] \
            == []

    def test_a_v4_blob_is_a_cache_miss(self):
        """The layout before deferred cells were saved: every daily cell
        an aggregate, no deferred or draw-input columns."""
        header, columns = _decode(dumps_store(_one_aggregate_store()))
        header["schema"] = "repro.artifacts.store/v4"
        del header["crawl_seed"]
        header["columns"] = [entry for entry in header["columns"]
                             if entry[0].split(".")[0]
                             in ("daily", "buckets")]
        with pytest.raises(ValueError, match="schema mismatch"):
            loads_store(_encode(header, columns))

    @pytest.mark.parametrize("case", sorted(DEFERRED_STRUCTURE))
    def test_damaged_structure_is_a_cache_miss(self, tiny_study, tmp_path,
                                               case):
        blob = _damaged(tiny_study.store, DEFERRED_STRUCTURE[case])
        with pytest.raises(ValueError):
            loads_store(blob)
        telemetry = RunTelemetry.create()
        cache = PhaseCache(ArtifactStore(str(tmp_path)), telemetry)
        cache.store.put("k", blob, phase="crawl")
        assert cache.fetch("crawl", "k") is None
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters["repro.cache.misses{phase=crawl}"] == 1

    @pytest.mark.parametrize("case", sorted(DEFERRED_CONTENTS))
    def test_damaged_contents_fail_the_table_build(self, tiny_study, case):
        edit, message = DEFERRED_CONTENTS[case]
        loaded = loads_store(_damaged(tiny_study.store, edit))
        with pytest.raises(ValueError, match=message):
            len(loaded.daily)
