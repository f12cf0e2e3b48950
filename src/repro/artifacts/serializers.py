"""Exact serializers for the expensive phase outputs.

Each cacheable phase artifact — the telescope's :class:`RSDoSFeed`, the
crawl's :class:`MeasurementStore`, the :class:`DatasetJoin`, and the
extracted :class:`AttackEvent` list — gets a ``dumps``/``loads`` pair
over UTF-8 JSON bytes. These extend the :mod:`repro.datasets.io` text
formats with one stricter contract: **every value round-trips exactly**.
Floats are emitted via ``json``'s ``repr``-faithful formatting (the
export CSVs round RTTs for human eyes; a cache must not), so a warm
study is bit-identical to the cold run that populated it — the property
the pipeline tests assert.

Serialized bytes are deterministic (sorted keys, fixed separators, no
whitespace variance), so re-serializing a loaded artifact reproduces
the cached bytes byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List

from repro.core.events import AttackEvent
from repro.core.join import (AttackClass, ClassifiedAttack, DatasetJoin)
from repro.core.metrics import ImpactPoint, ImpactSeries
from repro.core.nsset import NSSetInfo
from repro.openintel.storage import Aggregate, MeasurementStore
from repro.telescope.feed import FeedRecord, RSDoSFeed
from repro.telescope.rsdos import InferredAttack
from repro.util.timeutil import Window

__all__ = [
    "dumps_feed", "loads_feed",
    "dumps_store", "loads_store",
    "dumps_join", "loads_join",
    "dumps_events", "loads_events",
    "dumps_catalog", "loads_catalog",
    "PHASE_SERIALIZERS",
]

_FEED_SCHEMA = "repro.artifacts.feed/v1"
#: v2: columnar layout — one flat vector per aggregate field instead of
#: one row list per aggregate, so a warm crawl read deserializes a few
#: long JSON arrays and rebuilds aggregates in one tight column walk.
_STORE_SCHEMA = "repro.artifacts.store/v2"
_JOIN_SCHEMA = "repro.artifacts.join/v1"
_EVENTS_SCHEMA = "repro.artifacts.events/v1"

_RECORD_FIELDS = [f.name for f in dataclasses.fields(FeedRecord)]
_ATTACK_FIELDS = [f.name for f in dataclasses.fields(InferredAttack)]


def _dumps(doc: Dict) -> bytes:
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _loads(data: bytes, schema: str) -> Dict:
    doc = json.loads(data.decode("utf-8"))
    found = doc.get("schema")
    if found != schema:
        raise ValueError(f"artifact schema mismatch: expected {schema!r}, "
                         f"found {found!r}")
    return doc


def _row(obj, field_names) -> List:
    return [getattr(obj, name) for name in field_names]


def _attack_from_row(row) -> InferredAttack:
    return InferredAttack(**dict(zip(_ATTACK_FIELDS, row)))


# -- telescope: RSDoSFeed -----------------------------------------------------


def dumps_feed(feed: RSDoSFeed) -> bytes:
    """Serialize the curated feed: window records + inferred attacks."""
    return _dumps({
        "schema": _FEED_SCHEMA,
        "record_fields": _RECORD_FIELDS,
        "attack_fields": _ATTACK_FIELDS,
        "records": [_row(r, _RECORD_FIELDS) for r in feed.records],
        "attacks": [_row(a, _ATTACK_FIELDS) for a in feed.attacks],
    })


def loads_feed(data: bytes) -> RSDoSFeed:
    """Deserialize :func:`dumps_feed` output (exact round-trip)."""
    doc = _loads(data, _FEED_SCHEMA)
    if doc["record_fields"] != _RECORD_FIELDS \
            or doc["attack_fields"] != _ATTACK_FIELDS:
        raise ValueError("feed artifact field layout mismatch")
    records = [FeedRecord(**dict(zip(_RECORD_FIELDS, row)))
               for row in doc["records"]]
    attacks = [_attack_from_row(row) for row in doc["attacks"]]
    return RSDoSFeed(records, attacks)


# -- crawl: MeasurementStore --------------------------------------------------

#: Aggregate columns as serialized, in order (matches ``Aggregate.state()``).
_AGG_COLUMNS = ("n", "ok_n", "rtt_sum", "rtt_min", "rtt_max",
                "timeout_n", "servfail_n", "other_err_n")


def _table_doc(table) -> Dict:
    """One aggregate dict as sorted column vectors (the v2 layout)."""
    rows = sorted(table.items())
    states = [agg.state() for _, agg in rows]
    doc: Dict = {
        "nsset_id": [key[0] for key, _ in rows],
        "ts": [key[1] for key, _ in rows],
    }
    for i, name in enumerate(_AGG_COLUMNS):
        doc[name] = [state[i] for state in states]
    return doc


def _table_load(doc: Dict, target) -> None:
    """Rebuild one aggregate dict from v2 column vectors."""
    nsset_id = doc["nsset_id"]
    ts = doc["ts"]
    cols = [doc[name] for name in _AGG_COLUMNS]
    n_col, ok_col, sum_col, min_col, max_col, to_col, sf_col, oe_col = cols
    for i in range(len(nsset_id)):
        agg = Aggregate()
        agg.n = n_col[i]
        agg.ok_n = ok_col[i]
        agg.rtt_sum = float(sum_col[i])
        agg.rtt_min = float(min_col[i])
        agg.rtt_max = float(max_col[i])
        agg.timeout_n = to_col[i]
        agg.servfail_n = sf_col[i]
        agg.other_err_n = oe_col[i]
        target[(nsset_id[i], ts[i])] = agg


def dumps_store(store: MeasurementStore) -> bytes:
    """Serialize daily + dense 5-minute aggregates and ingest totals."""
    return _dumps({
        "schema": _STORE_SCHEMA,
        "columns": ["nsset_id", "ts", *_AGG_COLUMNS],
        "n_measurements": store.n_measurements,
        "n_rejected": store.n_rejected,
        "n_merges": store.n_merges,
        "daily": _table_doc(store.daily),
        "buckets": _table_doc(store.buckets),
    })


def loads_store(data: bytes) -> MeasurementStore:
    """Deserialize :func:`dumps_store` output (exact round-trip)."""
    doc = _loads(data, _STORE_SCHEMA)
    store = MeasurementStore()
    store.n_measurements = doc["n_measurements"]
    store.n_rejected = doc["n_rejected"]
    store.n_merges = doc["n_merges"]
    _table_load(doc["daily"], store.daily)
    _table_load(doc["buckets"], store.buckets)
    return store


# -- join: DatasetJoin --------------------------------------------------------


def dumps_join(join: DatasetJoin) -> bytes:
    """Serialize a clean join result.

    Joins with rejected records are refused: rejects hold arbitrary
    damaged objects with no stable representation, and degraded results
    must never enter the cache anyway (they only arise under chaos,
    which bypasses it entirely).
    """
    if join.rejected:
        raise ValueError(
            "refusing to serialize a degraded join "
            f"({len(join.rejected)} rejected records)")
    return _dumps({
        "schema": _JOIN_SCHEMA,
        "attack_fields": _ATTACK_FIELDS,
        "classified": [
            {"attack": _row(c.attack, _ATTACK_FIELDS),
             "klass": c.klass.value,
             "affected_domains": c.affected_domains,
             "nsset_ids": list(c.nsset_ids)}
            for c in join.classified
        ],
    })


def loads_join(data: bytes) -> DatasetJoin:
    """Deserialize :func:`dumps_join` output (exact round-trip)."""
    doc = _loads(data, _JOIN_SCHEMA)
    join = DatasetJoin()
    for item in doc["classified"]:
        join.classified.append(ClassifiedAttack(
            attack=_attack_from_row(item["attack"]),
            klass=AttackClass(item["klass"]),
            affected_domains=item["affected_domains"],
            nsset_ids=tuple(item["nsset_ids"])))
    return join


# -- events: List[AttackEvent] ------------------------------------------------


def _info_doc(info: NSSetInfo) -> Dict:
    return {"nsset_id": info.nsset_id, "ips": list(info.ips),
            "n_domains": info.n_domains, "slash24s": list(info.slash24s),
            "asns": list(info.asns), "anycast_label": info.anycast_label,
            "company": info.company}


def _info_from(doc: Dict) -> NSSetInfo:
    return NSSetInfo(
        nsset_id=doc["nsset_id"], ips=tuple(doc["ips"]),
        n_domains=doc["n_domains"], slash24s=tuple(doc["slash24s"]),
        asns=tuple(doc["asns"]), anycast_label=doc["anycast_label"],
        company=doc["company"])


def _series_doc(series: ImpactSeries) -> Dict:
    return {
        "nsset_id": series.nsset_id,
        "window": [series.window.start, series.window.end],
        "baseline_rtt": series.baseline_rtt,
        "min_bucket_n": series.min_bucket_n,
        "degraded": series.degraded,
        "n_corrupt": series.n_corrupt,
        "points": [
            [p.ts, p.n, p.ok, p.timeouts, p.servfails, p.avg_rtt, p.impact]
            for p in series.points
        ],
    }


def _series_from(doc: Dict) -> ImpactSeries:
    return ImpactSeries(
        nsset_id=doc["nsset_id"],
        window=Window(doc["window"][0], doc["window"][1]),
        baseline_rtt=doc["baseline_rtt"],
        min_bucket_n=doc["min_bucket_n"],
        degraded=doc["degraded"],
        n_corrupt=doc["n_corrupt"],
        points=[ImpactPoint(ts=row[0], n=row[1], ok=row[2], timeouts=row[3],
                            servfails=row[4], avg_rtt=row[5], impact=row[6])
                for row in doc["points"]])


def dumps_events(events: List[AttackEvent]) -> bytes:
    """Serialize extracted attack events (attack + NSSet + series)."""
    return _dumps({
        "schema": _EVENTS_SCHEMA,
        "attack_fields": _ATTACK_FIELDS,
        "events": [
            {"attack": _row(e.attack, _ATTACK_FIELDS),
             "info": _info_doc(e.info),
             "series": _series_doc(e.series)}
            for e in events
        ],
    })


def loads_events(data: bytes) -> List[AttackEvent]:
    """Deserialize :func:`dumps_events` output (exact round-trip)."""
    doc = _loads(data, _EVENTS_SCHEMA)
    return [AttackEvent(attack=_attack_from_row(item["attack"]),
                        info=_info_from(item["info"]),
                        series=_series_from(item["series"]))
            for item in doc["events"]]


# -- serve layer: the domain->NSSet catalog -----------------------------------

_CATALOG_SCHEMA = "repro.artifacts.catalog/v1"


def dumps_catalog(catalog: Dict) -> bytes:
    """Serialize the serve layer's catalog (a plain JSON-able dict).

    Deliberately *not* registered in :data:`PHASE_SERIALIZERS`: the
    catalog is not a pipeline phase artifact — the serve store reads
    and writes it against the :class:`ArtifactStore` directly.
    """
    return _dumps({"schema": _CATALOG_SCHEMA, "catalog": catalog})


def loads_catalog(data: bytes) -> Dict:
    """Deserialize :func:`dumps_catalog` output."""
    return _loads(data, _CATALOG_SCHEMA)["catalog"]


#: phase name -> (dumps, loads), for the pipeline's cache boundary.
PHASE_SERIALIZERS = {
    "telescope": (dumps_feed, loads_feed),
    "crawl": (dumps_store, loads_store),
    "join": (dumps_join, loads_join),
    "events": (dumps_events, loads_events),
}
