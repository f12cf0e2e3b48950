"""Exact serializers for the expensive phase outputs.

Each cacheable phase artifact — the telescope's :class:`RSDoSFeed`, the
crawl's :class:`MeasurementStore`, the :class:`DatasetJoin`, and the
extracted :class:`AttackEvent` list — gets a ``dumps``/``loads`` pair.
Every pair keeps one contract: **every value round-trips exactly**, so a
warm study is bit-identical to the cold run that populated it — the
property the pipeline tests assert — and ``dumps(loads(b)) == b``.

The two large artifacts, the feed and the store, are packed columns:
one JSON header line (schema, scalar totals and a column directory of
``[name, type code, count]``), a newline, then each column's values
back to back as little-endian ``array`` items — ``q`` (int64) or ``d``
(IEEE-754 double, so every float, ``inf`` included, is kept bit for
bit). ``loads_feed``/``loads_store`` parse the header, check the whole
blob's structure against it, restore the feed's attacks and the store's
totals, and keep the rest as undecoded column bytes: the feed's records
and the store's ``daily``/``buckets`` tables are built from them the
first time something reads them (see :meth:`RSDoSFeed.deferred` and
:meth:`MeasurementStore.deferred`), and a quiet crawl cell saved as its
key is drawn when it is first read. A value a column cannot hold
exactly makes ``dumps`` raise :class:`ValueError`, as does a damaged or
foreign blob in ``loads``.

The join, the events and the serve catalog are nested and small, and
stay sorted-key JSON with ``repr``-faithful floats.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from array import array
from itertools import chain, islice
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.events import AttackEvent
from repro.core.join import (AttackClass, ClassifiedAttack, DatasetJoin)
from repro.core.metrics import ImpactPoint, ImpactSeries
from repro.core.nsset import NSSetInfo
from repro.openintel.storage import (Aggregate, DailyTable,
                                     MeasurementStore, _QuietDays)
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

_FEED_SCHEMA = "repro.artifacts.feed/v2"
_STORE_SCHEMA = "repro.artifacts.store/v5"
_JOIN_SCHEMA = "repro.artifacts.join/v1"
_EVENTS_SCHEMA = "repro.artifacts.events/v1"

_ATTACK_FIELDS = [f.name for f in dataclasses.fields(InferredAttack)]


def _dumps(doc: Dict) -> bytes:
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _check_schema(doc: object, schema: str) -> Dict:
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise ValueError(f"artifact schema mismatch: expected {schema!r}, "
                         f"found {found!r}")
    return doc


def _loads(data: bytes, schema: str) -> Dict:
    return _check_schema(json.loads(data.decode("utf-8")), schema)


def _row(obj, field_names) -> List:
    return [getattr(obj, name) for name in field_names]


def _attack_from_row(row) -> InferredAttack:
    return InferredAttack(*row)


# -- packed columns -----------------------------------------------------------

#: column type codes (int64, double); both take 8 bytes an item.
_CODES = ("q", "d")
_ITEMSIZE = 8
#: columns are little-endian on disk whatever the host's byte order.
_SWAP = sys.byteorder == "big"

#: (column, type code) pairs of a table.
_Layout = Sequence[Tuple[str, str]]


def _layout(cls) -> _Layout:
    """One column per dataclass field: ``int`` packs as ``q``, ``float``
    as ``d``."""
    return [(f.name, {"int": "q", "float": "d"}[f.type])
            for f in dataclasses.fields(cls)]


def _pack(name: str, code: str, values: List) -> bytes:
    """One column's bytes; a value the column cannot hold exactly is a
    :class:`ValueError` (an int beyond int64, a float in an int column,
    an int a double would round)."""
    try:
        packed = array(code, values)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"column {name!r} cannot hold a value: {exc}") \
            from None
    if code == "d" and any(not isinstance(v, float) and v != x
                           for v, x in zip(values, packed)):
        raise ValueError(f"column {name!r} cannot hold a value exactly")
    if _SWAP:
        packed.byteswap()
    return packed.tobytes()


def _dumps_packed(header: Dict,
                  columns: Iterable[Tuple[str, str, List]]) -> bytes:
    """The header line, then every column of ``columns``, which yields
    one ``(name, code, values)`` at a time: only one column's values
    are ever held as Python objects."""
    directory, parts = [], []
    for name, code, values in columns:
        parts.append(_pack(name, code, values))
        directory.append([name, code, len(values)])
    return b"\n".join([_dumps(dict(header, columns=directory)),
                       b"".join(parts)])


def _loads_packed(data: bytes, schema: str, tables: Dict[str, _Layout]
                  ) -> Tuple[Dict, Dict[str, Tuple[str, memoryview]]]:
    """Parse and check a packed blob: the header and, per column, its
    type code and undecoded bytes.

    The whole structure is checked here — schema, column directory
    against ``tables``, equal column lengths within a table, and the
    byte count — so a truncated or foreign blob fails now, never later
    inside an analysis. A JSON blob of an older layout has no newline:
    all of it parses as a header with a foreign schema.
    """
    end = data.find(b"\n")
    header = _check_schema(json.loads(data[:end] if end >= 0 else data),
                           schema)
    if end < 0:
        raise ValueError("packed artifact has no column section")
    try:
        directory = [(name, code, count)
                     for name, code, count in header["columns"]]
    except (KeyError, TypeError, ValueError):
        raise ValueError("malformed column directory") from None
    for name, code, count in directory:
        if code not in _CODES:
            raise ValueError(f"unknown type code {code!r} of {name!r}")
        if type(count) is not int or count < 0:
            raise ValueError(f"bad count {count!r} of {name!r}")
    if [(name, code) for name, code, _ in directory] != [
            (f"{table}.{name}", code)
            for table, layout in tables.items() for name, code in layout]:
        raise ValueError("column directory does not match the layout")
    for table in tables:
        if len({count for name, _, count in directory
                if name.startswith(table + ".")}) > 1:
            raise ValueError(f"columns of {table!r} differ in length")
    body = memoryview(data)[end + 1:]
    size = _ITEMSIZE * sum(count for _, _, count in directory)
    if len(body) != size:
        raise ValueError(f"column section holds {len(body)} bytes, "
                         f"the directory {size}")
    columns, offset = {}, 0
    for name, code, count in directory:
        stop = offset + count * _ITEMSIZE
        columns[name] = (code, body[offset:stop])
        offset = stop
    return header, columns


def _unpack(column: Tuple[str, memoryview]) -> List:
    """One column's values, decoded."""
    code, raw = column
    values = array(code)
    values.frombytes(raw)
    if _SWAP:
        values.byteswap()
    return values.tolist()


def _object_columns(table: str, objs: Sequence, layout: _Layout
                    ) -> Iterator[Tuple[str, str, List]]:
    for name, code in layout:
        yield f"{table}.{name}", code, list(map(attrgetter(name), objs))


def _objects(cls, columns, table: str, layout: _Layout) -> List:
    """Rebuild a table's objects, one ``cls(*row)`` per row."""
    return [cls(*row) for row in zip(*(_unpack(columns[f"{table}.{name}"])
                                       for name, _ in layout))]


# -- telescope: RSDoSFeed -----------------------------------------------------

_RECORD_LAYOUT = _layout(FeedRecord)
_ATTACK_LAYOUT = _layout(InferredAttack)
_FEED_TABLES = {"records": _RECORD_LAYOUT, "attacks": _ATTACK_LAYOUT}


def dumps_feed(feed: RSDoSFeed) -> bytes:
    """Serialize the curated feed: window records + inferred attacks."""
    return _dumps_packed({"schema": _FEED_SCHEMA}, chain(
        _object_columns("records", feed.records, _RECORD_LAYOUT),
        _object_columns("attacks", feed.attacks, _ATTACK_LAYOUT)))


def loads_feed(data: bytes) -> RSDoSFeed:
    """Deserialize :func:`dumps_feed` output (exact round-trip); the
    records are built on first access."""
    _, columns = _loads_packed(data, _FEED_SCHEMA, _FEED_TABLES)
    return RSDoSFeed.deferred(
        _objects(InferredAttack, columns, "attacks", _ATTACK_LAYOUT),
        lambda: _objects(FeedRecord, columns, "records", _RECORD_LAYOUT))


# -- crawl: MeasurementStore --------------------------------------------------

#: Aggregate columns, in ``Aggregate.state()`` order.
_AGG_LAYOUT = [("n", "q"), ("ok_n", "q"), ("rtt_sum", "d"),
               ("timeout_n", "q"), ("servfail_n", "q"), ("other_err_n", "q")]
#: a table's (nsset_id, ts) keys, sorted.
_KEY_LAYOUT = [("nsset_id", "q"), ("ts", "q")]
_TABLE_LAYOUT = [*_KEY_LAYOUT, *_AGG_LAYOUT]
#: The daily cells the crawl deferred are saved as their keys
#: (``deferred``) plus what their draws read: the header's crawl seed
#: and, per deferred NSSet (``quiet``), its members' base RTTs
#: (``quiet_rtts``) and its domain ids in directory order
#: (``quiet_domains``), each NSSet's run as long as its count.
_STORE_TABLES = {
    "daily": _TABLE_LAYOUT,
    "deferred": _KEY_LAYOUT,
    "quiet": [("nsset_id", "q"), ("n_rtts", "q"), ("n_domains", "q")],
    "quiet_rtts": [("rtt_ms", "d")],
    "quiet_domains": [("domain_id", "q")],
    "buckets": _TABLE_LAYOUT,
}
_STORE_TOTALS = ("n_measurements", "n_rejected", "n_merges")


def _key_columns(name: str, keys: List[Tuple[int, int]]
                 ) -> Iterator[Tuple[str, str, List]]:
    yield f"{name}.nsset_id", "q", [key[0] for key in keys]
    yield f"{name}.ts", "q", [key[1] for key in keys]


def _table_columns(name: str, table: Dict
                   ) -> Iterator[Tuple[str, str, List]]:
    keys = sorted(table)
    yield from _key_columns(name, keys)
    yield from _object_columns(name, [table[key] for key in keys],
                               _AGG_LAYOUT)


def _quiet_columns(quiet: Optional[_QuietDays], nssets: List[int]
                   ) -> Iterator[Tuple[str, str, List]]:
    """The draw inputs of ``nssets``; with none, ``quiet`` may be
    ``None``."""
    yield "quiet.nsset_id", "q", nssets
    yield "quiet.n_rtts", "q", [len(quiet.rtts[n]) for n in nssets]
    yield "quiet.n_domains", "q", [len(quiet.domains[n]) for n in nssets]
    yield "quiet_rtts.rtt_ms", "d", [rtt for n in nssets
                                     for rtt in quiet.rtts[n]]
    yield "quiet_domains.domain_id", "q", [domain_id for n in nssets
                                           for domain_id in quiet.domains[n]]


def _aggregate(*state) -> Aggregate:
    agg = Aggregate()
    (agg.n, agg.ok_n, agg.rtt_sum, agg.timeout_n, agg.servfail_n,
     agg.other_err_n) = state
    return agg


def _keys(columns, name: str) -> Iterator[Tuple[int, int]]:
    return zip(_unpack(columns[f"{name}.nsset_id"]),
               _unpack(columns[f"{name}.ts"]))


def _table(columns, name: str) -> Dict[Tuple[int, int], Aggregate]:
    """Rebuild one aggregate table from its columns."""
    return dict(zip(_keys(columns, name),
                    _objects(_aggregate, columns, name, _AGG_LAYOUT)))


def _runs(values: List, counts: List[int]) -> List[List]:
    """``values`` cut into consecutive runs of ``counts`` items."""
    items = iter(values)
    return [list(islice(items, count)) for count in counts]


def _daily_table(columns, crawl_seed: Optional[int], n_rtts: List[int],
                 n_domains: List[int]) -> DailyTable:
    """Rebuild the daily table: its aggregates, and its deferred keys
    with the draw inputs the crawl saved for them."""
    nssets = _unpack(columns["quiet.nsset_id"])
    quiet = _QuietDays(
        crawl_seed,
        dict(zip(nssets, map(tuple, _runs(
            _unpack(columns["quiet_rtts.rtt_ms"]), n_rtts)))),
        dict(zip(nssets, _runs(
            _unpack(columns["quiet_domains.domain_id"]), n_domains))))
    if len(quiet.rtts) != len(nssets):
        raise ValueError("an NSSet's draw inputs are saved twice")
    cells = dict.fromkeys(_keys(columns, "deferred"))
    if not {nsset_id for nsset_id, _ in cells} <= quiet.rtts.keys():
        raise ValueError("a deferred cell's NSSet has no draw inputs")
    n_deferred = len(cells)
    aggregates = _table(columns, "daily")
    cells.update(aggregates)
    if len(cells) != n_deferred + len(aggregates):
        raise ValueError("a daily key is both deferred and aggregated")
    return DailyTable(cells, quiet)


def dumps_store(store: MeasurementStore) -> bytes:
    """Serialize daily + dense 5-minute aggregates and ingest totals.

    Draws no deferred cell: each one whose draw is unchanged is written
    as its key, with the inputs of its draw, so a loaded store draws it
    on first read to the same bits.
    """
    keys, aggregates = store.daily.split()
    keys.sort()
    quiet = store.daily.quiet
    nssets = sorted({nsset_id for nsset_id, _ in keys})
    header = {"schema": _STORE_SCHEMA,
              "crawl_seed": quiet.crawl_seed if keys else None}
    header.update((name, getattr(store, name)) for name in _STORE_TOTALS)
    return _dumps_packed(header, chain(
        _table_columns("daily", aggregates),
        _key_columns("deferred", keys),
        _quiet_columns(quiet, nssets),
        _table_columns("buckets", store.buckets)))


def loads_store(data: bytes) -> MeasurementStore:
    """Deserialize :func:`dumps_store` output (exact round-trip); the
    tables are built on first access, and a deferred cell is drawn on
    its first read.

    The blob's structure is checked here, the draw inputs' counts
    included; what the tables hold is checked when they are built.
    """
    header, columns = _loads_packed(data, _STORE_SCHEMA, _STORE_TABLES)
    totals = [header.get(name) for name in _STORE_TOTALS]
    if any(type(total) is not int for total in totals):
        raise ValueError("store totals must be ints")
    rows = {name: count for name, _, count in header["columns"]}
    crawl_seed = header.get("crawl_seed")
    if (type(crawl_seed) is not int if rows["deferred.nsset_id"]
            else crawl_seed is not None):
        raise ValueError("a crawl seed must come with deferred cells")
    n_rtts = _unpack(columns["quiet.n_rtts"])
    n_domains = _unpack(columns["quiet.n_domains"])
    if (min(n_rtts + n_domains, default=1) < 1
            or sum(n_rtts) != rows["quiet_rtts.rtt_ms"]
            or sum(n_domains) != rows["quiet_domains.domain_id"]):
        raise ValueError("the draw inputs disagree with their counts")

    def build_table(name: str):
        if name == "daily":
            return _daily_table(columns, crawl_seed, n_rtts, n_domains)
        return _table(columns, name)

    return MeasurementStore.deferred(
        *totals, n_daily=rows["daily.nsset_id"] + rows["deferred.nsset_id"],
        n_buckets=rows["buckets.nsset_id"], build_table=build_table)


# -- join: DatasetJoin --------------------------------------------------------


def dumps_join(join: DatasetJoin) -> bytes:
    """Serialize a clean join result.

    Joins with rejected records are refused: rejects hold arbitrary
    damaged objects with no stable representation, and degraded results
    must never enter the cache anyway (they only arise under chaos,
    which never caches the join).
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
