"""The query service: cached-artifact answers to study questions.

:class:`QueryService` is the transport-free core of ``repro serve``:
``handle(target)`` maps one request target to a :class:`ServeResponse`
(status, headers, JSON body), reading only the sharded store's cached
partitions — no query ever re-runs the pipeline. The HTTP front end
(:mod:`repro.serve.api`) is a thin asyncio shell around it, and tests
drive ``handle`` directly.

Endpoints::

    GET /healthz                       liveness + maintenance flag
    GET /v1/meta                       timeline, days, domain counts
    GET /v1/impact?attack=IP@TS&domain=NAME
                                       impact of one attack on one domain
    GET /v1/slices?nsset=ID[&start=..][&end=..]
                                       per-NSSet daily time slices
    GET /v1/top?by=companies|victims|events[&n=N]
                                       top-N tables
    GET /v1/events?day=YYYY-MM-DD      event lookups for one day
    GET /metrics                       Prometheus text exposition

Degradation is graceful and explicit: a cold shard (not yet built, or
gc-evicted) or a store under maintenance answers ``503`` with a
``Retry-After`` header instead of blocking or recomputing. Every query
is accounted exactly once in ``repro.serve.queries{endpoint,outcome}``
(outcomes: ``ok``, ``bad_request``, ``not_found``, ``unavailable``,
``error`` — their sum is the request count), timed into the
``repro.serve.query_latency_ms{endpoint}`` histogram, and journaled as
``query.start`` / ``query.finish`` / ``query.error``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.impact import top_companies_by_impact
from repro.net.ip import ip_to_str, parse_ip
from repro.obs import NULL_TELEMETRY, QUERY_BUCKETS_MS, RunTelemetry
from repro.serve.store import ShardedStudyStore
from repro.util.timeutil import DAY, day_start, format_ts, iter_days, parse_ts

__all__ = ["ServeResponse", "QueryService"]

#: Retry-After (seconds) for a store under maintenance (gc in flight).
RETRY_MAINTENANCE_S = 5
#: Retry-After (seconds) for a cold shard (needs a build pass).
RETRY_COLD_S = 30


@dataclass
class ServeResponse:
    """One deterministic HTTP-shaped answer.

    ``body`` is a JSON document for every endpoint except ``/metrics``,
    which carries its Prometheus exposition as a raw ``str`` so scrapers
    see ``text/plain`` rather than JSON-wrapped text.
    """

    status: int
    body: object
    headers: Tuple[Tuple[str, str], ...] = ()

    @property
    def content_type(self) -> str:
        if isinstance(self.body, str):
            return "text/plain; version=0.0.4; charset=utf-8"
        return "application/json"

    def to_bytes(self) -> bytes:
        if isinstance(self.body, str):
            return self.body.encode("utf-8")
        return json.dumps(self.body, sort_keys=True,
                          separators=(",", ":")).encode("utf-8") + b"\n"


class _BadRequest(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _NotFound(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _ShardCold(Exception):
    def __init__(self, day: int, phase: str):
        super().__init__(f"{phase}@{format_ts(day)[:10]}")
        self.day = day
        self.phase = phase


def _parse_when(text: str) -> int:
    """An epoch-seconds int, or a ``YYYY-MM-DD[ HH:MM[:SS]]`` date."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return parse_ts(text)
    except ValueError:
        raise _BadRequest(f"unparseable timestamp {text!r}")


class QueryService:
    """Answers study queries from a :class:`ShardedStudyStore`."""

    def __init__(self, store: ShardedStudyStore,
                 telemetry: Optional[RunTelemetry] = None):
        self.store = store
        self.telemetry = (telemetry if telemetry is not None
                          else store.telemetry) or NULL_TELEMETRY
        self._catalog: Optional[Dict] = None
        self._top: Dict[str, List] = {}
        self._routes = {
            "/healthz": self._healthz,
            "/v1/meta": self._meta,
            "/v1/impact": self._impact,
            "/v1/slices": self._slices,
            "/v1/top": self._top_n,
            "/v1/events": self._events,
            "/metrics": self._metrics,
        }

    # -- the entry point ------------------------------------------------------

    def handle(self, target: str, method: str = "GET") -> ServeResponse:
        """Answer one request target; never raises."""
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        endpoint = path if path in self._routes else "unknown"
        params = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        journal = self.telemetry.journal
        clock = self.telemetry.clock
        journal.emit("query.start", endpoint=endpoint, target=target)
        t0 = clock.now()
        try:
            if method != "GET":
                response = ServeResponse(405, {"error": "method_not_allowed"})
                outcome = "bad_request"
            else:
                response, outcome = self._dispatch(endpoint, path, params)
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            response = ServeResponse(500, {"error": "internal",
                                           "detail": type(exc).__name__})
            outcome = "error"
            journal.emit("query.error", endpoint=endpoint,
                         error=type(exc).__name__)
        duration_ms = (clock.now() - t0) * 1000.0
        registry = self.telemetry.registry
        registry.counter("repro.serve.queries", endpoint=endpoint,
                         outcome=outcome).inc()
        registry.histogram("repro.serve.query_latency_ms",
                           buckets=QUERY_BUCKETS_MS,
                           endpoint=endpoint).observe(duration_ms)
        journal.emit("query.finish", endpoint=endpoint,
                     status=response.status, outcome=outcome,
                     duration_ms=round(duration_ms, 3))
        return response

    def _dispatch(self, endpoint: str, path: str,
                  params: Dict[str, str]) -> Tuple[ServeResponse, str]:
        if endpoint == "unknown":
            return ServeResponse(404, {"error": "unknown_endpoint",
                                       "path": path}), "not_found"
        if self.store.in_maintenance and endpoint.startswith("/v1/"):
            return ServeResponse(
                503, {"error": "maintenance",
                      "retry_after_s": RETRY_MAINTENANCE_S},
                headers=(("Retry-After", str(RETRY_MAINTENANCE_S)),),
            ), "unavailable"
        try:
            body = self._routes[endpoint](params)
        except _BadRequest as exc:
            return ServeResponse(400, {"error": "bad_request",
                                       "detail": exc.reason}), "bad_request"
        except _NotFound as exc:
            return ServeResponse(404, {"error": "not_found",
                                       "detail": exc.reason}), "not_found"
        except _ShardCold as exc:
            return ServeResponse(
                503, {"error": "shard_cold", "phase": exc.phase,
                      "day": format_ts(exc.day)[:10],
                      "retry_after_s": RETRY_COLD_S},
                headers=(("Retry-After", str(RETRY_COLD_S)),),
            ), "unavailable"
        if isinstance(body, ServeResponse):
            return body, "ok"
        return ServeResponse(200, body), "ok"

    # -- shared plumbing ------------------------------------------------------

    def catalog(self) -> Dict:
        if self._catalog is None:
            self._catalog = self.store.catalog()
        return self._catalog

    def _load(self, day: int, phase: str):
        artifact = self.store.load_day(day, phase)
        if artifact is None:
            raise _ShardCold(day, phase)
        return artifact

    def _days(self) -> List[int]:
        return self.store.days()

    def _require(self, params: Dict[str, str], name: str) -> str:
        value = params.get(name)
        if not value:
            raise _BadRequest(f"missing required parameter {name!r}")
        return value

    # -- endpoints ------------------------------------------------------------

    def _healthz(self, params: Dict[str, str]) -> Dict:
        return {"status": "ok",
                "maintenance": self.store.in_maintenance,
                "days": len(self._days())}

    def _meta(self, params: Dict[str, str]) -> Dict:
        catalog = self.catalog()
        return {
            "start": format_ts(catalog["start"]),
            "end": format_ts(catalog["end"]),
            "days": len(catalog["days"]),
            "n_domains": catalog["n_domains"],
            "n_nssets": len(catalog["nsset_domains"]),
        }

    def _metrics(self, params: Dict[str, str]) -> ServeResponse:
        return ServeResponse(200, self.telemetry.registry.render_prometheus())

    def _parse_attack(self, text: str) -> Tuple[int, int]:
        ip_s, sep, ts_s = text.partition("@")
        if not sep:
            raise _BadRequest("attack must be IP@TS")
        try:
            ip = parse_ip(ip_s)
        except ValueError:
            raise _BadRequest(f"invalid victim IP {ip_s!r}")
        return ip, _parse_when(ts_s)

    def _find_event(self, ip: int, ts: int, nsset_id: Optional[int]):
        """(matching event, any event of the attack) across the day
        partitions the inferred start can live in."""
        day = day_start(ts)
        any_event = None
        for candidate in (day, day - DAY):
            if candidate not in self.store.day_keys():
                continue
            for event in self._load(candidate, "events"):
                if (event.attack.victim_ip == ip
                        and event.attack.start == ts):
                    any_event = any_event or event
                    if nsset_id is None or event.nsset_id == nsset_id:
                        return event, any_event
        return None, any_event

    def _find_classified(self, ip: int, ts: int):
        day = day_start(ts)
        for candidate in (day, day - DAY):
            if candidate not in self.store.day_keys():
                continue
            for classified in self._load(candidate, "join").classified:
                if (classified.attack.victim_ip == ip
                        and classified.attack.start == ts):
                    return classified
        return None

    def _impact(self, params: Dict[str, str]) -> Dict:
        ip, ts = self._parse_attack(self._require(params, "attack"))
        domain = self._require(params, "domain")
        nsset_id = self.catalog()["domains"].get(domain)
        if nsset_id is None:
            raise _NotFound(f"unknown domain {domain!r}")
        event, any_event = self._find_event(ip, ts, nsset_id)
        base = {"attack": f"{ip_to_str(ip)}@{ts}",
                "domain": domain, "nsset_id": nsset_id}
        if event is not None:
            series = event.series
            return dict(base, impact={
                "mean": event.mean_impact,
                "max": event.max_impact,
                "headline": event.impact,
                "failure_rate": event.failure_rate,
                "n_measured": event.n_measured,
                "degraded": event.degraded,
                "duration_s": event.duration_s,
                "company": event.company,
                "points": [
                    {"ts": p.ts, "n": p.n, "ok": p.ok,
                     "timeouts": p.timeouts, "servfails": p.servfails,
                     "impact": p.impact}
                    for p in series.points
                ],
            })
        if any_event is not None:
            return dict(base, impact=None, reason="no_event_for_nsset")
        if self._find_classified(ip, ts) is not None:
            return dict(base, impact=None, reason="no_measurable_impact")
        raise _NotFound(f"no attack {ip_to_str(ip)}@{ts} in the feed")

    def _slices(self, params: Dict[str, str]) -> Dict:
        try:
            nsset_id = int(self._require(params, "nsset"))
        except ValueError:
            raise _BadRequest("nsset must be an integer id")
        catalog = self.catalog()
        if str(nsset_id) not in catalog["nsset_domains"]:
            raise _NotFound(f"unknown NSSet {nsset_id}")
        start = (_parse_when(params["start"]) if params.get("start")
                 else catalog["start"])
        end = (_parse_when(params["end"]) if params.get("end")
               else catalog["end"])
        start = max(day_start(start), catalog["start"])
        end = min(end, catalog["end"])
        if start >= end:
            raise _BadRequest("empty time range")
        points = []
        for day in iter_days(start, end):
            crawl = self._load(day, "crawl")
            agg = crawl.day_aggregate(nsset_id, day)
            if agg is None:
                continue
            points.append({
                "day": format_ts(day)[:10],
                "n": agg.n,
                "failure_rate": agg.failure_rate,
                "avg_rtt": agg.avg_rtt,
                "timeouts": agg.timeout_n,
                "servfails": agg.servfail_n,
            })
        return {"nsset_id": nsset_id,
                "n_domains": catalog["nsset_domains"][str(nsset_id)],
                "start": format_ts(start), "end": format_ts(end),
                "points": points}

    def _all_events(self) -> List:
        out = []
        for day in self._days():
            out.extend(self._load(day, "events"))
        return out

    def _top_n(self, params: Dict[str, str]) -> Dict:
        by = params.get("by", "companies")
        try:
            n = int(params.get("n", "10"))
        except ValueError:
            raise _BadRequest("n must be an integer")
        if n <= 0:
            raise _BadRequest("n must be positive")
        if by not in ("companies", "victims", "events"):
            raise _BadRequest(f"unknown ranking {by!r} "
                              "(companies|victims|events)")
        if by not in self._top:
            self._top[by] = self._rank(by)
        return {"by": by, "n": n, "rows": self._top[by][:n]}

    def _rank(self, by: str) -> List[Dict]:
        if by == "companies":
            events = self._all_events()
            return [{"company": company, "impact": impact}
                    for company, impact in
                    top_companies_by_impact(events, n=len(events))]
        if by == "victims":
            counts: Dict[int, int] = {}
            for day in self._days():
                for classified in self._load(day, "join").classified:
                    ip = classified.attack.victim_ip
                    counts[ip] = counts.get(ip, 0) + 1
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            return [{"victim": ip_to_str(ip), "n_attacks": count}
                    for ip, count in ranked]
        rows = []
        for event in self._all_events():
            rows.append({
                "attack": (f"{ip_to_str(event.attack.victim_ip)}"
                           f"@{event.attack.start}"),
                "nsset_id": event.nsset_id,
                "company": event.company,
                "impact": event.impact,
                "failure_rate": event.failure_rate,
            })
        rows.sort(key=lambda r: (-(r["impact"] or 0.0), r["attack"],
                                 r["nsset_id"]))
        return rows

    def _events(self, params: Dict[str, str]) -> Dict:
        day_text = self._require(params, "day")
        day = day_start(_parse_when(day_text))
        if day not in self.store.day_keys():
            raise _NotFound(f"day {day_text!r} outside the timeline")
        events = self._load(day, "events")
        attack = params.get("attack")
        if attack:
            ip, ts = self._parse_attack(attack)
            events = [e for e in events
                      if e.attack.victim_ip == ip and e.attack.start == ts]
        return {
            "day": format_ts(day)[:10],
            "n_events": len(events),
            "events": [
                {"attack": (f"{ip_to_str(e.attack.victim_ip)}"
                            f"@{e.attack.start}"),
                 "nsset_id": e.nsset_id,
                 "company": e.company,
                 "impact": e.impact,
                 "n_measured": e.n_measured,
                 "degraded": e.degraded}
                for e in events
            ],
        }
