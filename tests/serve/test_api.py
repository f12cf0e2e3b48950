"""Tests for the query service and its asyncio HTTP front end."""

import asyncio
import json

from repro.net.ip import ip_to_str
from repro.obs import RunTelemetry
from repro.serve import (
    QueryServer,
    QueryService,
    ServeResponse,
    ShardedStudyStore,
)


def body_of(response: ServeResponse) -> dict:
    parsed = json.loads(response.to_bytes())
    # The wire form must round-trip the body exactly.
    assert parsed == json.loads(json.dumps(response.body))
    return parsed


class TestBasics:
    def test_healthz(self, service, built_store):
        response = service.handle("/healthz")
        assert response.status == 200
        assert body_of(response) == {
            "status": "ok", "maintenance": False,
            "days": len(built_store.days())}

    def test_meta(self, service, serve_config):
        response = service.handle("/v1/meta")
        assert response.status == 200
        body = body_of(response)
        assert body["days"] == 7
        assert body["start"].startswith(serve_config.start)

    def test_unknown_endpoint_404(self, service):
        response = service.handle("/nope")
        assert response.status == 404
        assert body_of(response)["error"] == "unknown_endpoint"

    def test_method_not_allowed(self, service):
        assert service.handle("/healthz", method="POST").status == 405

    def test_trailing_slash_is_tolerated(self, service):
        assert service.handle("/healthz/").status == 200

    def test_responses_are_deterministic(self, service):
        first = service.handle("/v1/top?by=victims&n=5").to_bytes()
        second = service.handle("/v1/top?by=victims&n=5").to_bytes()
        assert first == second

    def test_metrics_exposition(self, built_store):
        telemetry = RunTelemetry.create()
        service = QueryService(built_store, telemetry=telemetry)
        service.handle("/healthz")
        response = service.handle("/metrics")
        assert response.status == 200
        # Raw Prometheus text exposition, not JSON.
        assert response.content_type.startswith("text/plain")
        assert "repro_serve_queries" in response.to_bytes().decode("utf-8")


class TestImpact:
    def test_missing_params_400(self, service):
        assert service.handle("/v1/impact").status == 400
        assert service.handle("/v1/impact?attack=1.2.3.4@0").status == 400

    def test_malformed_attack_400(self, service):
        target = "/v1/impact?attack=nonsense&domain=x"
        assert service.handle(target).status == 400

    def test_unknown_domain_404(self, service, an_event):
        attack = an_event.attack
        target = (f"/v1/impact?attack={ip_to_str(attack.victim_ip)}"
                  f"@{attack.start}&domain=no-such-domain.example")
        assert service.handle(target).status == 404

    def test_unknown_attack_404(self, service, built_store):
        domain = next(iter(built_store.catalog()["domains"]))
        target = f"/v1/impact?attack=203.0.113.9@12345&domain={domain}"
        response = service.handle(target)
        assert response.status == 404
        assert body_of(response)["error"] == "not_found"

    def test_event_found(self, service, built_store, an_event):
        catalog = built_store.catalog()
        domain = next(name for name, nsset in catalog["domains"].items()
                      if nsset == an_event.nsset_id)
        attack = an_event.attack
        target = (f"/v1/impact?attack={ip_to_str(attack.victim_ip)}"
                  f"@{attack.start}&domain={domain}")
        response = service.handle(target)
        assert response.status == 200
        body = body_of(response)
        assert body["nsset_id"] == an_event.nsset_id
        impact = body["impact"]
        assert impact["n_measured"] == an_event.n_measured
        assert impact["points"]
        assert impact["company"] == an_event.company

    def test_attack_without_event_for_domain(self, service, built_store,
                                             an_event):
        catalog = built_store.catalog()
        domain = next(name for name, nsset in catalog["domains"].items()
                      if nsset != an_event.nsset_id)
        attack = an_event.attack
        target = (f"/v1/impact?attack={ip_to_str(attack.victim_ip)}"
                  f"@{attack.start}&domain={domain}")
        response = service.handle(target)
        assert response.status == 200
        body = body_of(response)
        assert body["impact"] is None
        assert body["reason"] in ("no_event_for_nsset",
                                  "no_measurable_impact")

    def test_classified_attack_without_any_event(self, service,
                                                 built_store):
        with_events = set()
        for day in built_store.days():
            for event in built_store.load_day(day, "events"):
                with_events.add((event.attack.victim_ip,
                                 event.attack.start))
        quiet = None
        for day in built_store.days():
            for classified in built_store.load_day(day, "join").classified:
                attack = classified.attack
                if (attack.victim_ip, attack.start) not in with_events:
                    quiet = attack
                    break
            if quiet:
                break
        assert quiet is not None
        domain = next(iter(built_store.catalog()["domains"]))
        target = (f"/v1/impact?attack={ip_to_str(quiet.victim_ip)}"
                  f"@{quiet.start}&domain={domain}")
        body = body_of(service.handle(target))
        assert body["impact"] is None
        assert body["reason"] == "no_measurable_impact"


class TestSlicesAndTables:
    def test_slices_for_known_nsset(self, service, built_store, an_event):
        response = service.handle(f"/v1/slices?nsset={an_event.nsset_id}")
        assert response.status == 200
        body = body_of(response)
        assert body["nsset_id"] == an_event.nsset_id
        assert body["points"]
        point = body["points"][0]
        assert set(point) == {"day", "n", "failure_rate", "avg_rtt",
                              "timeouts", "servfails"}

    def test_slices_respects_range(self, service, an_event):
        target = (f"/v1/slices?nsset={an_event.nsset_id}"
                  "&start=2021-03-02&end=2021-03-04")
        body = body_of(service.handle(target))
        assert [p["day"] for p in body["points"]] == \
            ["2021-03-02", "2021-03-03"]

    def test_slices_bad_nsset_400(self, service):
        assert service.handle("/v1/slices?nsset=abc").status == 400

    def test_slices_unknown_nsset_404(self, service):
        assert service.handle("/v1/slices?nsset=99999999").status == 404

    def test_slices_empty_range_400(self, service, an_event):
        target = (f"/v1/slices?nsset={an_event.nsset_id}"
                  "&start=2021-03-04&end=2021-03-02")
        assert service.handle(target).status == 400

    def test_top_victims(self, service):
        body = body_of(service.handle("/v1/top?by=victims&n=3"))
        assert body["rows"]
        assert len(body["rows"]) <= 3
        counts = [row["n_attacks"] for row in body["rows"]]
        assert counts == sorted(counts, reverse=True)

    def test_top_events(self, service, built_store):
        n_events = sum(len(built_store.load_day(d, "events"))
                       for d in built_store.days())
        body = body_of(service.handle("/v1/top?by=events&n=50"))
        assert len(body["rows"]) == min(50, n_events)

    def test_top_companies(self, service):
        response = service.handle("/v1/top?by=companies&n=5")
        assert response.status == 200

    def test_top_bad_params_400(self, service):
        assert service.handle("/v1/top?by=bogus").status == 400
        assert service.handle("/v1/top?by=victims&n=0").status == 400
        assert service.handle("/v1/top?by=victims&n=x").status == 400

    def test_events_by_day(self, service, built_store, an_event):
        from repro.util.timeutil import day_start, format_ts

        day = format_ts(day_start(an_event.attack.start))[:10]
        body = body_of(service.handle(f"/v1/events?day={day}"))
        assert body["n_events"] >= 1
        attacks = {row["attack"] for row in body["events"]}
        expected = (f"{ip_to_str(an_event.attack.victim_ip)}"
                    f"@{an_event.attack.start}")
        assert expected in attacks

    def test_events_outside_timeline_404(self, service):
        assert service.handle("/v1/events?day=2019-01-01").status == 404


class TestDegradation:
    def test_maintenance_503_with_retry_after(self, service, built_store):
        with built_store.maintenance():
            response = service.handle("/v1/meta")
        assert response.status == 503
        assert ("Retry-After", "5") in response.headers
        assert body_of(response)["error"] == "maintenance"
        assert service.handle("/v1/meta").status == 200

    def test_healthz_stays_up_during_maintenance(self, service,
                                                 built_store):
        with built_store.maintenance():
            response = service.handle("/healthz")
        assert response.status == 200
        assert body_of(response)["maintenance"] is True

    def test_cold_shard_503(self, serve_config, tmp_path):
        store = ShardedStudyStore(serve_config, str(tmp_path))
        service = QueryService(store)
        response = service.handle("/v1/events?day=2021-03-02")
        assert response.status == 503
        body = body_of(response)
        assert body["error"] == "shard_cold"
        assert ("Retry-After", "30") in response.headers


class TestAccounting:
    def test_every_query_lands_in_exactly_one_outcome(self, built_store):
        telemetry = RunTelemetry.create()
        service = QueryService(built_store, telemetry=telemetry)
        targets = ["/healthz", "/v1/meta", "/nope",
                   "/v1/impact", "/v1/top?by=victims&n=2",
                   "/v1/slices?nsset=99999999", "/v1/top?by=bogus"]
        for target in targets:
            service.handle(target)
        counters = telemetry.registry.snapshot()["counters"]
        total = sum(value for key, value in counters.items()
                    if key.startswith("repro.serve.queries{"))
        assert total == len(targets)
        histograms = telemetry.registry.snapshot()["histograms"]
        observed = sum(
            h["count"] for key, h in histograms.items()
            if key.startswith("repro.serve.query_latency_ms{"))
        assert observed == len(targets)

    def test_journal_records_every_query(self, built_store, tmp_path):
        from repro.obs import RunJournal, read_journal

        telemetry = RunTelemetry.create()
        path = str(tmp_path / "journal.jsonl")
        telemetry.attach_journal(RunJournal(
            path, run_id=telemetry.run_id, clock=telemetry.clock,
            started_at_utc=telemetry.started_at_utc))
        service = QueryService(built_store, telemetry=telemetry)
        service.handle("/v1/meta")
        service.handle("/nope")
        telemetry.journal.close()
        types = [rec["type"] for rec in read_journal(path)]
        assert types.count("query.start") == 2
        assert types.count("query.finish") == 2


async def _fetch(port, target):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {target} HTTP/1.1\r\nHost: t\r\n"
                 "Connection: close\r\n\r\n".encode())
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    writer.close()
    return status, headers, json.loads(body)


class TestHttpServer:
    def test_round_trips_and_keep_alive(self, service):
        async def scenario():
            server = QueryServer(service, port=0)
            await server.start()
            try:
                port = server.port
                status, headers, body = await _fetch(port, "/healthz")
                assert status == 200
                assert body["status"] == "ok"
                assert headers["content-type"] == "application/json"

                # Two requests over one keep-alive connection.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                for _ in range(2):
                    writer.write(b"GET /v1/meta HTTP/1.1\r\nHost: t\r\n\r\n")
                    await writer.drain()
                    assert (await reader.readline()).startswith(
                        b"HTTP/1.1 200")
                    length = None
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n"):
                            break
                        if line.lower().startswith(b"content-length"):
                            length = int(line.split(b":")[1])
                    await reader.readexactly(length)
                writer.close()

                status, headers, body = await _fetch(port, "/bogus")
                assert status == 404
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_concurrent_clients(self, service):
        async def scenario():
            server = QueryServer(service, port=0)
            await server.start()
            try:
                results = await asyncio.gather(*[
                    _fetch(server.port,
                           "/v1/top?by=victims&n=2" if i % 2
                           else "/healthz")
                    for i in range(32)
                ])
                assert all(status == 200 for status, _, _ in results)
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_malformed_request_line(self, service):
        async def scenario():
            server = QueryServer(service, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                status = int((await reader.readline()).split()[1])
                assert status == 400
                writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())
