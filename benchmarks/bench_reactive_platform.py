"""§4.3.1: the reactive measurement platform's operational properties.

Paper: triggers within 10 minutes of the feed reporting an attack;
probes up to 50 related domains every 5 minutes, spread evenly (~one
query every 6 seconds — the ethics bound); keeps probing for 24 hours
after the attack; probes every nameserver of each domain.
"""

from repro import ReactiveService
from repro.util.tables import Table
from repro.util.timeutil import DAY, FIVE_MINUTES, MINUTE, Window, parse_ts

TRANSIP_MARCH = Window(parse_ts("2021-03-01 18:00"), parse_ts("2021-03-02 04:00"))


def regenerate(study):
    return ReactiveService(study.world).run(study.feed, window=TRANSIP_MARCH)


def test_reactive_platform(benchmark, transip_study, emit, emit_json):
    report = benchmark.pedantic(regenerate, args=(transip_study,),
                                rounds=1, iterations=1)
    campaigns, store = report.campaigns, report.store

    delays = [c.triggered_at - c.attack.start for c in campaigns]
    tails = [c.ends_at - c.attack.end for c in campaigns]
    per_bucket = {}
    for probe in store.probes:
        key = probe.ts // FIVE_MINUTES
        per_bucket[key] = per_bucket.get(key, 0) + 1
    spacings = sorted({p.ts % FIVE_MINUTES for p in store.probes})

    table = Table(["property", "paper", "measured"],
                  title="Reactive measurement platform (§4.3.1)")
    for row in [
        ("campaigns triggered", "-", str(len(campaigns))),
        ("max trigger delay", "<= 10 min",
         f"{max(delays) / MINUTE:.0f} min"),
        ("post-attack probing", "24 h", f"{max(tails) / 3600:.0f} h"),
        ("probes recorded", "-", str(len(store.probes))),
        ("max probes per 5-min window", "50/domain-set bound",
         str(max(per_bucket.values()))),
        ("distinct in-window offsets", "spread evenly",
         str(len(spacings))),
    ]:
        table.add_row(row)
    emit("reactive_platform", table.render())
    emit_json("reactive_platform", {
        "campaigns": len(campaigns),
        "max_trigger_delay_s": max(delays),
        "post_attack_tail_s": max(tails),
        "probes": len(store.probes),
        "max_probes_per_window": max(per_bucket.values()),
        "distinct_offsets": len(spacings),
    })

    assert campaigns
    assert max(delays) <= 10 * MINUTE
    assert max(tails) == DAY
    # Probes are spread inside the window, not bursted at the boundary.
    assert len(spacings) > 1
    # Every domain's probes cover every one of its nameservers.
    domain_id = store.probes[0].domain_id
    record = transip_study.world.directory[domain_id]
    probed = {p.ns_ip for p in store.domain_probes(domain_id)}
    assert probed == set(record.delegation.nameserver_ips)


def test_reactive_production_rate(emit, emit_json):
    """The overload-aware platform (``repro.reactive``) at production
    rate: >= 1000 concurrent triggers through the bounded feed, with
    admission control and budget fairness.  Reports sustained event
    throughput and the p99 trigger latency; zero silent campaign drops
    is an assertion, not a hope.
    """
    import time

    from repro import WorldConfig, build_world
    from repro.reactive import CampaignState, ReactiveService, \
        fast_transport, synthetic_triggers
    from repro.util.timeutil import HOUR, MINUTE

    world = build_world(WorldConfig(
        seed=9, start="2021-03-01", end_exclusive="2021-04-01",
        n_domains=1200, n_selfhosted_providers=40, n_filler_providers=16,
        attacks_per_month=120))
    triggers = synthetic_triggers(world, 1000, seed=5, invalid_share=0.02)
    assert len(triggers) >= 1000

    service = ReactiveService(
        world, probes_per_window=3, post_attack_s=HOUR, probe_budget=60,
        feed_capacity=64, backpressure="block",
        transport=fast_transport(seed=2))
    t0 = time.perf_counter()
    report = service.run(triggers)
    elapsed = time.perf_counter() - t0

    c = report.counts
    # every trigger accounted for: nothing ever dropped silently
    assert c["unaccounted"] == 0
    assert c["feed_shed"] == 0          # block policy loses nothing
    assert c["done"] > 0
    events = c["triggers"] + c["probes"]
    events_per_s = events / elapsed
    p99 = report.trigger_latency_p99_s

    table = Table(["property", "paper", "measured"],
                  title="Production-rate reactive platform")
    for row in [
        ("concurrent triggers", ">= 1000", str(c["triggers"])),
        ("campaigns completed", "-", str(c["done"])),
        ("campaigns shed (loudly)", "-", str(c["shed"])),
        ("probes recorded", "-", str(c["probes"])),
        ("sustained events/sec", "-", f"{events_per_s:,.0f}"),
        ("p99 trigger latency", "<= 10 min or flagged",
         f"{p99 / MINUTE:.1f} min"),
        ("silently dropped campaigns", "0", str(c["unaccounted"])),
    ]:
        table.add_row(row)
    emit("reactive_production_rate", table.render())
    emit_json("reactive_production_rate", {
        "triggers": c["triggers"],
        "done": c["done"],
        "shed": c["shed"],
        "probes": c["probes"],
        "events_per_s": round(events_per_s, 1),
        "p99_trigger_latency_s": p99,
        "wall_s": round(elapsed, 3),
    })

    # the SLO contract: done campaigns past the 10-minute trigger
    # bound carry the ``late`` flag
    for campaign in report.campaigns:
        if campaign.state == CampaignState.DONE \
                and campaign.trigger_latency_s > 10 * MINUTE:
            assert "late" in campaign.reasons
