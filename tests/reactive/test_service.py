"""The reactive service end to end: accounting, recovery, backpressure."""

import pytest

from repro.chaos.injector import FaultInjector
from repro.chaos.policy import ChaosConfig, FaultPolicy
from repro.obs import RunTelemetry
from repro.reactive import (
    CampaignState,
    ReactiveService,
    WorkerKilled,
    fast_transport,
    replay_transport,
    synthetic_triggers,
)
from repro.streaming import TopicFull
from repro.util.timeutil import (DAY, FIVE_MINUTES, HOUR, MINUTE, Window,
                                 parse_ts, window_start)

pytestmark = pytest.mark.filterwarnings("ignore")


@pytest.fixture(scope="module")
def world(tiny_world):
    return tiny_world


@pytest.fixture(scope="module")
def triggers(world):
    return synthetic_triggers(world, 40, seed=7, invalid_share=0.1)


def make_service(world, **overrides):
    kwargs = dict(probes_per_window=4, post_attack_s=2 * HOUR,
                  probe_budget=24, transport=fast_transport(seed=1),
                  checkpoint_every=3)
    kwargs.update(overrides)
    return ReactiveService(world, **kwargs)


class TestAccounting:
    def test_every_trigger_is_accounted(self, world, triggers):
        report = make_service(world).run(triggers)
        c = report.counts
        assert c["triggers"] == len(triggers)
        assert c["unaccounted"] == 0
        assert (c["feed_shed"] + c["invalid"] + c["ignored"]
                + c["done"] + c["shed"]) == c["triggers"]

    def test_invalid_triggers_reach_the_dlq(self, world, triggers):
        service = make_service(world)
        report = service.run(triggers)
        assert report.counts["invalid"] > 0
        dlq = service._broker.topic("rsdos-triggers.dlq")
        assert len(dlq) == report.counts["invalid"]
        reasons = {r.value.reason for r in dlq.read(0)}
        assert any("trigger-schema" in reason for reason in reasons)

    def test_probe_counts_match_the_store(self, world, triggers):
        report = make_service(world).run(triggers)
        assert report.counts["probes"] == len(report.store) > 0

    def test_degradation_is_flagged_never_silent(self, world, triggers):
        report = make_service(world, probe_budget=8).run(triggers)
        c = report.counts
        assert c["shed"] + c["throttled"] + c["late"] > 0
        for campaign in report.campaigns:
            if campaign.state == CampaignState.SHED:
                assert "shed" in campaign.reasons
        assert sum(1 for x in report.campaigns if x.degraded) >= c["shed"]
        assert c["unaccounted"] == 0

    def test_campaigns_end_exactly_at_the_post_attack_tail(self, world):
        """Paper SLO: probing covers the attack plus the full tail."""
        trigger = synthetic_triggers(world, 1, seed=3)[0]
        report = make_service(world, post_attack_s=DAY,
                              probe_budget=None).run([trigger])
        campaign = next(c for c in report.campaigns
                        if c.state == CampaignState.DONE)
        assert campaign.ends_at == trigger.end + DAY
        # the last probing window starts before ends_at (the layout may
        # finish a started window, like the legacy platform's)
        last_probe = max(p.ts for p in report.store.probes)
        assert window_start(last_probe) < campaign.ends_at
        assert campaign.ends_at - last_probe <= FIVE_MINUTES
        first_probe = min(p.ts for p in report.store.probes)
        assert first_probe >= window_start(campaign.triggered_at)

    def test_trigger_sla_met_or_flagged(self, world, triggers):
        report = make_service(world).run(triggers)
        for campaign in report.campaigns:
            if campaign.state != CampaignState.DONE:
                continue
            if campaign.trigger_latency_s > 10 * MINUTE:
                assert "late" in campaign.reasons

    def test_summary_is_deterministic(self, world, triggers):
        first = make_service(world).run(triggers)
        second = make_service(world).run(triggers)
        assert first.summary() == second.summary()
        assert first.store_digest() == second.store_digest()


class TestRecovery:
    @pytest.mark.parametrize("chaos_seed", [1, 2, 3])
    def test_killed_worker_recovers_bit_identical(self, world, triggers,
                                                  chaos_seed):
        clean = make_service(world).run(triggers)
        injector = FaultInjector(
            ChaosConfig.reactive_preset("heavy", seed=chaos_seed))
        chaotic = make_service(world).run(triggers, injector=injector)
        assert chaotic.counts["kills"] > 0
        assert chaotic.counts["restores"] == chaotic.counts["kills"]
        assert chaotic.store_digest() == clean.store_digest()
        assert chaotic.summary() == clean.summary()

    def test_recovery_with_world_transport(self, world, triggers):
        """The default replay-safe wrapper over the world's stateful
        transport is also exactly-once."""
        clean = ReactiveService(world, probes_per_window=3,
                                post_attack_s=HOUR, probe_budget=12)
        base = clean.run(triggers[:8])
        chaotic = ReactiveService(world, probes_per_window=3,
                                  post_attack_s=HOUR, probe_budget=12)
        injector = FaultInjector(ChaosConfig.reactive_preset("heavy", seed=4))
        faulted = chaotic.run(triggers[:8], injector=injector)
        assert faulted.counts["kills"] > 0
        assert faulted.summary() == base.summary()

    def test_restore_cap_is_enforced(self, world, triggers):
        injector = FaultInjector(ChaosConfig(
            seed=1, worker=FaultPolicy(crash_p=1.0)))
        with pytest.raises(RuntimeError, match="restore cap"):
            make_service(world).run(triggers, injector=injector,
                                    max_restores=3)

    def test_chaos_summary_reports_kills_separately(self, world, triggers):
        injector = FaultInjector(
            ChaosConfig.reactive_preset("moderate", seed=1))
        report = make_service(world).run(triggers, injector=injector)
        assert f"kills={report.counts['kills']}" in report.chaos_summary()
        assert "kills" not in report.summary()

    def test_checkpoint_copies_only_live_campaigns(self, world):
        """Finished campaigns live in an append-only log the checkpoint
        records by end offset: a checkpoint taken after many campaigns
        finished holds only the waiting and active ones, and a worker
        restored from it ends where an uninterrupted run ends."""
        triggers = synthetic_triggers(world, 120, seed=11)
        clean = make_service(world).run(triggers)
        service = make_service(world)
        taken = []

        class KillOnce:
            def worker_crash_hook(self):
                def hook(tick_ts):
                    state = service._checkpoint
                    if taken or state["finished_end"] < 40:
                        return False
                    taken.append(state)
                    return True
                return hook

        report = service.run(triggers, injector=KillOnce())
        assert report.counts["restores"] == 1
        state = taken[0]
        assert state["version"] == 2
        assert set(state["campaigns"]) == {"waitlist", "active"}
        live = state["campaigns"]["waitlist"] + state["campaigns"]["active"]
        assert live and len(live) < state["finished_end"]
        assert {c["state"] for c in state["campaigns"]["waitlist"]} <= {
            CampaignState.WAITING}
        assert {c["state"] for c in state["campaigns"]["active"]} == {
            CampaignState.ACTIVE}
        finished = service._broker.topic("campaigns-finished").read(0)
        assert len(finished) == clean.counts["done"] + clean.counts["shed"]
        assert not ({r.value.key for r in finished[:state["finished_end"]]}
                    & {f"{c['attack']['victim_ip']}@{c['attack']['start']}"
                       for c in live})
        assert report.store_digest() == clean.store_digest()
        assert report.summary() == clean.summary()


class TestBackpressure:
    def test_block_policy_loses_nothing(self, world, triggers):
        report = make_service(world, feed_capacity=4,
                              backpressure="block").run(triggers)
        assert report.counts["feed_shed"] == 0
        assert report.counts["unaccounted"] == 0

    def test_block_policy_is_deterministic(self, world, triggers):
        """Backpressure delays ingestion (decisions can differ from an
        unbounded batch run, surfacing as ``late`` flags) but the
        bounded pipeline itself is fully deterministic."""
        first = make_service(world, feed_capacity=4,
                             backpressure="block").run(triggers)
        second = make_service(world, feed_capacity=4,
                              backpressure="block").run(triggers)
        assert first.summary() == second.summary()

    def test_block_plus_chaos_stays_exactly_once(self, world, triggers):
        clean = make_service(world, feed_capacity=4,
                             backpressure="block").run(triggers)
        injector = FaultInjector(ChaosConfig.reactive_preset("heavy", seed=5))
        chaotic = make_service(world, feed_capacity=4,
                               backpressure="block").run(
            triggers, injector=injector)
        assert chaotic.counts["kills"] > 0
        assert chaotic.summary() == clean.summary()

    def test_shed_oldest_is_counted(self, world, triggers):
        report = make_service(world, feed_capacity=4,
                              backpressure="shed_oldest").run(triggers)
        assert report.counts["feed_shed"] > 0
        assert report.counts["unaccounted"] == 0

    def test_reject_raises(self, world, triggers):
        service = make_service(world, feed_capacity=2, backpressure="reject")
        with pytest.raises(TopicFull):
            service.run(triggers)


class TestTransports:
    def test_fast_transport_is_pure(self):
        transport = fast_transport(seed=3, loss=0.2)
        replies = [transport(9, "example.nl", None, 12345) for _ in range(3)]
        assert len({(r.rtt_ms, r.rcode) for r in replies}) == 1

    def test_fast_transport_losses(self):
        transport = fast_transport(seed=3, loss=1.0)
        assert not transport(9, "x", None, 1).answered
        transport = fast_transport(seed=3, loss=0.0)
        assert transport(9, "x", None, 1).answered

    def test_replay_transport_is_pure_and_restores_the_stream(self, world):
        ns_ip = sorted(world.directory.nameserver_ips())[0]
        before = world._rng_transport
        transport = replay_transport(world, seed=1)
        first = transport(ns_ip, "a.nl", None, 1000)
        second = transport(ns_ip, "a.nl", None, 1000)
        assert (first.rtt_ms, first.rcode) == (second.rtt_ms, second.rcode)
        assert world._rng_transport is before


class TestTelemetry:
    def test_metrics_exposed_under_reactive_namespace(self, world, triggers):
        telemetry = RunTelemetry.create()
        service = make_service(world, telemetry=telemetry)
        report = service.run(triggers)
        counters = telemetry.registry.snapshot()["counters"]
        gauges = telemetry.registry.snapshot()["gauges"]
        histograms = telemetry.registry.snapshot()["histograms"]
        assert counters["repro.reactive.triggers"] == len(triggers)
        assert counters["repro.reactive.admitted"] == report.counts["done"]
        assert counters["repro.reactive.probes"] == report.counts["probes"]
        assert gauges["repro.reactive.campaigns{state=done}"] == \
            report.counts["done"]
        assert gauges["repro.reactive.campaigns{state=shed}"] == \
            report.counts["shed"]
        latency = histograms["repro.reactive.trigger_latency_s"]
        assert latency["count"] == report.counts["done"]

    def test_telemetry_does_not_perturb_results(self, world, triggers):
        plain = make_service(world).run(triggers)
        metered = make_service(
            world, telemetry=RunTelemetry.create()).run(triggers)
        assert metered.summary() == plain.summary()

    def test_per_campaign_probe_gauges_are_exact(self, world, triggers):
        telemetry = RunTelemetry.create()
        report = make_service(world, telemetry=telemetry).run(triggers)
        gauges = telemetry.registry.snapshot()["gauges"]
        for campaign in report.campaigns:
            if campaign.state != CampaignState.DONE:
                continue
            key = f"repro.reactive.campaign_probes{{campaign={campaign.key}}}"
            assert gauges[key] == campaign.n_probes


class TestMetricDedupeUnderChaos:
    """The checkpoint-buffered live metrics: a faulted run's end-state
    equals a clean one's, not just its summary (the historical
    double-count regression)."""

    # The only series allowed to differ: they count the chaos itself.
    CHAOS_ONLY = ("repro.reactive.worker_kills", "repro.reactive.restores")

    def reactive_series(self, telemetry):
        snap = telemetry.registry.snapshot()
        return {
            kind: {name: value for name, value in snap[kind].items()
                   if name.startswith("repro.reactive.")
                   and not name.startswith(self.CHAOS_ONLY)}
            for kind in ("counters", "gauges", "histograms")
        }

    @pytest.mark.parametrize("chaos_seed", [1, 5])
    def test_faulted_metrics_equal_clean_metrics(self, world, triggers,
                                                 chaos_seed):
        clean_tel = RunTelemetry.create()
        clean = make_service(world, telemetry=clean_tel).run(triggers)
        chaos_tel = RunTelemetry.create()
        injector = FaultInjector(
            ChaosConfig.reactive_preset("heavy", seed=chaos_seed))
        chaotic = make_service(world, telemetry=chaos_tel).run(
            triggers, injector=injector)
        assert chaotic.counts["kills"] > 0, "chaos never fired"
        # Replayed ticks re-run admission, probing and latency
        # observations; without checkpoint dedupe every one of these
        # series over-counts in the faulted run.
        assert self.reactive_series(chaos_tel) == \
            self.reactive_series(clean_tel)

    def test_kill_counters_stay_live(self, world, triggers):
        """The kill/restore counters must NOT be deduped: they record
        the chaos, not the replayed work."""
        telemetry = RunTelemetry.create()
        injector = FaultInjector(
            ChaosConfig.reactive_preset("heavy", seed=1))
        report = make_service(world, telemetry=telemetry).run(
            triggers, injector=injector)
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["repro.reactive.worker_kills"] == \
            report.counts["kills"]
        assert counters["repro.reactive.restores"] == \
            report.counts["restores"]


class TestReactiveJournal:
    def run_with_journal(self, world, triggers, tmp_path, injector=None):
        from repro.obs import RunJournal, read_journal

        telemetry = RunTelemetry.create()
        path = tmp_path / "reactive.jsonl"
        telemetry.attach_journal(RunJournal(
            path, run_id=telemetry.run_id, clock=telemetry.clock,
            started_at_utc=telemetry.started_at_utc))
        make_service(world, telemetry=telemetry).run(
            triggers, injector=injector)
        telemetry.journal.close()
        return read_journal(path)

    def test_admission_decisions_are_journaled(self, world, triggers,
                                               tmp_path):
        records = self.run_with_journal(world, triggers, tmp_path)
        admits = [r for r in records if r["type"] == "reactive.admit"]
        assert admits
        for r in admits:
            assert {"campaign", "allocation", "full", "latency_s",
                    "late", "throttled"} <= set(r)
            assert r["incarnation"] == 0  # no chaos: one worker

    def test_kill_restore_checkpoint_records(self, world, triggers,
                                             tmp_path):
        injector = FaultInjector(
            ChaosConfig.reactive_preset("heavy", seed=1))
        records = self.run_with_journal(world, triggers, tmp_path,
                                        injector=injector)
        kills = [r for r in records if r["type"] == "worker.kill"]
        restores = [r for r in records if r["type"] == "worker.restore"]
        checkpoints = [r for r in records
                       if r["type"] == "worker.checkpoint"]
        assert kills and len(kills) == len(restores)
        assert kills[0]["tick_ts"] is not None
        # Incarnations advance one per restore.
        assert [r["incarnation"] for r in restores] == \
            list(range(1, len(restores) + 1))
        assert checkpoints
        incarnations = {r["incarnation"] for r in checkpoints}
        assert len(incarnations) > 1  # replayed workers journal too


TRANSIP_MARCH = Window(parse_ts("2021-03-01 18:00"),
                       parse_ts("2021-03-02 04:00"))


class TestStudyFeed:
    """The §4.3.1 properties on a study's own RSDoS feed: the March
    TransIP attacks, with the default world transport and no budget."""

    @pytest.fixture(scope="class")
    def report(self, world, tiny_study):
        return ReactiveService(world).run(tiny_study.feed,
                                          window=TRANSIP_MARCH)

    def test_campaigns_triggered(self, report):
        # The TransIP March campaign attacks three nameservers.
        assert len({c.victim_ip for c in report.campaigns}) >= 3

    def test_trigger_delay_at_most_ten_minutes(self, report):
        for campaign in report.campaigns:
            assert campaign.triggered_at - campaign.attack.start \
                <= 10 * MINUTE

    def test_probes_cover_attack_and_tail(self, report):
        for campaign in report.campaigns:
            assert campaign.ends_at - campaign.attack.end == DAY
        first = report.campaigns[0]
        ts_values = [p.ts for p in report.store.probes]
        assert min(ts_values) >= first.triggered_at
        assert max(ts_values) >= first.attack.end + DAY - 2 * FIVE_MINUTES

    def test_probe_rate_bounded(self, report):
        # Ethics bound: each domain is probed at most once per window
        # per campaign, times its nameserver count.
        per_bucket = {}
        for probe in report.store.probes:
            key = (probe.domain_id, probe.ts // FIVE_MINUTES)
            per_bucket[key] = per_bucket.get(key, 0) + 1
        assert max(per_bucket.values()) <= 50

    def test_probes_spread_within_window(self, report):
        offsets = {p.ts % FIVE_MINUTES for p in report.store.probes}
        assert len(offsets) > 1  # not all at the window boundary

    def test_probes_hit_every_nameserver(self, report, world):
        store = report.store
        for domain_id in {p.domain_id for p in store.probes}:
            probed_ns = {p.ns_ip for p in store.domain_probes(domain_id)}
            nameservers = world.directory[domain_id].delegation.nameserver_ips
            assert probed_ns == set(nameservers)

    def test_failures_observed_during_attack(self, report):
        # The March TransIP attack leaves many probes unanswered.
        during = [p for p in report.store.probes
                  if parse_ts("2021-03-01 20:00") <= p.ts
                  <= parse_ts("2021-03-02 00:00")]
        assert during
        failed = sum(1 for p in during if not p.answered)
        assert failed / len(during) > 0.3

    def test_recovery_after_attack(self, report):
        after = [p for p in report.store.probes
                 if p.ts >= parse_ts("2021-03-02 06:00")]
        assert after
        answered = sum(1 for p in after if p.answered)
        assert answered / len(after) > 0.9

    def test_empty_window_no_probes(self, world, tiny_study):
        report = ReactiveService(world).run(tiny_study.feed,
                                            window=Window(0, 100))
        assert len(report.store) == 0
