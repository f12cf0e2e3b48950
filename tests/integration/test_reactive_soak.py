"""Chaos-soak of the reactive platform at production trigger rates.

The acceptance contract for the overload-aware pipeline (§4.3.1 at
scale): thousands of RSDoS triggers flow through the bounded feed into
the campaign scheduler while a ``FaultInjector`` repeatedly kills and
restarts the worker.  The recovered run must be *bit-identical* to an
unfaulted one — same probe-store digest, same summary — and every
paper SLO (10-minute trigger, 50-probe window budget, attack + tail
coverage) either holds or the campaign carries an explicit degradation
flag.  Nothing is ever dropped silently.
"""

import os

import pytest

from repro.chaos.injector import FaultInjector
from repro.chaos.policy import ChaosConfig
from repro.reactive import (
    CampaignState,
    ReactiveService,
    fast_transport,
    synthetic_triggers,
)
from repro.util.timeutil import FIVE_MINUTES, HOUR, MINUTE

# CI scales the soak down via the environment; the default is the
# full production-rate run.
N_TRIGGERS = int(os.environ.get("REPRO_SOAK_TRIGGERS", "1000"))
PROBES_PER_WINDOW = 3
PROBE_BUDGET = 60
CHAOS_SEEDS = [11, 12, 13]


def soak_service(world, **overrides):
    kwargs = dict(probes_per_window=PROBES_PER_WINDOW,
                  post_attack_s=HOUR,
                  probe_budget=PROBE_BUDGET,
                  transport=fast_transport(seed=2),
                  checkpoint_every=4)
    kwargs.update(overrides)
    return ReactiveService(world, **kwargs)


@pytest.fixture(scope="module")
def triggers(tiny_world):
    return synthetic_triggers(tiny_world, N_TRIGGERS, seed=5,
                              invalid_share=0.02)


@pytest.fixture(scope="module")
def clean_report(tiny_world, triggers):
    return soak_service(tiny_world).run(triggers)


@pytest.fixture(scope="module", params=CHAOS_SEEDS,
                ids=[f"seed-{s}" for s in CHAOS_SEEDS])
def chaos_report(request, tiny_world, triggers):
    injector = FaultInjector(
        ChaosConfig.reactive_preset("moderate", seed=request.param))
    return soak_service(tiny_world).run(triggers, injector=injector)


class TestCleanSoak:
    def test_every_trigger_is_accounted(self, clean_report):
        c = clean_report.counts
        assert c["triggers"] == N_TRIGGERS
        assert c["unaccounted"] == 0
        assert (c["feed_shed"] + c["invalid"] + c["ignored"]
                + c["done"] + c["shed"]) == N_TRIGGERS

    def test_overload_degrades_loudly(self, clean_report):
        """At this rate the probe budget saturates: campaigns are
        throttled, delayed, or shed — and every one says so."""
        c = clean_report.counts
        assert c["done"] > 0
        assert c["shed"] + c["throttled"] + c["late"] > 0
        for campaign in clean_report.campaigns:
            if campaign.state == CampaignState.SHED:
                assert "shed" in campaign.reasons

    def test_trigger_slo_holds_or_is_flagged(self, clean_report):
        for campaign in clean_report.campaigns:
            if campaign.state != CampaignState.DONE:
                continue
            if campaign.trigger_latency_s > 10 * MINUTE:
                assert "late" in campaign.reasons

    def test_probe_budget_slo(self, clean_report):
        """Ethics bound: never more than the per-window allocation,
        and reduced allocations are flagged ``throttled``."""
        for campaign in clean_report.campaigns:
            if campaign.state == CampaignState.WAITING:
                continue
            assert campaign.allocation <= PROBES_PER_WINDOW
            if 0 < campaign.allocation < min(PROBES_PER_WINDOW,
                                             len(campaign.domain_ids)):
                assert "throttled" in campaign.reasons

    def test_coverage_slo(self, clean_report):
        """Done campaigns cover the attack plus the post-attack tail
        (the layout may finish a started 5-minute window)."""
        for campaign in clean_report.campaigns:
            if campaign.state != CampaignState.DONE:
                continue
            assert campaign.ends_at == campaign.attack.end + HOUR
            assert campaign.n_probes > 0

    def test_store_matches_probe_counter(self, clean_report):
        assert len(clean_report.store) == clean_report.counts["probes"] > 0


class TestChaosSoak:
    def test_worker_really_died(self, chaos_report):
        assert chaos_report.counts["kills"] > 0
        assert chaos_report.counts["restores"] == chaos_report.counts["kills"]

    def test_probe_store_bit_identical(self, clean_report, chaos_report):
        assert chaos_report.store_digest() == clean_report.store_digest()

    def test_summary_bit_identical(self, clean_report, chaos_report):
        assert chaos_report.summary() == clean_report.summary()

    def test_no_silent_drops_under_chaos(self, chaos_report):
        assert chaos_report.counts["unaccounted"] == 0


class TestBoundedFeedSoak:
    def test_block_backpressure_at_scale(self, tiny_world, triggers):
        """A tightly bounded feed with the ``block`` policy loses no
        trigger, stays deterministic, and survives chaos unchanged."""
        bounded = soak_service(tiny_world, feed_capacity=16,
                               backpressure="block")
        clean = bounded.run(triggers)
        assert clean.counts["feed_shed"] == 0
        assert clean.counts["unaccounted"] == 0

        injector = FaultInjector(
            ChaosConfig.reactive_preset("moderate", seed=CHAOS_SEEDS[0]))
        chaotic = soak_service(tiny_world, feed_capacity=16,
                               backpressure="block").run(
            triggers, injector=injector)
        assert chaotic.counts["kills"] > 0
        assert chaotic.summary() == clean.summary()

    def test_shed_oldest_counts_every_loss(self, tiny_world, triggers):
        report = soak_service(tiny_world, feed_capacity=16,
                              backpressure="shed_oldest").run(triggers)
        assert report.counts["feed_shed"] > 0
        assert report.counts["unaccounted"] == 0
