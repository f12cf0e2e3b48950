"""Campaign planning, admission control, and deterministic shedding."""

import heapq
import itertools
import random
from dataclasses import asdict

import pytest

from repro.obs import MetricsRegistry
from repro.reactive.campaigns import (
    Campaign,
    CampaignScheduler,
    CampaignState,
    plan_campaign,
)
from repro.telescope.rsdos import InferredAttack
from repro.util.timeutil import FIVE_MINUTES, HOUR, MINUTE


def make_attack(victim_ip=1, start=1000_000_000, duration=HOUR):
    start = (start // FIVE_MINUTES) * FIVE_MINUTES
    return InferredAttack(
        victim_ip=victim_ip, start=start, end=start + duration,
        n_packets=100, max_ppm=50.0, max_slash16=3, n_unique_sources=10,
        proto=17, first_port=53, n_ports=1, n_windows=duration // FIVE_MINUTES)


def make_campaign(victim_ip=1, start=1000_000_000, n_domains=3, impact=None,
                  report_ts=None, sla=10 * MINUTE, post=HOUR):
    attack = make_attack(victim_ip=victim_ip, start=start)
    report_ts = report_ts if report_ts is not None else attack.start
    return Campaign(
        attack=attack,
        domain_ids=tuple(range(100, 100 + n_domains)),
        impact=impact if impact is not None else n_domains,
        report_ts=report_ts,
        deadline=report_ts + sla,
        ends_at=attack.end + post)


class TestPlanCampaign:
    def test_plans_related_domains(self, tiny_world):
        ns_ip = sorted(tiny_world.directory.nameserver_ips())[0]
        attack = make_attack(victim_ip=ns_ip)
        campaign = plan_campaign(
            tiny_world, attack, attack.start, probes_per_window=50,
            trigger_sla_s=10 * MINUTE, post_attack_s=HOUR, seed=1)
        assert campaign is not None
        expected = tiny_world.directory.domains_of_ip(ns_ip)
        assert set(campaign.domain_ids) <= expected
        assert campaign.impact == len(expected)
        assert campaign.deadline == attack.start + 10 * MINUTE
        assert campaign.ends_at == attack.end + HOUR
        assert campaign.state == CampaignState.WAITING

    def test_none_when_victim_serves_nothing(self, tiny_world):
        attack = make_attack(victim_ip=1)  # not a nameserver
        assert plan_campaign(
            tiny_world, attack, attack.start, probes_per_window=50,
            trigger_sla_s=600, post_attack_s=HOUR, seed=1) is None

    def test_sampling_is_order_independent(self, tiny_world):
        """The same attack plans the same domains no matter what was
        planned before it — the property crash replay depends on."""
        victims = sorted(
            ip for ip in tiny_world.directory.nameserver_ips()
            if len(tiny_world.directory.domains_of_ip(ip)) > 2)[:3]
        kwargs = dict(probes_per_window=2, trigger_sla_s=600,
                      post_attack_s=HOUR, seed=9)
        attacks = [make_attack(victim_ip=ip) for ip in victims]
        forward = [plan_campaign(tiny_world, a, a.start, **kwargs).domain_ids
                   for a in attacks]
        backward = [plan_campaign(tiny_world, a, a.start, **kwargs).domain_ids
                    for a in reversed(attacks)]
        assert forward == list(reversed(backward))

    def test_sampled_domains_are_sorted(self, tiny_world):
        victim = max(tiny_world.directory.nameserver_ips(),
                     key=lambda ip: len(tiny_world.directory.domains_of_ip(ip)))
        campaign = plan_campaign(
            tiny_world, make_attack(victim_ip=victim), 0,
            probes_per_window=3, trigger_sla_s=600, post_attack_s=HOUR,
            seed=1)
        assert list(campaign.domain_ids) == sorted(campaign.domain_ids)
        assert len(campaign.domain_ids) == 3


class TestCampaignSerialization:
    def test_roundtrip(self):
        campaign = make_campaign()
        campaign.state = CampaignState.ACTIVE
        campaign.allocation = 2
        campaign.triggered_at = campaign.deadline
        campaign.cursor = 7
        campaign.n_probes = 42
        campaign.flag("late")
        restored = Campaign.from_dict(campaign.to_dict())
        assert restored == campaign
        assert restored.attack == campaign.attack
        assert restored.degraded

    def test_to_dict_equals_asdict(self):
        """The shallow checkpoint copy holds what a deep
        ``dataclasses.asdict`` copy held, key for key, in field order,
        and shares no container with the live campaign."""
        campaign = make_campaign()
        campaign.triggered_at = campaign.deadline
        campaign.flag("late")
        campaign.flag("throttled")
        want = asdict(campaign)
        want["domain_ids"] = list(campaign.domain_ids)
        want["reasons"] = list(campaign.reasons)
        got = campaign.to_dict()
        assert got == want
        assert list(got) == list(want)
        assert list(got["attack"]) == list(want["attack"])
        got["attack"]["n_packets"] = -1
        assert campaign.attack.n_packets == 100

    def test_flag_is_idempotent(self):
        campaign = make_campaign()
        campaign.flag("late")
        campaign.flag("late")
        assert campaign.reasons == ("late",)


class TestAdmission:
    def test_unbounded_budget_admits_everything(self):
        sched = CampaignScheduler(probes_per_window=5)
        w = 1000_000_000
        for ip in (3, 1, 2):
            sched.submit(make_campaign(victim_ip=ip, start=w))
        sched.admit_tick(w)
        assert len(sched.active) == 3
        assert not sched.waitlist
        assert all(c.state == CampaignState.ACTIVE for c in sched.active)
        assert all(not c.degraded for c in sched.active)

    def test_trigger_latency_floor_is_the_sla(self):
        sched = CampaignScheduler(probes_per_window=5)
        w = 1000_000_000
        campaign = make_campaign(start=w, sla=10 * MINUTE)
        sched.submit(campaign)
        sched.admit_tick(w)
        assert campaign.triggered_at == campaign.deadline
        assert campaign.trigger_latency_s == 10 * MINUTE
        assert "late" not in campaign.reasons

    def test_late_admission_is_flagged(self):
        sched = CampaignScheduler(probes_per_window=5)
        w = 1000_000_000
        campaign = make_campaign(start=w, report_ts=w, sla=10 * MINUTE)
        sched.submit(campaign)
        late_w = w + 20 * MINUTE
        sched.admit_tick(late_w)
        assert campaign.state == CampaignState.ACTIVE
        assert campaign.triggered_at == late_w
        assert "late" in campaign.reasons

    def test_budget_prefers_newest_then_highest_impact(self):
        sched = CampaignScheduler(probes_per_window=4, probe_budget=8)
        w = 1000_000_000
        old = make_campaign(victim_ip=1, start=w - FIVE_MINUTES, n_domains=4,
                            report_ts=w - FIVE_MINUTES)
        new_small = make_campaign(victim_ip=2, start=w, n_domains=4,
                                  impact=4, report_ts=w)
        new_big = make_campaign(victim_ip=3, start=w, n_domains=4,
                                impact=40, report_ts=w)
        for c in (old, new_small, new_big):
            sched.submit(c)
        sched.admit_tick(w)
        # budget 8 fits two full campaigns: both new ones beat the old
        assert new_big.state == CampaignState.ACTIVE
        assert new_small.state == CampaignState.ACTIVE
        assert old.state == CampaignState.WAITING

    def test_throttled_admission_is_flagged(self):
        sched = CampaignScheduler(probes_per_window=4, probe_budget=6,
                                  min_allocation=1)
        w = 1000_000_000
        first = make_campaign(victim_ip=1, start=w, n_domains=4, impact=9)
        second = make_campaign(victim_ip=2, start=w, n_domains=4, impact=8)
        sched.submit(first)
        sched.submit(second)
        sched.admit_tick(w)
        assert first.allocation == 4 and not first.degraded
        assert second.allocation == 2
        assert "throttled" in second.reasons
        assert sched.in_flight == 6

    def test_min_allocation_blocks_sub_minimum_grants(self):
        sched = CampaignScheduler(probes_per_window=4, probe_budget=5,
                                  min_allocation=3)
        w = 1000_000_000
        first = make_campaign(victim_ip=1, start=w, n_domains=4, impact=9)
        second = make_campaign(victim_ip=2, start=w, n_domains=4, impact=8)
        sched.submit(first)
        sched.submit(second)
        sched.admit_tick(w)
        assert first.state == CampaignState.ACTIVE
        # only 1 slot left < min_allocation: wait rather than starve
        assert second.state == CampaignState.WAITING

    def test_stale_waiters_are_shed_loudly(self):
        registry = MetricsRegistry()
        sched = CampaignScheduler(probes_per_window=4, probe_budget=4,
                                  shed_after_s=30 * MINUTE, metrics=registry)
        w = 1000_000_000
        hog = make_campaign(victim_ip=1, start=w, n_domains=4)
        starved = make_campaign(victim_ip=2, start=w, n_domains=4, impact=1)
        sched.submit(hog)
        sched.submit(starved)
        sched.admit_tick(w)
        assert starved.state == CampaignState.WAITING
        shed = sched.admit_tick(w + 31 * MINUTE)
        assert starved.state == CampaignState.SHED
        assert "shed" in starved.reasons
        assert starved.shed_at == w + 31 * MINUTE
        assert shed == [starved]
        assert starved not in sched.waitlist + sched.active
        shed = registry.counter("repro.reactive.shed", reason="overload")
        assert shed.value == 1

    def test_finish_frees_budget_for_waiters(self):
        sched = CampaignScheduler(probes_per_window=4, probe_budget=4,
                                  shed_after_s=2 * HOUR)
        w = 1000_000_000
        hog = make_campaign(victim_ip=1, start=w, n_domains=4, post=0)
        waiter = make_campaign(victim_ip=2, start=w, n_domains=4, impact=1)
        sched.submit(hog)
        sched.submit(waiter)
        sched.admit_tick(w)
        assert waiter.state == CampaignState.WAITING
        # hog ends (post=0 => ends_at == attack.end)
        end_tick = hog.ends_at
        assert sched.finish_tick(end_tick) == [hog]
        assert hog.state == CampaignState.DONE
        assert sched.active == []
        assert sched.in_flight == 0
        sched.admit_tick(end_tick)
        assert waiter.state == CampaignState.ACTIVE
        assert "late" in waiter.reasons  # it waited past its deadline


class TestProbeLayout:
    def test_probes_spread_over_window_in_deadline_order(self):
        fired = []
        sched = CampaignScheduler(
            probes_per_window=2,
            on_probe=lambda c, d, ts: fired.append((c.victim_ip, d, ts)))
        w = 1000_000_000
        urgent = make_campaign(victim_ip=1, start=w, n_domains=2,
                               report_ts=w, sla=5 * MINUTE)
        relaxed = make_campaign(victim_ip=2, start=w, n_domains=2,
                                report_ts=w, sla=10 * MINUTE)
        sched.submit(relaxed)
        sched.submit(urgent)
        sched.admit_tick(w)
        probe_w = max(c.first_window for c in sched.active)
        assert sched.probe_window(probe_w) == 4
        # allocation 2 => spacing 150s, urgent (earlier deadline) first
        # at each instant
        ts_by_victim = {}
        for victim, domain, ts in fired:
            ts_by_victim.setdefault(victim, []).append(ts)
        assert ts_by_victim[1] == [probe_w, probe_w + 150]
        assert ts_by_victim[2] == [probe_w, probe_w + 150]
        assert [v for v, _, ts in fired if ts == probe_w] == [1, 2]

    def test_round_robin_cursor_advances_across_windows(self):
        fired = []
        sched = CampaignScheduler(
            probes_per_window=2,
            on_probe=lambda c, d, ts: fired.append(d))
        w = 1000_000_000
        campaign = make_campaign(victim_ip=1, start=w, n_domains=3)
        sched.submit(campaign)
        sched.admit_tick(w)
        start = campaign.first_window
        for probe_w in range(start, start + 3 * FIVE_MINUTES, FIVE_MINUTES):
            sched.probe_window(probe_w)
        # 2 probes/window over domains (100, 101, 102), round-robin
        assert fired == [100, 101, 102, 100, 101, 102]

    def test_no_probes_before_first_window_or_after_end(self):
        fired = []
        sched = CampaignScheduler(
            probes_per_window=2,
            on_probe=lambda c, d, ts: fired.append(ts))
        w = 1000_000_000
        campaign = make_campaign(victim_ip=1, start=w, post=0)
        sched.submit(campaign)
        sched.admit_tick(w)
        assert sched.probe_window(w) == 0  # before first_window
        assert sched.probe_window(campaign.ends_at) == 0  # past the end
        assert fired == []

    def test_fires_in_the_event_heap_order(self):
        """One stable sort by time fires the slots in the order a
        ``(ts, scheduling sequence)`` event heap would: throttled and
        full allocations interleave, ties in deadline order."""
        rng = random.Random(11)
        w = 1000_000_000
        fired = []
        sched = CampaignScheduler(
            probes_per_window=7, probe_budget=40,
            on_probe=lambda c, d, ts: fired.append((ts, c.key, d)))
        for victim in range(12):
            sched.submit(make_campaign(
                victim_ip=victim, start=w - rng.randrange(4) * FIVE_MINUTES,
                n_domains=rng.randint(1, 9), impact=rng.randint(1, 50),
                sla=rng.choice((5, 10)) * MINUTE, post=4 * HOUR))
        sched.admit_tick(w)
        assert len({c.allocation for c in sched.active}) >= 3
        assert len({c.first_window for c in sched.active}) >= 2
        assert any("throttled" in c.reasons for c in sched.active)
        heap = []
        seq = itertools.count()
        for probe_w in range(w, w + 6 * FIVE_MINUTES, FIVE_MINUTES):
            for c in sorted(sched.active, key=lambda c: (
                    c.deadline, c.report_ts, c.victim_ip, c.attack.start)):
                if c.first_window <= probe_w < c.ends_at:
                    spacing = FIVE_MINUTES // c.allocation
                    for i in range(c.allocation):
                        domain = c.domain_ids[
                            (c.cursor + i) % len(c.domain_ids)]
                        heapq.heappush(heap, (probe_w + i * spacing,
                                              next(seq), c.key, domain))
            want = [(ts, key, d) for ts, _, key, d in
                    (heapq.heappop(heap) for _ in range(len(heap)))]
            del fired[:]
            assert sched.probe_window(probe_w) == len(want)
            assert fired == want
            assert all(probe_w <= ts < probe_w + FIVE_MINUTES
                       for ts, _, _ in fired)


class TestCheckpointRestore:
    def test_roundtrip_preserves_everything(self):
        sched = CampaignScheduler(probes_per_window=4, probe_budget=4)
        w = 1000_000_000
        active = make_campaign(victim_ip=1, start=w, n_domains=4)
        waiting = make_campaign(victim_ip=2, start=w, n_domains=4, impact=1)
        sched.submit(active)
        sched.submit(waiting)
        sched.admit_tick(w)
        state = sched.checkpoint()
        fresh = CampaignScheduler(probes_per_window=4, probe_budget=4)
        fresh.restore(state)
        assert fresh.in_flight == sched.in_flight == 4
        assert [c.key for c in fresh.active] == [active.key]
        assert [c.key for c in fresh.waitlist] == [waiting.key]
        assert fresh.active[0] == active

    def test_checkpoint_holds_only_live_campaigns(self):
        sched = CampaignScheduler(probes_per_window=2, probe_budget=2,
                                  shed_after_s=30 * MINUTE)
        w = 1000_000_000
        done = make_campaign(victim_ip=1, start=w, post=0)
        starved = make_campaign(victim_ip=2, start=w, impact=0)
        live = make_campaign(victim_ip=3, start=w + HOUR)
        sched.submit(done)
        sched.submit(starved)
        sched.admit_tick(w)
        assert sched.admit_tick(w + 31 * MINUTE) == [starved]
        assert sched.finish_tick(done.ends_at) == [done]
        sched.submit(live)
        sched.admit_tick(done.ends_at)
        state = sched.checkpoint()
        assert set(state) == {"waitlist", "active"}
        assert [c["attack"]["victim_ip"] for c in state["active"]] == [3]
        assert state["waitlist"] == []
        fresh = CampaignScheduler(probes_per_window=2, probe_budget=2)
        fresh.restore(state)
        assert fresh.in_flight == live.allocation == 2

    def test_restored_scheduler_is_json_safe(self):
        import json

        sched = CampaignScheduler(probes_per_window=2)
        sched.submit(make_campaign())
        sched.admit_tick(1000_000_000)
        encoded = json.dumps(sched.checkpoint())
        fresh = CampaignScheduler(probes_per_window=2)
        fresh.restore(json.loads(encoded))
        assert len(fresh.active) == 1


class TestValidation:
    def test_constructor_bounds(self):
        with pytest.raises(ValueError):
            CampaignScheduler(probes_per_window=0)
        with pytest.raises(ValueError):
            CampaignScheduler(probes_per_window=5, probe_budget=0)
        with pytest.raises(ValueError):
            CampaignScheduler(probes_per_window=5, min_allocation=6)
        with pytest.raises(ValueError):
            CampaignScheduler(probes_per_window=5, shed_after_s=-1)
