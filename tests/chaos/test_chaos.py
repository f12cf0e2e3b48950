"""Tests for fault policies and the seeded injector."""

import random

import pytest

from repro.chaos import ChaosConfig, FaultEvent, FaultInjector, FaultPolicy
from repro.chaos.faults import TruncatedRecord, corrupt_attack, truncate_attack
from repro.dns.rcode import Rcode
from repro.dns.server import ServerReply
from repro.openintel.storage import MeasurementStore
from repro.dns.rcode import ResponseStatus
from repro.telescope.rsdos import InferredAttack, attack_problem
from repro.util.timeutil import DAY


def make_attack(victim_ip=0x01020304, start=1000, end=4000, **kwargs):
    defaults = dict(victim_ip=victim_ip, start=start, end=end,
                    n_packets=100, max_ppm=50.0, max_slash16=3,
                    n_unique_sources=40, proto=6, first_port=53,
                    n_ports=1, n_windows=4)
    defaults.update(kwargs)
    return InferredAttack(**defaults)


class TestFaultPolicy:
    def test_null_by_default(self):
        assert FaultPolicy().is_null

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            FaultPolicy(drop_p=1.5)
        with pytest.raises(ValueError):
            FaultPolicy(corrupt_p=-0.1)

    def test_rejects_skew_without_bound(self):
        with pytest.raises(ValueError):
            FaultPolicy(clock_skew_p=0.1)

    def test_rejects_bad_burst(self):
        with pytest.raises(ValueError):
            FaultPolicy(burst_len=0)

    def test_scaled_caps_at_one(self):
        policy = FaultPolicy(drop_p=0.5).scaled(4.0)
        assert policy.drop_p == 1.0

    def test_presets_ordered_by_severity(self):
        light = ChaosConfig.preset("light")
        heavy = ChaosConfig.preset("heavy")
        assert light.feed.drop_p < heavy.feed.drop_p
        assert not light.is_null

    def test_preset_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            ChaosConfig.preset("apocalyptic")

    def test_describe_mentions_active_surfaces(self):
        text = ChaosConfig.preset("moderate").describe()
        assert "feed" in text and "transport" in text


class TestCorruptions:
    def test_corrupt_attack_always_invalid(self):
        rng = random.Random(0)
        for _ in range(50):
            bad = corrupt_attack(make_attack(), rng)
            assert attack_problem(bad) is not None

    def test_truncate_attack_unparseable(self):
        rng = random.Random(0)
        wreck = truncate_attack(make_attack(), rng)
        assert isinstance(wreck, TruncatedRecord)
        assert attack_problem(wreck) is not None
        assert wreck.n_bytes == len(wreck.payload)

    def test_valid_attack_passes(self):
        assert attack_problem(make_attack()) is None

    def test_attack_problem_catches_each_field(self):
        assert attack_problem("junk")
        assert attack_problem(make_attack(victim_ip=2 ** 32))
        assert attack_problem(make_attack(start=4000, end=1000))
        assert attack_problem(make_attack(max_ppm=float("nan")))
        assert attack_problem(make_attack(n_packets=-1))


class TestInjectorDeterminism:
    def test_same_seed_same_faults(self):
        attacks = [make_attack(victim_ip=i + 1, start=i * 100, end=i * 100 + 600)
                   for i in range(200)]
        a = FaultInjector(ChaosConfig.preset("moderate", seed=9)).wrap_feed(attacks)
        b = FaultInjector(ChaosConfig.preset("moderate", seed=9)).wrap_feed(attacks)
        assert a == b

    def test_different_seed_different_faults(self):
        attacks = [make_attack(victim_ip=i + 1, start=i * 100, end=i * 100 + 600)
                   for i in range(200)]
        a = FaultInjector(ChaosConfig.preset("moderate", seed=1)).wrap_feed(attacks)
        b = FaultInjector(ChaosConfig.preset("moderate", seed=2)).wrap_feed(attacks)
        assert a != b

    def test_null_policy_returns_input_unchanged(self):
        attacks = [make_attack()]
        injector = FaultInjector(ChaosConfig(seed=3))
        assert injector.wrap_feed(attacks) == attacks
        assert injector.events == []

    def test_null_transport_wrap_is_identity(self):
        def transport(ns_ip, qname, qtype, when):
            return ServerReply.ok(10.0)

        injector = FaultInjector(ChaosConfig(seed=3))
        assert injector.wrap_transport(transport) is transport


class TestTransportFaults:
    def test_drops_and_corruption_logged(self):
        config = ChaosConfig(seed=4, transport=FaultPolicy(drop_p=0.3,
                                                           corrupt_p=0.2))
        injector = FaultInjector(config)
        wrapped = injector.wrap_transport(
            lambda ns_ip, qname, qtype, when: ServerReply.ok(10.0))
        replies = [wrapped(1, "example.com", None, 0.0) for _ in range(300)]
        dropped = sum(1 for r in replies if not r.answered)
        servfails = sum(1 for r in replies if r.answered
                        and r.rcode is Rcode.SERVFAIL)
        assert 40 < dropped < 160
        assert servfails > 10
        counts = injector.counts
        assert counts[("transport", "drop")] == dropped
        assert counts[("transport", "corrupt")] == servfails

    def test_burst_mode_runs(self):
        config = ChaosConfig(seed=4, transport=FaultPolicy(drop_p=0.05,
                                                           burst_len=4))
        injector = FaultInjector(config)
        wrapped = injector.wrap_transport(
            lambda ns_ip, qname, qtype, when: ServerReply.ok(10.0))
        outcomes = [wrapped(1, "q", None, 0.0).answered for _ in range(500)]
        # Count maximal runs of consecutive drops: bursts mean at least
        # one run of the full burst length.
        runs, current = [], 0
        for answered in outcomes:
            if not answered:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        assert runs and max(runs) >= 4

    def test_clock_skew_perturbs_when(self):
        seen = []
        config = ChaosConfig(seed=8, transport=FaultPolicy(
            clock_skew_p=1.0, max_clock_skew_s=60))
        wrapped = FaultInjector(config).wrap_transport(
            lambda ns_ip, qname, qtype, when: seen.append(when) or ServerReply.ok(1.0))
        wrapped(1, "q", None, 1_000_000.0)
        assert seen and seen[0] != 1_000_000.0
        assert abs(seen[0] - 1_000_000.0) <= 60


class TestProcessorFaults:
    def test_transient_exceptions_raised(self):
        config = ChaosConfig(seed=5, processor=FaultPolicy(exception_p=1.0))
        injector = FaultInjector(config)
        assert injector.harden_feed([make_attack()]) == []
        # the first try and three retries each fault, then the record
        # is dead-lettered
        assert injector.events == [
            FaultEvent("processor", "exception", "offset=0")] * 4
        (letter,) = injector.dead_letters
        assert letter.offset == 0

    def test_null_processor_wrap_is_identity(self):
        attacks = [make_attack(victim_ip=i + 1) for i in range(50)]
        injector = FaultInjector(ChaosConfig(seed=5))
        assert injector.harden_feed(attacks) == attacks
        assert injector.events == []


class TestStoreFaults:
    def _filled_store(self):
        store = MeasurementStore()
        for day in range(10):
            for nsset in range(5):
                store.add_fast(nsset, day * DAY + 100, ResponseStatus.OK,
                               20.0, dense=True)
        return store

    def test_missing_days_removed(self):
        store = self._filled_store()
        n_before = len(store.daily)
        config = ChaosConfig(seed=6, store=FaultPolicy(missing_day_p=0.3))
        injector = FaultInjector(config)
        injector.corrupt_store(store)
        assert len(store.daily) < n_before
        assert injector.counts[("store", "missing_day")] == \
            n_before - len(store.daily)

    def test_corrupt_buckets_fail_validation(self):
        store = self._filled_store()
        config = ChaosConfig(seed=6, store=FaultPolicy(corrupt_p=0.5))
        injector = FaultInjector(config)
        injector.corrupt_store(store)
        invalid = [agg for agg in store.buckets.values() if not agg.is_valid]
        assert invalid
        # Every fired corruption is detected, each on its own bucket.
        assert len(invalid) == injector.counts[("store", "corrupt")]
        # Degradation contract: consumers skip invalid aggregates, so
        # the impact path never divides by a corrupt column (covered in
        # the metrics tests); here we only require detection.
        assert all(agg.is_valid for agg in store.daily.values())

    def test_null_store_policy_touches_nothing(self):
        store = self._filled_store()
        daily, buckets = dict(store.daily), dict(store.buckets)
        FaultInjector(ChaosConfig(seed=6)).corrupt_store(store)
        assert store.daily == daily and store.buckets == buckets


class TestHardenedFeed:
    def test_poison_records_dead_lettered_with_metadata(self):
        attacks = [make_attack(victim_ip=i + 1, start=i * 100,
                               end=i * 100 + 600) for i in range(300)]
        injector = FaultInjector(ChaosConfig.preset("heavy", seed=2))
        survivors = injector.harden_feed(attacks)
        assert survivors, "feed must not be wiped out"
        assert injector.dead_letters, "heavy chaos must dead-letter records"
        for letter in injector.dead_letters:
            assert letter.reason
            assert letter.offset >= 0
        # Survivors are all valid records.
        for attack in survivors:
            assert attack_problem(attack) is None

    def test_summary_renders(self):
        injector = FaultInjector(ChaosConfig.preset("moderate", seed=2))
        injector.harden_feed([make_attack()])
        text = injector.summary()
        assert "faults injected" in text
        assert "feed-validate" in text
