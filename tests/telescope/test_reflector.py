"""Tests for the reflector-query inference branch (amplification)."""

import dataclasses

import pytest

from repro import WorldConfig, build_world
from repro.attacks.model import AmplificationProfile, Attack, AttackVector, Spoofing
from repro.net.ports import PORT_DNS, PROTO_UDP
from repro.telescope.darknet import Darknet
from repro.telescope.reflector import (
    MIN_DARK_TARGETS,
    MIN_QUERIES,
    MIN_WINDOWS,
    InferredReflection,
    ReflectorClassifier,
    ReflectorFeed,
    ReflectorObservation,
    ReflectorSimulator,
    match_reflections,
)
from repro.telescope.rsdos import GAP_S
from repro.util.timeutil import FIVE_MINUTES, HOUR, Window


def amplified_attack(victim_ip=0x0A000001, start=0, duration=30 * 60,
                     n_amplifiers=5_000, query_pps=20_000.0,
                     list_darknet_share=0.004, baf=30.0) -> Attack:
    profile = AmplificationProfile(
        n_amplifiers=n_amplifiers, mean_baf=baf, query_pps=query_pps,
        list_darknet_share=list_darknet_share)
    return Attack(
        victim_ip=victim_ip,
        window=Window(start, start + duration),
        vectors=[AttackVector(PROTO_UDP, (PORT_DNS,), query_pps * baf / 20,
                              Spoofing.AMPLIFIED, 1400)],
        amplification=profile)


def observation(ts=0, victim=1, n_queries=50, targets=5,
                qtype="ANY") -> ReflectorObservation:
    return ReflectorObservation(
        window_ts=ts, victim_ip=victim, n_queries=n_queries,
        max_qpm=n_queries / 5.0, n_dark_targets=targets, qtype=qtype)


class TestSimulator:
    @pytest.fixture()
    def simulator(self):
        return ReflectorSimulator(Darknet(), jitter_seed=99)

    def test_ignores_non_amplified_attacks(self, simulator):
        plain = Attack(victim_ip=1, window=Window(0, HOUR),
                       vectors=[AttackVector.udp_flood(PORT_DNS, 1000.0)])
        assert simulator.observe_attack(plain) == []

    def test_observes_every_active_window(self, simulator):
        attack = amplified_attack(duration=30 * 60)
        observations = simulator.observe_attack(attack)
        assert len(observations) == 6  # 30 min of 5-min buckets
        for obs in observations:
            assert obs.victim_ip == attack.victim_ip
            assert obs.qtype == "ANY"
            assert obs.n_queries > 0
            assert obs.max_qpm >= obs.n_queries / 5.0
            assert 1 <= obs.n_dark_targets <= \
                attack.amplification.darknet_list_entries

    def test_query_volume_tracks_darknet_list_share(self, simulator):
        # 20k qps over 5k amplifiers, 20 of them dark -> 80 qps at the
        # darknet -> ~24k queries per 5-minute window.
        attack = amplified_attack()
        expected = 20_000.0 * 20 / 5_000 * FIVE_MINUTES
        for obs in simulator.observe_attack(attack):
            assert obs.n_queries == pytest.approx(expected, rel=0.1)

    def test_deterministic_and_order_independent(self, simulator):
        a = amplified_attack(victim_ip=10)
        b = amplified_attack(victim_ip=20, start=2 * HOUR)
        forward = list(simulator.observe_all([a, b]))
        backward = list(simulator.observe_all([b, a]))
        assert sorted(forward, key=lambda o: (o.window_ts, o.victim_ip)) \
            == sorted(backward, key=lambda o: (o.window_ts, o.victim_ip))
        again = ReflectorSimulator(Darknet(), jitter_seed=99)
        assert list(again.observe_all([a, b])) == forward

    def test_no_stale_entries_no_observations(self, simulator):
        silent = amplified_attack(list_darknet_share=0.0)
        assert simulator.observe_attack(silent) == []


class TestClassifier:
    def test_infers_one_reflection_from_a_burst(self):
        observations = [observation(ts=i * FIVE_MINUTES, n_queries=40)
                        for i in range(4)]
        reflections = ReflectorClassifier().infer(observations)
        assert len(reflections) == 1
        r = reflections[0]
        assert r.start == 0
        assert r.end == 4 * FIVE_MINUTES
        assert r.n_queries == 160
        assert r.n_windows == 4

    def test_gap_splits_into_two_attacks(self):
        observations = (
            [observation(ts=i * FIVE_MINUTES) for i in range(3)]
            + [observation(ts=3 * HOUR + i * FIVE_MINUTES)
               for i in range(3)])
        reflections = ReflectorClassifier().infer(observations)
        assert len(reflections) == 2
        assert reflections[0].end <= reflections[1].start

    def test_rejects_single_window_scanners(self):
        assert ReflectorClassifier().infer([observation(n_queries=500)]) == []

    def test_rejects_single_target_streams(self):
        observations = [observation(ts=i * FIVE_MINUTES, targets=1)
                        for i in range(4)]
        assert ReflectorClassifier().infer(observations) == []

    def test_rejects_below_query_floor(self):
        observations = [observation(ts=i * FIVE_MINUTES, n_queries=5)
                        for i in range(3)]
        assert ReflectorClassifier().infer(observations) == []

    def test_threshold_validation(self):
        assert MIN_QUERIES >= 1 and MIN_WINDOWS >= 1 and MIN_DARK_TARGETS >= 1
        # A gap shorter than one window would split adjacent windows.
        assert GAP_S >= FIVE_MINUTES


class TestInferredReflection:
    def test_join_projection_is_udp53(self):
        r = InferredReflection(
            victim_ip=7, start=0, end=HOUR, n_queries=900, max_qpm=120.0,
            max_dark_targets=9, qtype="ANY", n_windows=12)
        inferred = r.to_inferred()
        assert inferred.victim_ip == 7
        assert inferred.proto == PROTO_UDP
        assert inferred.first_port == PORT_DNS
        assert inferred.n_ports == 1
        assert inferred.n_unique_sources == 1
        assert inferred.duration_s == r.duration_s

    def test_victim_pps_extrapolation(self):
        r = InferredReflection(
            victim_ip=7, start=0, end=HOUR, n_queries=900, max_qpm=600.0,
            max_dark_targets=9, qtype="ANY", n_windows=12, assumed_baf=30.0)
        # 10 q/s seen over a 1% dark share -> 1000 q/s sprayed; each
        # query yields baf-times traffic at the victim.
        assert r.inferred_victim_pps(0.01, 1.0) == pytest.approx(30_000.0)


class TestFeedAndValidation:
    @pytest.fixture(scope="class")
    def schedule(self):
        return [amplified_attack(victim_ip=100 + i, start=i * 3 * HOUR)
                for i in range(4)]

    @pytest.fixture(scope="class")
    def feed(self, schedule):
        simulator = ReflectorSimulator(Darknet(), jitter_seed=5)
        return ReflectorFeed.observe(
            schedule, simulator,
            baf_of={a.victim_ip: a.amplification.mean_baf
                    for a in schedule})

    def test_recovers_the_seeded_schedule(self, schedule, feed):
        assert len(feed) == len(schedule)
        assert sorted({r.victim_ip for r in feed.reflections}) == \
            sorted(a.victim_ip for a in schedule)
        pairs = match_reflections(schedule, feed.reflections)
        assert len(pairs) == len(schedule)
        for truth, inferred in pairs:
            assert inferred is not None
            assert inferred.start <= truth.window.start
            assert inferred.end >= truth.window.end
            assert inferred.assumed_baf == truth.amplification.mean_baf

    def test_observations_are_curated_to_reflections(self, feed):
        windows = {r.victim_ip: r.window for r in feed.reflections}
        for obs in feed.observations:
            assert windows[obs.victim_ip].contains(obs.window_ts)

    def test_projection_matches_reflections(self, feed):
        inferred = feed.inferred_attacks()
        assert len(inferred) == len(feed.reflections)
        assert [a.victim_ip for a in inferred] == \
            [r.victim_ip for r in feed.reflections]

    def test_match_skips_backscatter_attacks(self, schedule, feed):
        plain = Attack(victim_ip=1, window=Window(0, HOUR),
                       vectors=[AttackVector.udp_flood(PORT_DNS, 1000.0)])
        pairs = match_reflections(list(schedule) + [plain],
                                  feed.reflections)
        assert len(pairs) == len(schedule)


def reference_observe(attacks, simulator, baf_of) -> ReflectorFeed:
    """The curation as first written: every observation, filtered by
    "some inferred reflection on its victim contains its window"."""
    observations = list(simulator.observe_all(attacks))
    reflections = ReflectorClassifier().infer(observations)
    for r in reflections:
        r.assumed_baf = baf_of.get(r.victim_ip, r.assumed_baf)
    keep = {}
    for r in reflections:
        keep.setdefault(r.victim_ip, []).append(r.window)
    curated = [o for o in observations
               if any(w.contains(o.window_ts)
                      for w in keep.get(o.victim_ip, ()))]
    return ReflectorFeed(curated, reflections)


class TestCurationIsReferenceFilter:
    """``ReflectorFeed.observe`` curates from the classifier's kept
    groups; it must keep exactly what the window filter kept."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_amplification_tiny_worlds(self, seed):
        world = build_world(dataclasses.replace(
            WorldConfig.tiny(seed=seed), scenario_pack="amplification"))
        feed = world.pack.observe_darknet(world, world.attacks)
        simulator = ReflectorSimulator(
            Darknet(), jitter_seed=world.rngs.spawn_seed(
                "pack:amplification", "reflector"))
        baf_of = {a.victim_ip: a.amplification.mean_baf
                  for a in world.attacks if a.amplification is not None}
        reference = reference_observe(world.attacks, simulator, baf_of)
        assert feed.observations == reference.observations
        assert feed.reflections == reference.reflections
        assert feed.observations and feed.reflections

    def test_overlapping_spray_and_a_dropped_group(self):
        victim = 0x0A000001
        schedule = [
            amplified_attack(victim_ip=victim, start=0, duration=HOUR),
            amplified_attack(victim_ip=victim, start=HOUR // 2),  # overlaps
            amplified_attack(victim_ip=victim, start=4 * HOUR,
                             duration=FIVE_MINUTES),  # one window: dropped
            amplified_attack(victim_ip=victim, start=8 * HOUR + 60),
        ]
        baf_of = {victim: 30.0}
        feed = ReflectorFeed.observe(
            schedule, ReflectorSimulator(Darknet(), jitter_seed=3),
            baf_of=baf_of)
        reference = reference_observe(
            schedule, ReflectorSimulator(Darknet(), jitter_seed=3), baf_of)
        assert feed.observations == reference.observations
        assert feed.reflections == reference.reflections
        assert len(feed.reflections) == 2
        assert not [o for o in feed.observations
                    if 4 * HOUR <= o.window_ts < 5 * HOUR]
        assert len([o for o in feed.observations
                    if o.window_ts == HOUR // 2]) == 2
