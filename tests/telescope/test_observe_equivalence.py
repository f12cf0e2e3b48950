"""The telescope pass against its plain reference definitions.

``BackscatterSimulator.observe_attack`` takes each attack's constants
once and reseeds one jitter stream in place; ``RSDoSFeed.observe``
keeps the records of the groups the classifier keeps. Both must stay
equal, value for value and draw for draw, to what the plain
definitions give: the per-window model helpers
(``Attack.effective_spoofed_pps``, ``overload_drop``, the ``Darknet``
expectations), ``ppm * window_jitter(victim, window)``, and the
curation filter "some inferred attack's window contains the record".
"""

from __future__ import annotations

import random

import pytest

from repro import WorldConfig, build_world
from repro.attacks.model import (Attack, AttackVector, ImpairmentProfile,
                                 Spoofing)
from repro.core.pipeline import _link_util_fn
from repro.net.ip import IPV4_SPACE
from repro.net.ports import PORT_DNS, PORT_HTTP, PROTO_ICMP, PROTO_UDP
from repro.telescope import backscatter
from repro.telescope.backscatter import BackscatterSimulator, FeedRecord
from repro.telescope.darknet import Darknet
from repro.telescope.feed import RSDoSFeed
from repro.telescope.rsdos import RSDoSClassifier
from repro.util.rng import RngStreams, derive_seed, poisson
from repro.util.timeutil import DAY, FIVE_MINUTES, HOUR, Window
from repro.world.capacity import overload_drop


def _study_simulator(world, jitter_seed=None):
    """A simulator set up as the study's telescope phase sets it up."""
    return BackscatterSimulator(
        Darknet(), RngStreams(world.config.seed).stream("telescope"),
        link_util_fn=_link_util_fn(world), headroom=world.config.headroom,
        jitter_seed=jitter_seed)


def _assert_jitter_is_reference(sim, attacks):
    """Every record's ``max_ppm`` is its window's ppm times
    ``window_jitter``; returns the records checked."""
    records = []
    for attack in attacks:
        start, end = attack.window.start, attack.window.end
        for r in sim.observe_attack(attack):
            seconds = min(r.window_ts + FIVE_MINUTES, end) - max(r.window_ts, start)
            ppm = r.n_packets / max(seconds / 60.0, 1e-9)
            assert r.max_ppm == ppm * sim.window_jitter(r.victim_ip, r.window_ts)
            records.append(r)
    return records


class TestJitterIsWindowJitter:
    def test_every_record_of_a_tiny_study(self, tiny_world, tiny_study):
        records = _assert_jitter_is_reference(
            _study_simulator(tiny_world), tiny_world.attacks)
        assert tiny_study.feed.records
        assert set(tiny_study.feed.records) <= set(records)

    def test_caller_supplied_jitter_seed(self, tiny_world):
        # As the serve layer seeds a day's telescope.
        day = tiny_world.config.timeline.window.start + 3 * DAY
        seed = derive_seed(tiny_world.rngs.spawn_seed("serve", "jitter"),
                           str(day))
        sim = _study_simulator(tiny_world, jitter_seed=seed)
        assert sim.jitter_seed == seed
        assert _assert_jitter_is_reference(sim, tiny_world.attacks)



def reference_observe_attack(sim, attack, sample=poisson):
    """One attack's records written out with the model's own helpers,
    one window at a time, as the simulator first computed them."""
    darknet = sim.darknet
    spoofed = [v for v in attack.vectors if v.spoofing.telescope_visible]
    ports = tuple(dict.fromkeys(p for v in spoofed for p in v.ports))
    pool_in_darknet = (attack.spoof_pool_size or IPV4_SPACE) * darknet.coverage
    cum_packets = 0.0
    records = []
    for ts in attack.window.buckets(FIVE_MINUTES):
        w_start = max(ts, attack.window.start)
        w_end = min(ts + FIVE_MINUTES, attack.window.end)
        seconds = w_end - w_start
        if seconds <= 0:
            continue
        mid = (w_start + w_end) // 2
        spoofed_pps = attack.effective_spoofed_pps(mid)
        if spoofed_pps <= 0:
            continue
        link_util = sim.link_util_fn(attack.victim_ip, mid)
        respond = (1.0 - overload_drop(link_util, sim.headroom)) \
            * attack.response_ratio
        expected = darknet.expected_hits(spoofed_pps * respond * seconds)
        n_packets = sample(sim.rng, expected)
        if n_packets == 0:
            continue
        cum_packets += n_packets
        unique = darknet.expected_unique_addresses(cum_packets, pool_in_darknet)
        n_slash16 = int(round(darknet.expected_unique_slash16(n_packets)))
        ppm = n_packets / max(seconds / 60.0, 1e-9)
        records.append(FeedRecord(
            window_ts=ts, victim_ip=attack.victim_ip, proto=spoofed[0].proto,
            first_port=ports[0] if ports else 0, n_ports=max(1, len(ports)),
            n_packets=n_packets,
            max_ppm=ppm * sim.window_jitter(attack.victim_ip, ts),
            n_slash16=max(1, n_slash16),
            n_unique_sources=int(round(unique))))
    return records


def _hand_built_attacks():
    """Scrubbing, a spoof pool, multiple and mixed vectors, a reduced
    response ratio and unaligned windows, on a saturating victim."""
    victim = 0x0A000001
    scrub = ImpairmentProfile(scrub_delay_s=1500, scrub_efficiency=0.6)
    return [
        Attack(victim_ip=victim, window=Window(130, 3 * HOUR + 7),
               vectors=[AttackVector.tcp_syn(PORT_DNS, 40_000.0),
                        AttackVector.udp_flood(PORT_HTTP, 9_000.0),
                        AttackVector(PROTO_UDP, (53,), 5e4, Spoofing.REFLECTED)],
               impairment=scrub, response_ratio=0.7, spoof_pool_size=500_000),
        Attack(victim_ip=victim + 1, window=Window(HOUR, 2 * HOUR),
               vectors=[AttackVector(PROTO_ICMP, (), 3_000.0)],
               impairment=ImpairmentProfile(scrub_delay_s=0,
                                            scrub_efficiency=1.0)),
        Attack(victim_ip=victim + 2, window=Window(7, 8),
               vectors=[AttackVector.tcp_syn(PORT_DNS, 1e6)]),
    ]


def _recording(lams):
    """``poisson``, noting each rate it is asked for."""
    def sample(rng, lam):
        lams.append(lam)
        return poisson(rng, lam)
    return sample


class TestObserveAttackIsReference:
    """Same records, same shared-stream state, and the same Poisson
    rate asked for in every window, float for float: a rate that moved
    in its last bit would rarely change a count, so the rates are
    compared directly."""

    def _assert_same(self, monkeypatch, ours, ref, attacks):
        our_lams, ref_lams = [], []
        monkeypatch.setattr(backscatter, "poisson", _recording(our_lams))
        n_records = 0
        for attack in attacks:
            records = ours.observe_attack(attack)
            assert records == reference_observe_attack(
                ref, attack, _recording(ref_lams))
            n_records += len(records)
        assert our_lams == ref_lams
        assert ours.rng.getstate() == ref.rng.getstate()
        return n_records

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tiny_world_attacks(self, monkeypatch, seed):
        world = build_world(WorldConfig.tiny(seed=seed))
        assert self._assert_same(monkeypatch, _study_simulator(world),
                                 _study_simulator(world), world.attacks)

    def test_scrubbed_and_saturated_victims(self, monkeypatch):
        def link_util(ip, ts):  # climbs past the headroom every hour
            return (ts % HOUR) / 900.0

        def make():
            return BackscatterSimulator(Darknet(), random.Random(5),
                                        link_util_fn=link_util, headroom=0.8)

        assert self._assert_same(monkeypatch, make(), make(),
                                 _hand_built_attacks())


def reference_observe(attacks, simulator, thresholds=None) -> RSDoSFeed:
    """The curation as first written: every observation, filtered by
    "some inferred attack on its victim contains its window"."""
    observations = list(simulator.observe_all(attacks))
    inferred = RSDoSClassifier(thresholds).infer(observations)
    keep = {}
    for attack in inferred:
        keep.setdefault(attack.victim_ip, []).append(attack.window)
    records = [o for o in observations
               if any(w.contains(o.window_ts) for w in keep.get(o.victim_ip, ()))]
    return RSDoSFeed(records, inferred)


def _assert_same_feed(attacks, make_simulator):
    feed = RSDoSFeed.observe(attacks, make_simulator())
    reference = reference_observe(attacks, make_simulator())
    assert feed.records == reference.records
    assert feed.attacks == reference.attacks
    return feed


class TestCurationIsReferenceFilter:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tiny_worlds(self, seed):
        world = build_world(WorldConfig.tiny(seed=seed))
        feed = _assert_same_feed(world.attacks,
                                 lambda: _study_simulator(world))
        assert feed.records

    def test_overlapping_attacks_and_a_dropped_group(self):
        victim = 0x0A000001

        def attack(start, duration, pps):
            return Attack(victim_ip=victim, window=Window(start, start + duration),
                          vectors=[AttackVector.tcp_syn(PORT_DNS, pps)])

        attacks = [
            attack(0, HOUR, 10_000.0),
            attack(HOUR // 2, HOUR, 5_000.0),           # overlaps the first
            attack(4 * HOUR, HOUR // 2, 2.0),           # sub-threshold
            attack(8 * HOUR + 60, HOUR // 2, 8_000.0),  # unaligned start
        ]
        feed = _assert_same_feed(
            attacks, lambda: BackscatterSimulator(Darknet(), random.Random(11)))
        assert [(a.start, a.end) for a in feed.attacks] == \
            [(0, HOUR + HOUR // 2), (8 * HOUR, 8 * HOUR + HOUR // 2 + FIVE_MINUTES)]
        # Both overlapping attacks emit the shared windows: kept twice.
        shared = [r for r in feed.records if r.window_ts == HOUR // 2]
        assert len(shared) == 2
        observed = BackscatterSimulator(
            Darknet(), random.Random(11)).observe_all(attacks)
        dropped = [r for r in observed if 4 * HOUR <= r.window_ts < 5 * HOUR]
        assert dropped
        assert not set(dropped) & set(feed.records)
