"""Tests for backscatter observation and RSDoS inference."""

import random

import pytest

from repro.attacks.model import Attack, AttackVector, ImpairmentProfile, Spoofing
from repro.net.ports import PORT_DNS, PORT_HTTP, PROTO_TCP, PROTO_UDP
from repro.telescope.backscatter import BackscatterSimulator
from repro.telescope.darknet import Darknet
from repro.telescope.feed import RSDoSFeed, ppm_to_victim_pps
from repro.telescope.rsdos import RSDoSClassifier, RSDoSThresholds
from repro.util.timeutil import FIVE_MINUTES, HOUR, Window

VICTIM = 0x0A000001


def make_simulator(seed=1, link_util=0.0):
    return BackscatterSimulator(Darknet(), random.Random(seed),
                                link_util_fn=lambda ip, ts: link_util)


def visible_attack(pps=10_000.0, start=0, duration=HOUR, pool=None):
    return Attack(victim_ip=VICTIM, window=Window(start, start + duration),
                  vectors=[AttackVector.tcp_syn(PORT_DNS, pps)],
                  spoof_pool_size=pool)


class TestBackscatterObservation:
    def test_invisible_attack_unobserved(self):
        attack = Attack(victim_ip=VICTIM, window=Window(0, HOUR),
                        vectors=[AttackVector(PROTO_UDP, (53,), 1e4,
                                              Spoofing.REFLECTED)])
        assert make_simulator().observe_attack(attack) == []

    def test_window_count(self):
        obs = make_simulator().observe_attack(visible_attack(duration=HOUR))
        assert len(obs) == HOUR // FIVE_MINUTES

    def test_packet_rate_matches_coverage(self):
        # 10 Kpps response -> ~29.3 pps at the telescope -> ~8.8K per
        # 5-minute window.
        obs = make_simulator().observe_attack(visible_attack(pps=10_000.0))
        mean_packets = sum(o.n_packets for o in obs) / len(obs)
        expected = 10_000.0 * 300 / 341.33
        assert mean_packets == pytest.approx(expected, rel=0.1)

    def test_ppm_extrapolation_recovers_pps(self):
        # The paper's footnote-2 arithmetic must invert our generation.
        obs = make_simulator().observe_attack(visible_attack(pps=124_000.0))
        peak_ppm = max(o.max_ppm for o in obs)
        assert ppm_to_victim_pps(peak_ppm) == pytest.approx(124_000.0, rel=0.15)

    def test_link_saturation_suppresses_backscatter(self):
        healthy = make_simulator(link_util=0.0).observe_attack(visible_attack())
        choked = make_simulator(link_util=4.0).observe_attack(visible_attack())
        rate_h = sum(o.n_packets for o in healthy)
        rate_c = sum(o.n_packets for o in choked)
        # At 4x link saturation only ~20% of responses escape.
        assert rate_c < rate_h * 0.35

    def test_spoof_pool_bounds_unique_sources(self):
        pool = 341_330  # -> ~1000 addresses inside the darknet
        obs = make_simulator().observe_attack(
            visible_attack(pps=50_000.0, pool=pool))
        assert obs[-1].n_unique_sources <= pool / 341.33 * 1.05
        # Saturates: inferred attacker count ~ pool.
        inferred = obs[-1].n_unique_sources * 341.33
        assert inferred == pytest.approx(pool, rel=0.1)

    def test_ports_reported(self):
        obs = make_simulator().observe_attack(visible_attack())
        assert all(o.proto == PROTO_TCP for o in obs)
        assert all(o.first_port == PORT_DNS for o in obs)
        assert all(o.n_ports == 1 for o in obs)

    def test_slash16_breadth(self):
        obs = make_simulator().observe_attack(visible_attack(pps=50_000.0))
        # Tens of thousands of packets spread over 192 /16s: all hit.
        assert obs[0].n_slash16 == 192

    def test_small_attack_sparse(self):
        obs = make_simulator().observe_attack(visible_attack(pps=0.5))
        total = sum(o.n_packets for o in obs)
        assert total < 50  # ~0.0015 pps at the telescope

    def test_aggregate_matches_packet_level_reference(self):
        attack = visible_attack(pps=300.0, duration=1800)
        aggregate = make_simulator(seed=5).observe_attack(attack)
        packets = make_simulator(seed=6).materialize_packets(attack)
        agg_total = sum(o.n_packets for o in aggregate)
        assert agg_total == pytest.approx(len(packets), rel=0.15)

    def test_materialize_refuses_huge_attacks(self):
        with pytest.raises(ValueError):
            make_simulator().materialize_packets(visible_attack(pps=1e7))


class TestJitterOrderInvariance:
    """max_ppm jitter must be a pure function of (victim, window).

    Regression for an RNG-order coupling: the jitter used to be drawn
    inline from the shared stream per emitted window, so a window's
    jitter depended on how many windows were processed before it —
    serial and batched/reordered processing silently diverged.
    """

    def _jitter_factors(self, sim, attacks):
        return {(o.victim_ip, o.window_ts):
                o.max_ppm / (o.n_packets / 5.0)
                for a in attacks for o in sim.observe_attack(a)
                if o.n_packets}

    def test_serial_equals_batched_draws(self):
        other = Attack(victim_ip=VICTIM + 7, window=Window(0, 1800),
                       vectors=[AttackVector.tcp_syn(PORT_DNS, 5000.0)])
        attacks = [visible_attack(duration=1800), other]
        serial = make_simulator(seed=9)
        batched = BackscatterSimulator(
            Darknet(), random.Random(123),  # different shared-rng state
            jitter_seed=serial.jitter_seed)
        # Batched path processes the attacks in reverse order with a
        # differently-positioned shared stream; every (victim, window)
        # jitter factor must still match the serial draws exactly.
        want = self._jitter_factors(serial, attacks)
        got = self._jitter_factors(batched, list(reversed(attacks)))
        assert set(want) == set(got)
        for key in want:
            assert want[key] == got[key]

    def test_jitter_independent_of_shared_stream_position(self):
        a = make_simulator(seed=4)
        b = make_simulator(seed=4)
        b.rng.random()  # burn a draw: shared stream now out of phase
        assert a.window_jitter(VICTIM, 600) == b.window_jitter(VICTIM, 600)

    def test_jitter_varies_across_windows_and_victims(self):
        sim = make_simulator(seed=4)
        assert sim.window_jitter(VICTIM, 0) != sim.window_jitter(VICTIM, 300)
        assert sim.window_jitter(VICTIM, 0) != sim.window_jitter(VICTIM + 1, 0)


class TestRSDoSClassifier:
    def _observe(self, attacks, seed=1):
        return list(make_simulator(seed).observe_all(attacks))

    def test_infers_single_attack(self):
        attacks = self._infer([visible_attack()])
        assert len(attacks) == 1
        inferred = attacks[0]
        assert inferred.victim_ip == VICTIM
        assert inferred.start == 0
        assert inferred.end == HOUR

    def _infer(self, ground_truth, thresholds=None):
        observations = self._observe(ground_truth)
        return RSDoSClassifier(thresholds).infer(observations)

    def test_gap_splits_attacks(self):
        early = visible_attack(start=0, duration=1800)
        late = visible_attack(start=3 * HOUR, duration=1800)
        attacks = self._infer([early, late])
        assert len(attacks) == 2

    def test_short_gap_merges(self):
        early = visible_attack(start=0, duration=1800)
        late = visible_attack(start=1800 + 600, duration=1800)
        attacks = self._infer([early, late])
        assert len(attacks) == 1

    def test_noise_below_packet_threshold_dropped(self):
        attacks = self._infer([visible_attack(pps=0.05, duration=600)])
        assert attacks == []

    def test_breadth_threshold(self):
        # A stream confined to one darknet /16 is scanner-like noise,
        # not uniform spoofing: rebuild real observations with the
        # breadth field forced to 1 and check they are rejected.
        from dataclasses import replace

        observations = self._observe([visible_attack(pps=500.0)])
        narrow = [replace(o, n_slash16=1) for o in observations]
        assert RSDoSClassifier().infer(narrow) == []

    def test_duration_seconds(self):
        inferred = self._infer([visible_attack(duration=1800)])[0]
        assert inferred.duration_s == 1800

    def test_inferred_pps_extrapolation(self):
        inferred = self._infer([visible_attack(pps=34_100.0)])[0]
        assert inferred.inferred_victim_pps() == pytest.approx(34_100.0, rel=0.15)

    def test_multiple_victims_independent(self):
        other = Attack(victim_ip=VICTIM + 1, window=Window(0, 1800),
                       vectors=[AttackVector.tcp_syn(PORT_HTTP, 5000.0)])
        attacks = self._infer([visible_attack(duration=1800), other])
        assert len(attacks) == 2
        assert {a.victim_ip for a in attacks} == {VICTIM, VICTIM + 1}

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RSDoSThresholds(min_packets=0)
        with pytest.raises(ValueError):
            RSDoSThresholds(gap_s=60)


class TestRSDoSFeed:
    def _feed(self, attacks, seed=3):
        return RSDoSFeed.observe(attacks, make_simulator(seed))

    def test_observe_pipeline(self):
        feed = self._feed([visible_attack()])
        assert len(feed) == 1
        assert feed.victims() == [VICTIM]
        assert feed.records  # curated window records kept

    def test_records_belong_to_attacks(self):
        feed = self._feed([visible_attack(duration=1800)])
        assert feed.records
        for record in feed.records:
            assert any(a.victim_ip == record.victim_ip
                       and a.window.contains(record.window_ts)
                       for a in feed.attacks)

    def test_dump_load_records_roundtrip(self, tmp_path):
        feed = self._feed([visible_attack(duration=1800)])
        path = tmp_path / "feed.csv"
        with open(path, "w") as fp:
            feed.dump_records(fp)
        with open(path) as fp:
            loaded = RSDoSFeed.load_records(fp)
        assert len(loaded) == len(feed.records)
        assert loaded[0].victim_ip == VICTIM

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with open(path) as fp:
            with pytest.raises(ValueError):
                RSDoSFeed.load_records(fp)
