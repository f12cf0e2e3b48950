"""Tests for the attack data model."""

import pytest

from repro.attacks.model import (
    Attack,
    AttackVector,
    Campaign,
    ImpairmentProfile,
    Spoofing,
)
from repro.net.ports import PORT_DNS, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.util.timeutil import Window


def simple_attack(pps=1000.0, start=10_000, duration=3600, **kwargs):
    return Attack(victim_ip=0x0A000001,
                  window=Window(start, start + duration),
                  vectors=[AttackVector.udp_flood(PORT_DNS, pps)],
                  **kwargs)


class TestAttackVector:
    def test_tcp_syn_small_packets(self):
        v = AttackVector.tcp_syn(80, 1000.0)
        assert v.packet_bytes == 60
        assert v.proto == PROTO_TCP

    def test_udp_flood_large_packets(self):
        v = AttackVector.udp_flood(53, 1000.0)
        assert v.packet_bytes == 1400
        assert v.ports == (PORT_DNS,)

    def test_icmp_no_ports(self):
        v = AttackVector(PROTO_ICMP, (), 500.0)
        assert v.ports == ()
        assert v.first_port == 0

    def test_tcp_requires_ports(self):
        with pytest.raises(ValueError):
            AttackVector(PROTO_TCP, (), 100.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            AttackVector.udp_flood(53, 0.0)

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            AttackVector(PROTO_UDP, (70000,), 100.0)

    def test_spoofing_visibility(self):
        assert Spoofing.RANDOM.telescope_visible
        assert not Spoofing.REFLECTED.telescope_visible
        assert not Spoofing.UNSPOOFED.telescope_visible


class TestImpairmentProfile:
    def test_defaults_are_inert(self):
        profile = ImpairmentProfile()
        assert profile.aftermath_s == 0
        assert profile.blackout_start is None

    @pytest.mark.parametrize("kwargs", [
        {"aftermath_s": -1},
        {"aftermath_load": 1.5},
        {"scrub_efficiency": -0.1},
        {"blackout_s": -5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ImpairmentProfile(**kwargs)


class TestAttackRates:
    def test_total_and_spoofed_pps(self):
        attack = Attack(
            victim_ip=1,
            window=Window(0, 100),
            vectors=[
                AttackVector.udp_flood(53, 1000.0),
                AttackVector(PROTO_TCP, (80,), 500.0, Spoofing.REFLECTED),
            ])
        assert attack.total_pps == 1500.0
        assert attack.spoofed_pps == 1000.0

    def test_effective_pps_inside_window(self):
        attack = simple_attack(pps=1000.0)
        assert attack.effective_pps(10_500) == 1000.0

    def test_effective_pps_outside_window(self):
        attack = simple_attack()
        assert attack.effective_pps(0) == 0.0
        assert attack.effective_pps(10_000 + 3600) == 0.0

    def test_scrubbing_reduces_rate(self):
        attack = simple_attack(
            pps=1000.0,
            impairment=ImpairmentProfile(scrub_delay_s=600,
                                         scrub_efficiency=0.4))
        assert attack.effective_pps(10_100) == 1000.0      # pre-scrub
        assert attack.effective_pps(10_700) == pytest.approx(600.0)

    def test_aftermath_decays_linearly(self):
        attack = simple_attack(
            pps=1000.0, duration=100,
            impairment=ImpairmentProfile(aftermath_s=100, aftermath_load=0.8))
        end = 10_100
        assert attack.effective_pps(end) == pytest.approx(800.0)
        assert attack.effective_pps(end + 50) == pytest.approx(400.0)
        assert attack.effective_pps(end + 100) == 0.0

    def test_effective_spoofed_scales_proportionally(self):
        attack = Attack(
            victim_ip=1, window=Window(0, 1000),
            vectors=[
                AttackVector.udp_flood(53, 600.0),
                AttackVector(PROTO_UDP, (80,), 400.0, Spoofing.REFLECTED),
            ],
            impairment=ImpairmentProfile(scrub_delay_s=0, scrub_efficiency=0.5))
        assert attack.effective_spoofed_pps(500) == pytest.approx(300.0)


class TestAttackClassification:
    def test_multi_vector(self):
        assert not simple_attack().is_multi_vector

    def test_telescope_visible(self):
        invisible = Attack(victim_ip=1, window=Window(0, 10),
                           vectors=[AttackVector(PROTO_UDP, (53,), 10.0,
                                                 Spoofing.REFLECTED)])
        assert not invisible.telescope_visible
        assert simple_attack().telescope_visible

    def test_impact_window_extends_for_aftermath(self):
        attack = simple_attack(duration=100,
                               impairment=ImpairmentProfile(aftermath_s=500,
                                                            aftermath_load=1.0))
        assert attack.impact_window.end == attack.window.end + 500

    def test_impact_window_covers_blackout(self):
        attack = simple_attack(
            duration=100,
            impairment=ImpairmentProfile(blackout_start=10_050,
                                         blackout_s=10_000))
        assert attack.impact_window.end >= 20_050

    def test_blackout_window(self):
        attack = simple_attack(
            impairment=ImpairmentProfile(blackout_start=100, blackout_s=50))
        blackout = attack.blackout_window()
        assert (blackout.start, blackout.end) == (100, 150)
        assert simple_attack().blackout_window() is None

    def test_victim_slash24(self):
        assert simple_attack().victim_slash24 == 0x0A000000

    def test_rejects_empty_vectors(self):
        with pytest.raises(ValueError):
            Attack(victim_ip=1, window=Window(0, 10), vectors=[])

    def test_rejects_bad_spoof_pool(self):
        with pytest.raises(ValueError):
            simple_attack(spoof_pool_size=0)

    def test_attack_ids_unique(self):
        assert simple_attack().attack_id != simple_attack().attack_id


class TestCampaign:
    def test_campaign_ids_propagate(self):
        campaign = Campaign("test", attacks=[simple_attack(), simple_attack()])
        assert all(a.campaign_id == campaign.campaign_id
                   for a in campaign.attacks)

    def test_add_propagates(self):
        campaign = Campaign("test")
        attack = simple_attack()
        campaign.add(attack)
        assert attack.campaign_id == campaign.campaign_id

    def test_window_spans_attacks(self):
        a1 = simple_attack(start=1000, duration=100)
        a2 = simple_attack(start=2000, duration=100)
        campaign = Campaign("t", attacks=[a1, a2])
        assert campaign.window.start == 1000
        assert campaign.window.end == 2100

    def test_empty_campaign_window_raises(self):
        with pytest.raises(ValueError):
            _ = Campaign("t").window
