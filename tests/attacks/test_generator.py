"""Tests for attack schedule generation: empirical mixes of §6."""

import random

import pytest

from repro.attacks import generator
from repro.attacks.generator import (
    HIGH_MODE_PPS,
    LOW_MODE_PPS,
    AttackMix,
    HotTarget,
    TargetCatalog,
    generate_schedule,
    sample_duration,
    sample_intensity,
)
from repro.net.ports import PORT_DNS, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.util.timeutil import HOUR, MINUTE, Timeline


@pytest.fixture(scope="module")
def timeline():
    return Timeline("2021-01-01", "2021-04-01")


@pytest.fixture(scope="module")
def catalog():
    ns_ips = {0x0A000000 + i: float(1 + i % 5) for i in range(30)}
    groups = {}
    ips = sorted(ns_ips)
    for i in range(0, 30, 3):
        group = tuple(ips[i:i + 3])
        for ip in group:
            groups[ip] = group
    return TargetCatalog(
        ns_ip_weights=ns_ips,
        other_ips=[0x14000000 + i for i in range(500)],
        hot_targets=[HotTarget(ip=0x08080808, n_attacks=1000, label="hot")],
        ns_groups=groups)


@pytest.fixture(scope="module")
def schedule(timeline, catalog):
    """Three months at 800 attacks, with a DNS share (5%) dense enough
    to hold campaigns on a 30-nameserver catalog."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "DNS_ATTACK_FRACTION", 0.05)
        return generate_schedule(random.Random(42), timeline, catalog,
                                 800, 0.01)


class TestSampling:
    def test_duration_bimodal(self):
        rng = random.Random(1)
        durations = [sample_duration(rng) for _ in range(4000)]
        near_15m = sum(1 for d in durations if 10 * MINUTE <= d <= 25 * MINUTE)
        near_1h = sum(1 for d in durations if 45 * MINUTE <= d <= 90 * MINUTE)
        assert near_15m > 800
        assert near_1h > 800

    def test_duration_bounds(self):
        rng = random.Random(2)
        for _ in range(1000):
            d = sample_duration(rng)
            assert 5 * MINUTE <= d <= 24 * HOUR

    def test_intensity_bimodal(self):
        rng = random.Random(3)
        rates = [sample_intensity(rng) for _ in range(4000)]
        low = sum(1 for r in rates if r < LOW_MODE_PPS * 5)
        high = sum(1 for r in rates if r > HIGH_MODE_PPS / 5)
        assert low > 1200
        assert high > 800

    def test_intensity_positive(self):
        rng = random.Random(4)
        assert all(sample_intensity(rng) > 0 for _ in range(500))


class TestAttackMix:
    def test_proto_shares(self):
        rng = random.Random(5)
        mix = AttackMix()
        protos = [mix.pick_proto(rng) for _ in range(5000)]
        tcp = protos.count(PROTO_TCP) / len(protos)
        udp = protos.count(PROTO_UDP) / len(protos)
        icmp = protos.count(PROTO_ICMP) / len(protos)
        assert 0.87 < tcp < 0.93       # paper: 90.4%
        assert 0.06 < udp < 0.11       # paper: 8.4%
        assert 0.005 < icmp < 0.025    # paper: 1.2%

    def test_single_port_share(self):
        rng = random.Random(6)
        mix = AttackMix()
        singles = sum(1 for _ in range(3000)
                      if len(mix.pick_ports(rng, PROTO_TCP)) == 1)
        assert 0.77 < singles / 3000 < 0.85  # paper: 80.7%

    def test_icmp_has_no_ports(self):
        rng = random.Random(7)
        assert AttackMix().pick_ports(rng, PROTO_ICMP) == ()

    def test_udp_port53_one_third(self):
        rng = random.Random(8)
        mix = AttackMix()
        firsts = [mix.pick_ports(rng, PROTO_UDP)[0] for _ in range(3000)]
        share = firsts.count(PORT_DNS) / len(firsts)
        assert 0.28 < share < 0.39     # paper: ~1/3


class TestGenerateSchedule:
    def test_all_inside_timeline(self, schedule, timeline):
        for attack in schedule:
            assert attack.window.start in timeline

    def test_sorted_by_start(self, schedule):
        starts = [a.window.start for a in schedule]
        assert starts == sorted(starts)

    def test_volume_near_configured(self, schedule):
        # 3 months x 800 +- jitter + hot targets.
        assert 1800 < len(schedule) < 3200

    def test_dns_attacks_present(self, schedule, catalog):
        ns_ips = set(catalog.ns_ip_weights)
        dns = [a for a in schedule if a.victim_ip in ns_ips]
        assert len(dns) > 50

    def test_campaigns_share_windows(self, schedule, catalog):
        # Campaign-mode attacks create same-window sibling attacks.
        ns_ips = set(catalog.ns_ip_weights)
        by_window = {}
        for attack in schedule:
            if attack.victim_ip in ns_ips:
                by_window.setdefault(
                    (attack.window.start, attack.window.end), []).append(attack)
        assert any(len(group) >= 3 for group in by_window.values())

    def test_hot_target_scaled(self, schedule):
        hot = [a for a in schedule if a.victim_ip == 0x08080808]
        # 1000 * scale 0.01 = 10 expected.
        assert 5 <= len(hot) <= 20

    def test_invisible_fraction(self, schedule):
        invisible = sum(1 for a in schedule if not a.telescope_visible)
        share = invisible / len(schedule)
        assert 0.06 < share < 0.20     # INVISIBLE_FRACTION is 0.12

    def test_deterministic(self, timeline, catalog):
        a = generate_schedule(random.Random(9), timeline, catalog, 100, 0.001)
        b = generate_schedule(random.Random(9), timeline, catalog, 100, 0.001)
        assert [(x.victim_ip, x.window.start) for x in a] == \
            [(x.victim_ip, x.window.start) for x in b]

    def test_zero_attacks(self, timeline, catalog):
        schedule = generate_schedule(random.Random(1), timeline,
                                     TargetCatalog(), 0, 0.0001)
        assert schedule == []


class TestConfigValidation:
    def test_catalog_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            TargetCatalog(ns_ip_weights={1: 0.0})
