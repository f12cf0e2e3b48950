"""End-to-end reproduction of the Russian case studies (§5.2).

A dedicated world covering February-March 2022: the mil.ru 8-day attack
with its geofence blackout, and the RZD railways attack with overnight
recovery — observed through OpenINTEL, and through the reactive
platform which probes every nameserver.
"""

import pytest

from repro import ReactiveService, WorldConfig, run_study
from repro.util.timeutil import DAY, HOUR, Window, parse_ts


@pytest.fixture(scope="module")
def study():
    config = WorldConfig(
        seed=11,
        start="2022-02-01",
        end_exclusive="2022-04-01",
        n_domains=2000,
        n_selfhosted_providers=20,
        n_filler_providers=10,
        attacks_per_month=200,
    )
    return run_study(config)


MILRU_ATTACK = Window(parse_ts("2022-03-11 10:00"), parse_ts("2022-03-18 20:00"))
RZD_ATTACK = Window(parse_ts("2022-03-08 15:30"), parse_ts("2022-03-08 20:45"))


@pytest.fixture(scope="module")
def rzd_store(study):
    """Reactive probes of the RZD attack, shared by the RZD tests."""
    return ReactiveService(study.world).run(study.feed,
                                            window=RZD_ATTACK).store


class TestMilRu:
    def test_telescope_sees_eight_day_attack(self, study):
        mod_ips = set(study.world.providers["Russian MoD"].ns_ips)
        inferred = [a for a in study.feed.attacks if a.victim_ip in mod_ips]
        assert len(inferred) == 3  # all three nameservers
        for attack in inferred:
            assert attack.duration_s > 7 * DAY

    def test_telescope_intensity_modest(self, study):
        # §5.2.1: the telescope detected only a modest-intensity attack
        # (the severe reflected component is invisible).
        mod_ips = set(study.world.providers["Russian MoD"].ns_ips)
        inferred = [a for a in study.feed.attacks if a.victim_ip in mod_ips]
        ground_truth = [a for a in study.world.attacks
                        if a.victim_ip in mod_ips and a.total_pps > 100_000]
        assert ground_truth  # the severe component exists...
        for attack in inferred:
            # ...but the inferred rate reflects only the visible vector.
            assert attack.inferred_victim_pps() < 100_000

    def test_openintel_fails_march_12_to_16(self, study):
        record = study.world.directory.get_by_name("mil.ru")
        for day_text in ("2022-03-12", "2022-03-13", "2022-03-14",
                         "2022-03-15", "2022-03-16"):
            day = parse_ts(day_text)
            agg = study.store.day_aggregate(record.nsset_id, day)
            assert agg is not None
            assert agg.ok_n == 0, f"mil.ru resolved on {day_text}"

    def test_openintel_resolves_before_attack(self, study):
        record = study.world.directory.get_by_name("mil.ru")
        agg = study.store.day_aggregate(record.nsset_id,
                                        parse_ts("2022-03-05"))
        assert agg is not None and agg.ok_n > 0

    def test_openintel_resolves_after_attack(self, study):
        record = study.world.directory.get_by_name("mil.ru")
        agg = study.store.day_aggregate(record.nsset_id,
                                        parse_ts("2022-03-25"))
        assert agg is not None and agg.ok_n > 0

    def test_cyrillic_twin_fails_too(self, study):
        record = study.world.directory.get_by_name("минобороны.рф")
        agg = study.store.day_aggregate(record.nsset_id,
                                        parse_ts("2022-03-14"))
        assert agg is not None and agg.ok_n == 0

    def test_reactive_sees_unresolvable_blackout(self, study):
        store = ReactiveService(study.world).run(
            study.feed, window=MILRU_ATTACK).store
        record = study.world.directory.get_by_name("mil.ru")
        blackout = Window(parse_ts("2022-03-12 00:00"),
                          parse_ts("2022-03-17 06:00"))
        share = store.unresponsive_share(record.domain_id, blackout)
        # §5.2.1: none of the three nameservers responsive.
        assert share > 0.95

    def test_nameserver_structure(self, study):
        # Three nameservers, one /24, one ASN — the paper's "textbook
        # illustration of poor resilience".
        record = study.world.directory.get_by_name("mil.ru")
        info = study.metadata.info(record.nsset_id, MILRU_ATTACK.start)
        assert len(info.ips) == 3
        assert info.single_prefix
        assert info.single_asn
        assert info.is_unicast


class TestRzd:
    def test_telescope_timing(self, study):
        rzd_ips = set(study.world.providers["RZD"].ns_ips)
        inferred = [a for a in study.feed.attacks if a.victim_ip in rzd_ips]
        assert inferred
        for attack in inferred:
            # 5-minute window quantization around the paper's 15:30-20:45.
            assert abs(attack.start - RZD_ATTACK.start) <= 600
            assert abs(attack.end - RZD_ATTACK.end) <= 600

    def test_unresolvable_during_attack(self, study, rzd_store):
        record = study.world.directory.get_by_name("rzd.ru")
        share = rzd_store.unresponsive_share(record.domain_id, RZD_ATTACK)
        # Nine probes land in each 5-minute bucket (three campaigns x
        # three nameservers), so even a ~99.5% per-probe drop rate leaks
        # an answer into a few buckets; "unresolvable" here means the
        # overwhelming majority of buckets saw no answer at all.
        assert share > 0.85

    def test_recovery_at_six_am(self, study, rzd_store):
        # §5.2.2: the domain became intermittently responsive at 06:00
        # the next morning.
        record = study.world.directory.get_by_name("rzd.ru")
        first = rzd_store.first_responsive_after(
            record.domain_id, parse_ts("2022-03-08 21:00"))
        assert first is not None
        recovery = parse_ts("2022-03-09 06:00")
        assert recovery - 2 * HOUR <= first <= recovery + HOUR

    def test_two_prefixes_one_asn(self, study):
        record = study.world.directory.get_by_name("rzd.ru")
        info = study.metadata.info(record.nsset_id, RZD_ATTACK.start)
        assert info.n_slash24 == 2   # slightly more resilient than mil.ru
        assert info.single_asn


class TestBeeline:
    def test_march_attacks_on_beeline(self, study):
        beeline_ips = set(study.world.providers["Beeline RU"].ns_ips)
        inferred = [a for a in study.feed.attacks
                    if a.victim_ip in beeline_ips]
        # The scripted March-2022 series (§6.1's Russian banking DNS).
        assert len(inferred) >= 3


class TestNicRu:
    def test_complete_failure_event(self, study):
        # §6.3.1: the most effective large-infrastructure attack caused
        # 100% resolution failure at nic.ru.
        nicru_events = [e for e in study.events if e.company == "nic.ru"]
        assert nicru_events
        worst = max(nicru_events, key=lambda e: e.failure_rate)
        assert worst.failure_rate > 0.95
