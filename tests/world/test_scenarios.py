"""Tests for the scripted case-study scenarios (ground-truth side)."""

import pytest

from repro.util.timeutil import HOUR, parse_ts
from repro.world.scenarios import (
    TABLE6_TARGETS,
    TRANSIP_DEC_PPS,
    rate_for_drop,
    transip_campaigns,
    russia_campaigns,
)


class TestRateForDrop:
    def test_inverts_overload_drop(self):
        from repro.world.capacity import overload_drop

        capacity = 50_000.0
        for p in (0.2, 0.5, 0.9):
            rate = rate_for_drop(p, capacity, cost_factor=1.0)
            assert overload_drop(rate / capacity) == pytest.approx(p)

    def test_cost_factor_divides(self):
        assert rate_for_drop(0.5, 100.0, cost_factor=4.0) == \
            rate_for_drop(0.5, 100.0, cost_factor=1.0) / 4.0

    def test_zero_target(self):
        assert rate_for_drop(0.0, 100.0) == 0.0

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            rate_for_drop(1.0, 100.0)


class TestTransipCampaigns:
    @pytest.fixture(scope="class")
    def campaigns(self, tiny_world):
        return transip_campaigns(tiny_world)

    def test_two_campaigns(self, campaigns):
        assert [c.name for c in campaigns] == [
            "transip-december-2020", "transip-march-2021"]

    def test_december_rates_match_table2(self, campaigns):
        dec = campaigns[0]
        rates = sorted((a.total_pps for a in dec.attacks), reverse=True)
        assert rates == sorted(TRANSIP_DEC_PPS, reverse=True)

    def test_march_six_times_december(self, campaigns):
        dec_peak = max(a.total_pps for a in campaigns[0].attacks)
        mar_peak = max(a.total_pps for a in campaigns[1].attacks)
        # Paper: the telescope observed a peak packet rate ~6x greater.
        assert mar_peak / dec_peak == pytest.approx(125 / 21.8, rel=0.05)

    def test_december_aftermath_eight_hours(self, campaigns):
        heavy = max(campaigns[0].attacks, key=lambda a: a.total_pps)
        assert heavy.impairment.aftermath_s == 8 * HOUR

    def test_march_no_aftermath(self, campaigns):
        for attack in campaigns[1].attacks:
            assert attack.impairment.aftermath_s == 0

    def test_attacker_pools_match_table2(self, campaigns):
        pools = sorted((a.spoof_pool_size for a in campaigns[1].attacks),
                       reverse=True)
        assert pools == [7_000_000, 6_190_000, 823_000]

    def test_three_victims_each(self, campaigns, tiny_world):
        transip_ips = set(tiny_world.providers["TransIP"].ns_ips)
        for campaign in campaigns:
            assert {a.victim_ip for a in campaign.attacks} == transip_ips


class TestRussiaCampaigns:
    @pytest.fixture(scope="class")
    def campaigns(self, tiny_world):
        return russia_campaigns(tiny_world)

    def test_milru_eight_days(self, campaigns):
        milru = campaigns[0]
        window = milru.window
        assert window.start == parse_ts("2022-03-11 10:00")
        assert window.end == parse_ts("2022-03-18 20:00")

    def test_milru_blackout_window(self, campaigns):
        attack = campaigns[0].attacks[0]
        blackout = attack.blackout_window()
        assert blackout.start == parse_ts("2022-03-12 00:00")
        assert blackout.end == parse_ts("2022-03-17 06:00")

    def test_milru_telescope_sees_only_modest_vector(self, campaigns):
        attack = campaigns[0].attacks[0]
        assert attack.spoofed_pps < attack.total_pps / 5

    def test_rzd_timing_matches_paper(self, campaigns):
        rzd = campaigns[1]
        window = rzd.window
        assert window.start == parse_ts("2022-03-08 15:30")
        assert window.end == parse_ts("2022-03-08 20:45")

    def test_rzd_blocked_until_six_am(self, campaigns):
        # Overnight blackout ends exactly at 06:00 (§5.2.2); the
        # intermittent phase (aftermath) extends past it.
        attack = campaigns[1].attacks[0]
        blackout = attack.blackout_window()
        assert blackout.start == attack.window.end
        assert blackout.end == parse_ts("2022-03-09 06:00")
        aftermath_end = attack.window.end + attack.impairment.aftermath_s
        assert aftermath_end > blackout.end


class TestTable6Targets:
    def test_targets_match_paper_ladder(self):
        impacts = [impact for _, impact, _ in TABLE6_TARGETS]
        assert impacts == sorted(impacts, reverse=True)
        assert impacts[0] == 348.0 and impacts[-1] == 74.0

    def test_vector_kinds_cover_successful_ports(self):
        # §6.3.1: successful attacks hit 53 most, but port 80 too.
        kinds = [kind for _, _, kind in TABLE6_TARGETS]
        assert kinds.count("tcp80") >= 2
        assert kinds.count("udp53") >= 4

    def test_covers_paper_companies(self):
        names = {name for name, _, _ in TABLE6_TARGETS}
        assert {"NForce B.V.", "Co-Co NL", "Hetzner", "GoDaddy",
                "Linode", "ITandTEL"} <= names

    def test_all_targets_are_providers(self, tiny_world):
        for name, _, _ in TABLE6_TARGETS:
            assert name in tiny_world.providers


class TestCampaignSpoofingVisibility:
    """Per-campaign spoofing mix, and the visibility accounting the
    ``bench_limitations_visibility`` oracle relies on: class membership
    is exactly ``Spoofing.telescope_visible`` over the vectors."""

    @pytest.fixture(scope="class")
    def builders(self, tiny_world):
        from repro.world.scenarios import (failure_case_campaigns,
                                           mega_peak_campaigns,
                                           table6_campaigns)

        return {
            "transip": transip_campaigns(tiny_world),
            "russia": russia_campaigns(tiny_world),
            "failure": failure_case_campaigns(tiny_world),
            "table6": table6_campaigns(tiny_world),
            "mega": mega_peak_campaigns(tiny_world),
        }

    def test_every_campaign_is_telescope_visible(self, builders):
        # Each scripted campaign carries at least one randomly-spoofed
        # vector per attack — the telescope can see all of them.
        for campaigns in builders.values():
            for campaign in campaigns:
                assert campaign.attacks
                for attack in campaign.attacks:
                    assert attack.telescope_visible

    def test_pure_spoofed_campaigns_show_their_full_rate(self, builders):
        for key in ("transip", "failure", "table6", "mega"):
            for campaign in builders[key]:
                for attack in campaign.attacks:
                    assert not attack.is_multi_vector
                    assert attack.spoofed_pps == attack.total_pps

    def test_milru_mixes_visible_and_reflected_vectors(self, builders):
        from repro.attacks.model import Spoofing

        milru, rzd = builders["russia"]
        for attack in milru.attacks:
            spoofings = {v.spoofing for v in attack.vectors}
            assert spoofings == {Spoofing.RANDOM, Spoofing.REFLECTED}
            assert attack.is_multi_vector
            # The severe reflected component is invisible: the darknet
            # sees only the modest randomly-spoofed share.
            assert 0 < attack.spoofed_pps < attack.total_pps
        for attack in rzd.attacks:
            assert attack.spoofed_pps == attack.total_pps

    def test_visibility_class_membership_matches_spoofing(self, builders):
        from repro.core.visibility import _classify

        for campaigns in builders.values():
            for campaign in campaigns:
                for attack in campaign.attacks:
                    name = _classify(attack)
                    if not attack.telescope_visible:
                        assert name == "invisible (reflected/unspoofed)"
                    elif attack.is_multi_vector:
                        assert name == "multi-vector (partially visible)"
                    else:
                        assert name == "randomly spoofed (visible)"

    def test_oracle_accounting_matches_ground_truth(self, tiny_study):
        """The bench_limitations_visibility totals, re-derived: the
        per-class totals in ``analyze_visibility`` must partition the
        schedule exactly as ``Spoofing.telescope_visible`` does."""
        from repro.core.visibility import analyze_visibility

        attacks = tiny_study.world.attacks
        report = analyze_visibility(attacks, tiny_study.feed)
        assert report.n_truth == len(attacks)
        assert sum(total for _, total in report.by_class.values()) \
            == len(attacks)
        n_invisible = sum(1 for a in attacks if not a.telescope_visible)
        n_multi = sum(1 for a in attacks
                      if a.telescope_visible and a.is_multi_vector)
        n_pure = len(attacks) - n_invisible - n_multi
        assert report.by_class.get(
            "invisible (reflected/unspoofed)", (0, 0))[1] == n_invisible
        assert report.by_class.get(
            "multi-vector (partially visible)", (0, 0))[1] == n_multi
        assert report.by_class.get(
            "randomly spoofed (visible)", (0, 0))[1] == n_pure
        # Invisible attacks are (essentially) never detected; visible
        # pure-spoofed ones almost always are — the §4.3 bench gate.
        assert report.class_rate("invisible (reflected/unspoofed)") < 0.05
        assert report.class_rate("randomly spoofed (visible)") > 0.8
