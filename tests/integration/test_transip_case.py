"""End-to-end reproduction of the TransIP case study (§5.1).

Uses a dedicated world covering November 2020 - March 2021 so both the
December and the March attack fall inside the window with a measured
baseline before each.
"""

import pytest

from repro import WorldConfig, run_study
from repro.core.metrics import impact_series
from repro.telescope.feed import ppm_to_victim_pps
from repro.util.timeutil import Window, parse_ts


@pytest.fixture(scope="module")
def study():
    config = WorldConfig(
        seed=7,
        start="2020-11-01",
        end_exclusive="2021-04-01",
        n_domains=2500,
        n_selfhosted_providers=20,
        n_filler_providers=10,
        attacks_per_month=200,
    )
    return run_study(config)


@pytest.fixture(scope="module")
def transip_nsset(study):
    record = next(d for d in study.world.directory.domains
                  if d.provider_name == "TransIP" and not d.misconfig
                  and d.secondary_provider is None)
    return record.nsset_id


DEC_WINDOW = Window(parse_ts("2020-11-30 22:00"), parse_ts("2020-12-01 12:30"))
MAR_WINDOW = Window(parse_ts("2021-03-01 19:00"), parse_ts("2021-03-02 01:00"))


class TestTelescopeView:
    def test_both_attacks_inferred(self, study):
        transip_ips = set(study.world.providers["TransIP"].ns_ips)
        dec = [a for a in study.feed.attacks
               if a.victim_ip in transip_ips
               and DEC_WINDOW.contains(a.start)]
        mar = [a for a in study.feed.attacks
               if a.victim_ip in transip_ips
               and MAR_WINDOW.contains(a.start)]
        assert len(dec) == 3   # A, B, C all visible (Table 2)
        assert len(mar) == 3

    def test_december_rate_extrapolation(self, study):
        # Table 2: nameserver A at 21.8 Kppm -> 124 Kpps.
        transip_ips = set(study.world.providers["TransIP"].ns_ips)
        dec = [a for a in study.feed.attacks
               if a.victim_ip in transip_ips and DEC_WINDOW.contains(a.start)]
        peak = max(a.max_ppm for a in dec)
        assert ppm_to_victim_pps(peak) == pytest.approx(124_000, rel=0.2)
        assert peak == pytest.approx(21_800, rel=0.2)

    def test_march_six_times_stronger(self, study):
        transip_ips = set(study.world.providers["TransIP"].ns_ips)
        dec_peak = max(a.max_ppm for a in study.feed.attacks
                       if a.victim_ip in transip_ips
                       and DEC_WINDOW.contains(a.start))
        mar_peak = max(a.max_ppm for a in study.feed.attacks
                       if a.victim_ip in transip_ips
                       and MAR_WINDOW.contains(a.start))
        assert 3.5 < mar_peak / dec_peak < 9.0   # paper: ~6x

    def test_attacker_ip_counts_magnitude(self, study):
        # Table 2: attacker IP counts in the millions.
        transip_ips = set(study.world.providers["TransIP"].ns_ips)
        mar = [a for a in study.feed.attacks
               if a.victim_ip in transip_ips and MAR_WINDOW.contains(a.start)]
        counts = sorted((a.inferred_attacker_ips() for a in mar), reverse=True)
        assert counts[0] == pytest.approx(7_000_000, rel=0.25)
        assert counts[-1] == pytest.approx(823_000, rel=0.25)


class TestOpenIntelView:
    def test_december_rtt_impairment(self, study, transip_nsset):
        # Paper: OpenINTEL measured a ~10x increase in resolution time.
        series = impact_series(study.store, transip_nsset, DEC_WINDOW)
        assert series.max_impact is not None
        assert series.max_impact > 5.0

    def test_december_negligible_timeouts(self, study, transip_nsset):
        series = impact_series(study.store, transip_nsset, DEC_WINDOW)
        # Paper Figure 3: a negligible fraction in December...
        assert series.failure_rate < 0.08

    def test_march_timeouts_near_twenty_percent(self, study, transip_nsset):
        series = impact_series(study.store, transip_nsset, MAR_WINDOW)
        # ...but ~20% during the March attack.
        assert 0.08 < series.failure_rate < 0.40

    def test_december_aftermath_persists(self, study, transip_nsset):
        # Paper Figure 2: impairment persisted ~8h past the attack on A
        # (which ends at midnight in our scenario).
        aftermath = Window(parse_ts("2020-12-01 01:00"),
                           parse_ts("2020-12-01 07:00"))
        series = impact_series(study.store, transip_nsset, aftermath)
        assert series.max_impact is not None
        assert series.max_impact > 2.0

    def test_december_impairment_ends_by_morning(self, study, transip_nsset):
        recovered = Window(parse_ts("2020-12-01 09:00"),
                           parse_ts("2020-12-01 12:00"))
        series = impact_series(study.store, transip_nsset, recovered)
        if series.max_impact is not None:
            assert series.max_impact < 3.0

    def test_march_impact_confined_to_telescope_window(self, study,
                                                       transip_nsset):
        # Paper: in March the impact window matched the telescope window.
        after = Window(parse_ts("2021-03-02 02:00"),
                       parse_ts("2021-03-02 08:00"))
        series = impact_series(study.store, transip_nsset, after)
        if series.max_impact is not None:
            assert series.max_impact < 3.0

    def test_march_worse_than_december(self, study, transip_nsset):
        dec = impact_series(study.store, transip_nsset, DEC_WINDOW)
        mar = impact_series(study.store, transip_nsset, MAR_WINDOW)
        assert mar.failure_rate > dec.failure_rate


class TestJoinView:
    def test_affected_domains_share(self, study):
        # TransIP hosts ~4% of the population; the paper's 776K domains
        # were ~8% of .nl + others. Shape check: the join attributes a
        # substantial domain count to the attack.
        transip_ips = set(study.world.providers["TransIP"].ns_ips)
        affected = max(c.affected_domains
                       for c in study.join.dns_direct_attacks
                       if c.victim_ip in transip_ips)
        assert affected > len(study.world.directory) * 0.02

    def test_nl_domains_two_thirds(self, study):
        transip = [d for d in study.world.directory.domains
                   if d.provider_name == "TransIP" and not d.misconfig]
        nl_share = sum(1 for d in transip if d.tld == "nl") / len(transip)
        assert 0.5 < nl_share < 0.8   # paper: ~two-thirds

    def test_third_party_web_share(self, study):
        transip = [d for d in study.world.directory.domains
                   if d.provider_name == "TransIP" and not d.misconfig]
        share = sum(1 for d in transip if d.third_party_web) / len(transip)
        assert 0.18 < share < 0.36    # paper §5.1.1: ~27%
