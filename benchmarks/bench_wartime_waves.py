"""Wartime pack: the correlated attack-wave timeline.

Generalizes the paper's §5.2 case studies (mil.ru, RZD): after
February 2022, attacks on one country's organizations arrived in
correlated waves. The bench runs the wartime pack over a two-month
window and reports the per-wave timeline — attacks, distinct target
organizations, telescope-visible share — the campaign-scale version of
the §4.3 visibility split.
"""

import dataclasses

from repro import WorldConfig, run_study
from repro.attacks.wartime import REFLECTED_SHARE, WartimeParams
from repro.util.tables import Table, format_pct
from repro.util.timeutil import format_ts

WAR_CONFIG = dataclasses.replace(
    WorldConfig(
        seed=31, start="2022-02-01", end_exclusive="2022-04-01",
        n_domains=900, n_selfhosted_providers=24, n_filler_providers=10,
        attacks_per_month=120),
    scenario_pack="wartime",
    pack_params=WartimeParams(start_day=20))


def regenerate():
    study = run_study(WAR_CONFIG)
    return study, study.pack_analysis()


def test_wartime_waves(benchmark, emit, emit_json):
    study, analysis = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    table = Table(["wave", "starts", "attacks", "orgs",
                   "telescope-visible"],
                  title=f"Wartime waves against "
                        f"{analysis.target_country} organizations")
    for wave in analysis.waves:
        share = (wave.spoofed_visible / wave.n_attacks
                 if wave.n_attacks else 0.0)
        table.add_row([wave.index + 1, format_ts(wave.start),
                       wave.n_attacks, wave.n_orgs,
                       f"{wave.spoofed_visible} ({format_pct(share)})"])
    table.caption = (f"{analysis.n_attacks} wave attacks total; "
                     f"reflected share configured at "
                     f"{REFLECTED_SHARE:.0%}")
    emit("wartime_waves", table.render())

    visible = sum(w.spoofed_visible for w in analysis.waves)
    emit_json("wartime_waves", {
        "n_waves": len(analysis.waves),
        "n_attacks": analysis.n_attacks,
        "n_visible": visible,
        "visible_share": round(visible / analysis.n_attacks, 4),
        "min_orgs_per_wave": min(w.n_orgs for w in analysis.waves),
    })

    # Three waves, every one of them landing on several organizations
    # at once — that correlation is the pack's point.
    assert len(analysis.waves) == 3
    for wave in analysis.waves:
        assert wave.n_attacks > 0
        assert wave.n_orgs >= 3
    # The visibility mix straddles the telescope boundary: part of the
    # campaign is invisible (reflected), like mil.ru's severe vector.
    assert 0 < visible < analysis.n_attacks
