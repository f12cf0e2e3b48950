"""Figure 2: RTT variation around the two TransIP attacks.

Paper: December's impairment (~10x RTT) persisted ~8 hours past the
RSDoS-inferred end of the attack; the March attack induced larger
impairments whose window matched the telescope window.
"""

from repro.core.metrics import impact_series
from repro.util.plot import ascii_series
from repro.util.tables import Table
from repro.util.timeutil import Window, parse_ts

DEC_ATTACK = Window(parse_ts("2020-11-30 22:00"), parse_ts("2020-12-01 00:00"))
DEC_AFTERMATH = Window(parse_ts("2020-12-01 01:00"), parse_ts("2020-12-01 07:00"))
DEC_RECOVERED = Window(parse_ts("2020-12-01 09:00"), parse_ts("2020-12-01 12:00"))
MAR_ATTACK = Window(parse_ts("2021-03-01 19:00"), parse_ts("2021-03-02 01:00"))
MAR_AFTER = Window(parse_ts("2021-03-02 02:00"), parse_ts("2021-03-02 08:00"))


def _primary_nsset(study):
    record = next(d for d in study.world.directory.domains
                  if d.provider_name == "TransIP" and not d.misconfig
                  and d.secondary_provider is None)
    return record.nsset_id


def regenerate(study):
    nsset_id = _primary_nsset(study)
    return {name: impact_series(study.store, nsset_id, window)
            for name, window in (("dec_attack", DEC_ATTACK),
                                 ("dec_aftermath", DEC_AFTERMATH),
                                 ("dec_recovered", DEC_RECOVERED),
                                 ("mar_attack", MAR_ATTACK),
                                 ("mar_after", MAR_AFTER))}


def test_fig2_transip_rtt(benchmark, transip_study, emit):
    series = benchmark(regenerate, transip_study)

    table = Table(["phase", "paper expectation", "measured max impact",
                   "measured mean impact"],
                  title="Figure 2 - TransIP RTT impact by phase")
    expectations = {
        "dec_attack": "~10x during attack",
        "dec_aftermath": "impairment persists ~8h past attack",
        "dec_recovered": "recovered by late morning",
        "mar_attack": "larger impairment than December",
        "mar_after": "impact window matches telescope window",
    }
    for name, s in series.items():
        mx = f"{s.max_impact:.1f}x" if s.max_impact else "-"
        mean = f"{s.mean_impact:.1f}x" if s.mean_impact else "-"
        table.add_row([name, expectations[name], mx, mean])
    mar_points = [(p.ts, p.impact) for p in series["mar_attack"].points
                  if p.impact is not None]
    chart = ascii_series(
        mar_points, width=64, height=12, log_y=True,
        title="Figure 2 shape - March attack Impact_on_RTT per 5-min bucket")
    emit("fig2_transip_rtt", table.render() + "\n\n" + chart)

    # December: significant impairment during the attack...
    assert series["dec_attack"].mean_impact > 5
    # ...that persists into the aftermath hours (the paper's 8-hour tail)...
    assert series["dec_aftermath"].max_impact is not None
    assert series["dec_aftermath"].max_impact > 2
    # ...and is gone by late morning.
    recovered = series["dec_recovered"].max_impact
    assert recovered is None or recovered < 3
    # March is worse than December...
    assert series["mar_attack"].mean_impact > series["dec_attack"].mean_impact
    # ...but confined to the telescope-visible window (scrubbing, no tail).
    after = series["mar_after"].max_impact
    assert after is None or after < 3
