"""§5.2 case studies: mil.ru and RZD railways, end to end.

Paper: mil.ru — 8-day attack (Mar 11-18, 2022), modest telescope
intensity, complete OpenINTEL resolution failure Mar 12-16, reactive
probes find all three nameservers unresponsive; RZD — attack Mar 8
15:30-20:45, intermittently responsive from 06:00 next morning.
"""

from repro import ReactiveService
from repro.util.tables import Table
from repro.util.timeutil import DAY, HOUR, Window, format_ts, parse_ts

MILRU_ATTACK = Window(parse_ts("2022-03-11 10:00"), parse_ts("2022-03-18 20:00"))
MILRU_BLACKOUT = Window(parse_ts("2022-03-12 00:00"), parse_ts("2022-03-17 06:00"))
RZD_ATTACK = Window(parse_ts("2022-03-08 15:30"), parse_ts("2022-03-08 20:45"))


def regenerate(study):
    milru = study.world.directory.get_by_name("mil.ru")
    rzd = study.world.directory.get_by_name("rzd.ru")

    daily = []
    day = parse_ts("2022-03-10")
    while day < parse_ts("2022-03-20"):
        agg = study.store.day_aggregate(milru.nsset_id, day)
        daily.append((day, agg.ok_n if agg else 0, agg.n if agg else 0))
        day += DAY

    store = ReactiveService(study.world).run(
        study.feed, window=Window(RZD_ATTACK.start, MILRU_ATTACK.end)).store
    milru_unresponsive = store.unresponsive_share(milru.domain_id,
                                                  MILRU_BLACKOUT)
    rzd_first = store.first_responsive_after(rzd.domain_id,
                                             parse_ts("2022-03-08 21:00"))
    return daily, milru_unresponsive, rzd_first


def test_case_russia(benchmark, russia_study, emit):
    daily, milru_unresponsive, rzd_first = benchmark.pedantic(
        regenerate, args=(russia_study,), rounds=1, iterations=1)

    table = Table(["day", "mil.ru queries", "resolved"],
                  title="mil.ru OpenINTEL daily view (paper: complete "
                        "failure March 12-16 inclusive)")
    for day, ok, n in daily:
        table.add_row([format_ts(day)[:10], n, ok])
    lines = [
        table.render(), "",
        f"mil.ru reactive unresponsive share during geofence blackout: "
        f"{milru_unresponsive:.0%} (paper: all three nameservers dead)",
        f"rzd.ru first responsive probe after attack: "
        f"{format_ts(rzd_first) if rzd_first else 'never'} "
        f"(paper: ~06:00 March 9)",
    ]
    emit("case_russia", "\n".join(lines))

    # OpenINTEL: zero resolutions March 12-16, recovery after.
    failures = {format_ts(day)[:10]: ok for day, ok, _ in daily}
    for day_text in ("2022-03-12", "2022-03-13", "2022-03-14",
                     "2022-03-15", "2022-03-16"):
        assert failures[day_text] == 0
    assert failures["2022-03-19"] > 0
    # Reactive: unresolvable through the blackout.
    assert milru_unresponsive > 0.95
    # RZD recovery at ~06:00 next morning.
    assert rzd_first is not None
    recovery = parse_ts("2022-03-09 06:00")
    assert recovery - 2 * HOUR <= rzd_first <= recovery + HOUR
