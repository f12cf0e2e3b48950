#!/usr/bin/env python3
"""The Russian-infrastructure case studies (§5.2): mil.ru and RZD.

Shows the reactive measurement platform (§4.3.1) doing what OpenINTEL's
agnostic daily query cannot: probing *every* nameserver of a domain
every five minutes during an attack and for 24 hours after, so the exact
outage and recovery timeline becomes visible.

Run:  python examples/russian_infrastructure.py
"""

import sys
import time

from repro import ReactiveService, WorldConfig, run_study
from repro.util.tables import Table
from repro.util.timeutil import HOUR, Window, format_ts, parse_ts

MILRU_ATTACK = Window(parse_ts("2022-03-11 10:00"), parse_ts("2022-03-18 20:00"))
RZD_ATTACK = Window(parse_ts("2022-03-08 15:30"), parse_ts("2022-03-08 20:45"))


def availability_overview(store, domain_id, window, step_s, title):
    """Coarse availability table: share of reactive probes answered."""
    table = Table(["interval start", "probes", "answered"], title=title)
    series = store.availability_series(domain_id)
    bucket = window.start
    while bucket < window.end:
        chunk = [(ts, share, n) for ts, share, n in series
                 if bucket <= ts < bucket + step_s]
        if chunk:
            probes = sum(n for _, _, n in chunk)
            answered = sum(share * n for _, share, n in chunk)
            table.add_row([format_ts(bucket), probes,
                           f"{answered / probes:.0%}"])
        bucket += step_s
    return table


def main() -> int:
    config = WorldConfig(
        seed=11,
        start="2022-02-01",
        end_exclusive="2022-04-01",
        n_domains=2000,
        n_selfhosted_providers=20,
        n_filler_providers=10,
        attacks_per_month=200,
    )
    print("running study (Feb-Mar 2022)...", file=sys.stderr)
    t0 = time.time()
    study = run_study(config)
    print(f"done in {time.time() - t0:.1f}s", file=sys.stderr)

    # --- mil.ru ------------------------------------------------------------
    milru = study.world.directory.get_by_name("mil.ru")
    info = study.metadata.info(milru.nsset_id, MILRU_ATTACK.start)
    print(f"\nmil.ru deployment: {len(info.ips)} nameservers, "
          f"{info.n_slash24} x /24, {info.n_asns} ASN, {info.anycast_label} "
          f"- the paper's textbook illustration of poor resilience.\n")

    print("OpenINTEL daily view (paper: complete resolution failure "
          "March 12-16 inclusive):")
    table = Table(["day", "queries", "resolved"])
    day = parse_ts("2022-03-09")
    while day < parse_ts("2022-03-21"):
        agg = study.store.day_aggregate(milru.nsset_id, day)
        if agg:
            table.add_row([format_ts(day)[:10], agg.n, agg.ok_n])
        day += 24 * HOUR
    print(table.render())

    print("\nrunning reactive platform over the mil.ru attack "
          "(probing all 3 nameservers every 5 minutes)...", file=sys.stderr)
    store = ReactiveService(study.world).run(study.feed,
                                             window=MILRU_ATTACK).store
    print(availability_overview(
        store, milru.domain_id, MILRU_ATTACK.expand(after=24 * HOUR),
        12 * HOUR,
        "mil.ru reactive availability (paper: unresolvable for the attack "
        "duration; geofence blackout Mar 12 - Mar 17 06:00)").render())

    # --- RZD ----------------------------------------------------------------
    rzd = study.world.directory.get_by_name("rzd.ru")
    info = study.metadata.info(rzd.nsset_id, RZD_ATTACK.start)
    print(f"\nrzd.ru deployment: {len(info.ips)} nameservers, "
          f"{info.n_slash24} x /24, {info.n_asns} ASN "
          f"(slightly more resilient than mil.ru, but the attacker hit "
          f"all three nameservers).")

    print("\nrunning reactive platform over the RZD attack...", file=sys.stderr)
    store2 = ReactiveService(study.world).run(study.feed,
                                              window=RZD_ATTACK).store
    print(availability_overview(
        store2, rzd.domain_id,
        Window(RZD_ATTACK.start, parse_ts("2022-03-09 12:00")), 2 * HOUR,
        "rzd.ru reactive availability (paper: attack 15:30-20:45 Mar 8; "
        "intermittently responsive from 06:00 Mar 9 - the IT-Army Telegram "
        "call went out at 15:43, 12 min after the RSDoS-inferred start)"
    ).render())

    first = store2.first_responsive_after(rzd.domain_id,
                                          parse_ts("2022-03-08 21:00"))
    if first:
        print(f"\nfirst successful probe after the attack: {format_ts(first)} "
              f"(paper: 06:00 the next morning)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
