#!/usr/bin/env python3
"""End-user impact under caching (§6.3.1's discussion).

The paper notes that whether a resolution failure reaches end users
depends on caching: "a popular domain with a high TTL value may be less
affected than a less popular one." This example runs the cache model
over the March 2021 TransIP attack profile and prints the user-visible
failure share for a grid of (popularity, TTL) configurations — plus the
Moura et al. 2018 result that caching tolerates ~50% loss.

Run:  python examples/enduser_caching.py
"""

from repro.core.enduser import CacheScenario, caching_grid, simulate_enduser_impact
from repro.util.tables import Table, format_pct
from repro.util.timeutil import Window, parse_ts

import random

# The TransIP March 2021 attack shape: 6 hours, ~88% per-refresh failure
# probability at the heavily hit nameservers.
ATTACK = Window(parse_ts("2021-03-01 19:00"), parse_ts("2021-03-02 01:00"))
FAILURE_P = 0.88


def main() -> int:
    grid = caching_grid(seed=42, attack=ATTACK, failure_p=FAILURE_P)
    ttls = sorted({scenario.ttl_s for scenario, _ in grid})
    pops = sorted({scenario.queries_per_hour for scenario, _ in grid})

    table = Table(["queries/hour"] + [f"TTL {ttl}s" for ttl in ttls],
                  title=f"User-visible failure share during a 6h attack "
                        f"(refresh failure probability "
                        f"{format_pct(FAILURE_P, 0)})")
    by_key = {(s.queries_per_hour, s.ttl_s): impact for s, impact in grid}
    for qph in pops:
        row = [f"{qph:g}"]
        for ttl in ttls:
            row.append(format_pct(by_key[(qph, ttl)].failure_share))
        table.add_row(row)
    table.caption = ("paper §6.3.1: a popular domain with a high TTL is "
                     "less affected than an unpopular one")
    print(table.render())

    # Moura et al. 2018: caching absorbs ~50% packet loss almost fully.
    print("\ncache tolerance of partial loss (Moura et al. 2018: caching "
          "lets almost all users tolerate up to ~50% loss):")
    scenario = CacheScenario(queries_per_hour=60.0, ttl_s=3600)
    for loss in (0.25, 0.5, 0.75, 0.95):
        impacts = [simulate_enduser_impact(random.Random(seed), scenario,
                                           ATTACK, failure_p=loss)
                   for seed in range(10)]
        share = sum(i.failure_share for i in impacts) / len(impacts)
        print(f"  {loss:.0%} loss -> {share:6.1%} of user queries fail")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
