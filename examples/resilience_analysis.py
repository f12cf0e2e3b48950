#!/usr/bin/env python3
"""Resilience-technique efficacy (§6.6, Figures 11-13).

Runs the longitudinal study, then stratifies every attack event by the
NSSet's anycast label, AS diversity, and /24 prefix diversity — and also
demonstrates *why* anycast wins, by querying the world's load model
directly: the same attack against a unicast server vs each site of an
anycast deployment.

Run:  python examples/resilience_analysis.py
"""

import sys
import time

from repro import WorldConfig, run_study
from repro.anycast.deployment import AnycastDeployment
from repro.core.resilience import complete_failure_prefix_shares
from repro.util.tables import Table, format_pct
from repro.world.capacity import overload_drop


def mechanism_demo():
    """First principles: one 400 Kpps attack, three deployments."""
    table = Table(["deployment", "per-server load", "drop probability"],
                  title="Why anycast wins: one 400 Kpps attack, "
                        "100 Kpps per server/site")
    attack_pps = 400_000.0
    capacity = 100_000.0

    unicast_util = attack_pps / capacity
    table.add_row(["unicast, 1 server", f"{unicast_util:.1f}x capacity",
                   format_pct(overload_drop(unicast_util))])

    deployment = AnycastDeployment.build(seed=3, n_sites=12,
                                         per_site_capacity_pps=capacity)
    worst = max(deployment.load_at_site(site, attack_pps)
                for site in deployment.sites)
    table.add_row(["anycast, 12 sites (worst catchment)",
                   f"{worst:.2f}x capacity",
                   format_pct(overload_drop(worst))])

    big = AnycastDeployment.build(seed=3, n_sites=30,
                                  per_site_capacity_pps=capacity)
    worst_big = max(big.load_at_site(site, attack_pps) for site in big.sites)
    table.add_row(["anycast, 30 sites (worst catchment)",
                   f"{worst_big:.2f}x capacity",
                   format_pct(overload_drop(worst_big))])
    return table


def strata_table(groups, title, order=None):
    table = Table(["stratum", "events", "median impact", ">=10x", ">=100x",
                   "failing"], title=title)
    labels = order or sorted(groups)
    for label in labels:
        if label not in groups:
            continue
        g = groups[label]
        median = f"{g.median_impact:.2f}x" if g.median_impact else "-"
        table.add_row([g.label, g.n_events, median,
                       format_pct(g.over_10x_share), g.over_100x,
                       format_pct(g.failing_share)])
    return table


def main() -> int:
    print(mechanism_demo().render())

    config = WorldConfig(
        seed=42,
        start="2021-01-01",
        end_exclusive="2021-07-01",
        n_domains=6000,
        attacks_per_month=800,
    )
    print("\nrunning six-month study for the event-level view...",
          file=sys.stderr)
    t0 = time.time()
    study = run_study(config)
    print(f"done in {time.time() - t0:.1f}s: {len(study.events)} events\n",
          file=sys.stderr)

    res = study.resilience
    print(strata_table(
        res.by_anycast,
        "Figure 11 - anycast vs DDoS (paper: anycast impact 1-1.5x, no "
        "anycast NSSet ever saw 100x)",
        order=["anycast", "partial", "unicast"]).render())
    print()
    print(strata_table(
        res.by_asn_count,
        "Figure 12 - AS diversity (paper: no clear protection alone; 81% "
        "of complete failures were single-ASN)").render())
    print()
    print(strata_table(
        res.by_prefix_count,
        "Figure 13 - /24 prefix diversity (paper: a single /24 is the "
        "worst deployment choice; 60% of failing NSSets were "
        "single-prefix)").render())

    shares = complete_failure_prefix_shares(study.events)
    if shares:
        rendered = ", ".join(f"{k}: {format_pct(v)}"
                             for k, v in shares.items())
        print(f"\ncomplete failures by prefix diversity: {rendered} "
              f"(paper: most on one prefix, ~30% on two, ~10% on three+)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
