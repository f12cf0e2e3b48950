#!/usr/bin/env python3
"""Quantifying the telescope's blind spots (§4.3) and the multi-vantage
future direction (§9).

Because we hold the simulation's ground truth, we can measure what the
paper could only discuss: how many attacks the telescope misses entirely
(reflected/unspoofed), how badly it under-estimates multi-vector
attacks, and how often a single measurement vantage point would have
mis-judged an attack on anycast infrastructure because of catchment.

Run:  python examples/telescope_limitations.py
"""

import sys
import time

from repro import WorldConfig, run_study
from repro.core.vantage import masking_analysis
from repro.core.visibility import analyze_visibility
from repro.util.tables import Table, format_pct


def main() -> int:
    config = WorldConfig(
        seed=42,
        start="2021-01-01",
        end_exclusive="2021-07-01",
        n_domains=5000,
        attacks_per_month=800,
    )
    print("running six-month study...", file=sys.stderr)
    t0 = time.time()
    study = run_study(config)
    print(f"done in {time.time() - t0:.1f}s\n", file=sys.stderr)

    # --- visibility oracle ---------------------------------------------------
    report = analyze_visibility(study.world.attacks, study.feed)
    table = Table(["attack class", "detected", "total", "detection rate"],
                  title="Telescope visibility by attack class (§4.3; "
                        "Jonker et al.: ~60% of attacks are randomly "
                        "spoofed, 40% reflected and invisible)")
    for name, (detected, total) in sorted(report.by_class.items()):
        table.add_row([name, detected, total,
                       format_pct(detected / total if total else 0.0)])
    table.caption = (f"overall detection rate "
                     f"{format_pct(report.detection_rate)}")
    print(table.render())

    print()
    if report.multivector_underestimate is not None:
        print(f"multi-vector attacks: telescope sees a median of "
              f"{report.multivector_underestimate:.0%} of the true rate "
              f"(the invisible vector is missed entirely, §6.4's "
              f"under-estimation)")
    if report.pure_spoofed_estimate is not None:
        print(f"pure randomly-spoofed attacks: rate estimated at "
              f"{report.pure_spoofed_estimate:.0%} of truth "
              f"(the x341/60 extrapolation works)")
    if report.duration_coverage is not None:
        print(f"median duration coverage of detected attacks: "
              f"{report.duration_coverage:.0%}")

    # --- multi-vantage masking ------------------------------------------------
    print("\nprobing attacked nameservers from three vantage points "
          "(eu-west, us-east, ap-east)...", file=sys.stderr)
    results = masking_analysis(study.world, study.feed,
                               regions=("eu-west", "us-east", "ap-east"),
                               max_attacks=150)
    disagreements = [r for r in results if r.max_disagreement > 0.3]
    masked = [r for r in results if r.masked_from]
    print(f"\nmulti-vantage view of {len(results)} attacked nameservers:")
    print(f"  vantage disagreement > 30% availability : "
          f"{len(disagreements)} ({len(disagreements) / len(results):.0%})")
    print(f"  attack fully masked from some region    : {len(masked)}")
    if masked:
        example = masked[0]
        obs = {o.region: f"{o.answered_share:.0%}"
               for o in example.observations}
        print(f"  example: availability per region {obs} - a single "
              f"vantage in the healthy region would have called this "
              f"attack harmless (the §4.3 catchment-masking effect)")
    else:
        print("  (none in this run: the study world's anycast tiers are "
              "provisioned to absorb attacks, which is itself the paper's "
              "Figure 11 finding)")

    # First-principles masking demo: a skewed-catchment deployment where
    # only the largest site drowns.
    from repro.anycast.deployment import AnycastDeployment
    from repro.world.capacity import overload_drop

    deployment = AnycastDeployment.build(seed=9, n_sites=5,
                                         per_site_capacity_pps=100_000.0,
                                         skew=0.9)
    attack_pps = 1_200_000.0
    print("\ncatchment masking from first principles: one 1.2 Mpps attack "
          "on a 5-site anycast deployment with skewed catchments:")
    for site in deployment.sites:
        util = deployment.load_at_site(site, attack_pps)
        drop = overload_drop(util)
        verdict = "DROWNED" if drop > 0.5 else ("strained" if drop > 0
                                                else "healthy")
        print(f"  {site.region:10s} catchment {site.catchment_weight:5.1%} "
              f"-> load {util:5.2f}x, drop {drop:5.1%}  [{verdict}]")
    print("  a probe from a 'healthy' region reports the service fine "
          "while users behind the drowned site are dark - the paper's "
          "motivation for multiple vantage points (§9).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
