"""Ablation: the §4.1 baseline window choice (day vs week vs month).

Paper: "We evaluated using different time-window metrics as a baseline
(e.g., Average RTT (Week/Month Before)) finding similar results." This
bench reproduces that evaluation: per-event impact under each baseline
horizon correlates strongly across choices.
"""

import math

from repro.core.events import EVENT_MIN_DOMAINS, events_for_attack
from repro.util.stats import pearson
from repro.util.tables import Table


def regenerate(study):
    impacts = {"day": [], "week": [], "month": []}
    for classified in study.join.dns_direct_attacks:
        per_kind = {}
        for kind in impacts:
            events = events_for_attack(classified, study.store,
                                       study.metadata, EVENT_MIN_DOMAINS,
                                       baseline_kind=kind)
            per_kind[kind] = {e.nsset_id: e.impact for e in events
                              if e.impact is not None}
        shared = set(per_kind["day"]) & set(per_kind["week"]) \
            & set(per_kind["month"])
        for nsset_id in shared:
            for kind in impacts:
                impacts[kind].append(per_kind[kind][nsset_id])
    return impacts


def test_ablation_baseline_window(benchmark, study, emit):
    impacts = benchmark.pedantic(regenerate, args=(study,),
                                 rounds=1, iterations=1)

    logs = {kind: [math.log10(max(v, 1e-3)) for v in values]
            for kind, values in impacts.items()}
    r_day_week = pearson(logs["day"], logs["week"])
    r_day_month = pearson(logs["day"], logs["month"])

    table = Table(["baseline pair", "Pearson r (log impact)",
                   "paper expectation"],
                  title="Ablation - Impact_on_RTT baseline window (§4.1)")
    table.add_row(["day vs week", f"{r_day_week:+.3f}", "similar results"])
    table.add_row(["day vs month", f"{r_day_month:+.3f}", "similar results"])
    table.caption = (f"{len(impacts['day'])} events with all three "
                     f"baselines computable")
    emit("ablation_baseline_window", table.render())

    assert len(impacts["day"]) > 10
    # The paper's claim: baseline choice barely matters.
    assert r_day_week > 0.9
    assert r_day_month > 0.9
