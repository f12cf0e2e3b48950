"""Ablation: the >=5-measured-domains event threshold (§6.3).

The paper filters events to NSSets with at least five domains measured
during the attack window "to reduce possible sources of noise". This
bench quantifies the trade-off: lower thresholds admit more (noisier)
events; higher thresholds progressively discard small-deployment events
— the ones where the failures live.
"""

from repro.core.events import extract_events
from repro.util.tables import Table


def regenerate(study):
    out = {}
    for threshold in (1, 3, 5, 10, 25):
        events = extract_events(study.join, study.store, study.metadata,
                                min_domains=threshold)
        failing = sum(1 for e in events if e.has_failures)
        small = sum(1 for e in events if e.info.n_domains < 50)
        out[threshold] = (len(events), failing, small)
    return out


def test_ablation_event_threshold(benchmark, study, emit):
    results = benchmark.pedantic(regenerate, args=(study,),
                                 rounds=1, iterations=1)

    table = Table(["min domains", "events", "failing events",
                   "small-NSSet events (<50 domains)"],
                  title="Ablation - event threshold (§6.3; paper uses 5)")
    for threshold, (n, failing, small) in sorted(results.items()):
        table.add_row([threshold, n, failing, small])
    emit("ablation_event_threshold", table.render())

    counts = [results[t][0] for t in sorted(results)]
    # Monotone: stricter thresholds keep fewer events.
    assert counts == sorted(counts, reverse=True)
    # The paper's threshold of 5 retains a solid event population...
    assert results[5][0] > 50
    # ...while the strictest threshold loses the small-deployment
    # events (which carry the §6.3.1 failures).
    assert results[25][2] < results[5][2]
