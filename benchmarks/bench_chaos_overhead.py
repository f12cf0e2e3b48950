"""Chaos-layer overhead: disabled fault injection must cost <5%.

The fault injector's contract is "pay only when you play": with a null
policy, ``wrap_transport`` returns the original callable (zero
overhead), and even the *armed* wrapper (``force=True``) — every fault
probability zero but the per-call checks still executed — must stay
under 5% on the pipeline's hot path. This bench prices both by running
the reactive service (transport-bound: one transport call per probe)
over the TransIP window with each transport variant passed as its
``transport=``.
"""

import time

from repro import ChaosConfig, ReactiveService
from repro.chaos import FaultInjector
from repro.util.tables import Table
from repro.util.timeutil import Window, parse_ts

TRANSIP_MARCH = Window(parse_ts("2021-03-01 18:00"), parse_ts("2021-03-02 04:00"))

#: acceptance bound on disabled-chaos overhead (the ISSUE criterion).
MAX_OVERHEAD = 0.05
#: noise-tolerant sanity bound on the always-armed wrapper.
MAX_ARMED_OVERHEAD = 0.15
ROUNDS = 5


def _run_service(study, transport):
    service = ReactiveService(study.world, transport=transport)
    return service.run(study.feed, window=TRANSIP_MARCH).store


def measure(study):
    plain = study.world.transport
    injector = FaultInjector(ChaosConfig(seed=0))
    disabled = injector.wrap_transport(plain)            # null -> unwrapped
    armed = injector.wrap_transport(plain, force=True)   # wrapper, zero probs

    # Arms run back-to-back within each round, and overhead is the
    # *median of per-round ratios*: slow CPU phases (container
    # throttling) hit all arms of a round alike and cancel in the
    # ratio, where a min-per-arm across rounds would compare different
    # moments in time.
    times = {"plain": [], "disabled": [], "armed": []}
    stores = {}
    for _ in range(ROUNDS):
        for name, transport in (("plain", plain), ("disabled", disabled),
                                ("armed", armed)):
            t0 = time.perf_counter()
            stores[name] = _run_service(study, transport)
            times[name].append(time.perf_counter() - t0)

    def median_ratio(name):
        ratios = sorted(t / p for t, p in zip(times[name], times["plain"]))
        return ratios[len(ratios) // 2]

    return {
        "plain": min(times["plain"]),
        "disabled": min(times["disabled"]),
        "armed": min(times["armed"]),
        "overhead_disabled": median_ratio("disabled") - 1.0,
        "overhead_armed": median_ratio("armed") - 1.0,
        "identical_disabled": disabled is plain,
        "n_probes": len(stores["plain"].probes),
        # The raw world transport is stateful: repeated runs share its
        # RNG stream, so exact probe samples differ run-to-run (see
        # architecture.md on determinism); only the *volume* is comparable.
        "probe_spread": (max(len(s.probes) for s in stores.values())
                         / min(len(s.probes) for s in stores.values()) - 1.0),
        "faults": len(injector.events),
    }


def render(result):
    table = Table(["transport variant", "best of %d (s)" % ROUNDS,
                   "overhead (median of paired rounds)"],
                  title="Chaos layer overhead (reactive service, "
                        f"{result['n_probes']} probes)")
    table.add_row(["plain", f"{result['plain']:.3f}", "+0.0%"])
    for name in ("disabled", "armed"):
        table.add_row([name, f"{result[name]:.3f}",
                       f"{result['overhead_' + name]:+.1%}"])
    return table.render()


def test_chaos_overhead(transip_study, emit, emit_json):
    result = measure(transip_study)
    emit("chaos_overhead", render(result))
    emit_json("chaos_overhead", {
        "plain_s": result["plain"],
        "disabled_s": result["disabled"],
        "armed_s": result["armed"],
        "overhead_disabled": result["overhead_disabled"],
        "overhead_armed": result["overhead_armed"],
        "n_probes": result["n_probes"],
    })

    # Null policy short-circuits to the unwrapped callable, so disabled
    # chaos must sit inside the 5% acceptance bound (any excess is
    # measurement noise on an identical code path).
    assert result["identical_disabled"]
    assert result["overhead_disabled"] < MAX_OVERHEAD
    # The armed wrapper does real per-call work; it lands ~4% in
    # isolation, bounded looser here to tolerate shared-run noise.
    assert result["overhead_armed"] < MAX_ARMED_OVERHEAD
    # Zero probabilities: no faults fired, probe volume unchanged (the
    # exact samples legitimately drift with the shared RNG stream).
    assert result["faults"] == 0
    assert result["probe_spread"] < 0.02


if __name__ == "__main__":  # standalone: python benchmarks/bench_chaos_overhead.py
    from repro import WorldConfig, run_study

    study = run_study(WorldConfig(
        seed=7, start="2020-11-01", end_exclusive="2021-04-01",
        n_domains=2500, n_selfhosted_providers=20, n_filler_providers=10,
        attacks_per_month=200))
    result = measure(study)
    print(render(result))
    disabled = result["overhead_disabled"]
    armed = result["overhead_armed"]
    print(f"\ndisabled overhead: {disabled:+.1%} (bound {MAX_OVERHEAD:.0%}, "
          f"identical callable: {result['identical_disabled']}); "
          f"armed wrapper: {armed:+.1%} (bound {MAX_ARMED_OVERHEAD:.0%})")
    raise SystemExit(0 if disabled < MAX_OVERHEAD
                     and armed < MAX_ARMED_OVERHEAD else 1)
