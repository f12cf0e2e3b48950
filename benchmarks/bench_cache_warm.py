"""Cold vs warm study through the artifact cache: wall time and hits.

The phase cache exists to make the second run of a study cheap: the
telescope, crawl, join, and event-extraction phases are fetched by
fingerprint instead of recomputed, leaving only the world build and the
lazy analyses. This bench times a cold run (populating a fresh cache
directory) against a warm run of the same config and asserts the
tentpole contract along the way: the warm report is byte-identical to
the cold one, and every phase hits.

The speedup floor is deliberately modest (>= 1.2x): the warm run still
rebuilds the world — the cache deliberately stores measurement products,
not ground truth — so the ratio is bounded by the world-build share of
the wall clock, which varies with host and scale. In the recorded
baseline (2-CPU host, 20,000 domains) the warm run took 0.81 s against
a 26.3 s cold run: 0.78 s of world build (no attack index: a fully
cached run never builds it), 0.03 s for the four fetches, and the
lazy analyses. The ``repro.store.*`` gauges this bench's telemetry
publishes are counted from the crawl artifact's header, so no
aggregate table is built. The warm run's span tree is saved with the
snapshot. ``REPRO_BENCH_DOMAINS`` shrinks the world (CI runs this
script standalone at 2000 domains, where it exits non-zero on a miss,
a warm/cold report diff or a speedup under the floor).
"""

import os
import shutil
import tempfile
import time

from repro import WorldConfig, run_study
from repro.obs import RunTelemetry
from repro.util.tables import Table

#: acceptance floor for the warm/cold wall-time ratio.
MIN_WARM_SPEEDUP = 1.2

# One month at default scale: the same crawl-dominated profile as the
# full 17-month run, at a bench-friendly wall clock. REPRO_BENCH_DOMAINS
# shrinks it for CI, as it does the shared bench study.
BENCH_WORLD = WorldConfig(
    seed=42, start="2021-03-01", end_exclusive="2021-04-01",
    n_domains=int(os.environ.get("REPRO_BENCH_DOMAINS", "20000")))


def _timed_run(cache_dir):
    telemetry = RunTelemetry.create()
    t0 = time.perf_counter()
    study = run_study(BENCH_WORLD, cache=cache_dir, telemetry=telemetry)
    elapsed = time.perf_counter() - t0
    counters = telemetry.snapshot()["metrics"]["counters"]
    hits = sum(v for k, v in counters.items()
               if k.startswith("repro.cache.hits"))
    return study, elapsed, hits, telemetry


def measure(cache_dir):
    """Run the same study cold then warm against one cache directory."""
    cold, cold_s, cold_hits, _ = _timed_run(cache_dir)
    warm, warm_s, warm_hits, warm_telemetry = _timed_run(cache_dir)
    return {
        "cold_s": cold_s, "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s else float("inf"),
        "cold_hits": cold_hits, "warm_hits": warm_hits,
        "identical": warm.report() == cold.report(),
        "n_measurements": cold.store.n_measurements,
        "warm_telemetry": warm_telemetry,
    }


def render(result):
    table = Table(
        ["run", "wall time (s)", "phase hits", "report == cold"],
        title=f"Warm-cache study ({result['n_measurements']} measurements, "
              f"{result['speedup']:.2f}x speedup)")
    table.add_row(["cold", f"{result['cold_s']:.2f}",
                   result["cold_hits"], "-"])
    table.add_row(["warm", f"{result['warm_s']:.2f}", result["warm_hits"],
                   "yes" if result["identical"] else "NO"])
    return table.render()


def test_cache_warm_speedup(tmp_path_factory, emit, emit_json):
    cache_dir = str(tmp_path_factory.mktemp("bench-cache"))
    result = measure(cache_dir)
    emit("cache_warm", render(result))
    emit_json("cache_warm", {
        "wall_s_cold": result["cold_s"],
        "wall_s_warm": result["warm_s"],
        "speedup": result["speedup"],
        "warm_hits": result["warm_hits"],
        "n_measurements": result["n_measurements"],
    }, telemetry=result["warm_telemetry"])

    # The contract is unconditional; the wall-clock floor is the bench.
    assert result["identical"]
    assert result["cold_hits"] == 0
    assert result["warm_hits"] == 4
    assert result["speedup"] >= MIN_WARM_SPEEDUP


if __name__ == "__main__":  # standalone: python benchmarks/bench_cache_warm.py
    cache_dir = tempfile.mkdtemp(prefix="bench-cache-")
    try:
        result = measure(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(render(result))
    ok = (result["identical"] and result["warm_hits"] == 4
          and result["speedup"] >= MIN_WARM_SPEEDUP)
    print(f"\nwarm speedup: {result['speedup']:.2f}x "
          f"(floor {MIN_WARM_SPEEDUP}x)")
    raise SystemExit(0 if ok else 1)
