"""Per-phase resource profiling: the gauges and the off-by-default
contract (no series, no ``tracemalloc`` when unprofiled)."""

import tracemalloc

import pytest

from repro.obs import PhaseProfiler, RunTelemetry
from repro.obs.profile import cpu_seconds, peak_rss_kb

GAUGE_FAMILIES = ("cpu_s", "peak_rss_kb", "net_alloc_kb", "peak_alloc_kb")


class TestHelpers:
    def test_cpu_seconds_is_monotonic(self):
        a = cpu_seconds()
        sum(i * i for i in range(200_000))
        assert cpu_seconds() >= a

    def test_peak_rss_is_positive_when_available(self):
        rss = peak_rss_kb()
        if rss is not None:
            assert rss > 1024  # a Python process is bigger than 1 MiB


class TestPhaseProfiler:
    @pytest.fixture()
    def registry(self):
        return RunTelemetry.create().registry

    def test_measure_publishes_every_gauge_family(self, registry):
        with PhaseProfiler(registry) as profiler:
            with profiler.measure("crawl"):
                blob = bytearray(256 * 1024)
                del blob
        gauges = registry.snapshot()["gauges"]
        for family in GAUGE_FAMILIES:
            assert f"repro.profile.{family}{{phase=crawl}}" in gauges
        assert gauges["repro.profile.peak_alloc_kb{phase=crawl}"] >= 256

    def test_remeasure_overwrites_not_accumulates(self, registry):
        with PhaseProfiler(registry) as profiler:
            with profiler.measure("join"):
                pass
            first = registry.snapshot()["gauges"][
                "repro.profile.cpu_s{phase=join}"]
            with profiler.measure("join"):
                pass
        second = registry.snapshot()["gauges"][
            "repro.profile.cpu_s{phase=join}"]
        # Last-run figures: the second measurement replaces the first
        # instead of summing into it (both are tiny wall slices).
        assert second < first + 1.0

    def test_exception_still_publishes(self, registry):
        with PhaseProfiler(registry) as profiler:
            with pytest.raises(RuntimeError):
                with profiler.measure("events"):
                    raise RuntimeError("boom")
        assert "repro.profile.cpu_s{phase=events}" in \
            registry.snapshot()["gauges"]

    def test_close_stops_tracemalloc_it_started(self, registry):
        assert not tracemalloc.is_tracing()
        profiler = PhaseProfiler(registry)
        assert tracemalloc.is_tracing()
        profiler.close()
        assert not tracemalloc.is_tracing()

    def test_close_leaves_foreign_tracemalloc_running(self, registry):
        tracemalloc.start()
        try:
            profiler = PhaseProfiler(registry)
            profiler.close()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


class TestZeroOverheadWhenDisabled:
    """Profiling off must mean *nothing* runs: no gauges, no tracing."""

    def test_unprofiled_study_has_no_profile_series(self, tiny_study):
        snap = tiny_study.telemetry.snapshot()
        assert not any(name.startswith("repro.profile.")
                       for name in snap["metrics"]["gauges"])

    def test_unprofiled_study_leaves_tracemalloc_off(self):
        assert not tracemalloc.is_tracing()

    def test_profiled_study_covers_every_pipeline_phase(self):
        from repro import WorldConfig, run_study

        study = run_study(WorldConfig.tiny(), profile=True)
        gauges = study.telemetry.snapshot()["metrics"]["gauges"]
        for phase in ("world", "telescope", "crawl", "join", "events"):
            for family in GAUGE_FAMILIES:
                assert f"repro.profile.{family}{{phase={phase}}}" in gauges

    def test_profiled_outputs_match_unprofiled(self, tiny_study):
        from repro import WorldConfig, run_study

        profiled = run_study(WorldConfig.tiny(), profile=True)
        assert profiled.report() == tiny_study.report()
