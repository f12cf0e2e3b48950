"""End-to-end chaos runs of the Figure-1 pipeline.

The acceptance contract for the fault-injection layer: under moderate
chaos the full study completes without crashing, poison records land on
the dead-letter topic with metadata, impaired analyses are *flagged*
(never silently wrong, never NaN), and with every fault probability at
zero the run is byte-identical to a clean one.
"""

import math

import pytest

from repro import ChaosConfig, WorldConfig, run_study
from repro.chaos import FaultPolicy
from repro.obs import RunTelemetry
from repro.streaming import DeadLetter

# Two months / 1500 domains: big enough for a dozen events, small
# enough that a handful of chaos runs stays in CI budget.
CONFIG = WorldConfig(
    seed=42,
    start="2021-03-01",
    end_exclusive="2021-05-01",
    n_domains=1500,
    n_selfhosted_providers=25,
    n_filler_providers=10,
    attacks_per_month=400,
)

CHAOS_SEEDS = [1, 2, 3]


@pytest.fixture(scope="module")
def clean_study():
    return run_study(CONFIG)


@pytest.fixture(scope="module", params=CHAOS_SEEDS,
                ids=[f"seed-{s}" for s in CHAOS_SEEDS])
def chaos_study(request):
    chaos = ChaosConfig.preset("moderate", seed=request.param)
    return run_study(CONFIG, chaos=chaos)


def _walk_floats(obj, path="", out=None):
    """Collect every float reachable from an analysis object."""
    if out is None:
        out = []
    if isinstance(obj, float):
        out.append((path, obj))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _walk_floats(value, f"{path}[{key!r}]", out)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _walk_floats(value, f"{path}[{i}]", out)
    elif hasattr(obj, "__dict__"):
        for key, value in vars(obj).items():
            _walk_floats(value, f"{path}.{key}", out)
    return out


class TestChaosRunSurvives:
    def test_completes_and_injects(self, chaos_study):
        assert chaos_study.chaos is not None
        assert chaos_study.chaos.events, "moderate chaos must inject faults"
        assert chaos_study.events, "chaos must not wipe out all events"

    def test_event_counts_comparable_to_clean(self, clean_study, chaos_study):
        clean_n = len(clean_study.events)
        chaos_n = len(chaos_study.events)
        # Feed drops/poison can lose events, but moderate chaos must not
        # flatten the study (nor conjure events from nowhere).
        assert chaos_n >= max(1, clean_n // 3)
        assert chaos_n <= clean_n * 2

    def test_dead_letters_carry_metadata(self, chaos_study):
        injector = chaos_study.chaos
        # Moderate feed corruption virtually always poisons something;
        # if not, the run legitimately had no poison to capture.
        for letter in injector.dead_letters:
            assert isinstance(letter, DeadLetter)
            assert letter.job == "feed-validate"
            assert letter.error
            assert letter.reason
            assert letter.attempts >= 1
            assert letter.value is not None

    def test_feed_corruption_is_dead_lettered(self, chaos_study):
        injector = chaos_study.chaos
        n_corrupt = (injector.counts.get(("feed", "corrupt"), 0)
                     + injector.counts.get(("feed", "truncate"), 0))
        if n_corrupt:
            assert len(injector.dead_letters) == n_corrupt

    def test_degradation_is_flagged(self, chaos_study):
        injector = chaos_study.chaos
        store_damage = (injector.counts.get(("store", "missing_day"), 0)
                        + injector.counts.get(("store", "corrupt"), 0))
        if store_damage and chaos_study.events:
            assert chaos_study.degraded
        for event in chaos_study.degraded_events:
            assert event.series.degraded

    def test_no_nans_in_events(self, chaos_study):
        for event in chaos_study.events:
            for path, value in _walk_floats(event.series, path="series"):
                assert not math.isnan(value), f"NaN at {path}"

    def test_no_nans_in_analyses(self, chaos_study):
        for name in ("monthly", "failures", "impact", "resilience"):
            analysis = getattr(chaos_study, name)
            for path, value in _walk_floats(analysis, path=name):
                assert not math.isnan(value), f"NaN at {path}"

    def test_report_renders(self, chaos_study):
        report = chaos_study.report()
        assert report
        assert "nan" not in report.lower().replace("nanosec", "")

    def test_summary_renders(self, chaos_study):
        text = chaos_study.chaos.summary()
        assert "faults injected" in text


class TestNullChaosIsByteIdentical:
    def test_zero_probability_run_matches_clean(self, clean_study):
        null_study = run_study(CONFIG, chaos=ChaosConfig(seed=99))
        assert null_study.chaos is not None
        assert null_study.chaos.events == []
        assert not null_study.degraded
        assert null_study.report() == clean_study.report()


class TestChaosDeterminism:
    def test_same_seeds_reproduce_fault_log(self):
        config = WorldConfig.tiny()
        chaos = ChaosConfig.preset("moderate", seed=7)
        a = run_study(config, chaos=chaos)
        b = run_study(config, chaos=chaos)
        assert a.chaos.events == b.chaos.events
        assert len(a.events) == len(b.events)
        assert a.report() == b.report()


class TestChaosWithoutTransportFaults:
    """Only transport faults need the injected datagram path: a chaos
    run whose faults all lie elsewhere crawls through the same quiet
    branches as a clean run."""

    @staticmethod
    def _crawl_counters(chaos=None):
        telemetry = RunTelemetry.create()
        run_study(WorldConfig.tiny(), chaos=chaos, telemetry=telemetry)
        return telemetry.snapshot()["metrics"]["counters"]

    def test_store_faults_keep_the_quiet_queries(self):
        clean = self._crawl_counters()
        chaos = self._crawl_counters(
            ChaosConfig(seed=1, store=FaultPolicy(drop_p=0.05)))
        assert clean["repro.crawl.quiet_queries"] > 0
        assert (chaos["repro.crawl.quiet_queries"]
                == clean["repro.crawl.quiet_queries"])
        assert chaos["repro.crawl.queries"] == clean["repro.crawl.queries"]
