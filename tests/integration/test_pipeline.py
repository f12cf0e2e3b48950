"""End-to-end pipeline and configuration tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Study, WorldConfig, build_world, run_study
from repro.world.config import PAPER_TOTAL_ATTACKS


class TestWorldConfig:
    def test_defaults_cover_paper_window(self):
        config = WorldConfig()
        assert len(list(config.timeline.months())) == 17

    def test_paper_scale(self):
        config = WorldConfig(attacks_per_month=2000)
        expected = 2000 * 17 / PAPER_TOTAL_ATTACKS
        assert config.paper_scale() == pytest.approx(expected)

    def test_schedule_derived(self):
        config = WorldConfig()
        assert config.schedule.attacks_per_month == config.attacks_per_month
        assert config.schedule.dns_attack_fraction == config.dns_attack_fraction

    def test_scaled(self):
        config = WorldConfig().scaled(0.5)
        assert config.n_domains == 10_000
        assert config.attacks_per_month == 1_000
        assert config.schedule.attacks_per_month == 1_000

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WorldConfig().scaled(0)

    @pytest.mark.parametrize("kwargs", [
        {"n_domains": 0},
        {"misconfig_fraction": 2.0},
        {"headroom": 0.0},
        {"dns_attack_fraction": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorldConfig(**kwargs)

    def test_tiny_and_small_presets(self):
        assert WorldConfig.tiny().n_domains < WorldConfig.small().n_domains


class TestStudyPipeline:
    def test_study_bundle_types(self, tiny_study):
        assert isinstance(tiny_study, Study)
        assert tiny_study.feed.attacks
        assert tiny_study.store.n_measurements > 0
        assert tiny_study.events

    def test_analyses_cached(self, tiny_study):
        assert tiny_study.monthly is tiny_study.monthly
        assert tiny_study.resilience is tiny_study.resilience

    def test_report_renders_all_sections(self, tiny_study):
        report = tiny_study.report()
        for marker in ("Monthly attack activity", "Targeted services",
                       "Resolution failures", "RTT impact", "Correlations",
                       "Resilience efficacy", "Top attacked ASNs",
                       "Top attacked IPs", "Telescope visibility"):
            assert marker in report

    def test_run_study_with_prebuilt_world(self, tiny_world):
        study = run_study(world=tiny_world)
        assert study.world is tiny_world
        assert study.config is tiny_world.config

    def test_reproducible_end_to_end(self, tiny_config):
        a = run_study(tiny_config)
        b = run_study(tiny_config)
        assert len(a.feed.attacks) == len(b.feed.attacks)
        assert a.store.n_measurements == b.store.n_measurements
        assert len(a.events) == len(b.events)
        assert [e.nsset_id for e in a.events] == [e.nsset_id for e in b.events]
        assert a.monthly.total_attacks == b.monthly.total_attacks

    def test_different_seeds_differ(self):
        a = run_study(WorldConfig.tiny(seed=1))
        b = run_study(WorldConfig.tiny(seed=2))
        assert [a0.victim_ip for a0 in a.feed.attacks] != \
            [b0.victim_ip for b0 in b.feed.attacks]

    def test_telescope_misses_some_ground_truth(self, tiny_study):
        # Reflected/unspoofed attacks are invisible: the feed must be a
        # strict subset of ground truth (paper §4.3).
        assert len(tiny_study.feed.attacks) < len(tiny_study.world.attacks)

    def test_events_reference_real_nssets(self, tiny_study):
        registry = tiny_study.world.directory.nssets
        for event in tiny_study.events:
            assert registry.ips_of(event.nsset_id)


class TestParallelStudyEquivalence:
    """run_study(n_workers=N) is accepted and changes no data."""

    @pytest.fixture(scope="class")
    def serial(self, tiny_config):
        return run_study(tiny_config)

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_worker_count_changes_nothing(self, tiny_config, serial,
                                          n_workers):
        study = run_study(tiny_config, n_workers=n_workers)
        assert study.store == serial.store  # bit-for-bit
        assert len(study.events) == len(serial.events)
        for ours, theirs in zip(study.events, serial.events):
            assert ours.nsset_id == theirs.nsset_id
            assert ours.attack == theirs.attack
            assert ours.series == theirs.series
        assert study.monthly == serial.monthly
        assert study.failures == serial.failures
        assert study.impact == serial.impact


class TestDegradedPredicate:
    def test_rejected_rows_flag_the_study(self, tiny_config):
        # A chaos schedule that ONLY damages RTT rows at store ingest:
        # no feed faults, no aggregate corruption, no transport faults —
        # so the join is clean and no event is degraded. The rejected
        # rows alone must still flag the study (PR 1's contract: "True
        # when any pipeline stage ran on impaired inputs").
        from repro import ChaosConfig
        from repro.chaos.policy import FaultPolicy

        chaos = ChaosConfig(seed=3, ingest=FaultPolicy(corrupt_p=0.01))
        study = run_study(tiny_config, chaos=chaos)
        assert study.store.n_rejected > 0
        assert not study.join.degraded
        assert not study.degraded_events
        assert study.degraded

    def test_clean_run_not_degraded(self, tiny_study):
        assert tiny_study.store.n_rejected == 0
        assert not tiny_study.degraded


class TestNoNumpy:
    def test_default_study_never_imports_numpy(self):
        # Peak RSS is a study benchmark metric: a study process (and the
        # HAVE_NUMPY probe its snapshot writer makes) must not load NumPy.
        code = ("import sys\n"
                "from repro import WorldConfig, run_study\n"
                "from repro.columnar import HAVE_NUMPY\n"
                "run_study(WorldConfig.tiny()).report()\n"
                "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
