"""Tests for the multi-process crawl and its worker-count invariance."""

import pytest

from repro.dns.resolver import ResolverConfig
from repro.openintel import platform as platform_mod
from repro.openintel.platform import OpenIntelPlatform, _crawl_shard
from repro.util.timeutil import DAY


@pytest.fixture(scope="module")
def serial_store(tiny_world):
    return OpenIntelPlatform(tiny_world).run()


@pytest.fixture(scope="module")
def parallel_store(tiny_world):
    # The world is built once and shared with the workers via fork.
    return OpenIntelPlatform(tiny_world).run_parallel(2)


class TestWorkerCountInvariance:
    def test_two_workers_bit_for_bit_equal_serial(self, serial_store,
                                                  parallel_store):
        # The tentpole contract: not statistically close — identical.
        assert parallel_store == serial_store

    def test_four_workers_bit_for_bit_equal_serial(self, tiny_world,
                                                   serial_store):
        assert OpenIntelPlatform(tiny_world).run_parallel(4) == serial_store

    def test_more_workers_than_domains_is_harmless(self, tiny_world):
        start = tiny_world.timeline.start
        platform = OpenIntelPlatform(tiny_world)
        serial = platform.run(start, start + DAY)
        wide = OpenIntelPlatform(tiny_world).run_parallel(
            3, start, start + DAY)
        assert wide == serial

    def test_serial_crawl_is_repeatable(self, tiny_world, serial_store):
        # Per-(domain, day) streams mean the crawl no longer consumes
        # the world's shared RNG state: same world, same store.
        assert OpenIntelPlatform(tiny_world).run() == serial_store

    def test_every_aggregate_column_matches(self, serial_store,
                                            parallel_store):
        for key, agg in serial_store.daily.items():
            other = parallel_store.daily[key]
            assert other.state() == agg.state(), key
        for key, agg in serial_store.buckets.items():
            other = parallel_store.buckets[key]
            assert other.state() == agg.state(), key

    def test_single_worker_is_the_serial_path(self, tiny_world,
                                              serial_store):
        assert OpenIntelPlatform(tiny_world).run_parallel(1) == serial_store

    def test_rejects_bad_worker_count(self, tiny_world):
        with pytest.raises(ValueError):
            OpenIntelPlatform(tiny_world).run_parallel(-1)


class TestWorkerConfigFidelity:
    """The forked worker platform must match the serial one exactly."""

    CUSTOM = ResolverConfig(attempt_timeout_ms=900.0, max_timeout_ms=3600.0,
                            max_attempts=4, deadline_ms=9000.0)

    def test_worker_inherits_full_configuration(self, tiny_world):
        platform = OpenIntelPlatform(tiny_world, config=self.CUSTOM,
                                     dense_oversampling=3)
        platform_mod._FORK_PARENT = platform
        try:
            # Run the worker entry point in-process: with fork semantics
            # the worker platform *is* the parent object, so every
            # setting the serial crawl would use is what the shard uses.
            start = tiny_world.timeline.start
            store, _stats, _capture = _crawl_shard(
                (0, 2, start, start + DAY))
        finally:
            platform_mod._FORK_PARENT = None
        worker_platform = platform  # fork: same object in the child
        assert worker_platform.config == self.CUSTOM
        assert worker_platform.dense_oversampling == 3
        assert store.n_measurements > 0

    def test_non_default_settings_survive_the_fork(self, tiny_world):
        # End-to-end: a custom resolver config changes measured values
        # (shorter deadline => different timeout RTTs), and the parallel
        # crawl must reproduce the serial run of the *same* settings.
        start = tiny_world.timeline.start
        end = start + 2 * DAY
        serial = OpenIntelPlatform(
            tiny_world, config=self.CUSTOM,
            dense_oversampling=3).run(start, end)
        parallel_platform = OpenIntelPlatform(
            tiny_world, config=self.CUSTOM, dense_oversampling=3)
        parallel = parallel_platform.run_parallel(2, start, end)
        assert parallel == serial
        # ... and the settings demonstrably mattered: a default-config
        # crawl of the same window differs (oversampling changes the
        # measurement count), so the workers cannot have silently
        # rebuilt a default platform.
        default_serial = OpenIntelPlatform(tiny_world).run(start, end)
        assert parallel.n_measurements != default_serial.n_measurements


class TestParallelMechanics:
    def test_parent_store_accumulates(self, tiny_world):
        platform = OpenIntelPlatform(tiny_world)
        start = tiny_world.timeline.start
        result = platform.run_parallel(2, start, start + DAY)
        assert result is platform.store
        assert result.n_measurements > 0

    def test_method_rejects_bad_worker_count(self, tiny_world):
        with pytest.raises(ValueError):
            OpenIntelPlatform(tiny_world).run_parallel(0)
