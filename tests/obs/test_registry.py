"""Registry semantics: counters, gauges, histograms, exposition."""

import json
import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS_MS,
    NULL_REGISTRY,
    BufferedRegistry,
    MetricsRegistry,
    NullRegistry,
    buffered,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        c = registry.counter("repro.test.hits")
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_get_or_create_returns_same_object(self, registry):
        assert registry.counter("repro.test.hits") \
            is registry.counter("repro.test.hits")

    def test_labels_distinguish_series(self, registry):
        a = registry.counter("repro.test.hits", kind="a")
        b = registry.counter("repro.test.hits", kind="b")
        assert a is not b
        a.inc()
        assert (a.value, b.value) == (1, 0)

    def test_label_order_does_not_matter(self, registry):
        a = registry.counter("repro.test.hits", x="1", y="2")
        b = registry.counter("repro.test.hits", y="2", x="1")
        assert a is b

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("repro.test.hits").inc(-1)

    def test_zero_increment_allowed(self, registry):
        c = registry.counter("repro.test.hits")
        c.inc(0)
        assert c.value == 0


class TestGauge:
    def test_set_inc(self, registry):
        g = registry.gauge("repro.test.depth")
        g.set(10.0)
        g.inc(2.5)
        assert g.value == 12.5

    def test_kind_conflict_rejected(self, registry):
        registry.gauge("repro.test.depth")
        with pytest.raises(ValueError):
            registry.counter("repro.test.depth")


class TestHistogram:
    def test_value_on_bound_falls_in_that_bucket(self, registry):
        h = registry.histogram("repro.test.rtt", buckets=(1.0, 10.0))
        h.observe(1.0)    # le=1.0 bucket (Prometheus semantics)
        h.observe(1.001)  # le=10.0 bucket
        h.observe(99.0)   # overflow (+Inf)
        assert h.bucket_counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(101.001)

    def test_default_bounds(self, registry):
        h = registry.histogram("repro.test.rtt")
        assert h.bounds == DEFAULT_BUCKETS_MS
        assert len(h.bucket_counts) == len(DEFAULT_BUCKETS_MS) + 1

    def test_unsorted_bounds_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("repro.test.bad", buckets=(10.0, 1.0))

    def test_re_register_with_other_bounds_rejected(self, registry):
        registry.histogram("repro.test.rtt", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("repro.test.rtt", buckets=(1.0, 3.0))
        # ... but re-requesting without bounds is fine.
        assert registry.histogram("repro.test.rtt").bounds == (1.0, 2.0)

    def test_add_counts_bulk_merge(self, registry):
        h = registry.histogram("repro.test.rtt", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.add_counts([1, 2, 3], 40.0)
        assert h.bucket_counts == [2, 2, 3]
        assert h.count == 7
        assert h.sum == pytest.approx(40.5)

    def test_add_counts_layout_mismatch_rejected(self, registry):
        h = registry.histogram("repro.test.rtt", buckets=(1.0, 10.0))
        with pytest.raises(ValueError):
            h.add_counts([1, 2], 0.0)


class TestExposition:
    def test_snapshot_is_json_serializable_and_complete(self, registry):
        registry.counter("repro.a", kind="x").inc(3)
        registry.gauge("repro.b").set(1.5)
        registry.histogram("repro.c", buckets=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["counters"] == {"repro.a{kind=x}": 3}
        assert snap["gauges"] == {"repro.b": 1.5}
        assert snap["histograms"]["repro.c"] == {
            "bounds": [1.0], "counts": [1, 0], "count": 1, "sum": 0.5,
            "nan": 0}

    def test_prometheus_rendering(self, registry):
        registry.counter("repro.chaos.faults", surface="feed",
                         kind="drop").inc(2)
        registry.gauge("repro.store.daily_aggregates").set(7)
        h = registry.histogram("repro.serve.query_latency_ms", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        text = registry.render_prometheus()
        assert "# TYPE repro_chaos_faults counter" in text
        assert 'repro_chaos_faults{kind="drop",surface="feed"} 2' in text
        assert "# TYPE repro_store_daily_aggregates gauge" in text
        # Histogram buckets are cumulative, with +Inf, _sum and _count.
        assert 'repro_serve_query_latency_ms_bucket{le="1.0"} 1' in text
        assert 'repro_serve_query_latency_ms_bucket{le="10.0"} 2' in text
        assert 'repro_serve_query_latency_ms_bucket{le="+Inf"} 2' in text
        assert "repro_serve_query_latency_ms_count 2" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render_prometheus() == ""
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}

    def test_rendering_is_stable_across_calls(self, registry):
        registry.counter("repro.a", kind="x").inc()
        registry.histogram("repro.c", buckets=(1.0,)).observe(0.5)
        assert registry.render_prometheus() == registry.render_prometheus()
        assert registry.snapshot() == registry.snapshot()


class TestHistogramNaN:
    """NaN observations are tallied apart, never poisoning the sum."""

    def test_nan_lands_in_its_own_tally(self, registry):
        h = registry.histogram("repro.test.rtt", buckets=(1.0,))
        h.observe(0.5)
        h.observe(float("nan"))
        assert h.nan == 1
        assert h.count == 1
        assert not math.isnan(h.sum)
        assert h.bucket_counts == [1, 0]

    def test_nan_appears_in_snapshot(self, registry):
        h = registry.histogram("repro.test.rtt", buckets=(1.0,))
        h.observe(float("nan"))
        snap = registry.snapshot()["histograms"]["repro.test.rtt"]
        assert snap["nan"] == 1
        assert snap["count"] == 0

    def test_nan_series_rendered_only_when_nonzero(self, registry):
        h = registry.histogram("repro.test.rtt", buckets=(1.0,))
        h.observe(0.5)
        assert "_nan" not in registry.render_prometheus()
        h.observe(float("nan"))
        assert "repro_test_rtt_nan 1" in registry.render_prometheus()

    def test_add_counts_carries_nan(self, registry):
        h = registry.histogram("repro.test.rtt", buckets=(1.0,))
        h.add_counts([1, 0], 0.5, nan=3)
        assert h.nan == 3
        with pytest.raises(ValueError):
            h.add_counts([1, 0], 0.5, nan=-1)


class TestLabelSanitization:
    def test_label_names_are_sanitized(self, registry):
        registry.counter("repro.a", **{"kind.of": "x"}).inc()
        assert 'kind_of="x"' in registry.render_prometheus()

    def test_digit_prefixed_label_gets_underscore(self, registry):
        registry.counter("repro.a", **{"0day": "y"}).inc()
        assert '_0day="y"' in registry.render_prometheus()

    def test_colliding_label_names_get_positional_suffixes(self, registry):
        # `a.b` and `a-b` both sanitize to `a_b`: the second must not
        # silently overwrite the first's series.
        registry.counter("repro.a", **{"a.b": "x", "a-b": "y"}).inc()
        text = registry.render_prometheus()
        assert 'a_b="' in text
        assert 'a_b_2="' in text

    def test_collision_suffixes_are_deterministic(self, registry):
        registry.counter("repro.a", **{"a.b": "x", "a-b": "y"}).inc()
        other = MetricsRegistry()
        other.counter("repro.a", **{"a-b": "y", "a.b": "x"}).inc()
        assert registry.render_prometheus() == other.render_prometheus()

    def test_label_values_are_escaped(self, registry):
        registry.counter("repro.a", k='va"l\n').inc()
        assert r'k="va\"l\n"' in registry.render_prometheus()


class TestBufferedRegistry:
    @pytest.fixture()
    def target(self):
        return MetricsRegistry()

    @pytest.fixture()
    def staging(self, target):
        return BufferedRegistry(target)

    def test_updates_stay_staged_until_flush(self, staging, target):
        staging.counter("repro.r.probes").inc(5)
        staging.gauge("repro.r.depth").set(3.0)
        staging.histogram("repro.r.lat", buckets=(1.0,)).observe(0.5)
        assert target.snapshot() == {"counters": {}, "gauges": {},
                                     "histograms": {}}
        staging.flush()
        snap = target.snapshot()
        assert snap["counters"]["repro.r.probes"] == 5
        assert snap["gauges"]["repro.r.depth"] == 3.0
        assert snap["histograms"]["repro.r.lat"]["count"] == 1

    def test_flush_resets_in_place(self, staging, target):
        c = staging.counter("repro.r.probes")
        c.inc(5)
        staging.flush()
        # The bound reference survives and keeps accumulating: a second
        # flush folds only the new increments.
        c.inc(2)
        staging.flush()
        assert target.counter("repro.r.probes").value == 7

    def test_untouched_gauge_is_not_flushed(self, staging, target):
        target.gauge("repro.r.depth").set(9.0)
        staging.gauge("repro.r.depth")  # created but never written
        staging.flush()
        assert target.gauge("repro.r.depth").value == 9.0

    def test_discard_drops_staged_updates(self, staging, target):
        c = staging.counter("repro.r.probes")
        c.inc(5)
        staging.gauge("repro.r.depth").set(3.0)
        staging.discard()
        staging.flush()
        assert target.snapshot() == {"counters": {}, "gauges": {},
                                     "histograms": {}}
        c.inc(1)  # the object still works after a discard
        staging.flush()
        assert target.counter("repro.r.probes").value == 1

    def test_buffered_factory(self, target):
        assert isinstance(buffered(target), BufferedRegistry)
        assert buffered(NULL_REGISTRY) is NULL_REGISTRY

    def test_plain_registry_flush_is_a_noop(self, target):
        target.counter("repro.r.probes").inc()
        target.flush()
        assert target.counter("repro.r.probes").value == 1


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        null = NullRegistry()
        null.counter("x", a="b").inc(5)
        null.gauge("y").set(3)
        null.histogram("z").observe(1.0)
        assert null.snapshot() == {"counters": {}, "gauges": {},
                                   "histograms": {}}
        assert null.render_prometheus() == ""

    def test_disabled_flag(self):
        assert MetricsRegistry().enabled
        assert not NULL_REGISTRY.enabled

    def test_shared_metric_objects(self):
        # One inert object per kind: instrumentation allocates nothing.
        null = NullRegistry()
        assert null.counter("a") is null.counter("b", k="v")
        assert null.gauge("a") is null.gauge("b")
        assert null.histogram("a") is null.histogram("b")
