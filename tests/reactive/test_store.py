"""Reactive probe results and their bridge into the §5/§6 impact path."""

import pytest

from repro.core.metrics import compute_baseline_degraded
from repro.reactive import (
    ReactiveProbe,
    ReactiveService,
    ReactiveStore,
    measurement_store_from_reactive,
    reactive_impact_series,
)
from repro.util.timeutil import HOUR, Window, parse_ts


class TestReactiveStore:
    def _store(self):
        store = ReactiveStore()
        # Bucket 0: one answered, one dead. Bucket 300: all dead.
        store.add(ReactiveProbe(10, 1, 100, True, 20.0))
        store.add(ReactiveProbe(20, 1, 101, False, None))
        store.add(ReactiveProbe(310, 1, 100, False, None))
        store.add(ReactiveProbe(320, 1, 101, False, None))
        store.add(ReactiveProbe(610, 1, 100, True, 25.0))
        return store

    def test_availability_series(self):
        series = self._store().availability_series(1)
        assert [(ts, share) for ts, share, _ in series] == \
            [(0, 0.5), (300, 0.0), (600, 1.0)]

    def test_unresponsive_share(self):
        store = self._store()
        assert store.unresponsive_share(1, Window(0, 900)) == pytest.approx(1 / 3)

    def test_first_responsive_after(self):
        store = self._store()
        assert store.first_responsive_after(1, 100) == 600
        assert store.first_responsive_after(1, 700) is None

    def test_unknown_domain(self):
        store = ReactiveStore()
        assert store.availability_series(42) == []
        assert store.unresponsive_share(42, Window(0, 100)) == 0.0

    def test_availability_series_with_no_probes(self):
        assert ReactiveStore().availability_series(1) == []

    def test_first_responsive_after_past_the_last_probe(self):
        store = self._store()
        # strictly after the final (answered) probe at ts=610
        assert store.first_responsive_after(1, 611) is None
        assert store.first_responsive_after(1, 10 ** 9) is None

    def test_first_responsive_after_with_no_probes(self):
        assert ReactiveStore().first_responsive_after(1, 0) is None

    def test_unresponsive_share_over_zero_probe_window(self):
        store = self._store()
        # the window [900, 1200) contains no probes at all
        assert store.unresponsive_share(1, Window(900, 1200)) == 0.0


class TestReactiveImpactAdapter:
    """Reactive probes feeding the §5/§6 RTT-impact machinery."""

    @pytest.fixture(scope="class")
    def report(self, tiny_world, tiny_study):
        window = Window(tiny_world.timeline.start, tiny_world.timeline.end)
        return ReactiveService(tiny_world, post_attack_s=2 * HOUR).run(
            tiny_study.feed, window=window)

    def test_store_adapter_counts_and_statuses(self, report, tiny_world):
        store = report.store
        mstore = measurement_store_from_reactive(store,
                                                 tiny_world.directory)
        assert mstore.n_measurements == len(store)
        assert mstore.n_rejected == 0
        answered = sum(1 for p in store.probes if p.answered)
        total_ok = sum(a.ok_n for a in mstore.daily.values())
        total_timeout = sum(a.timeout_n for a in mstore.daily.values())
        assert total_ok == answered
        assert total_timeout == len(store) - answered
        # Probe rows are dense: the 5-minute buckets carry them too.
        assert sum(a.n for a in mstore.buckets.values()) == len(store)

    def test_store_adapter_maps_domains_to_nssets(self, report, tiny_world):
        store = report.store
        mstore = measurement_store_from_reactive(store,
                                                 tiny_world.directory)
        probed_nssets = {tiny_world.directory[p.domain_id].nsset_id
                         for p in store.probes}
        stored_nssets = {nsset_id for nsset_id, _ in mstore.buckets}
        assert stored_nssets == probed_nssets

    def test_impact_series_from_reactive_probes(self, report, tiny_world,
                                                tiny_study):
        store = report.store
        all_series = []
        for campaign in report.campaigns:
            nsset_id = tiny_world.directory[campaign.domain_ids[0]].nsset_id
            window = Window(campaign.attack.start, campaign.attack.end)
            series = reactive_impact_series(
                store, tiny_world.directory, nsset_id, window,
                baseline_store=tiny_study.store)
            # The baseline comes from the crawl store, not the probes.
            expected, _ = compute_baseline_degraded(
                tiny_study.store, nsset_id, window.start, "day")
            assert series.baseline_rtt == expected
            all_series.append(series)
        # Baselined campaigns produce computed impacts: reactive data
        # flowing through the §5 machinery unchanged.
        assert any(p.impact is not None
                   for s in all_series if s.baseline_rtt is not None
                   for p in s.points)
        # Heavy attacks drop probes, and the series sees the timeouts
        # that OpenINTEL's once-daily crawl undercounts.
        assert any(p.timeouts > 0 for s in all_series for p in s.points)

    def test_impact_series_empty_outside_probed_window(self, report,
                                                       tiny_world, tiny_study):
        store = report.store
        nsset_id = tiny_world.directory[store.probes[0].domain_id].nsset_id
        series = reactive_impact_series(
            store, tiny_world.directory, nsset_id,
            Window(parse_ts("2021-01-01"), parse_ts("2021-01-02")),
            baseline_store=tiny_study.store)
        assert series.points == []
