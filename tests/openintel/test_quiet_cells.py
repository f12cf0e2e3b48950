"""The crawl's quiet (NSSet, day) cells against a row-by-row reference.

:func:`per_row_crawl` is the crawl written out one row at a time: every
quiet day of a closed-form NSSet reseeds its domain-day stream and draws
a base RTT and a jitter, and every other query runs the resolver
(``TestEveryQueryEqualsTheResolver`` in ``test_platform.py`` pins that
the crawl's closed-form quiet instants equal the resolver's rows).
"""

import dataclasses
import hashlib
import random

import pytest

from repro import ChaosConfig, run_study
from repro.artifacts.serializers import dumps_store, loads_store
from repro.chaos import FaultInjector
from repro.dns.rcode import ResponseStatus
from repro.dns.resolver import DEADLINE_MS, AgnosticResolver
from repro.dns.rr import RRType
from repro.openintel.platform import (_ANSWERING_TARGET, _DEAD,
                                      _MAX_JITTER_MS, DENSE_OVERSAMPLING,
                                      OpenIntelPlatform)
from repro.openintel.storage import MeasurementStore, _QuietDays
from repro.util.rng import derive_seed
from repro.util.timeutil import DAY, day_start, iter_days
from repro.world import WorldConfig, build_world

CONFIGS = [
    WorldConfig.tiny(seed=1),
    WorldConfig.tiny(seed=2),
    WorldConfig.tiny(seed=3),
    dataclasses.replace(WorldConfig.tiny(seed=1),
                        scenario_pack="amplification"),
]
CONFIG_IDS = ["seed1", "seed2", "seed3", "amplification-seed1"]


def per_row_crawl(world) -> MeasurementStore:
    """The store a full-range crawl of ``world`` fills, one row at a
    time, with each domain-day's stream seeded by
    ``derive_seed(derive_seed(crawl_seed, domain_id), day)``."""
    classes = OpenIntelPlatform(world)._classes
    offset_seed = world.rngs.spawn_seed("openintel-offsets")
    crawl_seed = world.rngs.spawn_seed("openintel-crawl")
    store = MeasurementStore()
    rng = random.Random()
    resolver = AgnosticResolver(world.transport, rng)
    restore = world.set_transport_rng(rng)
    timeline = world.timeline
    try:
        for day in iter_days(day_start(timeline.start), timeline.end):
            for record in world.directory.domains:
                nsset_id, domain_id = record.nsset_id, record.domain_id
                offset = derive_seed(offset_seed, str(domain_id)) % DAY
                dense = day in world.dense_days_of(nsset_id)
                klass = classes[nsset_id]
                if not dense and klass == _DEAD:
                    store.add_fast(nsset_id, day + offset,
                                   ResponseStatus.TIMEOUT, DEADLINE_MS,
                                   False)
                    continue
                rng.seed(derive_seed(
                    derive_seed(crawl_seed, str(domain_id)), str(day)))
                ns_ips = record.delegation.nameserver_ips
                if not dense and klass <= _ANSWERING_TARGET:
                    rtts = [world.nameservers_by_ip[ip].base_rtt_ms
                            for ip in ns_ips]
                    base = rtts[int(rng.random() * len(rtts))]
                    store.add_fast(nsset_id, day + offset, ResponseStatus.OK,
                                   base + rng.expovariate(0.5), False)
                    continue
                n_queries = DENSE_OVERSAMPLING if dense else 1
                for j in range(n_queries):
                    ts = day + (offset + j * (DAY // n_queries)) % DAY
                    result = resolver.resolve(record.name, RRType.NS,
                                              ns_ips, ts)
                    store.add_fast(nsset_id, ts, result.status,
                                   result.rtt_ms, dense)
    finally:
        world.set_transport_rng(restore)
    return store


def _store_state(store):
    """Every cell's columns, read through ``items()``, and the totals."""
    return ({key: agg.state() for key, agg in store.daily.items()},
            {key: agg.state() for key, agg in store.buckets.items()},
            store.n_measurements, store.n_rejected)


@pytest.fixture(scope="module", params=CONFIGS, ids=CONFIG_IDS)
def crawled(request):
    """A config's crawl and its per-row reference, each on its own
    world."""
    config = request.param
    return (OpenIntelPlatform(build_world(config)).run(),
            per_row_crawl(build_world(config)))


def test_crawl_equals_the_per_row_loop(crawled):
    store, reference = crawled
    assert reference.n_measurements > 0
    assert _store_state(store) == _store_state(reference)


def test_a_loaded_store_equals_the_per_row_loop(crawled):
    """The cache's round trip keeps every cell the crawl deferred: each
    is drawn on first read to the row-by-row value."""
    store, reference = crawled
    assert _store_state(loads_store(dumps_store(store))) == \
        _store_state(reference)


def test_dumps_is_the_same_before_and_after_every_read(tiny_world):
    store = OpenIntelPlatform(tiny_world).run()
    before = dumps_store(store)
    assert all(agg.n for agg in store.daily.values())
    assert dumps_store(store) == before


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_a_quiet_row_is_never_rejected(config):
    """The store's ingest guard ``0 <= rtt <= MAX_RTT_MS`` passes every
    quiet row: its RTT is a base RTT plus a jitter in
    ``[0, _MAX_JITTER_MS]``."""
    platform = OpenIntelPlatform(build_world(config))
    rtts = [rtt for cell in platform._quiet_rtts.values() for rtt in cell]
    assert rtts
    assert min(rtts) >= 0.0
    assert max(rtts) + _MAX_JITTER_MS <= MeasurementStore.MAX_RTT_MS


#: (faults, sha256 of their ``kind detail`` lines) that the moderate
#: preset's store surface logs on a clean crawl of ``WorldConfig.tiny()``.
STORE_FAULTS = {
    1: (53, "0784fabf1f619bc415f5d91d58479fd4"
            "2b494383527a7efeb376d46d16ec2d22"),
    2: (52, "78f1b56bc4e80e64f3e53b92b71e3fa2"
            "919d3395bdf95a7cb66760f03c9291ef"),
    3: (53, "50d7f555884d114fa58da395a4e1e6f8"
            "a01fef8cdc9b2d3d7a4fa099ae69d216"),
}


def _store_faults(injector):
    lines = [f"{e.kind} {e.detail}" for e in injector.events
             if e.surface == "store"]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _count_calls(monkeypatch, owner, name):
    """Log the first argument of every ``owner.name`` call."""
    calls = []
    method = getattr(owner, name)

    def counting(self, first, *args):
        calls.append(first)
        return method(self, first, *args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("chaos_seed", sorted(STORE_FAULTS))
def test_store_faults_are_pinned(tiny_world, chaos_seed, monkeypatch):
    """The missing-day pass reads only the daily table's keys, so it
    deletes a deferred cell without drawing it."""
    store = OpenIntelPlatform(tiny_world).run()
    filled = _count_calls(monkeypatch, _QuietDays, "draw")
    injector = FaultInjector(ChaosConfig.preset("moderate", seed=chaos_seed))
    injector.corrupt_store(store)
    assert _store_faults(injector) == STORE_FAULTS[chaos_seed]
    assert filled == []


@pytest.mark.parametrize("chaos_seed", sorted(STORE_FAULTS))
def test_a_loaded_damaged_store_equals_the_damaged_store(tiny_world,
                                                         chaos_seed):
    """Store faults delete deferred cells and damage buckets (NaN sums
    among them); the round trip keeps both."""
    store = OpenIntelPlatform(tiny_world).run()
    FaultInjector(ChaosConfig.preset("moderate", seed=chaos_seed)
                  ).corrupt_store(store)
    loaded = loads_store(dumps_store(store))
    assert dict(loaded.daily.items()) == dict(store.daily.items())
    assert dict(loaded.buckets.items()) == dict(store.buckets.items())
    assert (loaded.n_measurements, loaded.n_rejected) == \
        (store.n_measurements, store.n_rejected)


def _clean_study_draws(config, monkeypatch, cache=None):
    """The keys a clean study and its ``report()`` defer and draw."""
    deferred = _count_calls(monkeypatch, MeasurementStore, "defer")
    filled = _count_calls(monkeypatch, _QuietDays, "draw")
    run_study(config, cache=cache).report()
    monkeypatch.undo()
    return deferred, filled


def test_a_clean_study_draws_few_of_its_deferred_cells(tiny_config,
                                                       monkeypatch):
    deferred, filled = _clean_study_draws(tiny_config, monkeypatch)
    assert 0 < len(filled) < len(deferred)
    assert len(set(filled)) == len(filled)
    assert set(filled) <= set(deferred)


def test_a_cold_cached_study_draws_the_uncached_cells(tiny_config,
                                                      monkeypatch, tmp_path):
    """Saving the crawl to the phase cache draws no deferred cell."""
    uncached = _clean_study_draws(tiny_config, monkeypatch)
    cold = _clean_study_draws(tiny_config, monkeypatch,
                              cache=str(tmp_path))
    assert cold == uncached


def test_a_warm_study_draws_no_cell(tiny_config, monkeypatch, tmp_path):
    run_study(tiny_config, cache=str(tmp_path))
    filled = _count_calls(monkeypatch, _QuietDays, "draw")
    warm = run_study(tiny_config, cache=str(tmp_path))
    warm.report()
    assert filled == []
    assert "daily" not in vars(warm.store)
