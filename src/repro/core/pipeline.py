"""Study orchestration: the end-to-end Figure-1 pipeline.

The pipeline is *declared*, not hand-wired: every stage — world build,
telescope, crawl, chaos damage, feed hardening, join, event extraction
— is a :class:`repro.engine.Phase` node of :data:`STUDY_GRAPH`, listed
in the order it runs (each phase after the phases it consumes), and
``run_study`` is a thin facade that executes that graph through the
:class:`repro.engine.Executor`. Cross-cutting concerns (telemetry
spans, journal records, profiling,
:class:`~repro.artifacts.cache.PhaseCache` fetch/save) live in the
executor's one phase runner, applied uniformly to every node, so no
per-phase plumbing lives here.

The resulting :class:`Study` lazily computes every analysis in the
paper; each analysis is itself a declared engine node (see
:class:`repro.engine.cached_analysis`), traced as an ``analysis.*``
span and memoized on first access. Benchmarks and examples all start
here; ``python -m repro graph`` prints the full declared DAG.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

if TYPE_CHECKING:  # avoid a core <-> chaos/artifacts import cycle at runtime
    from repro.artifacts.cache import PhaseCache
    from repro.artifacts.store import ArtifactStore
    from repro.chaos.injector import FaultInjector
    from repro.chaos.policy import ChaosConfig

from repro.attacks.model import Attack
from repro.core.correlation import CorrelationAnalysis, analyze_correlation
from repro.core.events import EVENT_MIN_DOMAINS, AttackEvent, extract_events
from repro.core.impact import (
    FailureAnalysis,
    ImpactAnalysis,
    analyze_failures,
    analyze_impact,
    top_companies_by_impact,
)
from repro.core.join import DatasetJoin, join_datasets
from repro.core.longitudinal import MonthlySummary, monthly_summary
from repro.core.nsset import NSSetMetadata
from repro.core.ports import PortAnalysis, analyze_ports, analyze_successful_ports
from repro.core.resilience import ResilienceAnalysis, analyze_resilience
from repro.datasets.openresolvers import OpenResolverScan
from repro.engine import (
    Executor,
    Phase,
    PhaseGraph,
    RunContext,
    analysis_graph,
    cached_analysis,
)
from repro.obs import NULL_TELEMETRY, RunJournal, RunTelemetry
from repro.openintel.platform import OpenIntelPlatform
from repro.openintel.storage import MeasurementStore
from repro.telescope.backscatter import BackscatterSimulator
from repro.telescope.darknet import Darknet
from repro.telescope.feed import RSDoSFeed
from repro.world.config import WorldConfig
from repro.world.simulation import World, build_world


# -- bypass warnings ----------------------------------------------------------

#: why a pre-built world cannot use the artifact cache.
PREBUILT_WORLD_REASON = (
    "a pre-built world may have been edited since it was built "
    "(replace_attacks), so its config does not fingerprint it; pass a "
    "config instead of a world to use the artifact cache")
#: why a worker count other than 1 changes nothing.
WORKERS_IGNORED_REASON = (
    "the crawl is serial: n_workers other than 1 is ignored")


def _warn_bypass(reason: str, stacklevel: int = 3) -> None:
    """Emit one of the pipeline's feature-bypass warnings.

    All bypasses are :class:`RuntimeWarning`: the run proceeds without
    the named feature (the cache) or ignores the named argument
    (``n_workers``).
    """
    warnings.warn(reason, RuntimeWarning, stacklevel=stacklevel)


def _link_util_fn(world: World):
    """Inbound-link utilization of a victim, for backscatter suppression.

    Nameserver victims use the world's load model (without the geofence,
    which blocks queries but not TCP-level backscatter); other victims
    are assumed link-healthy.
    """
    def fn(ip: int, ts: int) -> float:
        ns = world.nameservers_by_ip.get(ip)
        if ns is None or ns.is_misconfig_target:
            return 0.0
        return world.load_at(ns, ts).link_util
    return fn


# -- phase computes -----------------------------------------------------------

def _chaos_enabled(ctx: RunContext) -> bool:
    return ctx.params.get("injector") is not None


def _reflector_enabled(ctx: RunContext) -> bool:
    return ctx.values["world"].pack.reflector_queries


def _counterfactual_enabled(ctx: RunContext) -> bool:
    return ctx.values["world"].pack.has_counterfactuals


def _build_configured_world(ctx: RunContext) -> World:
    return build_world(ctx.params["config"])


def _observed_attacks(ctx: RunContext, world: World) -> List[Attack]:
    """The attacks both darknet branches observe: the serve layer's
    day slice when it sets one (``repro.serve``), else the whole
    schedule."""
    attacks = ctx.params.get("attacks")
    return world.attacks if attacks is None else attacks


def _observe_telescope(ctx: RunContext, world: World) -> RSDoSFeed:
    darknet = Darknet()
    # Slice-ability hooks for the serve layer (repro.serve): observe a
    # subset of the schedule on a caller-derived RNG. Absent, the
    # defaults reproduce the monolithic study byte-for-byte.
    attacks = _observed_attacks(ctx, world)
    rng = ctx.params.get("telescope_rng")
    if rng is None:
        rng = world.rngs.stream("telescope")
    simulator = BackscatterSimulator(
        darknet, rng,
        link_util_fn=_link_util_fn(world),
        jitter_seed=ctx.params.get("telescope_jitter_seed"))
    return RSDoSFeed.observe(attacks, simulator)


def _run_crawl(ctx: RunContext, world: World) -> MeasurementStore:
    injector: Optional["FaultInjector"] = ctx.params.get("injector")
    # Only transport faults need the injected datagram path; a chaos run
    # without them keeps the crawl's quiet branches.
    transport = None
    if injector is not None and not injector.config.transport.is_null:
        transport = injector.wrap_transport(world.transport)
    platform = OpenIntelPlatform(world, transport=transport,
                                 telemetry=ctx.telemetry)
    # The serve layer crawls one day-partition at a time; a full-range
    # crawl (the default) is unchanged.
    start, end = ctx.params.get("crawl_window") or (None, None)
    store = platform.run(start, end)
    if platform.stats is not None:
        platform.stats.publish(ctx.telemetry.registry)
    return store


def _corrupt_store(ctx: RunContext,
                   crawl_store: MeasurementStore) -> MeasurementStore:
    ctx.params["injector"].corrupt_store(crawl_store)
    return crawl_store


def _harden_feed(ctx: RunContext, feed: RSDoSFeed) -> List:
    return ctx.params["injector"].harden_feed(feed.attacks)


def _observe_reflectors(ctx: RunContext, world: World):
    """The pack's extra darknet branch (amplification reflector
    queries), over the same attacks the telescope observes."""
    return world.pack.observe_darknet(world, _observed_attacks(ctx, world))


def _merge_curated_feeds(ctx: RunContext, feed_attacks, reflector_feed):
    """Merge the backscatter feed with the reflector branch's inferred
    attacks into the one curated feed the join consumes."""
    if not reflector_feed:
        return feed_attacks
    merged = list(feed_attacks) + reflector_feed.inferred_attacks()
    merged.sort(key=lambda a: (a.start, a.victim_ip))
    return merged


def _scan_open_resolvers(ctx: RunContext, world: World) -> OpenResolverScan:
    return OpenResolverScan.from_world(world)


def _join_feed_and_crawl(ctx: RunContext, curated_feed, world: World,
                         open_resolvers: OpenResolverScan) -> DatasetJoin:
    return join_datasets(curated_feed, world.directory, open_resolvers)


def _build_metadata(ctx: RunContext, world: World) -> NSSetMetadata:
    return NSSetMetadata(world.directory, world.prefix2as,
                         world.as2org, world.census)


def _extract_events(ctx: RunContext, join: DatasetJoin,
                    store: MeasurementStore,
                    metadata: NSSetMetadata) -> List[AttackEvent]:
    return extract_events(join, store, metadata, EVENT_MIN_DOMAINS)


def _run_counterfactuals(ctx: RunContext, world: World, events):
    """The pack's mitigation counterfactuals over the finished events."""
    return world.pack.counterfactuals(world, events)


def _publish_store_metrics(ctx: RunContext,
                           store: MeasurementStore) -> None:
    store.publish_metrics(ctx.telemetry.registry)


# -- the declared pipeline ----------------------------------------------------

STUDY_PHASES = (
    Phase("world",
          compute=_build_configured_world,
          enabled=lambda ctx: ctx.params.get("world") is None,
          fallback=lambda ctx: ctx.params["world"],
          doc="seeded ground truth: providers, domains, attack schedule"),
    Phase("telescope",
          compute=_observe_telescope,
          inputs=("world",),
          provides="feed",
          cache_key="telescope",
          annotations=lambda feed, ctx: {
              "attacks_inferred": len(feed.attacks)},
          doc="darknet backscatter -> inferred RSDoS attack feed"),
    Phase("crawl",
          compute=_run_crawl,
          inputs=("world",),
          provides="crawl_store",
          cache_key="crawl",
          annotations=lambda store, ctx: {"rows": store.n_measurements},
          doc="OpenINTEL-style daily DNS crawl of every domain"),
    Phase("corrupt_store",
          compute=_corrupt_store,
          inputs=("crawl_store",),
          provides="store",
          traced=False,
          enabled=_chaos_enabled,
          fallback=lambda ctx, crawl_store: crawl_store,
          doc="chaos: damage the filled measurement store in place"),
    Phase("feed_harden",
          compute=_harden_feed,
          inputs=("feed",),
          provides="feed_attacks",
          enabled=_chaos_enabled,
          fallback=lambda ctx, feed: feed.attacks,
          annotations=lambda survivors, ctx: {
              "survivors": len(survivors),
              "dead_letters": len(ctx.params["injector"].dead_letters)},
          doc="chaos: re-validate the faulted feed (retries, dead letters)"),
    Phase("pack_telescope",
          compute=_observe_reflectors,
          inputs=("world",),
          provides="reflector_feed",
          enabled=_reflector_enabled,
          fallback=lambda ctx, world: None,
          annotations=lambda feed, ctx: {
              "reflections": len(feed) if feed else 0},
          doc="pack: reflector-query inference branch (amplification)"),
    Phase("pack_feed",
          compute=_merge_curated_feeds,
          inputs=("feed_attacks", "reflector_feed"),
          provides="curated_feed",
          enabled=_reflector_enabled,
          fallback=lambda ctx, feed_attacks, reflector_feed: feed_attacks,
          annotations=lambda merged, ctx: {"records": len(merged)},
          doc="pack: merge backscatter + reflector feeds for the join"),
    Phase("open_resolvers",
          compute=_scan_open_resolvers,
          inputs=("world",),
          traced=False,
          doc="open-resolver scan used to filter reflection targets"),
    Phase("join",
          compute=_join_feed_and_crawl,
          inputs=("curated_feed", "world", "open_resolvers"),
          cache_key="join",
          annotations=lambda join, ctx: {
              "records": len(join.classified),
              "rejected": len(join.rejected)},
          doc="§4 join: classify feed attacks against the domain directory"),
    Phase("metadata",
          compute=_build_metadata,
          inputs=("world",),
          traced=False,
          doc="NSSet metadata (prefix2AS, AS2Org, anycast census)"),
    Phase("events",
          compute=_extract_events,
          inputs=("join", "store", "metadata"),
          cache_key="events",
          annotations=lambda events, ctx: {"events": len(events)},
          doc="attack events with per-window impact series"),
    Phase("counterfactuals",
          compute=_run_counterfactuals,
          inputs=("world", "events"),
          enabled=_counterfactual_enabled,
          fallback=lambda ctx, world, events: None,
          annotations=lambda report, ctx: {
              "attacks": report.n_attacks if report else 0},
          doc="pack: layered-mitigation impact deltas (defense)"),
    Phase("store_metrics",
          compute=_publish_store_metrics,
          inputs=("store",),
          traced=False,
          doc="publish repro.store.* totals to the run's registry"),
)

#: The validated Figure-1 dataflow; phases run in the order declared.
STUDY_GRAPH = PhaseGraph(STUDY_PHASES, name="study")


def study_graph(analyses: bool = True) -> PhaseGraph:
    """The declared study DAG; with ``analyses`` the nine lazy
    :class:`Study` analyses are grafted on as consumer nodes (what
    ``python -m repro graph`` prints)."""
    if not analyses:
        return STUDY_GRAPH
    extra = tuple(analysis_graph(Study).phases)
    return PhaseGraph(STUDY_PHASES + extra, name="study")


class _CompanyRanking(list):
    """Table 6: the full company ranking; callable to take the top n
    (the historical ``study.top_companies(n)`` signature)."""

    def __call__(self, n: int) -> List:
        return list(self[:n])


@dataclass
class Study:
    """All datasets and lazily-computed analyses of one run."""

    config: WorldConfig
    world: World
    feed: RSDoSFeed
    store: MeasurementStore
    open_resolvers: OpenResolverScan
    join: DatasetJoin
    metadata: NSSetMetadata
    events: List[AttackEvent]
    #: the reflector-query feed of the pack's extra telescope branch
    #: (None unless the pack declares ``reflector_queries``).
    reflector_feed: Optional[object] = None
    #: the pack's mitigation counterfactual report (None unless the
    #: pack declares ``has_counterfactuals``).
    counterfactuals: Optional[object] = None
    #: the fault injector of a chaos run (None on clean runs); carries
    #: the injected-fault log and the feed hardening's dead letters.
    chaos: Optional["FaultInjector"] = None
    #: the run's telemetry (metrics + phase spans); defaults to the
    #: shared no-op bundle, and is never ``None`` after construction.
    telemetry: RunTelemetry = None

    def __post_init__(self) -> None:
        if self.telemetry is None:
            self.telemetry = NULL_TELEMETRY

    @property
    def pack(self):
        """The run's scenario pack (see :mod:`repro.attacks.packs`)."""
        return self.world.pack

    def pack_analysis(self):
        """The pack's own analysis of this study (``None`` for packs
        that add nothing, e.g. the default volumetric pack)."""
        return self.pack.analyze(self)

    @property
    def degraded_events(self) -> List[AttackEvent]:
        """Events whose impact series was built on impaired data."""
        return [e for e in self.events if e.degraded]

    @property
    def degraded(self) -> bool:
        """True when any pipeline stage ran on impaired inputs.

        Rows the store's ingest guard rejected count: damaged RTT
        telemetry that the store refused to aggregate still means the
        store was fed impaired inputs, even when every surviving
        aggregate, join record, and event is clean.
        """
        return (self.join.degraded or self.store.n_rejected > 0
                or bool(self.degraded_events))

    @cached_analysis(deps=("join",))
    def monthly(self) -> MonthlySummary:
        """Table 3 / Table 1."""
        return monthly_summary(self.join)

    @cached_analysis(deps=("join",))
    def ports(self) -> PortAnalysis:
        """Figure 6."""
        return analyze_ports(self.join)

    @cached_analysis(deps=("events",))
    def successful_ports(self) -> PortAnalysis:
        """§6.3.1's successful-attack port mix."""
        return analyze_successful_ports(self.events)

    @cached_analysis(deps=("events",))
    def failures(self) -> FailureAnalysis:
        """Figure 7 / §6.3.1."""
        return analyze_failures(self.events)

    @cached_analysis(deps=("events",))
    def impact(self) -> ImpactAnalysis:
        """Figure 8 / §6.3.2."""
        return analyze_impact(self.events)

    @cached_analysis(deps=("events",))
    def correlation(self) -> CorrelationAnalysis:
        """Figures 9-10."""
        return analyze_correlation(self.events)

    @cached_analysis(deps=("events",))
    def resilience(self) -> ResilienceAnalysis:
        """Figures 11-13."""
        return analyze_resilience(self.events)

    @cached_analysis(deps=("events",))
    def top_companies(self) -> "_CompanyRanking":
        """Table 6 (call with ``n`` for the top slice)."""
        return _CompanyRanking(
            top_companies_by_impact(self.events, n=len(self.events)))

    @cached_analysis(deps=("world", "feed"))
    def visibility(self):
        """§4.3 quantified: what the telescope missed (oracle view —
        uses the world's ground truth, so it is a simulation-only
        analysis, clearly separated from the dataset-pure ones)."""
        from repro.core.visibility import analyze_visibility

        return analyze_visibility(self.world.attacks, self.feed)

    def report(self) -> str:
        """The full textual study report."""
        from repro.core.report import render_report

        return render_report(self)


def _open_phase_cache(cache, config: WorldConfig, world: Optional[World],
                      chaos: Optional["ChaosConfig"],
                      telemetry: RunTelemetry):
    """Gate and open the artifact cache for one run.

    A pre-built world bypasses the cache with a :class:`RuntimeWarning`;
    otherwise returns the opened
    :class:`~repro.artifacts.cache.PhaseCache` and the chained
    fingerprint keys of the phases it may serve. A chaos run gets the
    keys of the phases no fault reaches: the telescope, and the crawl
    when the transport (the crawl's only fault surface) is null. Feed
    faults reach the join and store faults the events, so those stay
    uncached.
    """
    if cache is None:
        return None, {}
    if world is not None:
        _warn_bypass(PREBUILT_WORLD_REASON, stacklevel=4)
        return None, {}
    from repro.artifacts.cache import PhaseCache
    from repro.artifacts.fingerprint import study_keys

    keys = study_keys(config)
    if chaos is not None:
        kept = (("telescope", "crawl") if chaos.transport.is_null
                else ("telescope",))
        keys = {phase: keys[phase] for phase in kept}
    return PhaseCache.open(cache, telemetry=telemetry), keys


def run_study(config: Optional[WorldConfig] = None,
              world: Optional[World] = None,
              chaos: Optional["ChaosConfig"] = None,
              n_workers: int = 1,
              telemetry: Optional[RunTelemetry] = None,
              cache: Optional[Union[str, "ArtifactStore",
                                    "PhaseCache"]] = None,
              journal: Optional[Union[str, RunJournal]] = None,
              profile: bool = False) -> Study:
    """Run the full pipeline: world -> telescope + OpenINTEL -> join ->
    events. Pass a pre-built ``world`` to reuse one across analyses;
    otherwise the world is built from ``config``, scripted case studies
    included (:func:`repro.world.simulation.build_world`).

    The run executes :data:`STUDY_GRAPH` — the declared §4 dataflow —
    through the :class:`repro.engine.Executor`, whose one phase runner
    applies spans, journal records, profiling and cache traffic
    identically to every phase.

    The crawl runs in this process. ``n_workers`` is kept for callers
    that pass it: any value other than 1 warns once and changes
    nothing, and a value below 1 raises :class:`ValueError`.

    ``chaos`` enables seeded fault injection on the pipeline's
    measurement surfaces (see :mod:`repro.chaos`): the crawl's transport
    is wrapped, the feed is faulted and re-validated with retries and a
    circuit breaker (refused records dead-letter with a reason, see
    :class:`repro.chaos.FaultInjector`), and the measurement
    store is damaged post-crawl. Analyses then degrade — flagging
    affected events — rather than crash. With every fault probability
    at zero the run is byte-identical to a clean one.

    ``telemetry`` threads a :class:`repro.obs.RunTelemetry` through the
    run: per-phase spans (world build, telescope, crawl, join, events —
    the lazy analyses span as they are computed), ``repro.crawl.*``
    crawl stats, ``repro.stream.*`` / ``repro.chaos.*`` counters on a
    chaos run, and ``repro.store.*`` ingest totals. Telemetry observes only — it draws from no seeded
    RNG, and every study output is bit-identical whether it is enabled
    or the default no-op bundle (a test asserts this).

    ``cache`` enables the :mod:`repro.artifacts` phase cache: a cache
    directory path (created if missing), an
    :class:`~repro.artifacts.store.ArtifactStore`, or a ready
    :class:`~repro.artifacts.cache.PhaseCache`. Each expensive phase
    (telescope, crawl, join, events) is keyed by a fingerprint chained
    from the canonical config; on a hit the phase is skipped — its span
    is annotated ``cached=True`` and ``repro.cache.*`` counters record
    the traffic — and on a miss the freshly-computed artifact is
    stored. Warm-cache output is bit-identical to cold (tests assert
    it). A chaos run reads and writes only the phases no fault reaches
    — the telescope, and the crawl unless transport faults are on —
    under the clean run's keys; its faulted join and events are never
    cached. A run on a pre-built ``world`` bypasses the cache with a
    warning: the world may have been edited since it was built
    (``World.replace_attacks``), so its config does not fingerprint it.

    ``journal`` writes the run's append-only JSONL event log (see
    :mod:`repro.obs.journal`): a path opens (and closes) a fresh
    :class:`~repro.obs.RunJournal` for this run; an already-open
    journal is attached as-is and left open, so the caller's later
    lazy-analysis accesses keep journaling. ``profile`` turns on
    per-phase resource profiling (:mod:`repro.obs.profile`), published
    as ``repro.profile.*`` gauges. Either flag upgrades a default no-op
    telemetry to an enabled bundle; both observe only — stdout and
    every study output stay byte-identical (asserted in tests and CI).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if n_workers != 1:
        _warn_bypass(WORKERS_IGNORED_REASON)
    telemetry = telemetry or NULL_TELEMETRY
    if (journal is not None or profile) and telemetry is NULL_TELEMETRY:
        telemetry = RunTelemetry.create()
    owns_journal = False
    if journal is not None:
        if isinstance(journal, str):
            journal = RunJournal(journal, run_id=telemetry.run_id,
                                 clock=telemetry.clock,
                                 started_at_utc=telemetry.started_at_utc)
            owns_journal = True
        telemetry.attach_journal(journal)
    config = world.config if world is not None else (config or WorldConfig())
    phase_cache, keys = _open_phase_cache(cache, config, world, chaos,
                                          telemetry)
    injector: Optional["FaultInjector"] = None
    if chaos is not None:
        from repro.chaos.injector import FaultInjector

        injector = FaultInjector(chaos, telemetry=telemetry)

    ctx = RunContext(telemetry=telemetry, params={
        "config": config,
        "world": world,
        "injector": injector,
    })
    profiler = None
    if profile:
        from repro.obs.profile import PhaseProfiler

        profiler = PhaseProfiler(telemetry.registry)
    executor = Executor(STUDY_GRAPH, cache=phase_cache, keys=keys,
                        profiler=profiler)
    jnl = telemetry.journal
    jnl.emit("run.start", run_id=telemetry.run_id, seed=config.seed,
             n_domains=config.n_domains, chaos=injector is not None,
             cached=phase_cache is not None, profiled=profile)
    try:
        values = executor.run(ctx, root_span="study",
                              root_meta={"seed": config.seed,
                                         "n_domains": config.n_domains})
        study = Study(config=config, world=values["world"],
                      feed=values["feed"], store=values["store"],
                      open_resolvers=values["open_resolvers"],
                      join=values["join"], metadata=values["metadata"],
                      events=values["events"],
                      reflector_feed=values.get("reflector_feed"),
                      counterfactuals=values.get("counterfactuals"),
                      chaos=injector, telemetry=telemetry)
        if jnl.enabled:
            if study.degraded:
                jnl.emit("degraded",
                         join_rejected=len(study.join.rejected),
                         store_rejected=study.store.n_rejected,
                         degraded_events=len(study.degraded_events))
            jnl.emit("run.finish", degraded=study.degraded,
                     faults=len(injector.events) if injector else 0)
        return study
    finally:
        if profiler is not None:
            profiler.close()
        if owns_journal:
            journal.close()
