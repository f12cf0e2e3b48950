"""The sharded measurement store: day-partitioned study artifacts.

One :class:`ShardedStudyStore` wraps a config, its (possibly edited)
attack schedule, and an :class:`~repro.artifacts.store.ArtifactStore`.
Each timeline day owns a four-artifact partition — telescope feed,
crawl measurement store, join, events — persisted under the per-day
chained keys of :func:`repro.artifacts.fingerprint.day_keys`, so the
store factors the monolithic study into independently-buildable,
independently-invalidated day shards.

:meth:`build` is incremental by construction: it hands the executor
only the day's *missing* pipeline partitions as targets (the executor
fetches their cached ancestors and computes the rest), and assembles
events partitions from cached neighbours. A fully-warm day costs one
``has()`` probe per phase; after editing one day's schedule
(:func:`scale_attacks_on_day`, ``ShardedStudyStore(..., edit=...)``)
only the invalidated day chains re-execute — the property the serve
tests assert byte-for-byte.

Partition semantics are serve-specific, not byte-equal to a monolithic
``run_study``: each day's telescope runs on a fresh, day-derived RNG
(the shared-stream simulator is order-dependent across attacks, so day
purity requires it), and each day's events read the crawl days the
partition's attacks can touch (previous day for baselines, later days
for windows crossing midnight). Within the serve layer everything is
deterministic: same config + schedule => same keys => same bytes.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.artifacts import PhaseCache, dumps_catalog, loads_catalog
from repro.artifacts.fingerprint import (attacks_starting_on, catalog_key,
                                         day_keys, events_crawl_cover)
from repro.core.events import EVENT_MIN_DOMAINS, extract_events
from repro.core.nsset import NSSetMetadata
from repro.core.pipeline import STUDY_GRAPH
from repro.engine import Executor, RunContext
from repro.obs import NULL_TELEMETRY, RunTelemetry
from repro.openintel.storage import MeasurementStore
from repro.util.rng import derive_rng, derive_seed
from repro.util.timeutil import DAY, day_start, format_ts
from repro.world.config import WorldConfig
from repro.world.simulation import World, build_world

__all__ = ["DayPlan", "BuildReport", "ShardedStudyStore",
           "scale_attacks_on_day", "SERVE_PHASES"]

#: The four per-day partition phases, in chain order.
SERVE_PHASES = ("telescope", "crawl", "join", "events")

#: Pipeline-graph partitions (built through the executor; events
#: partitions are assembled outside the graph from cached neighbours).
_PIPELINE_PHASES = ("telescope", "crawl", "join")
#: Warm partitions a store keeps in memory; the oldest loaded goes
#: first.
LOADED_CAP = 64


def scale_attacks_on_day(attacks, day: int, factor: float) -> List:
    """A copy of ``attacks`` with every vector of every attack starting
    on ``day`` scaled by ``factor`` — the canonical what-if edit knob
    (``repro serve --edit-day --edit-scale``)."""
    out = []
    for attack in attacks:
        if day_start(attack.window.start) == day:
            vectors = [dataclasses.replace(v, pps=v.pps * factor)
                       for v in attack.vectors]
            out.append(dataclasses.replace(attack, vectors=vectors))
        else:
            out.append(attack)
    return out


@dataclasses.dataclass(frozen=True)
class DayPlan:
    """One day's partition keys and their cache disposition."""

    day: int
    keys: Mapping[str, str]
    missing: Tuple[str, ...]

    @property
    def warm(self) -> bool:
        return not self.missing

    def action(self, phase: str) -> str:
        return "compute" if phase in self.missing else "reuse"

    def to_doc(self) -> Dict:
        """A deterministic JSON-able form (``repro serve --plan``)."""
        return {
            "day": format_ts(self.day)[:10],
            "keys": {phase: self.keys[phase] for phase in SERVE_PHASES},
            "actions": {phase: self.action(phase)
                        for phase in SERVE_PHASES},
        }


@dataclasses.dataclass
class BuildReport:
    """What one :meth:`ShardedStudyStore.build` pass did, per phase."""

    computed: Dict[str, List[int]]
    reused: Dict[str, List[int]]

    @property
    def n_computed(self) -> int:
        return sum(len(v) for v in self.computed.values())

    @property
    def n_reused(self) -> int:
        return sum(len(v) for v in self.reused.values())

    def summary(self) -> str:
        """Deterministic multi-line summary (CI byte-diffs warm runs)."""
        n_days = len(set(d for v in self.computed.values() for d in v)
                     | set(d for v in self.reused.values() for d in v))
        lines = [f"serve store: {n_days} days x {len(SERVE_PHASES)} phases "
                 f"({self.n_computed} partitions computed, "
                 f"{self.n_reused} reused)"]
        for phase in SERVE_PHASES:
            done = sorted(self.computed.get(phase, []))
            days = (" [" + " ".join(format_ts(d)[:10] for d in done) + "]"
                    if done else "")
            lines.append(f"  {phase}: computed {len(done)}, "
                         f"reused {len(self.reused.get(phase, []))}{days}")
        return "\n".join(lines)


class ShardedStudyStore:
    """Day-partitioned study artifacts over one artifact cache."""

    def __init__(self, config: WorldConfig, cache,
                 install_scenarios: bool = True,
                 telemetry: Optional[RunTelemetry] = None,
                 edit: Optional[Callable[[List], List]] = None):
        self.config = config
        self.install_scenarios = install_scenarios
        self.telemetry = telemetry or NULL_TELEMETRY
        self.cache = PhaseCache.open(cache, telemetry=self.telemetry)
        self._edit = edit
        self._world: Optional[World] = None
        self._metadata: Optional[NSSetMetadata] = None
        self._day_keys: Optional[Dict[int, Dict[str, str]]] = None
        #: warm (phase, day) -> artifact, capped at ``LOADED_CAP``.
        self._loaded: Dict[Tuple[str, int], object] = {}
        self._maintenance = False

    # -- inputs ---------------------------------------------------------------

    def world(self) -> World:
        """The (lazily built, possibly edited) ground-truth world."""
        if self._world is None:
            world = build_world(self.config,
                                install_scenarios=self.install_scenarios)
            if self._edit is not None:
                world.replace_attacks(self._edit(list(world.attacks)))
            self._world = world
        return self._world

    def metadata(self) -> NSSetMetadata:
        if self._metadata is None:
            world = self.world()
            self._metadata = NSSetMetadata(world.directory, world.prefix2as,
                                           world.as2org, world.census)
        return self._metadata

    def day_keys(self) -> Dict[int, Dict[str, str]]:
        """Per-day chained keys of the current (edited) schedule."""
        if self._day_keys is None:
            self._day_keys = day_keys(self.config, self.world().attacks,
                                      self.install_scenarios)
        return self._day_keys

    def days(self) -> List[int]:
        return sorted(self.day_keys())

    # -- planning -------------------------------------------------------------

    def plan(self) -> List[DayPlan]:
        """Which partitions a :meth:`build` would compute vs reuse.

        Deterministic and side-effect free (``has`` probes only — no
        LRU touches), so two consecutive plans byte-match.
        """
        store = self.cache.store
        return [
            DayPlan(day=day, keys=keys,
                    missing=tuple(phase for phase in SERVE_PHASES
                                  if not store.has(keys[phase])))
            for day, keys in sorted(self.day_keys().items())
        ]

    # -- building -------------------------------------------------------------

    def build(self) -> BuildReport:
        """Bring every day partition into the cache, incrementally.

        Two passes: the pipeline partitions (telescope -> crawl ->
        join) run per day through the executor with day-scoped keys,
        targeting only the day's missing partitions — then events
        partitions are assembled from the cached join + neighbouring
        crawl days. Warm partitions are never recomputed, and untouched
        days' artifacts are never rewritten.
        """
        journal = self.telemetry.journal
        plans = self.plan()
        report = BuildReport(computed={p: [] for p in SERVE_PHASES},
                             reused={p: [] for p in SERVE_PHASES})
        journal.emit("serve.build.start", days=len(plans),
                     cold=sum(1 for p in plans if not p.warm))
        with self.telemetry.tracer.span("serve.build"):
            for plan in plans:
                self._build_pipeline_day(plan, report)
            for plan in plans:
                self._build_events_day(plan, report)
            # Materialize the catalog now, while the world is in hand,
            # so serving never rebuilds it per query.
            self.catalog()
        journal.emit("serve.build.finish", computed=report.n_computed,
                     reused=report.n_reused)
        return report

    def _count_partition(self, phase: str, action: str) -> None:
        self.telemetry.registry.counter("repro.serve.partitions",
                                        phase=phase, action=action).inc()

    def _record(self, report: BuildReport, plan: DayPlan,
                phase: str) -> None:
        action = plan.action(phase)
        bucket = (report.computed if action == "compute"
                  else report.reused)
        bucket[phase].append(plan.day)
        self._count_partition(phase, f"{action}d")
        self.telemetry.journal.emit("serve.partition",
                                    day=format_ts(plan.day)[:10],
                                    phase=phase, action=action)

    def _build_pipeline_day(self, plan: DayPlan,
                            report: BuildReport) -> None:
        targets = [p for p in _PIPELINE_PHASES if p in plan.missing]
        if targets:
            self._run_day(plan, targets)
        for phase in _PIPELINE_PHASES:
            self._record(report, plan, phase)

    def _run_day(self, plan: DayPlan, targets: List[str]) -> None:
        world = self.world()
        day = plan.day
        # Each day's telescope runs on its own derived stream (the
        # shared-rng simulator is draw-order-dependent across attacks,
        # so day purity requires a per-day fresh one); the crawl is
        # per-(domain, day) pure already and just gets windowed.
        rng = derive_rng(world.rngs.spawn_seed("serve", "telescope"),
                         str(day))
        jitter = derive_seed(world.rngs.spawn_seed("serve", "jitter"),
                             str(day))
        ctx = RunContext(telemetry=self.telemetry, params={
            "config": self.config,
            "world": world,
            "injector": None,
            "install_scenarios": self.install_scenarios,
            "attacks": attacks_starting_on(world.attacks, day),
            "telescope_rng": rng,
            "telescope_jitter_seed": jitter,
            "crawl_window": (day, day + DAY),
        })
        Executor(STUDY_GRAPH, cache=self.cache, keys=plan.keys).run(
            ctx, targets=targets)

    def _build_events_day(self, plan: DayPlan,
                          report: BuildReport) -> None:
        if "events" in plan.missing:
            world = self.world()
            join = self.load_day(plan.day, "join")
            merged = MeasurementStore()
            cover = events_crawl_cover(
                plan.day, attacks_starting_on(world.attacks, plan.day),
                self.config.timeline)
            for day in cover:
                part = self.load_day(day, "crawl")
                if part is not None:
                    merged.merge(part)
            events = extract_events(join, merged, self.metadata(),
                                    EVENT_MIN_DOMAINS)
            self.cache.save("events", plan.keys["events"], events)
            self._loaded[("events", plan.day)] = events
            self._trim_loaded()
        self._record(report, plan, "events")

    # -- reading --------------------------------------------------------------

    def load_day(self, day: int, phase: str):
        """The day's ``phase`` artifact, or ``None`` when the shard is
        cold (not yet built, or evicted by gc). Warm partitions are
        kept in memory, at most ``LOADED_CAP`` of them."""
        cached = self._loaded.get((phase, day))
        if cached is not None:
            return cached
        keys = self.day_keys().get(day)
        if keys is None:
            raise KeyError(f"day {format_ts(day)} outside the timeline")
        artifact = self.cache.fetch(phase, keys[phase])
        if artifact is None:
            return None
        self.telemetry.registry.counter("repro.serve.shard_loads",
                                        phase=phase).inc()
        self._loaded[(phase, day)] = artifact
        self._trim_loaded()
        return artifact

    def _trim_loaded(self) -> None:
        while len(self._loaded) > LOADED_CAP:
            self._loaded.pop(next(iter(self._loaded)))

    # -- the catalog ----------------------------------------------------------

    def catalog(self) -> Dict:
        """The domain->NSSet catalog (cached under its own key)."""
        key = catalog_key(self.config, self.install_scenarios)
        data = self.cache.store.get(key)
        if data is not None:
            try:
                return loads_catalog(data)
            except ValueError:
                pass
        catalog = self._build_catalog()
        self.cache.store.put(key, dumps_catalog(catalog), phase="catalog")
        return catalog

    def _build_catalog(self) -> Dict:
        world = self.world()
        window = self.config.timeline.window
        domains = {str(rec.name): rec.nsset_id
                   for rec in world.directory.domains}
        nsset_domains: Dict[str, int] = {}
        for rec in world.directory.domains:
            nsset = str(rec.nsset_id)
            nsset_domains[nsset] = nsset_domains.get(nsset, 0) + 1
        return {
            "start": window.start,
            "end": window.end,
            "days": self.days(),
            "n_domains": len(domains),
            "domains": domains,
            "nsset_domains": nsset_domains,
        }

    # -- maintenance ----------------------------------------------------------

    @property
    def in_maintenance(self) -> bool:
        return self._maintenance

    @contextmanager
    def maintenance(self) -> Iterator[None]:
        """Mark the store as under maintenance; the query service
        answers 503 + Retry-After for the duration."""
        self._maintenance = True
        try:
            yield
        finally:
            self._maintenance = False

    def gc(self, max_bytes: int):
        """LRU-evict down to ``max_bytes`` under the maintenance flag;
        evicted shards answer 503 (cold) until rebuilt."""
        with self.maintenance():
            evicted = self.cache.store.gc(max_bytes)
        if evicted:
            # Drop the whole warm set: an evicted shard must turn cold
            # immediately, and survivors just reload on next use.
            self._loaded.clear()
        return evicted
