"""End-to-end study benchmark: five named workloads, outside-in layer timing.

One rep is what a user of ``python -m repro report`` waits for:
``run_study(config, ...)`` followed by ``Study.report()``, world build
included. A run sweeps ``SWEEP`` worlds seeded from ``--seed`` (``seed``,
``seed + 1000``, ``seed + 2000``) round-robin until ``--seconds`` have
passed, and reports each metric as the per-world median averaged over
the sweep, so a single world's attack draw does not decide the number.

Run from the repository root::

    python3 studybench/bench_study_e2e.py --workload month_cold --seed 42 --seconds 12 --trace 0
    python3 studybench/bench_study_e2e.py --trace 1 --out studybench/baselines
    python3 -m pytest studybench/bench_study_e2e.py -k smoke

With one ``--workload`` the last line of stdout is one JSON object,
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. With several workloads (or none: all five) each runs in
its own child process and a table is printed. Exit status is non-zero
when any rep raised or failed the output check.

``--trace 1`` pairs every untraced rep with a traced one on a world from
``build_world``. Layer time is taken from outside: wrappers installed
around each layer's entry points for the traced rep only, then
restored. No program code changes; see README.md for the method.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

try:
    from repro import (ChaosConfig, RunTelemetry, WorldConfig, build_world,
                       run_study)
    from repro.dns.resolver import AgnosticResolver
    from repro.openintel.platform import OpenIntelPlatform
    from repro.openintel.storage import MeasurementStore
    from repro.telescope.backscatter import BackscatterSimulator
    from repro.telescope.rsdos import RSDoSClassifier
    from repro.util.timeutil import FIVE_MINUTES
except ImportError as exc:  # a checkout without the program's sources
    raise SystemExit(f"bench_study_e2e: cannot import repro from {SRC}: {exc}")

EXPECTED_PATH = os.path.join(HERE, "expected_study_e2e.json")
SNAPSHOT_NAME = "BENCH_study_e2e.json"

#: worlds per run; their seeds are ``seed + SEED_STRIDE * i``.
SWEEP = 3
SEED_STRIDE = 1000
#: fresh-interpreter ``import repro`` timings per set-up measurement.
SETUP_PROBES = 3

#: One month of crawl, as in the ROADMAP's reference world, at a quarter
#: of its 8000 domains: a rep takes ~2 s, so one run holds two rounds of
#: the sweep in ~13 s.
BASE = dict(start="2021-03-01", end_exclusive="2021-04-01",
            n_domains=2000, attacks_per_month=1200)
#: ``WorldConfig.tiny()``'s world, for the harness self-test.
TINY = dict(start="2021-03-01", end_exclusive="2021-04-01", n_domains=600,
            n_selfhosted_providers=20, n_filler_providers=8,
            attacks_per_month=120)


@dataclass(frozen=True)
class Workload:
    """How one workload departs from ``month_cold``."""

    config: Dict[str, object] = field(default_factory=dict)
    n_workers: int = 1
    chaos: Optional[str] = None
    #: run against a phase cache filled during set-up.
    cached: bool = False

    def world_config(self, seed: int, base: Dict[str, object]) -> WorldConfig:
        return WorldConfig(seed=seed, **{**base, **self.config})

    def run_kwargs(self, seed: int) -> Dict[str, object]:
        chaos = (ChaosConfig.preset(self.chaos, seed=seed)
                 if self.chaos else None)
        return {"n_workers": self.n_workers, "chaos": chaos}


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    "month_cold": Workload(),
    "attack_dense": Workload(config={"end_exclusive": "2021-03-08",
                                     "attacks_per_month": 3000}),
    "month_warm": Workload(cached=True),
    "month_2workers": Workload(n_workers=2),
    "month_chaos": Workload(chaos="light"),
}

E2E_UNITS = {"study_s": "s", "cpu_s": "s", "setup_s": "s",
             "peak_rss_mb": "MiB"}

LAYER_UNITS = {
    "crawl.s": "s", "crawl.self_s": "s", "crawl.domain_days": "count",
    "crawl.fast_path_days": "count", "crawl.resolver_days": "count",
    "crawl.rows": "count", "crawl.us_per_domain_day": "us",
    "dns.resolve_calls": "count", "dns.resolve_s": "s",
    "dns.resolve_self_s": "s",
    "world.transport_calls": "count", "world.transport_s": "s",
    "world.transport_self_s": "s",
    "world.load_at_calls.crawl": "count",
    "world.load_at_calls.telescope": "count",
    "world.load_at_s.crawl": "s", "world.load_at_s.telescope": "s",
    "world.load_at_reuse": "ratio", "world.build_s": "s",
    "capacity.sample_reply_calls": "count", "capacity.sample_reply_s": "s",
    "store.ingest_calls": "count", "store.ingest_s": "s",
    "telescope.s": "s", "telescope.observe_calls": "count",
    "telescope.observe_s": "s", "telescope.infer_s": "s",
    "telescope.attacks_inferred": "count",
    "core.join_s": "s", "core.events_s": "s", "core.events": "count",
    "core.analyses_s": "s", "core.report_s": "s",
    "cache.fetch_s": "s", "cache.hits": "count", "cache.misses": "count",
    "cache.bytes_read": "bytes", "cache.bytes_written": "bytes",
    "shard.max_s": "s", "shard.parent_s": "s", "shard.children_cpu_s": "s",
    "shard.children_rss_mb": "MiB",
    "chaos.faults": "count", "chaos.rejected_rows": "count",
    "chaos.dead_letters": "count", "chaos.feed_harden_s": "s",
    "obs.trace_overhead_pct": "%",
}


class OutputMismatch(Exception):
    """A rep's report or counts differ from the expected ones."""


# -- outside-in layer timing ---------------------------------------------------

#: (class, attribute, layer name) of the class-level entry points.
CLASS_LAYERS = (
    (AgnosticResolver, "resolve", "dns.resolve"),
    (MeasurementStore, "add_fast", "store.ingest"),
    (BackscatterSimulator, "observe_attack", "telescope.observe"),
    (RSDoSClassifier, "infer", "telescope.infer"),
)
#: the phase span each top-level telescope layer nests under.
ROOT_PHASE = {"telescope.observe": "telescope", "telescope.infer": "telescope"}
CRAWL_RUN = "openintel.run"


class LayerProfile:
    """Call counts and busy time per call path of the wrapped layers.

    Every wrapper pushes its layer name on a stack, so a layer reached
    from two places (``world.load_at`` from the transport and from the
    telescope) keeps one aggregate per path. A wrapper's own cost lands
    in its caller's self time.
    """

    def __init__(self) -> None:
        #: call path -> [calls, busy seconds]
        self.nodes: Dict[Tuple[str, ...], List[float]] = {}
        #: top-level layer -> distinct (nameserver, 5-minute bucket) keys
        #: ``world.load_at`` saw below it.
        self.load_keys: Dict[str, set] = {}
        self._stack: List[Tuple[str, ...]] = [()]

    def wrap(self, fn, name: str):
        nodes, stack, clock = self.nodes, self._stack, time.perf_counter

        def timed(*args, **kwargs):
            path = stack[-1] + (name,)
            stack.append(path)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                node = nodes.get(path)
                if node is None:
                    nodes[path] = [1, elapsed]
                else:
                    node[0] += 1
                    node[1] += elapsed
        return timed

    def _track_load(self, load_at):
        stack, keys = self._stack, self.load_keys

        def tracked(ns, ts):
            top = stack[-1][0] if len(stack) > 1 else ""
            keys.setdefault(top, set()).add((ns.ip, int(ts) // FIVE_MINUTES))
            return load_at(ns, ts)
        return tracked

    def _subtree(self, root: str) -> Dict[Tuple[str, ...], Tuple]:
        return {p: tuple(v) for p, v in self.nodes.items() if p[0] == root}

    def _crawl_run(self, run):
        """Time ``OpenIntelPlatform.run`` and annotate the enclosing span
        (``crawl``, or ``crawl.shard`` in a forked worker) with the crawl
        layers' aggregates: a forked worker's counts reach the parent
        only through the span tree it ships back."""
        timed = self.wrap(run, CRAWL_RUN)

        def crawl_run(crawl_platform, *args, **kwargs):
            before = self._subtree(CRAWL_RUN)
            n_keys = len(self.load_keys.get(CRAWL_RUN, ()))
            try:
                return timed(crawl_platform, *args, **kwargs)
            finally:
                span = crawl_platform.telemetry.tracer.current
                if span is not None:
                    layers = []
                    for path, (calls, busy) in self._subtree(CRAWL_RUN).items():
                        c0, b0 = before.get(path, (0, 0.0))
                        if calls > c0:
                            layers.append([list(path), calls - c0, busy - b0])
                    span.annotate(layers=layers, load_keys=len(
                        self.load_keys.get(CRAWL_RUN, ())) - n_keys)
        return crawl_run

    @contextmanager
    def installed(self, world=None):
        """Wrap the class-level entry points, and ``world``'s transport,
        load model and capacity model; restore them all on exit."""
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, owner.__dict__.get(attr)
                          if isinstance(owner, type) else None))
            setattr(owner, attr, wrapper)

        try:
            for cls, attr, name in CLASS_LAYERS:
                patch(cls, attr, self.wrap(cls.__dict__[attr], name))
            patch(OpenIntelPlatform, "run",
                  self._crawl_run(OpenIntelPlatform.__dict__["run"]))
            if world is not None:
                patch(world, "transport",
                      self.wrap(world.transport, "world.transport"))
                patch(world, "load_at", self._track_load(
                    self.wrap(world.load_at, "world.load_at")))
                model = world.capacity_model
                patch(model, "sample_reply",
                      self.wrap(model.sample_reply, "capacity.sample_reply"))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:  # instance attribute over a method
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def _layer_nodes(records) -> List[dict]:
    """Nest ``[path, calls, busy]`` aggregates into span-like dicts."""
    roots: List[dict] = []
    by_path: Dict[Tuple[str, ...], dict] = {}
    for path, calls, busy in sorted(records, key=lambda r: (len(r[0]), r[0])):
        path = tuple(path)
        node = {"name": path[-1], "calls": calls, "busy_s": busy,
                "duration_s": busy}
        by_path[path] = node
        parent = by_path.get(path[:-1])
        (parent.setdefault("children", []) if parent else roots).append(node)
    return roots


def _account(node: dict) -> None:
    """Give every node ``calls``, ``busy_s`` and ``self_s``. Parallel
    ``crawl.shard`` children cost their parent only the slowest one."""
    node.setdefault("calls", 1)
    node.setdefault("busy_s", node["duration_s"])
    children = node.get("children", ())
    for child in children:
        _account(child)
    shards = [c["busy_s"] for c in children if c["name"] == "crawl.shard"]
    node["self_s"] = (node["busy_s"] - max(shards, default=0.0)
                      - sum(c["busy_s"] for c in children
                            if c["name"] != "crawl.shard"))


def graft_layers(root: dict, profile: LayerProfile) -> int:
    """Graft the layer aggregates into a rep's span tree; returns the
    distinct (nameserver, 5-minute bucket) keys ``load_at`` saw, counted
    per phase (and per shard of a sharded crawl)."""
    phases: Dict[str, dict] = {}
    load_keys = len(profile.load_keys.get("telescope.observe", ()))

    def walk(node: dict) -> None:
        nonlocal load_keys
        phases.setdefault(node["name"], node)
        meta = node.get("meta", {})
        if "layers" in meta:
            node.setdefault("children", []).extend(
                _layer_nodes(meta.pop("layers")))
            load_keys += meta.pop("load_keys")
        for child in node.get("children", ()):
            walk(child)

    walk(root)
    # Crawl layers arrived through span annotations; the rest are the
    # parent's own.
    records = [[p, c, b] for p, (c, b) in profile.nodes.items()
               if p[0] != CRAWL_RUN]
    for node in _layer_nodes(records):
        parent = phases.get(ROOT_PHASE.get(node["name"], ""), root)
        parent.setdefault("children", []).append(node)
    _account(root)
    return load_keys


def _walk(node: dict, phase: str = ""):
    """Yield ``(phase, node)`` for every node; a node's phase is its
    nearest ancestor among the rep root's and the ``study`` span's
    children."""
    yield phase, node
    for child in node.get("children", ()):
        yield from _walk(child, child["name"] if phase in ("", "study")
                         else phase)


def self_sum_errors(root: dict, tolerance: float = 0.05) -> List[str]:
    """Phases (and crawl shards) whose layer self times do not sum to
    their span's time, and layers busier than their caller. A phase
    holding parallel shards is checked shard by shard."""
    errors = []
    for phase, node in _walk(root):
        if node["self_s"] < -tolerance * node["busy_s"]:
            errors.append(f"{node['name']}: self {node['self_s']:.4f}s < 0")
        subtree = [n for _, n in _walk(node)]
        if ((node["name"] == phase or node["name"] == "crawl.shard")
                and not any(n["name"] == "crawl.shard" for n in subtree[1:])):
            total = sum(n["self_s"] for n in subtree)
            if abs(total - node["busy_s"]) > tolerance * node["busy_s"]:
                errors.append(f"{node['name']}: self sum {total:.4f}s "
                              f"vs {node['busy_s']:.4f}s")
    return errors


# -- per-layer metrics -----------------------------------------------------------


def _counter(counters: Dict[str, float], name: str) -> float:
    """A counter's unlabeled total, else the sum over its labels."""
    if name in counters:
        return counters[name]
    return sum(v for k, v in counters.items() if k.startswith(name + "{"))


def layer_metrics(root: dict, load_keys: int, counters: Dict[str, float],
                  study) -> Dict[str, float]:
    """The per-layer metrics of one traced rep, from its grafted span
    tree, metric counters and study (the process-level
    ``shard.children_*`` and the set-up's ``cache.bytes_written`` are
    the caller's)."""
    nodes = list(_walk(root))

    def layer(name: str, phase: Optional[str] = None) -> Tuple[float, ...]:
        found = [n for p, n in nodes if n["name"] == name
                 and (phase is None or p == phase)]
        return (sum(n["calls"] for n in found),
                sum(n["busy_s"] for n in found),
                sum(n["self_s"] for n in found))

    def duration(name: str) -> float:
        return sum(n["duration_s"] for _, n in nodes if n["name"] == name)

    crawl = next((n for _, n in nodes if n["name"] == "crawl"), None)
    shards = [n["duration_s"] for _, n in nodes if n["name"] == "crawl.shard"]
    crawl_s = (crawl["self_s"] + sum(c["busy_s"] for c in crawl.get(
        "children", ())) if crawl is not None else 0.0)
    resolve, transport = layer("dns.resolve"), layer("world.transport")
    ingest, reply = layer("store.ingest"), layer("capacity.sample_reply")
    load_crawl = layer("world.load_at", "crawl")
    load_telescope = layer("world.load_at", "telescope")
    observe = layer("telescope.observe")
    domain_days = _counter(counters, "repro.crawl.domain_days")
    injector = study.chaos
    return {
        "crawl.s": crawl_s,
        "crawl.self_s": crawl_s - resolve[1] - ingest[1],
        "crawl.domain_days": domain_days,
        "crawl.fast_path_days": _counter(counters,
                                         "repro.crawl.fast_path_days"),
        "crawl.resolver_days": _counter(counters, "repro.crawl.resolver_days"),
        "crawl.rows": _counter(counters, "repro.crawl.rows"),
        "crawl.us_per_domain_day": (crawl_s / domain_days * 1e6
                                    if domain_days else 0.0),
        "dns.resolve_calls": resolve[0],
        "dns.resolve_s": resolve[1],
        "dns.resolve_self_s": resolve[2],
        "world.transport_calls": transport[0],
        "world.transport_s": transport[1],
        "world.transport_self_s": transport[2],
        "world.load_at_calls.crawl": load_crawl[0],
        "world.load_at_calls.telescope": load_telescope[0],
        "world.load_at_s.crawl": load_crawl[1],
        "world.load_at_s.telescope": load_telescope[1],
        "world.load_at_reuse": ((load_crawl[0] + load_telescope[0])
                                / load_keys if load_keys else 0.0),
        "world.build_s": duration("world.build") + duration("world"),
        "capacity.sample_reply_calls": reply[0],
        "capacity.sample_reply_s": reply[1],
        "store.ingest_calls": ingest[0],
        "store.ingest_s": ingest[1],
        "telescope.s": duration("telescope"),
        "telescope.observe_calls": observe[0],
        "telescope.observe_s": observe[1],
        "telescope.infer_s": layer("telescope.infer")[1],
        "telescope.attacks_inferred": len(study.feed.attacks),
        "core.join_s": duration("join"),
        "core.events_s": duration("events"),
        "core.events": len(study.events),
        "core.analyses_s": sum(n["duration_s"] for _, n in nodes
                               if n["name"].startswith("analysis.")),
        "core.report_s": duration("report"),
        "cache.fetch_s": sum(n["duration_s"] for _, n in nodes
                             if n.get("meta", {}).get("cached")),
        "cache.hits": _counter(counters, "repro.cache.hits"),
        "cache.misses": _counter(counters, "repro.cache.misses"),
        "cache.bytes_read": _counter(counters, "repro.cache.bytes_read"),
        "shard.max_s": max(shards, default=0.0),
        "shard.parent_s": (crawl["duration_s"] - max(shards)
                           if shards else 0.0),
        "chaos.faults": len(injector.events) if injector else 0,
        "chaos.rejected_rows": study.store.n_rejected,
        "chaos.dead_letters": len(injector.dead_letters) if injector else 0,
        "chaos.feed_harden_s": duration("feed_harden"),
    }


# -- reps ----------------------------------------------------------------------

def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def outcome_of(study, report: str,
               counters: Optional[Dict[str, float]] = None) -> Dict[str, object]:
    """What a rep produced, for the output check."""
    out = {"sha256": hashlib.sha256(report.encode()).hexdigest(),
           "rows": study.store.n_measurements,
           "attacks_inferred": len(study.feed.attacks),
           "events": len(study.events)}
    if counters and "repro.crawl.domain_days" in counters:
        out["domain_days"] = counters["repro.crawl.domain_days"]
        out["queries"] = counters["repro.crawl.queries"]
    return out


def _import_seconds() -> float:
    """Set-up a user pays once per process: a fresh interpreter importing
    the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro"], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


@dataclass
class Result:
    """Everything one workload run measured."""

    attempted: int = 0
    failed: int = 0
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: world seed -> the union of every rep's outcome for that world
    outcomes: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: the grafted span tree of the first world's traced rep
    tree: Optional[dict] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _sweep_mean(per_world: Dict[int, List[float]]) -> float:
    """Median per world, averaged over the worlds that have values."""
    return statistics.mean(statistics.median(v)
                           for v in per_world.values() if v)


class WorkloadRun:
    """One workload, measured for a number of seconds."""

    def __init__(self, name: str, seed: int, base: Dict[str, object],
                 sweep: int, expected: Dict[str, Dict[str, object]]):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seeds = [seed + SEED_STRIDE * i for i in range(sweep)]
        self.configs = {s: self.workload.world_config(s, base)
                        for s in self.seeds}
        self.expected = expected
        self.result = Result()
        self.cache_dir: Optional[str] = None
        self.cache_bytes_written: Dict[int, float] = {}
        self.wall = {s: [] for s in self.seeds}
        self.cpu = {s: [] for s in self.seeds}
        self.traced_wall = {s: [] for s in self.seeds}
        self.traced = {s: [] for s in self.seeds}

    # -- output check -----------------------------------------------------

    def check(self, seed: int, outcome: Dict[str, object]) -> None:
        reference = self.result.outcomes.setdefault(seed, {})
        for source, other in (("earlier reps", reference),
                              ("expected_study_e2e.json",
                               self.expected.get(str(seed), {}))):
            for key in sorted(outcome.keys() & other.keys()):
                if outcome[key] != other[key]:
                    raise OutputMismatch(
                        f"{self.name} seed {seed}: {key} {outcome[key]!r} "
                        f"!= {other[key]!r} of {source}")
        reference.update(outcome)

    # -- set-up -----------------------------------------------------------

    def set_up(self, trace: bool) -> float:
        """Import the program in fresh interpreters and, for a cached
        workload, fill the phase cache with one cold study per world.
        Returns one study's set-up time: median import + median fill."""
        imports = ([] if trace
                   else [_import_seconds() for _ in range(SETUP_PROBES)])
        fills = []
        if self.workload.cached:
            self.cache_dir = tempfile.mkdtemp(prefix=".cache-", dir=HERE)
            for s in self.seeds:
                with self._operation():
                    fills.append(self._fill(s, trace))
        return ((statistics.median(imports) if imports else 0.0)
                + (statistics.median(fills) if fills else 0.0))

    def _fill(self, seed: int, trace: bool) -> float:
        telemetry = RunTelemetry.create() if trace else None
        t0 = time.perf_counter()
        study = run_study(self.configs[seed], cache=self.cache_dir,
                          telemetry=telemetry)
        report = study.report()
        elapsed = time.perf_counter() - t0
        counters = (telemetry.snapshot()["metrics"]["counters"]
                    if telemetry else None)
        if counters:
            self.cache_bytes_written[seed] = _counter(
                counters, "repro.cache.bytes_written")
        self.check(seed, outcome_of(study, report, counters))
        return elapsed

    def tear_down(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    # -- reps -------------------------------------------------------------

    @contextmanager
    def _operation(self):
        """Count one study as attempted, and as failed if it raises or
        fails the output check; the run goes on either way."""
        self.result.attempted += 1
        try:
            yield
        except Exception:
            self.result.failed += 1
            traceback.print_exc()

    def _untraced_rep(self, seed: int) -> None:
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        study = run_study(self.configs[seed], cache=self.cache_dir,
                          **self.workload.run_kwargs(seed))
        report = study.report()
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        self.check(seed, outcome_of(study, report))
        self.wall[seed].append(wall)
        self.cpu[seed].append(cpu)

    def _traced_rep(self, seed: int) -> None:
        telemetry = RunTelemetry.create()
        tracer = telemetry.tracer
        profile = LayerProfile()
        children0 = os.times()
        t0 = time.perf_counter()
        with tracer.span(f"workload.{self.name}", world_seed=seed):
            if self.workload.cached:
                # A pre-built world bypasses the cache, so this rep builds
                # its world inside run_study, like the untraced reps.
                with profile.installed():
                    study = run_study(self.configs[seed],
                                      cache=self.cache_dir,
                                      telemetry=telemetry)
            else:
                with tracer.span("world.build"):
                    world = build_world(self.configs[seed])
                with profile.installed(world):
                    study = run_study(world=world, telemetry=telemetry,
                                      **self.workload.run_kwargs(seed))
            with tracer.span("report"):
                report = study.report()
        wall = time.perf_counter() - t0
        children1 = os.times()
        snapshot = telemetry.snapshot()
        counters = snapshot["metrics"]["counters"]
        self.check(seed, outcome_of(study, report, counters))
        root = snapshot["spans"][0]
        metrics = layer_metrics(root, graft_layers(root, profile), counters,
                                study)
        sharded = metrics["shard.max_s"] > 0
        metrics.update({
            "cache.bytes_written": self.cache_bytes_written.get(seed, 0.0),
            "shard.children_cpu_s": (
                children1.children_user + children1.children_system
                - children0.children_user - children0.children_system),
            # a high-water mark over every reaped child of this process
            "shard.children_rss_mb": (resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024 if sharded
                else 0.0),
        })
        self.traced_wall[seed].append(wall)
        self.traced[seed].append(metrics)
        if self.result.tree is None:
            self.result.tree = root

    # -- the run ----------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> Result:
        """Set up, then measure rounds over the sweep's worlds until
        another round would end after ``seconds``. Untraced runs take
        at least two rounds, so every world's reps can be compared."""
        try:
            setup_s = self.set_up(trace)
            started = time.perf_counter()
            rounds: List[float] = []
            while True:
                t_round = time.perf_counter()
                for s in self.seeds:
                    with self._operation():
                        self._untraced_rep(s)
                    if trace:
                        with self._operation():
                            self._traced_rep(s)
                rounds.append(time.perf_counter() - t_round)
                elapsed = time.perf_counter() - started
                if (len(rounds) >= (1 if trace else 2)
                        and elapsed + statistics.mean(rounds) > seconds):
                    break
        finally:
            self.tear_down()
        if any(self.wall.values()):
            self.result.e2e = {
                "study_s": _sweep_mean(self.wall),
                "cpu_s": _sweep_mean(self.cpu),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        if trace and any(self.traced.values()):
            self.result.layers = {
                name: _sweep_mean({s: [m[name] for m in reps]
                                   for s, reps in self.traced.items()})
                for name in LAYER_UNITS if name != "obs.trace_overhead_pct"}
            overheads = [statistics.median(self.traced_wall[s])
                         / statistics.median(self.wall[s]) - 1.0
                         for s in self.seeds
                         if self.traced_wall[s] and self.wall[s]]
            if overheads:
                self.result.layers["obs.trace_overhead_pct"] = (
                    100.0 * statistics.mean(overheads))
        return self.result


def measure(name: str, seed: int, seconds: float, trace: bool,
            base: Dict[str, object] = BASE, sweep: int = SWEEP,
            expected: Optional[Dict[str, Dict[str, object]]] = None) -> Result:
    """Measure one workload in this process."""
    return WorkloadRun(name, seed, base, sweep, expected or {}).run(
        seconds, trace)


# -- files -----------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as fp:
            return json.load(fp)
    except FileNotFoundError:
        return {}


def _write_json(path: str, doc: dict) -> None:
    from repro.util.fileio import atomic_write

    with atomic_write(path) as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


def write_snapshot(out_dir: str, name: str, result: Result) -> None:
    """Update this workload's gauges and span tree in the traced-pass
    snapshot (``repro.obs/v2``), keeping the other workloads' entries."""
    from repro.columnar import HAVE_NUMPY

    path = os.path.join(out_dir, SNAPSHOT_NAME)
    old = _load_json(path)
    prefix = f"repro.bench.study_e2e.{name}."
    gauges = {k: v for k, v in old.get("metrics", {}).get("gauges", {}).items()
              if not k.startswith(prefix)}
    gauges.update({prefix + k: v for k, v in result.layers.items()})
    gauges["repro.bench.study_e2e.cpus"] = os.cpu_count() or 1
    gauges["repro.bench.study_e2e.numpy"] = 1.0 if HAVE_NUMPY else 0.0
    spans = [s for s in old.get("spans", ())
             if s["name"] != f"workload.{name}"]
    if result.tree is not None:
        spans.append(result.tree)
    doc = RunTelemetry.create().snapshot()
    doc["metrics"]["gauges"] = gauges
    doc["spans"] = sorted(spans, key=lambda s: s["name"])
    doc["host"] = {"cpus": os.cpu_count() or 1,
                   "python": platform.python_version(),
                   "numpy": HAVE_NUMPY}
    _write_json(path, doc)


def record_expected(name: str, result: Result) -> None:
    """Store this run's outcomes as the expected ones for its worlds."""
    doc = _load_json(EXPECTED_PATH)
    doc.setdefault(name, {}).update(
        {str(s): o for s, o in result.outcomes.items()})
    _write_json(EXPECTED_PATH, doc)


# -- command line ------------------------------------------------------------------

def _result_line(result: Result, trace: bool) -> str:
    metrics, units = ((result.layers, LAYER_UNITS) if trace
                      else (result.e2e, E2E_UNITS))
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    })


def run_one(args: argparse.Namespace) -> int:
    name = args.workload[0]
    result = measure(name, args.seed, args.seconds, bool(args.trace),
                     expected=({} if args.record_expected
                               else _load_json(EXPECTED_PATH).get(name, {})))
    if args.out and args.trace:
        write_snapshot(args.out, name, result)
    if args.record_expected and result.correct:
        record_expected(name, result)
    print(_result_line(result, bool(args.trace)))
    return 0 if result.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; print a table."""
    ok = True
    for name in args.workload or WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        if args.record_expected:
            cmd.append("--record-expected")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        ok = ok and proc.returncode == 0 and bool(result and result["correct"])
        if result is None:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        print(f"{name}: n={result['attempted']} reps, "
              f"error_rate={result['failed'] / result['attempted']:.3f}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed of the sweep's first world and of its "
                             "chaos schedule (default 42)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measuring time per workload (default 12)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: pair each rep with a traced rep and "
                             "report the per-layer metrics")
    parser.add_argument("--out", metavar="DIR",
                        help=f"with --trace 1, update DIR/{SNAPSHOT_NAME}")
    parser.add_argument("--record-expected", action="store_true",
                        help="store the outcomes as the expected ones "
                             "instead of checking them")
    args = parser.parse_args(argv)
    if args.workload and len(args.workload) == 1:
        return run_one(args)
    return run_all(args)


# -- harness self-test ---------------------------------------------------------------

def test_smoke():
    """Every workload on a tiny world, untraced and traced: all metrics
    of BENCHMARK.json emitted with their units, outputs agreeing across
    workloads and passes, layer self times adding up per phase."""
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    digests = {}
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, 42, 0.0, trace, base=TINY, sweep=1)
            assert result.correct, name  # includes traced == untraced
            line = json.loads(_result_line(result, trace))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            assert set(line["metrics"]) == {m["name"] for m in wanted}
            for metric, m in line["metrics"].items():
                assert m["unit"] == units[metric], metric
            if trace:
                assert self_sum_errors(result.tree) == [], name
        digests[name] = result.outcomes[42]["sha256"]
    assert digests["month_warm"] == digests["month_cold"]
    assert digests["month_2workers"] == digests["month_cold"]


if __name__ == "__main__":
    sys.exit(main())
