"""The production-rate reactive service: ingest, admit, probe, recover.

This is §4.3.1 rebuilt as an overload-aware campaign pipeline. Attack
triggers flow from the RSDoS feed through a *bounded* topic (capacity
plus a backpressure policy, see :mod:`repro.streaming.topic`) to the
worker, which validates each trigger as it reads it and plans a
campaign for the priority
:class:`~repro.reactive.campaigns.CampaignScheduler`. A single
:class:`CampaignWorker` drives everything in 5-minute virtual-time
ticks; the :class:`ReactiveService` owns the worker's lifecycle —
including killing it (chaos) and restoring a fresh one from the last
checkpoint, exactly-once.

Exactly-once recovery
---------------------

The worker checkpoints at tick boundaries (every :data:`CHECKPOINT_EVERY`
ticks); a tick fires every probe it lays out, so nothing is pending
there. A checkpoint is

- the broker-durable committed offset of the trigger consumer, and the
  invalid and ignored trigger counts up to it,
- the end offsets of the results topic and of the finished-campaigns
  log (done and shed campaigns are appended there, never copied), and
- the live campaigns (waiting and active).

Restore truncates the results and finished topics back to the
checkpointed high-water marks, resumes the trigger consumer from its
committed offset, and rebuilds the live campaigns; replay from there is
deterministic (pure transport, per-campaign derived RNGs,
totally-ordered scheduling), so a killed-and-restored run produces a
probe store *bit-identical* to an uninterrupted one. After
checkpointing, the worker ``trim``\\ s the trigger topic up to the
committed offset — recovery never replays below a committed offset,
and the release is what frees capacity on a bounded ``block`` trigger
topic.

Metric exactness under chaos: the worker's live counters (admitted,
probes, trigger latency observations…) are staged in a
:class:`~repro.obs.registry.BufferedRegistry` and folded into the real
registry only at the tick-checkpoint boundary — the same commit point
the broker offsets use. Work a crash rolls back dies with the buffer
(a fresh worker starts a fresh one), so replay cannot double-count:
faulted and unfaulted runs end with identical ``repro.reactive.*``
series (modulo the kill/restore counters themselves, which only exist
under chaos). Broker transport metrics (``repro.stream.*``) remain
at-least-once, as do run-journal records — journal entries are
labeled with the worker incarnation instead of being deduplicated, so
the journal shows the replays the metrics hide.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.chaos.injector import FaultInjector
from repro.dns.rr import RRType
from repro.obs.journal import NULL_JOURNAL
from repro.obs.registry import buffered
from repro.obs.telemetry import NULL_TELEMETRY, RunTelemetry
from repro.reactive.campaigns import (
    Campaign,
    CampaignScheduler,
    CampaignState,
    plan_campaign,
)
from repro.reactive.store import ReactiveProbe, ReactiveStore
from repro.streaming.topic import Broker
from repro.telescope.feed import RSDoSFeed
from repro.telescope.rsdos import InferredAttack, attack_problem
from repro.util.rng import derive_rng
from repro.util.timeutil import DAY, FIVE_MINUTES, MINUTE, Window, window_start
from repro.world.simulation import World

__all__ = [
    "CampaignWorker",
    "ReactiveReport",
    "ReactiveService",
    "WorkerKilled",
    "replay_transport",
]

#: Topic names of the reactive pipeline (Kafka-style fixed plumbing).
TRIGGER_TOPIC = "rsdos-triggers"
RESULTS_TOPIC = "probe-results"
#: Done and shed campaigns, in completion order: an append-only log,
#: so a checkpoint records its end offset instead of copying it.
FINISHED_TOPIC = "campaigns-finished"
#: The trigger consumer's broker group (its committed offsets live
#: under this name, so recovery does not need the consumer object).
CONSUMER_GROUP = "campaigns"

#: The paper's trigger SLO: probing starts within 10 minutes of the
#: feed reporting an attack; a later start is flagged ``late``.
TRIGGER_SLA_S = 10 * MINUTE
#: How long a campaign may wait for budget before it is shed (loudly)
#: instead of triggering uselessly late.
SHED_AFTER_S = 30 * MINUTE
#: The smallest per-window allocation a throttled campaign is granted.
MIN_ALLOCATION = 1
#: Ticks between worker checkpoints.
CHECKPOINT_EVERY = 6
#: Worker restores one run allows before it gives up.
MAX_RESTORES = 10_000


class WorkerKilled(Exception):
    """The chaos worker-crash surface fired: the worker is dead.

    Raised from inside :meth:`CampaignWorker.run_tick` *before* the
    tick commits, so everything the tick did is uncommitted work that
    recovery rolls back and replays.
    """

    def __init__(self, tick_ts: int):
        super().__init__(f"worker killed during tick at {tick_ts}")
        self.tick_ts = tick_ts


def replay_transport(world: World, seed: int = 0):
    """A replay-safe wrapper around the world's transport.

    ``World.transport`` draws reply samples from a shared RNG stream —
    stateful, so replaying a probe after a crash would observe a
    different reply. This wrapper reseeds a private stream per
    ``(ns_ip, qname, ts)``, making every probe a pure function of what
    is being probed and when — the property exactly-once recovery
    depends on.
    """
    def transport(ns_ip, qname, qtype, ts):
        rng = derive_rng(seed, "reactive.transport", str(ns_ip), str(qname),
                         str(int(ts)))
        prev = world.set_transport_rng(rng)
        try:
            return world.transport(ns_ip, qname, qtype, ts)
        finally:
            world.set_transport_rng(prev)
    return transport


class CampaignWorker:
    """One pipeline worker: validate triggers, admit, probe, checkpoint.

    The worker advances in 5-minute virtual-time ticks. Each
    :meth:`run_tick`:

    1. positions itself (fast-forwarding over empty windows when idle);
    2. reads the triggers up to the tick's end, counting each one that
       :func:`~repro.telescope.rsdos.attack_problem` rejects as invalid
       and each whose victim is no nameserver (or serves no delegated
       domain) as ignored, and planning a campaign for every other;
    3. runs admission control, lays out and fires this window's probes;
    4. appends shed and done campaigns to the finished log and updates
       gauges;
    5. consults the chaos crash hook — dying *here* leaves the tick
       uncommitted — then commits the tick and, every
       :data:`CHECKPOINT_EVERY` ticks, checkpoints.
    """

    def __init__(self, broker: Broker, world: World, *,
                 probes_per_window: int, post_attack_s: int,
                 probe_budget: Optional[int], transport,
                 crash_hook: Optional[Callable[[int], bool]] = None,
                 on_checkpoint: Optional[Callable[[Dict], None]] = None,
                 journal=NULL_JOURNAL):
        self.broker = broker
        self.world = world
        self.transport = transport
        self.probes_per_window = probes_per_window
        self.post_attack_s = post_attack_s
        self.crash_hook = crash_hook
        self.on_checkpoint = on_checkpoint or (lambda state: None)
        self.journal = journal
        # Live metrics are staged and folded in at checkpoint time, so
        # a crash discards exactly the increments whose work the
        # restore rolls back (see the module docstring).
        self.metrics = buffered(broker.metrics)
        self._ns_ips = world.directory.nameserver_ips()
        self.trigger_topic = broker.topic(TRIGGER_TOPIC)
        self.consumer = broker.consumer(TRIGGER_TOPIC, group=CONSUMER_GROUP,
                                        from_committed=True)
        self.results = broker.topic(RESULTS_TOPIC)
        self.finished = broker.topic(FINISHED_TOPIC)
        self.campaigns = CampaignScheduler(
            probes_per_window=probes_per_window, probe_budget=probe_budget,
            shed_after_s=SHED_AFTER_S, min_allocation=MIN_ALLOCATION,
            on_probe=self._probe, metrics=self.metrics, journal=journal)
        #: end of the last committed tick (the next tick's start).
        self.now_window: Optional[int] = None
        self.ticks = 0
        #: triggers :func:`attack_problem` rejected.
        self.n_invalid = 0
        #: valid triggers whose victim is no nameserver or serves no
        #: delegated domain.
        self.n_ignored = 0
        metrics = self.metrics
        self._c_probes = metrics.counter("repro.reactive.probes")
        self._c_ticks = metrics.counter("repro.reactive.ticks")
        self._c_checkpoints = metrics.counter("repro.reactive.checkpoints")
        self._g_queue = metrics.gauge("repro.reactive.queue_depth")
        self._g_feed_lag = metrics.gauge("repro.reactive.feed_lag")
        self._g_active = metrics.gauge("repro.reactive.active_campaigns")
        self._g_waiting = metrics.gauge("repro.reactive.waiting_campaigns")

    # -- positioning ----------------------------------------------------------

    def _next_input_ts(self) -> Optional[int]:
        """Timestamp of the earliest unconsumed trigger."""
        pending = self.trigger_topic.read(self.consumer.offset, 1)
        return pending[0].ts if pending else None

    def _position(self) -> Optional[int]:
        """The next tick's window start, or ``None`` when fully drained.

        While campaigns are in flight the worker ticks contiguously;
        when idle it fast-forwards the virtual clock to the window of
        the next unconsumed trigger instead of grinding through empty
        windows one by one.
        """
        if self.now_window is not None and not self.campaigns.idle():
            return self.now_window
        nxt = self._next_input_ts()
        if nxt is None:
            return None
        w = window_start(nxt)
        if self.now_window is not None and w <= self.now_window:
            return self.now_window
        return w

    # -- the tick -------------------------------------------------------------

    def run_tick(self) -> bool:
        """Advance one 5-minute window; ``False`` when fully drained."""
        w = self._position()
        if w is None:
            return False
        tick_end = w + FIVE_MINUTES
        for record in self.consumer.poll(until_ts=tick_end):
            attack = record.value
            if attack_problem(attack) is not None:
                self.n_invalid += 1
                continue
            campaign = None
            if attack.victim_ip in self._ns_ips:
                campaign = plan_campaign(
                    self.world, attack, record.ts,
                    probes_per_window=self.probes_per_window,
                    trigger_sla_s=TRIGGER_SLA_S,
                    post_attack_s=self.post_attack_s,
                    seed=self.world.config.seed)
            if campaign is None:
                self.n_ignored += 1
                continue
            self.campaigns.submit(campaign)
        for campaign in self.campaigns.admit_tick(w):
            self.finished.produce(w, campaign)
        self.campaigns.probe_window(w)
        for campaign in self.campaigns.finish_tick(tick_end):
            self.finished.produce(tick_end, campaign)
            self.metrics.gauge("repro.reactive.campaign_probes",
                               campaign=campaign.key).set(campaign.n_probes)
        self._g_queue.set(float(len(self.trigger_topic)))
        self._g_feed_lag.set(float(self.consumer.lag))
        self._g_active.set(float(len(self.campaigns.active)))
        self._g_waiting.set(float(len(self.campaigns.waitlist)))
        self._c_ticks.inc()
        if self.crash_hook is not None and self.crash_hook(w):
            raise WorkerKilled(w)
        self.now_window = tick_end
        self.ticks += 1
        if self.ticks % CHECKPOINT_EVERY == 0:
            self.checkpoint_now()
        return True

    # -- probing --------------------------------------------------------------

    def _probe(self, campaign: Campaign, domain_id: int, ts: int) -> None:
        """Probe every nameserver of a domain once (the NS-exhaustive
        measurement OpenINTEL cannot do, §4.3/§9); results go to the
        results topic, which is what checkpoints roll back."""
        record = self.world.directory[domain_id]
        for ns_ip in record.delegation.nameserver_ips:
            reply = self.transport(ns_ip, record.name, RRType.NS, ts)
            self.results.produce(ts, ReactiveProbe(
                ts=ts, domain_id=domain_id, ns_ip=ns_ip,
                answered=reply.answered,
                rtt_ms=reply.rtt_ms if reply.answered else None))
            campaign.n_probes += 1
            self._c_probes.inc()

    # -- checkpoint / restore -------------------------------------------------

    def checkpoint_now(self) -> Dict:
        """Commit offsets durably, snapshot state, release retention.

        Trimming the trigger topic up to the committed offset is safe
        (recovery never replays below it) and is what frees capacity on
        a bounded ``block`` trigger topic.
        """
        self.consumer.commit()
        state = {
            "version": 3,
            "now": self.now_window,
            "ticks": self.ticks,
            "n_invalid": self.n_invalid,
            "n_ignored": self.n_ignored,
            "results_end": self.results.end_offset,
            "finished_end": self.finished.end_offset,
            "campaigns": self.campaigns.checkpoint(),
        }
        self.trigger_topic.trim(self.consumer.offset)
        self._c_checkpoints.inc()
        # The checkpoint is the durability point: everything staged up
        # to here is committed work, so fold it into the real registry.
        self.metrics.flush()
        self.journal.emit("worker.checkpoint", surface="reactive",
                          ticks=self.ticks)
        self.on_checkpoint(state)
        return state

    def restore(self, state: Dict) -> None:
        """Resume a *fresh* worker from a checkpoint over the same broker."""
        if state.get("version") != 3:
            raise ValueError(
                f"unsupported checkpoint version: {state.get('version')}")
        self.results.truncate(state["results_end"])
        self.finished.truncate(state["finished_end"])
        # The trigger consumer was already constructed from the
        # broker's committed offset — the half of the checkpoint that
        # survives without the consumer object.
        self.campaigns.restore(state["campaigns"])
        self.now_window = state["now"]
        self.ticks = state["ticks"]
        self.n_invalid = state["n_invalid"]
        self.n_ignored = state["n_ignored"]


@dataclass
class ReactiveReport:
    """What a reactive run did, exactly.

    ``counts`` is exact accounting from final state (not the
    at-least-once live counters): every trigger is attributed to
    exactly one of ``feed_shed`` / ``invalid`` / ``ignored`` /
    ``done`` / ``shed`` — ``unaccounted`` is the difference and must be
    zero (the no-silent-drops invariant).
    """

    campaigns: List[Campaign]
    store: ReactiveStore
    counts: Dict[str, int]
    trigger_latency_p50_s: Optional[int]
    trigger_latency_p99_s: Optional[int]

    def store_digest(self) -> str:
        """SHA-256 over the canonical probe log — the bit-identity
        witness the chaos-soak compares across faulted/unfaulted runs."""
        h = hashlib.sha256()
        for p in self.store.probes:
            h.update(f"{p.ts},{p.domain_id},{p.ns_ip},"
                     f"{int(p.answered)},{p.rtt_ms!r}\n".encode())
        return h.hexdigest()

    def summary(self) -> str:
        """Deterministic run summary — byte-identical between a chaos
        run and a clean one (kills/restores live in
        :meth:`chaos_summary`, not here)."""
        c = self.counts
        p50 = self.trigger_latency_p50_s
        p99 = self.trigger_latency_p99_s
        lines = [
            ("reactive: triggers={triggers} feed_shed={feed_shed} "
             "invalid={invalid} ignored={ignored} done={done} shed={shed} "
             "unaccounted={unaccounted}").format(**c),
            (f"degraded: late={c['late']} throttled={c['throttled']} "
             f"shed={c['shed']}"),
            (f"probes: {c['probes']} over {c['done']} campaigns, "
             f"store={len(self.store)}"),
            ("trigger latency: "
             + (f"p50={p50}s p99={p99}s" if p50 is not None else "n/a")),
            f"store sha256: {self.store_digest()}",
        ]
        return "\n".join(lines)

    def chaos_summary(self) -> str:
        """The non-deterministic half: what chaos did to the worker."""
        c = self.counts
        return (f"chaos: kills={c['kills']} restores={c['restores']} "
                f"checkpoints={c['checkpoints']}")


class ReactiveService:
    """Owns a reactive run end to end, including worker recovery.

    One service instance runs one feed (a fresh broker per
    :meth:`run`). Overload knobs: ``feed_capacity`` + ``backpressure``
    bound the trigger topic; ``probe_budget`` caps concurrent
    domain-probes per window. The trigger SLO, the shed deadline, the
    throttle floor, the checkpoint spacing and the restore cap are the
    fixed :data:`TRIGGER_SLA_S`, :data:`SHED_AFTER_S`,
    :data:`MIN_ALLOCATION`, :data:`CHECKPOINT_EVERY` and
    :data:`MAX_RESTORES`. Probes draw from streams seeded by the
    world's seed.
    """

    def __init__(self, world: World, *, probes_per_window: int = 50,
                 post_attack_s: int = DAY,
                 probe_budget: Optional[int] = None,
                 feed_capacity: Optional[int] = None,
                 backpressure: str = "block",
                 transport=None,
                 telemetry: Optional[RunTelemetry] = None):
        self.world = world
        self.probes_per_window = probes_per_window
        self.post_attack_s = post_attack_s
        self.probe_budget = probe_budget
        self.feed_capacity = feed_capacity
        self.backpressure = backpressure
        self.transport = transport or replay_transport(world,
                                                       world.config.seed)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.registry = self.telemetry.registry
        self._c_kills = self.registry.counter("repro.reactive.worker_kills")
        self._c_restores = self.registry.counter("repro.reactive.restores")
        # run state (set up per run())
        self._broker: Optional[Broker] = None
        self._worker: Optional[CampaignWorker] = None
        self._checkpoint: Optional[Dict] = None
        self._crash_hook: Optional[Callable[[int], bool]] = None
        self.n_kills = 0
        self.n_restores = 0
        self.n_checkpoints = 0

    # -- worker lifecycle -----------------------------------------------------

    def _new_worker(self) -> CampaignWorker:
        # Journal records from this incarnation carry its number: under
        # chaos the journal is at-least-once (replays re-log), and the
        # label is what tells replayed records apart.
        journal = self.telemetry.journal.bind(
            surface="reactive", incarnation=self.n_restores)
        return CampaignWorker(
            self._broker, self.world,
            probes_per_window=self.probes_per_window,
            post_attack_s=self.post_attack_s,
            probe_budget=self.probe_budget,
            transport=self.transport,
            crash_hook=self._crash_hook,
            on_checkpoint=self._on_checkpoint,
            journal=journal)

    def _on_checkpoint(self, state: Dict) -> None:
        self._checkpoint = state
        self.n_checkpoints += 1

    def _recover(self, tick_ts: Optional[int] = None) -> None:
        """Replace the dead worker with a fresh one restored from the
        last checkpoint (the kill-and-resume half of exactly-once)."""
        journal = self.telemetry.journal
        journal.emit("worker.kill", surface="reactive",
                     incarnation=self.n_restores, tick_ts=tick_ts)
        self.n_kills += 1
        self._c_kills.inc()
        if self.n_restores >= MAX_RESTORES:
            raise RuntimeError(
                f"worker killed {self.n_kills} times; restore cap "
                f"({MAX_RESTORES}) exhausted")
        self.n_restores += 1
        self._c_restores.inc()
        self._worker = self._new_worker()
        self._worker.restore(self._checkpoint)
        journal.emit("worker.restore", surface="reactive",
                     incarnation=self.n_restores,
                     ticks=self._worker.ticks)

    def _pump(self) -> bool:
        """The bounded trigger topic's drain hook (``block`` policy):
        a blocked produce hands control here until space frees."""
        try:
            if self._worker.run_tick():
                return True
        except WorkerKilled as exc:
            self._recover(exc.tick_ts)
            return True
        # Fully drained: any capacity still held is consumed-but-
        # untrimmed retention; a checkpoint commits and releases it.
        before = self._worker.trigger_topic.start_offset
        self._worker.checkpoint_now()
        return self._worker.trigger_topic.start_offset > before

    # -- the run --------------------------------------------------------------

    def run(self, feed: Union[RSDoSFeed, Iterable[InferredAttack]], *,
            window: Optional[Window] = None,
            injector: Optional[FaultInjector] = None) -> ReactiveReport:
        """Replay the feed through the full pipeline and return the
        exact report. Pass a chaos ``injector`` with an armed ``worker``
        surface to exercise kill/restore recovery."""
        attacks = feed.attacks if isinstance(feed, RSDoSFeed) else list(feed)
        triggers = sorted(
            (a for a in attacks if window is None
             or (a.start < window.end and window.start < a.end)),
            key=lambda a: (a.start, a.victim_ip))
        self._broker = Broker(metrics=self.registry)
        self._crash_hook = (injector.worker_crash_hook()
                            if injector is not None else None)
        self.n_kills = self.n_restores = self.n_checkpoints = 0
        trigger_topic = self._broker.topic(
            TRIGGER_TOPIC, capacity=self.feed_capacity,
            backpressure=self.backpressure)
        self._worker = self._new_worker()
        # An immediate checkpoint, so a crash on the very first tick
        # has something to restore from.
        self._worker.checkpoint_now()
        trigger_topic.on_full(self._pump)
        with self.telemetry.tracer.span("reactive.run"):
            with self.telemetry.tracer.span("reactive.ingest"):
                for attack in triggers:
                    trigger_topic.produce(attack.start, attack)
            with self.telemetry.tracer.span("reactive.drain"):
                # One child span per worker incarnation: a clean run
                # has exactly one; every chaos kill ends the current
                # span and a restored worker opens the next.
                draining = True
                while draining:
                    with self.telemetry.tracer.span(
                            "reactive.worker",
                            incarnation=self.n_restores) as span:
                        try:
                            while self._worker.run_tick():
                                pass
                            draining = False
                        except WorkerKilled as exc:
                            span.annotate(killed_at=exc.tick_ts)
                            self._recover(exc.tick_ts)
            # Final checkpoint: commit and release whatever the tail held.
            self._worker.checkpoint_now()
        return self._report(triggers, trigger_topic)

    # -- reporting ------------------------------------------------------------

    def _report(self, triggers: List[InferredAttack],
                trigger_topic) -> ReactiveReport:
        worker = self._worker
        live = worker.campaigns
        campaigns = sorted(
            [record.value for record in worker.finished.read(0)]
            + live.active + live.waitlist,
            key=lambda c: (c.report_ts, c.attack.victim_ip, c.attack.start))
        store = ReactiveStore()
        for record in worker.results.read(0):
            store.add(record.value)
        done = [c for c in campaigns if c.state == CampaignState.DONE]
        shed = [c for c in campaigns if c.state == CampaignState.SHED]
        n_feed_shed = trigger_topic.n_shed
        n_invalid = worker.n_invalid
        n_ignored = worker.n_ignored
        counts = {
            "triggers": len(triggers),
            "feed_shed": n_feed_shed,
            "invalid": n_invalid,
            "ignored": n_ignored,
            "admitted": len(done),
            "done": len(done),
            "shed": len(shed),
            "late": sum(1 for c in campaigns if "late" in c.reasons),
            "throttled": sum(1 for c in campaigns if "throttled" in c.reasons),
            "probes": sum(c.n_probes for c in campaigns),
            "unaccounted": (len(triggers) - n_feed_shed - n_invalid
                            - n_ignored - len(done) - len(shed)),
            "kills": self.n_kills,
            "restores": self.n_restores,
            "checkpoints": self.n_checkpoints,
        }
        latencies = sorted(c.trigger_latency_s for c in done)
        p50 = _percentile(latencies, 0.50)
        p99 = _percentile(latencies, 0.99)
        # Exact end-of-run metrics (the live counters above are
        # at-least-once under chaos replay; these are not).
        reg = self.registry
        reg.counter("repro.reactive.triggers").inc(counts["triggers"])
        reg.counter("repro.reactive.invalid").inc(n_invalid)
        reg.counter("repro.reactive.ignored").inc(n_ignored)
        reg.counter("repro.reactive.shed", reason="feed").inc(n_feed_shed)
        reg.gauge("repro.reactive.campaigns", state="done").set(len(done))
        reg.gauge("repro.reactive.campaigns", state="shed").set(len(shed))
        reg.gauge("repro.reactive.probe_store_size").set(float(len(store)))
        if p50 is not None:
            reg.gauge("repro.reactive.trigger_latency_p50_s").set(float(p50))
            reg.gauge("repro.reactive.trigger_latency_p99_s").set(float(p99))
        return ReactiveReport(
            campaigns=campaigns, store=store, counts=counts,
            trigger_latency_p50_s=p50, trigger_latency_p99_s=p99)


def _percentile(sorted_values: List[int], q: float) -> Optional[int]:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
