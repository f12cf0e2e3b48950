"""Campaigns, priorities, and overload-aware admission control.

One :class:`Campaign` is the probing plan for one triggered attack
(§4.3.1: up to 50 related domains every 5 minutes, every nameserver of
each, for the attack plus 24 hours). The :class:`CampaignScheduler`
owns every live campaign's lifecycle:

``waiting`` -> ``active`` -> ``done``, or ``waiting`` -> ``shed``.

A campaign leaves the scheduler when it is done or shed; its owner
keeps the finished ones (the reactive worker logs them to a topic).

Scheduling is *deadline-ordered*: among admitted campaigns, probes are
laid out each window in order of trigger deadline (the paper's
10-minute SLO first), then report time, then victim — a total,
deterministic order.

Admission control and the shed priority
---------------------------------------

The scheduler admits campaigns against a global *probe budget* — the
maximum number of domain-probes all active campaigns may spend per
5-minute window (the operational analog of the paper's ethics bound).
When concurrent campaigns exceed it, the platform degrades *loudly*
and deterministically:

1. Waiting campaigns are considered **newest report first, then
   highest impact** (more related domains), then lowest victim IP /
   earliest attack start as tiebreaks. The newest attacks are the most
   valuable to measure (the onset is the interesting part; a stale
   trigger has already missed its window) and high-impact victims
   affect the most domains — so those win the budget.
2. A campaign that does not fit entirely may be admitted **throttled**
   (a reduced per-window allocation, never below ``min_allocation``),
   flagged ``throttled``.
3. A campaign still waiting ``shed_after_s`` after its report is
   **shed**: state ``shed``, flagged ``shed``, counted under
   ``repro.reactive.shed{reason=overload}`` — exactly like a degraded
   analysis, never a silent drop.
4. A campaign admitted after its trigger deadline is flagged ``late``
   (and counted) rather than pretending the SLO held.

Every transition is deterministic in (feed contents, configuration),
so a killed-and-restored worker replays the same decisions — the basis
of the platform's exactly-once recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.journal import NULL_JOURNAL
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.telescope.rsdos import InferredAttack
from repro.util.rng import derive_rng
from repro.util.timeutil import FIVE_MINUTES, MINUTE, window_start

__all__ = [
    "Campaign",
    "CampaignScheduler",
    "CampaignState",
    "TRIGGER_LATENCY_BUCKETS_S",
    "plan_campaign",
]

#: Trigger-latency histogram bounds (seconds): minute-granular up to the
#: 10-minute SLO, then coarser into overload territory.
TRIGGER_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    60.0, 120.0, 180.0, 240.0, 300.0, 360.0, 420.0, 480.0, 540.0, 600.0,
    900.0, 1200.0, 1800.0, 3600.0)


class CampaignState:
    """The campaign lifecycle states (plain strings, checkpointable)."""

    WAITING = "waiting"
    ACTIVE = "active"
    DONE = "done"
    SHED = "shed"


@dataclass
class Campaign:
    """The probing plan and runtime state for one triggered attack."""

    attack: InferredAttack
    #: the (sampled, sorted) related domains this campaign probes.
    domain_ids: Tuple[int, ...]
    #: how many domains the victim serves in total (pre-sampling) — the
    #: admission priority's notion of impact.
    impact: int
    #: when the feed reported the attack (the record's topic timestamp).
    report_ts: int
    #: report_ts + the trigger SLO: starting after this is *late*.
    deadline: int
    #: probing stops here (attack end + the 24 h tail).
    ends_at: int
    state: str = CampaignState.WAITING
    #: domain-probes per 5-minute window granted at admission.
    allocation: int = 0
    triggered_at: Optional[int] = None
    shed_at: Optional[int] = None
    #: round-robin position over ``domain_ids`` across windows.
    cursor: int = 0
    #: nameserver probes recorded so far.
    n_probes: int = 0
    #: degradation flags, in the order they were applied.
    reasons: Tuple[str, ...] = ()

    @property
    def victim_ip(self) -> int:
        return self.attack.victim_ip

    @property
    def key(self) -> str:
        """Stable identity: one victim can be attacked repeatedly."""
        return f"{self.attack.victim_ip}@{self.attack.start}"

    @property
    def degraded(self) -> bool:
        return bool(self.reasons)

    @property
    def trigger_latency_s(self) -> Optional[int]:
        """Report-to-trigger delay (``None`` until admitted)."""
        if self.triggered_at is None:
            return None
        return self.triggered_at - self.report_ts

    @property
    def first_window(self) -> int:
        """First 5-minute probing window once triggered."""
        assert self.triggered_at is not None
        return window_start(self.triggered_at) + FIVE_MINUTES

    def flag(self, reason: str) -> None:
        """Mark the campaign degraded (idempotent per reason)."""
        if reason not in self.reasons:
            self.reasons = self.reasons + (reason,)

    # -- checkpoint serialization --------------------------------------------

    def to_dict(self) -> Dict:
        # Shallow copies suffice: every field is an int, str, tuple or
        # the flat attack record. Every checkpoint copies every live
        # campaign, so this stays off ``dataclasses.asdict``.
        state = dict(vars(self))
        state["attack"] = dict(vars(self.attack))
        state["domain_ids"] = list(self.domain_ids)
        state["reasons"] = list(self.reasons)
        return state

    @classmethod
    def from_dict(cls, state: Dict) -> "Campaign":
        state = dict(state)
        state["attack"] = InferredAttack(**state["attack"])
        state["domain_ids"] = tuple(state["domain_ids"])
        state["reasons"] = tuple(state["reasons"])
        return cls(**state)


def plan_campaign(world, attack: InferredAttack, report_ts: int, *,
                  probes_per_window: int, trigger_sla_s: int,
                  post_attack_s: int, seed: int) -> Optional[Campaign]:
    """Plan one campaign for one reported attack (``None`` when the
    victim serves no delegated domains).

    Domain sampling draws from a per-campaign RNG stream derived from
    ``(seed, victim, start)``, so the plan is identical no matter how
    many campaigns were planned before it — a restarted worker replans
    the exact same campaign.
    """
    domains = sorted(world.directory.domains_of_ip(attack.victim_ip))
    if not domains:
        return None
    impact = len(domains)
    if impact > probes_per_window:
        rng = derive_rng(seed, "reactive.sample", str(attack.victim_ip),
                         str(attack.start))
        domains = sorted(rng.sample(domains, probes_per_window))
    return Campaign(
        attack=attack,
        domain_ids=tuple(domains),
        impact=impact,
        report_ts=report_ts,
        deadline=report_ts + trigger_sla_s,
        ends_at=attack.end + post_attack_s)


def _shed_priority(campaign: Campaign) -> Tuple[int, int, int, int]:
    """Admission order under overload: newest report first, then
    highest impact, then (victim, start) as the deterministic tiebreak.
    Whatever doesn't fit the budget in this order waits — and is shed
    once stale."""
    return (-campaign.report_ts, -campaign.impact,
            campaign.attack.victim_ip, campaign.attack.start)


def _deadline_order(campaign: Campaign) -> Tuple[int, int, int, int]:
    """Probe layout order among active campaigns: trigger deadline
    first (the 10-minute SLO), then report time, then (victim, start)."""
    return (campaign.deadline, campaign.report_ts,
            campaign.attack.victim_ip, campaign.attack.start)


class CampaignScheduler:
    """Deadline-ordered, budget-capped campaign execution.

    Each 5-minute tick, the owner calls :meth:`admit_tick` (admission
    control + shedding), :meth:`probe_window` (lay out and fire this
    window's probes) and :meth:`finish_tick`. A tick leaves nothing
    pending, so the live campaigns are the whole checkpoint and a
    killed worker restores mid-run with nothing lost.
    """

    def __init__(self, *, probes_per_window: int = 50,
                 probe_budget: Optional[int] = None,
                 shed_after_s: int = 30 * MINUTE,
                 min_allocation: int = 1,
                 on_probe: Optional[Callable[[Campaign, int, int], None]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 journal=NULL_JOURNAL):
        if probes_per_window < 1:
            raise ValueError("probes_per_window must be >= 1")
        if probe_budget is not None and probe_budget < 1:
            raise ValueError("probe_budget must be >= 1")
        if not 1 <= min_allocation <= probes_per_window:
            raise ValueError(
                "min_allocation must be within [1, probes_per_window]")
        if shed_after_s < 0:
            raise ValueError("shed_after_s must be non-negative")
        self.probes_per_window = probes_per_window
        self.probe_budget = probe_budget
        self.shed_after_s = shed_after_s
        self.min_allocation = min_allocation
        self.on_probe = on_probe or (lambda campaign, domain_id, ts: None)
        self.waitlist: List[Campaign] = []
        self.active: List[Campaign] = []
        #: sum of active allocations (domain-probes per window in use).
        self.in_flight = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self.metrics = metrics
        self.journal = journal
        self._c_admitted = metrics.counter("repro.reactive.admitted")
        self._c_shed = metrics.counter("repro.reactive.shed",
                                       reason="overload")
        self._c_late = metrics.counter("repro.reactive.late")
        self._c_throttled = metrics.counter("repro.reactive.throttled")
        self._h_latency = metrics.histogram(
            "repro.reactive.trigger_latency_s",
            buckets=TRIGGER_LATENCY_BUCKETS_S)

    # -- intake ---------------------------------------------------------------

    def submit(self, campaign: Campaign) -> None:
        """Queue a planned campaign for admission."""
        campaign.state = CampaignState.WAITING
        self.waitlist.append(campaign)

    # -- per-tick lifecycle ---------------------------------------------------

    def admit_tick(self, w: int) -> List[Campaign]:
        """Shed stale waiters, then admit by priority within budget;
        returns the campaigns shed, in waitlist order."""
        kept: List[Campaign] = []
        shed: List[Campaign] = []
        for campaign in self.waitlist:
            if w - campaign.report_ts > self.shed_after_s:
                self._shed(campaign, w)
                shed.append(campaign)
            else:
                kept.append(campaign)
        self.waitlist = kept
        still_waiting: List[Campaign] = []
        for campaign in sorted(self.waitlist, key=_shed_priority):
            full = min(len(campaign.domain_ids), self.probes_per_window)
            if self.probe_budget is None:
                grant = full
            else:
                remaining = self.probe_budget - self.in_flight
                grant = min(full, remaining)
                if grant < min(full, self.min_allocation):
                    still_waiting.append(campaign)
                    continue
            self._admit(campaign, w, grant, full)
        self.waitlist = sorted(still_waiting, key=_shed_priority)
        return shed

    def _admit(self, campaign: Campaign, w: int, grant: int,
               full: int) -> None:
        campaign.state = CampaignState.ACTIVE
        campaign.allocation = grant
        campaign.triggered_at = max(campaign.deadline, w)
        if campaign.triggered_at > campaign.deadline:
            campaign.flag("late")
            self._c_late.inc()
        if grant < full:
            campaign.flag("throttled")
            self._c_throttled.inc()
        self.in_flight += grant
        self.active.append(campaign)
        self._c_admitted.inc()
        self._h_latency.observe(float(campaign.trigger_latency_s))
        self.journal.emit("reactive.admit", campaign=campaign.key,
                          allocation=grant, full=full,
                          latency_s=campaign.trigger_latency_s,
                          late="late" in campaign.reasons,
                          throttled="throttled" in campaign.reasons)

    def _shed(self, campaign: Campaign, w: int) -> None:
        campaign.state = CampaignState.SHED
        campaign.shed_at = w
        campaign.flag("shed")
        self._c_shed.inc()
        self.journal.emit("reactive.shed", campaign=campaign.key,
                          waited_s=w - campaign.report_ts)

    def probe_window(self, w: int) -> int:
        """Fire this window's probes for every active campaign; returns
        how many fired.

        Each campaign spends its allocation spread evenly across the
        window (the paper's ~one-query-every-6-seconds ethics bound),
        round-robining over its domain set across windows. Campaigns
        lay out their slots in deadline order, and the slots fire in
        time order, ties in layout order. Every slot lies in
        ``[w, w + FIVE_MINUTES)``, so the window ends with nothing
        pending.
        """
        slots: List[Tuple[int, Campaign, int]] = []
        for campaign in sorted(self.active, key=_deadline_order):
            if not campaign.first_window <= w < campaign.ends_at:
                continue
            n = len(campaign.domain_ids)
            spacing = FIVE_MINUTES // campaign.allocation
            base = campaign.cursor
            for i in range(campaign.allocation):
                slots.append((w + i * spacing, campaign,
                              campaign.domain_ids[(base + i) % n]))
            campaign.cursor += campaign.allocation
        slots.sort(key=itemgetter(0))
        for ts, campaign, domain_id in slots:
            self.on_probe(campaign, domain_id, ts)
        return len(slots)

    def finish_tick(self, tick_end: int) -> List[Campaign]:
        """Retire campaigns whose probing ended, freeing their budget;
        returns them, in activation order."""
        done: List[Campaign] = []
        remaining: List[Campaign] = []
        for campaign in self.active:
            if campaign.ends_at <= tick_end:
                campaign.state = CampaignState.DONE
                self.in_flight -= campaign.allocation
                done.append(campaign)
            else:
                remaining.append(campaign)
        self.active = remaining
        return done

    def idle(self) -> bool:
        """No campaign is waiting or active."""
        return not self.active and not self.waitlist

    # -- checkpoint / restore -------------------------------------------------

    def checkpoint(self) -> Dict:
        """Tick-boundary snapshot of the live campaigns."""
        return {
            "waitlist": [c.to_dict() for c in self.waitlist],
            "active": [c.to_dict() for c in self.active],
        }

    def restore(self, state: Dict) -> None:
        """Rebuild the live campaigns from a checkpoint."""
        self.waitlist = [Campaign.from_dict(c) for c in state["waitlist"]]
        self.active = [Campaign.from_dict(c) for c in state["active"]]
        self.in_flight = sum(c.allocation for c in self.active)
