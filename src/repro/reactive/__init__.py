"""The reactive measurement platform (§4.3.1).

When the RSDoS feed reports an attack on a nameserver address, the
platform probes up to 50 related domains every 5 minutes — every
nameserver of each, spread evenly over the window — starting within
10 minutes of the report and continuing for 24 hours after the attack.
It is built as an overload-aware pipeline:

- triggers flow through a *bounded* topic with a backpressure policy
  (``block`` / ``shed_oldest``), and the worker validates each one as
  it reads it: a malformed trigger counts as ``invalid``, one whose
  victim is no nameserver as ``ignored``;
- a priority :class:`CampaignScheduler` applies admission control:
  deadline-ordered probing, a global probe budget, deterministic
  shedding by documented priority (newest attacks, highest-impact
  victims first), with every degradation flagged and counted under
  ``repro.reactive.*`` — never a silent drop;
- the :class:`CampaignWorker` checkpoints at tick boundaries and the
  :class:`ReactiveService` restores a killed worker exactly-once: a
  chaos-soaked run's probe store is bit-identical to an unfaulted one
  (see ``tests/integration/test_reactive_soak.py``).

Probe results land in a :class:`ReactiveStore`;
:func:`measurement_store_from_reactive` and
:func:`reactive_impact_series` carry them into the §5/§6 impact path.
The ``repro reactive`` CLI, the §5.2 Russia case, and the soak/bench
suites all run on :class:`ReactiveService`.
"""

from repro.reactive.campaigns import (
    Campaign,
    CampaignScheduler,
    CampaignState,
    TRIGGER_LATENCY_BUCKETS_S,
    plan_campaign,
)
from repro.reactive.service import (
    CampaignWorker,
    ReactiveReport,
    ReactiveService,
    WorkerKilled,
    replay_transport,
)
from repro.reactive.store import (
    REACTIVE_TIMEOUT_RTT_MS,
    ReactiveProbe,
    ReactiveStore,
    measurement_store_from_reactive,
    reactive_impact_series,
)
from repro.reactive.synth import fast_transport, synthetic_triggers

__all__ = [
    "REACTIVE_TIMEOUT_RTT_MS",
    "Campaign",
    "CampaignScheduler",
    "CampaignState",
    "CampaignWorker",
    "ReactiveProbe",
    "ReactiveReport",
    "ReactiveService",
    "ReactiveStore",
    "TRIGGER_LATENCY_BUCKETS_S",
    "WorkerKilled",
    "fast_transport",
    "measurement_store_from_reactive",
    "plan_campaign",
    "reactive_impact_series",
    "replay_transport",
    "synthetic_triggers",
]
