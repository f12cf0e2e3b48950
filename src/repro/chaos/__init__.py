"""Deterministic fault injection (chaos engineering for the pipeline).

The paper's reactive platform must keep measuring *while the
infrastructure it depends on is under DDoS*; attack-time telemetry is
lossy, duplicated, reordered, and corrupt. This package injects exactly
those faults — reproducibly, from a seed — so the feed hardening
(:meth:`FaultInjector.harden_feed`: retries, dead letters, a circuit
breaker), the reactive worker's recovery and the degradation paths in
:mod:`repro.core` can be exercised end to end:

>>> from repro import ChaosConfig, WorldConfig, run_study
>>> study = run_study(WorldConfig.tiny(), chaos=ChaosConfig.preset("moderate", seed=1))
>>> print(study.chaos.summary())                    # doctest: +SKIP

See ``docs/robustness.md`` for the fault model and the invariants the
chaos suite asserts.
"""

from repro.chaos.faults import TruncatedRecord
from repro.chaos.injector import DeadLetter, FaultEvent, FaultInjector
from repro.chaos.policy import FAULT_KINDS, ChaosConfig, FaultPolicy

__all__ = [
    "ChaosConfig",
    "FaultPolicy",
    "FaultInjector",
    "FaultEvent",
    "DeadLetter",
    "TruncatedRecord",
    "FAULT_KINDS",
]
