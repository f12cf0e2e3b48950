"""Partial plans: what a subset run will compute, fetch, reuse, skip.

The executor's ``targets=`` parameter restricts a run to a subset of
the graph (:meth:`PhaseGraph.subset`), and an executor given a
:class:`~repro.artifacts.cache.PhaseCache` satisfies cached phases
without computing them — but neither says *in advance* which phases a
run will actually execute. :func:`partial_plan`
answers that, deterministically and without side effects, by combining
the graph's dependency structure with a cache-membership predicate:

- ``reuse``  — a target already cached; nothing upstream of it runs;
- ``fetch``  — a cached phase a missing target depends on (the
  executor will deserialize it instead of computing);
- ``compute`` — a missing (or uncacheable) phase that must run;
- ``skip``   — an ancestor no missing phase needs.

The serve layer (:mod:`repro.serve.store`) plans each day-partition
this way before dispatching the executor, so incremental rebuilds can
report — and tests can assert — exactly which partitions re-execute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

from repro.engine.graph import PhaseGraph

__all__ = ["PhasePlan", "partial_plan"]


@dataclass(frozen=True)
class PhasePlan:
    """One phase's planned disposition in a subset run."""

    name: str
    action: str  # "compute" | "fetch" | "reuse" | "skip"
    key: Optional[str] = None


def partial_plan(graph: PhaseGraph, targets,
                 keys: Mapping[str, str],
                 has: Callable[[str], bool]) -> Tuple[PhasePlan, ...]:
    """Plan a ``targets`` subset run against a cache.

    ``keys`` maps ``Phase.cache_key`` names to concrete cache keys
    (phases absent from it are uncacheable and always compute when
    needed); ``has`` tests key membership. Returns one
    :class:`PhasePlan` per subset phase, in execution order.
    """
    order = graph.subset(targets)
    key_of = {}
    cached = {}
    for phase in order:
        key = keys.get(phase.cache_key) if phase.cache_key else None
        key_of[phase.name] = key
        cached[phase.name] = key is not None and has(key)
    # A missing target must run; walking the order backwards pulls in
    # the dependencies of everything that must run, stopping at cached
    # phases (the executor fetches those instead of recursing).
    needed = {name for name in targets if not cached[name]}
    for phase in reversed(order):
        if phase.name in needed and not cached[phase.name]:
            needed.update(dep.name for dep in graph._dependencies(phase))
    plans = []
    for phase in order:
        if phase.name not in needed:
            action = "reuse" if phase.name in targets else "skip"
        elif cached[phase.name]:
            action = "fetch"
        else:
            action = "compute"
        plans.append(PhasePlan(name=phase.name, action=action,
                               key=key_of[phase.name]))
    return tuple(plans)
