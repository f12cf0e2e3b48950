"""repro.engine — the declarative phase-graph engine.

The paper's §4 method is a dataflow: telescope feed and OpenINTEL
crawl join into per-NSSet buckets, then fan out into the analyses.
This package expresses that dataflow as data rather than procedure:

- :class:`Phase` declares one node: name, input slots, output slot,
  fingerprint key + serializer (cacheability), an enablement gate,
  span annotations;
- :class:`PhaseGraph` validates the declarations at build time — cycle
  detection (the cycle is named), unknown-input errors, duplicate
  outputs — and fixes a deterministic topological order;
- :class:`Executor` runs every node through one phase runner, so the
  telemetry span, journal records (timed by that span), opt-in
  profiling and cache fetch/save are applied uniformly to every node
  instead of being copy-pasted per phase.

``run_study`` (:mod:`repro.core.pipeline`) is a thin facade over the
study graph built from these pieces, and the :class:`~repro.core
.pipeline.Study` analyses execute as single-node subgraphs of the same
engine. ``python -m repro graph`` prints the declared DAG.
"""

from repro.engine.analysis import analyses_of, analysis_graph, cached_analysis
from repro.engine.executor import Executor, RunContext
from repro.engine.graph import (
    CycleError,
    DuplicateNodeError,
    PhaseGraph,
    PhaseGraphError,
    UnknownInputError,
)
from repro.engine.phase import Phase
from repro.engine.plan import PhasePlan, partial_plan

__all__ = [
    "Phase",
    "PhasePlan",
    "partial_plan",
    "PhaseGraph",
    "PhaseGraphError",
    "DuplicateNodeError",
    "UnknownInputError",
    "CycleError",
    "RunContext",
    "Executor",
    "cached_analysis",
    "analyses_of",
    "analysis_graph",
]
