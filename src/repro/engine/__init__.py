"""repro.engine — the declarative phase-graph engine.

The paper's §4 method is a dataflow: telescope feed and OpenINTEL
crawl join into per-NSSet buckets, then fan out into the analyses.
This package expresses that dataflow as data rather than procedure:

- :class:`Phase` declares one node: name, input slots, output slot,
  fingerprint key (cacheability), an enablement gate, span
  annotations;
- :class:`PhaseGraph` validates the declarations at build time:
  declaration order is the execution order, so a node consuming a
  slot no earlier node or source provides is rejected (naming the
  node and the slot), as are duplicate names and outputs;
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
from repro.engine.graph import DuplicateNodeError, PhaseGraph, PhaseGraphError
from repro.engine.phase import Phase

__all__ = [
    "Phase",
    "PhaseGraph",
    "PhaseGraphError",
    "DuplicateNodeError",
    "RunContext",
    "Executor",
    "cached_analysis",
    "analyses_of",
    "analysis_graph",
]
