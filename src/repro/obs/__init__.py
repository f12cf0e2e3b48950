"""repro.obs — run telemetry: metrics, phase spans, journal, profiling.

The observability layer of the pipeline, dependency-free and seeded-RNG
free. One :class:`RunTelemetry` bundle per run carries a
:class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms),
a :class:`Tracer` (nested phase spans) against an injectable
:class:`Clock`, and optionally a :class:`RunJournal` (append-only JSONL
event log). The default, :data:`NULL_TELEMETRY`, is a no-op — see
:mod:`repro.obs.telemetry` for the determinism contract and the
``repro.obs/v2`` snapshot schema, and ``docs/observability.md`` for the
metric namespace (``repro.crawl.*``, ``repro.stream.*``,
``repro.chaos.*``, ``repro.store.*``, ``repro.profile.*``).

Second-layer tooling: :mod:`repro.obs.journal` (the run journal),
:mod:`repro.obs.profile` (per-phase CPU/RSS/allocation gauges), and
:mod:`repro.obs.cli` (the ``repro obs`` subcommand).
"""

from repro.obs.clock import Clock, FakeClock, MonotonicClock
from repro.obs.journal import (
    JOURNAL_SCHEMA,
    NULL_JOURNAL,
    NullJournal,
    RunJournal,
    new_run_id,
    phase_durations,
    read_journal,
)
from repro.obs.profile import PhaseProfiler
from repro.obs.registry import (
    DEFAULT_BUCKETS_MS,
    NULL_REGISTRY,
    QUERY_BUCKETS_MS,
    BufferedRegistry,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    buffered,
)
from repro.obs.spans import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    SNAPSHOT_SCHEMA,
    RunTelemetry,
)

__all__ = [
    "Clock",
    "MonotonicClock",
    "FakeClock",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BufferedRegistry",
    "buffered",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS_MS",
    "QUERY_BUCKETS_MS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RunTelemetry",
    "NULL_TELEMETRY",
    "SNAPSHOT_SCHEMA",
    "RunJournal",
    "NullJournal",
    "NULL_JOURNAL",
    "JOURNAL_SCHEMA",
    "new_run_id",
    "read_journal",
    "phase_durations",
    "PhaseProfiler",
]
