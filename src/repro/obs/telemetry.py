"""The per-run telemetry bundle: one registry + one tracer + one clock.

A :class:`RunTelemetry` travels with a study run: ``run_study`` threads
it through the pipeline (crawl, streaming, chaos, store), the finished
:class:`~repro.core.pipeline.Study` carries it, and the CLI writes it
out (``--metrics-out``) or prints its phase tree (``--trace``).

The determinism contract
------------------------

Telemetry **observes, never perturbs**: it draws nothing from any
seeded RNG, and instrumented code takes no data-dependent branch on it,
so a study's outputs are bit-identical whether telemetry is enabled or
disabled (a test asserts this). The default is :data:`NULL_TELEMETRY`
— a no-op registry and tracer around a real monotonic clock — so
uninstrumented callers pay only inert method calls.

The snapshot schema (``repro.obs/v2``)::

    {"schema": "repro.obs/v2",
     "run_id": "9f2c41aa03de",
     "started_at_utc": "2021-03-01T12:00:00+00:00",
     "anchor_monotonic": 81234.117,
     "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
     "spans": [{"name": ..., "start": ..., "duration_s": ...,
                "children": [...]}, ...]}

v2 adds the three identity/anchor keys (plus per-span ``start``
offsets) on top of v1: span ``start`` values are raw monotonic clock
readings, and ``started_at_utc + (start - anchor_monotonic)`` places
any span on the wall clock — the same anchor pair a
:class:`~repro.obs.journal.RunJournal` stamps into its header, so
spans and journal records from one run correlate across processes.
Readers accept only v2: every committed snapshot is v2.

Benchmarks reuse the same schema for their ``BENCH_*.json`` trajectory
files (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import Dict, Optional

from repro.obs.clock import Clock, MonotonicClock
from repro.obs.journal import NULL_JOURNAL, new_run_id
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_TRACER, Tracer

__all__ = ["RunTelemetry", "NULL_TELEMETRY", "SNAPSHOT_SCHEMA"]

#: Version tag stamped into every snapshot (and the only one readers
#: accept).
SNAPSHOT_SCHEMA = "repro.obs/v2"


class RunTelemetry:
    """Everything one run records: metrics, spans, and their clock."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 clock: Optional[Clock] = None):
        self.clock = clock or MonotonicClock()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.clock)
        #: 12-hex-digit run identity, shared with the run's journal.
        self.run_id = new_run_id()
        #: Wall-clock anchor: the UTC instant `anchor_monotonic` was read.
        self.started_at_utc = datetime.now(timezone.utc).isoformat()
        #: Monotonic anchor: span ``start`` offsets are readings of the
        #: same clock, so `started_at_utc + (start - anchor_monotonic)`
        #: places a span on the wall clock.
        self.anchor_monotonic = self.clock.now()
        #: The run journal, if one is attached (see ``attach_journal``).
        self.journal = NULL_JOURNAL

    @classmethod
    def create(cls, clock: Optional[Clock] = None) -> "RunTelemetry":
        """An enabled telemetry bundle (fresh registry + tracer)."""
        return cls(clock=clock)

    @property
    def enabled(self) -> bool:
        """Whether anything is actually recorded."""
        return self.registry.enabled or self.tracer.enabled

    def attach_journal(self, journal) -> None:
        """Attach a :class:`~repro.obs.journal.RunJournal` to this run.

        The shared :data:`NULL_TELEMETRY` refuses an enabled journal —
        it is a process-wide singleton and must stay inert. So does a
        bundle with a null tracer: the journal's ``phase.*`` durations
        are read off the phase spans, so a journal needs real ones.
        """
        if journal.enabled and self is NULL_TELEMETRY:
            raise ValueError(
                "cannot attach a journal to the shared NULL_TELEMETRY; "
                "use RunTelemetry.create()")
        if journal.enabled and not self.tracer.enabled:
            raise ValueError(
                "cannot attach a journal to a telemetry bundle with a "
                "null tracer: phase durations are read off its spans")
        self.journal = journal

    # -- exposition -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The full ``repro.obs/v2`` snapshot (JSON-serializable)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "run_id": self.run_id,
            "started_at_utc": self.started_at_utc,
            "anchor_monotonic": self.anchor_monotonic,
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.snapshot(),
        }

    def write_json(self, path: str) -> None:
        """Write :meth:`snapshot` to ``path`` as pretty-printed JSON.

        The write is atomic (temp file + ``os.replace``) and missing
        parent directories are created, so ``--metrics-out`` can point
        into a fresh results tree and a crash mid-write can never leave
        a truncated snapshot behind.
        """
        from repro.util.fileio import atomic_write

        with atomic_write(path) as fp:
            json.dump(self.snapshot(), fp, indent=2, sort_keys=True)
            fp.write("\n")

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the run's metrics."""
        return self.registry.render_prometheus()

    def render_trace(self) -> str:
        """The phase-timing tree (``--trace`` output)."""
        return self.tracer.render_tree()


#: The process-wide disabled bundle: no-op registry and tracer around a
#: real monotonic clock (so callers can still time against it).
NULL_TELEMETRY = RunTelemetry(NULL_REGISTRY, NULL_TRACER)
