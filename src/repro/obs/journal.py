"""The run journal: an append-only JSONL event log for one run.

Where the :class:`~repro.obs.registry.MetricsRegistry` answers "how
much" and the :class:`~repro.obs.spans.Tracer` answers "how long", the
journal answers "what happened, in what order": every record is one
JSON object on its own line, written and flushed as the event occurs,
so a crash leaves a readable prefix instead of nothing (deliberately
*not* the atomic temp-file write the snapshot uses — a journal's value
is precisely that it survives the run dying halfway).

Record envelope
---------------

Every record carries the same four envelope keys plus event fields::

    {"seq": 17, "t": 0.1042, "utc": "2021-03-01T12:00:00.104200+00:00",
     "type": "phase.finish", "phase": "crawl", "duration_s": 7.85,
     "cached": false}

``seq`` is a per-journal monotonic sequence number, ``t`` the monotonic
offset (seconds) since the journal opened, and ``utc`` the wall-clock
anchor translated by that offset — so records correlate with span
``start`` offsets in the ``repro.obs/v2`` snapshot through the shared
``anchor_monotonic`` / ``started_at_utc`` pair. The first record is
always ``type="journal.open"`` and names the schema, the run id, and
both anchors.

Event types
-----------

``run.start`` / ``run.finish``
    emitted by ``run_study`` around the whole pipeline (config summary
    on start; degradation flags on finish).
``phase.start`` / ``phase.finish`` / ``phase.error``
    emitted by the phase runner of :class:`repro.engine.Executor` for
    every traced node of the study graph and every lazy ``analysis.*``
    descriptor; ``phase.finish`` carries ``duration_s`` and ``cached``.
    The duration is the phase span's, rounded to 6 places: the span is
    the only timer, so a journal needs an enabled tracer.
``cache.hit`` / ``cache.miss`` / ``cache.save``
    emitted by :class:`repro.artifacts.PhaseCache`.
``chaos.fault``
    one record per injected fault, mirroring the injector's event log.
``degraded``
    emitted once before ``run.finish`` when the study is degraded.
``worker.kill`` / ``worker.restore`` / ``worker.checkpoint``
    reactive worker lifecycle; ``incarnation`` counts restores.
``reactive.admit`` / ``reactive.shed``
    per-campaign admission decisions (with ``late`` / ``throttled``
    degradation flags on admit).

Journal records are **at-least-once** under chaos replay: a reactive
tick that a crash rolls back has already journaled its admission
decisions, and the restored worker journals them again — records carry
the worker ``incarnation`` so replays are attributable, unlike metrics,
which are deduplicated at the checkpoint boundary (see
:class:`~repro.obs.registry.BufferedRegistry`).

The determinism contract holds: the journal observes, never perturbs —
it draws nothing from any seeded RNG and study outputs are
byte-identical with or without it (asserted in tests and CI).
"""

from __future__ import annotations

import json
import os
import uuid
from datetime import datetime, timedelta, timezone
from typing import Dict, IO, Iterable, List, Optional, Union

from repro.obs.clock import Clock, MonotonicClock

__all__ = [
    "JOURNAL_SCHEMA",
    "RunJournal",
    "NullJournal",
    "NULL_JOURNAL",
    "new_run_id",
    "read_journal",
    "phase_durations",
]

#: Version tag stamped into every journal's ``journal.open`` record.
JOURNAL_SCHEMA = "repro.journal/v1"


def new_run_id() -> str:
    """A fresh 12-hex-digit run id (not drawn from any seeded RNG)."""
    return uuid.uuid4().hex[:12]


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


class RunJournal:
    """An open, writable journal: one JSONL file, flushed per record."""

    enabled = True

    def __init__(self, path: Union[str, "os.PathLike[str]"], *,
                 run_id: Optional[str] = None,
                 clock: Optional[Clock] = None,
                 started_at_utc: Optional[str] = None):
        self.path = os.fspath(path)
        self.clock = clock or MonotonicClock()
        self.run_id = run_id or new_run_id()
        if started_at_utc is not None:
            self._started_at = datetime.fromisoformat(started_at_utc)
        else:
            self._started_at = _utc_now()
        self.started_at_utc = self._started_at.isoformat()
        self._anchor = self.clock.now()
        self._seq = 0
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fp: Optional[IO[str]] = open(self.path, "w")
        self.emit("journal.open", schema=JOURNAL_SCHEMA, run_id=self.run_id,
                  started_at_utc=self.started_at_utc,
                  anchor_monotonic=self._anchor)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (emits become no-ops)."""
        return self._fp is None

    def emit(self, type: str, **fields) -> None:
        """Append one record (envelope + ``fields``) and flush it.

        Emitting on a closed journal is a silent no-op, so late lazy
        analyses never crash a run that already wrote its footer.
        """
        if self._fp is None:
            return
        offset = self.clock.now() - self._anchor
        record: Dict[str, object] = {
            "seq": self._seq,
            "t": round(offset, 6),
            "utc": (self._started_at
                    + timedelta(seconds=offset)).isoformat(),
            "type": type,
        }
        record.update(fields)
        self._fp.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":"), default=str))
        self._fp.write("\n")
        self._fp.flush()
        self._seq += 1

    def bind(self, **extra) -> "_BoundJournal":
        """A view of this journal that adds ``extra`` to every record.

        Used to stamp a reactive worker's ``incarnation`` onto every
        admission record its scheduler emits without threading the
        number through every call site.
        """
        return _BoundJournal(self, extra)

    def close(self) -> None:
        """Write the ``journal.close`` footer and close the file."""
        if self._fp is None:
            return
        self.emit("journal.close", records=self._seq)
        fp, self._fp = self._fp, None
        fp.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _BoundJournal:
    """A journal view stamping fixed fields onto every record."""

    __slots__ = ("_journal", "_extra")

    def __init__(self, journal: "RunJournal", extra: Dict[str, object]):
        self._journal = journal
        self._extra = extra

    @property
    def enabled(self) -> bool:
        return self._journal.enabled

    def emit(self, type: str, **fields) -> None:
        merged = dict(self._extra)
        merged.update(fields)
        self._journal.emit(type, **merged)

    def bind(self, **extra) -> "_BoundJournal":
        merged = dict(self._extra)
        merged.update(extra)
        return _BoundJournal(self._journal, merged)


class NullJournal:
    """The default, disabled journal: every method is a no-op."""

    enabled = False
    closed = True
    run_id = ""
    path = ""

    def emit(self, type: str, **fields) -> None:
        """Nothing is recorded."""

    def bind(self, **extra) -> "NullJournal":
        """Binding a null journal is still the null journal."""
        return self

    def close(self) -> None:
        """Nothing to close."""


#: The process-wide disabled journal (stateless, safe to share).
NULL_JOURNAL = NullJournal()


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def read_journal(path: Union[str, "os.PathLike[str]"]) -> List[Dict[str, object]]:
    """Parse a journal file into its records, in order.

    A trailing partial line (the run died mid-write) is ignored rather
    than raised on — reading the surviving prefix is the whole point.
    """
    records: List[Dict[str, object]] = []
    with open(os.fspath(path)) as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                break
    return records


def phase_durations(
        records: Union[str, "os.PathLike[str]", Iterable[Dict[str, object]]],
) -> Dict[str, float]:
    """``{phase: duration_s}`` from a journal's ``phase.finish`` records.

    Accepts a path or pre-parsed records; when a phase finished more
    than once (warm analyses, replays) the last record wins — these are
    "last-run" durations, which is what ``repro graph --from-journal``
    annotates the DAG with.
    """
    if isinstance(records, (str, os.PathLike)):
        records = read_journal(records)
    durations: Dict[str, float] = {}
    for record in records:
        if record.get("type") == "phase.finish":
            durations[str(record["phase"])] = float(record["duration_s"])  # type: ignore[arg-type]
    return durations
