"""Span-based phase tracing: the timing half of :mod:`repro.obs`.

A :class:`Tracer` records a tree of named :class:`Span` s — "this phase
ran from t0 to t1, inside that phase" — against an injectable
:class:`~repro.obs.clock.Clock`, so tests drive it with a
:class:`~repro.obs.clock.FakeClock` and assert exact durations.

Spans opened while another span is open nest under it; spans opened on
an empty stack become new roots (a :class:`Study`'s lazy analyses, for
example, run after the ``study`` span closed and appear as their own
roots). :meth:`Tracer.render_tree` prints the phase-timing tree the CLI
shows under ``--trace``; :meth:`Tracer.snapshot` is the JSON form.

The default tracer in the pipeline is :data:`NULL_TRACER`, whose spans
are a shared no-op — instrumented code never branches on enablement.

Pipeline phase spans (``study``'s children, ``analysis.*`` roots) are
opened by the phase runner of :class:`repro.engine.Executor` rather
than inline ``tracer.span(...)`` calls — one code path annotates every
node of the study graph, and the run journal's ``phase.*`` durations
are read off the same spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.obs.clock import Clock, MonotonicClock

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One timed phase: name, start/end, nested children, annotations."""

    __slots__ = ("name", "start", "end", "children", "meta")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self.meta: Dict[str, object] = {}

    @property
    def duration(self) -> Optional[float]:
        """Seconds from start to end; ``None`` while the span is open."""
        return None if self.end is None else self.end - self.start

    def annotate(self, **meta) -> None:
        """Attach key/value facts to the span (counts, worker numbers)."""
        self.meta.update(meta)

    def to_dict(self) -> Dict[str, object]:
        """The span subtree as a JSON-serializable dict.

        ``start`` is the raw monotonic clock reading — translate it to
        wall time via the snapshot's ``anchor_monotonic`` /
        ``started_at_utc`` pair (``repro.obs/v2``).
        """
        out: Dict[str, object] = {"name": self.name,
                                  "start": self.start,
                                  "duration_s": self.duration}
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:
        dur = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, {dur}, {len(self.children)} children)"


class Tracer:
    """Records a forest of phase spans against one clock."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock or MonotonicClock()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **meta) -> Iterator[Span]:
        """Open a span for the duration of the ``with`` block.

        Nested calls nest the spans; the span closes (its end time is
        stamped) even when the block raises.
        """
        span = Span(name, self.clock.now())
        if meta:
            span.meta.update(meta)
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock.now()
            self._stack.pop()

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def graft(self, span: Span) -> None:
        """Attach an already-closed span subtree to the current position.

        Used by :mod:`repro.obs.merge` to stitch a worker process's
        captured span tree under the parent's open phase span (or as a
        new root when no span is open). The subtree is adopted as-is —
        its timestamps are expected to come from the same monotonic
        domain (forked workers share the parent's clock).
        """
        (self._stack[-1].children if self._stack else self.roots).append(span)

    def snapshot(self) -> List[Dict[str, object]]:
        """Every root span subtree as JSON-serializable dicts."""
        return [root.to_dict() for root in self.roots]

    def render_tree(self) -> str:
        """The indented phase-timing tree (the CLI's ``--trace`` output)."""
        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            label = "  " * depth + span.name
            dur = "   (open)" if span.end is None else f"{span.duration:8.3f}s"
            extra = ""
            if span.meta:
                extra = "  (" + ", ".join(
                    f"{k}={v}" for k, v in sorted(span.meta.items())) + ")"
            lines.append(f"{label:<42s} {dur}{extra}")
            for child in span.children:
                walk(child, depth + 1)

        for root in self.roots:
            walk(root, 0)
        return "\n".join(lines)


class _NullSpan(Span):
    __slots__ = ()

    def annotate(self, **meta) -> None:
        pass


class NullTracer(Tracer):
    """The default, disabled tracer: spans are a shared no-op."""

    enabled = False

    _SPAN = _NullSpan("null", 0.0)

    @contextmanager
    def span(self, name: str, **meta) -> Iterator[Span]:
        """A no-op span (nothing is recorded)."""
        yield self._SPAN

    def graft(self, span: Span) -> None:
        """Nothing is recorded."""

    def snapshot(self) -> List[Dict[str, object]]:
        """Always empty."""
        return []

    def render_tree(self) -> str:
        """Always empty."""
        return ""


#: The process-wide disabled tracer (stateless, safe to share).
NULL_TRACER = NullTracer()
