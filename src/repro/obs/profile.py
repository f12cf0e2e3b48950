"""Opt-in per-phase resource profiling: CPU, peak RSS, allocations.

A :class:`PhaseProfiler` wraps each traced phase (the
:class:`repro.engine.Executor` measures every phase it was given a
profiler for) and publishes what it cost as
``repro.profile.*`` gauges, labeled ``{phase=...}``:

================================  =============================================
``repro.profile.cpu_s``           process CPU seconds (user+system)
``repro.profile.peak_rss_kb``     peak resident set size, in KiB, as of the
                                  phase's end (``ru_maxrss`` is a high-water
                                  mark, so this is monotone across phases —
                                  the first phase to touch the peak names it)
``repro.profile.net_alloc_kb``    net tracemalloc-tracked Python allocation
                                  delta across the phase, in KiB
``repro.profile.peak_alloc_kb``   peak tracked allocation above the phase's
                                  starting point, in KiB
================================  =============================================

The near-zero-overhead contract
-------------------------------

Profiling is **off by default** and its cost when off is one ``is
None`` test per phase: ``run_study`` only builds a profiler (and only
starts ``tracemalloc``) when asked to profile, and the executor's
phase runner skips ``measure`` when it has none — no tracing hooks, no
gauges, nothing else. Tests assert that an unprofiled run records no
``repro.profile.*`` series and leaves ``tracemalloc`` untracing.

When profiling *is* on, outputs still don't move: the profiler draws
nothing from any seeded RNG and publishes only into the telemetry
registry, so stdout and every study artifact stay byte-identical
(asserted in tests and byte-diffed in CI).

``tracemalloc`` costs real time (every allocation is traced); CPU and
RSS cost almost nothing. ``PhaseProfiler(..., trace_allocations=False)``
keeps the cheap collectors only. RSS collection degrades gracefully to
absent when the platform lacks the ``resource`` module (non-POSIX).
"""

from __future__ import annotations

import os
import tracemalloc
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.registry import MetricsRegistry

try:
    import resource
except ImportError:  # pragma: no cover - POSIX-only module
    resource = None  # type: ignore[assignment]

__all__ = ["PhaseProfiler", "cpu_seconds", "peak_rss_kb"]


def cpu_seconds() -> float:
    """CPU seconds this process has consumed (user+system)."""
    t = os.times()
    return t.user + t.system


def peak_rss_kb() -> Optional[float]:
    """Peak resident set size of this process in KiB, if measurable.

    Linux reports ``ru_maxrss`` in KiB already; macOS reports bytes.
    Returns ``None`` where the ``resource`` module is unavailable.
    """
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    scale = 1024.0 if os.uname().sysname == "Darwin" else 1.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


class PhaseProfiler:
    """Measures phases and publishes ``repro.profile.*`` gauges.

    One profiler serves a whole run; re-measuring a phase name (a lazy
    analysis accessed twice) overwrites its gauges — they are "last
    run" figures, like the journal's durations. The profiler owns the
    ``tracemalloc`` lifecycle when it started tracing: call
    :meth:`close` (``run_study`` does, in a ``finally``) to stop it.
    """

    def __init__(self, registry: MetricsRegistry,
                 trace_allocations: bool = True):
        self.registry = registry
        self.trace_allocations = trace_allocations
        self._started_tracing = False
        if trace_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True

    @contextmanager
    def measure(self, phase: str) -> Iterator[None]:
        """Profile the ``with`` block as phase ``phase``."""
        tracing = self.trace_allocations and tracemalloc.is_tracing()
        if tracing:
            alloc0 = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        cpu0 = cpu_seconds()
        try:
            yield
        finally:
            gauge = self.registry.gauge
            gauge("repro.profile.cpu_s",
                  phase=phase).set(cpu_seconds() - cpu0)
            rss = peak_rss_kb()
            if rss is not None:
                gauge("repro.profile.peak_rss_kb", phase=phase).set(rss)
            if tracing:
                current, peak = tracemalloc.get_traced_memory()
                gauge("repro.profile.net_alloc_kb",
                      phase=phase).set((current - alloc0) / 1024.0)
                gauge("repro.profile.peak_alloc_kb",
                      phase=phase).set(max(0, peak - alloc0) / 1024.0)

    def close(self) -> None:
        """Stop ``tracemalloc`` if this profiler started it."""
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracing = False

    def __enter__(self) -> "PhaseProfiler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
