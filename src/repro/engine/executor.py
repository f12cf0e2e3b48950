"""The engine's executor: one phase runner, applied to every node.

The :class:`Executor` walks a :class:`~repro.engine.graph.PhaseGraph`
in declaration order and runs each enabled phase through
:meth:`Executor._run_phase`, the one place the cross-cutting concerns
live:

- the phase span, with the phase's result annotations;
- opt-in resource profiling, when the executor was given a
  :class:`~repro.obs.profile.PhaseProfiler`;
- :class:`~repro.artifacts.cache.PhaseCache` fetch/save, when the
  phase declares a ``cache_key`` the executor has a key for;
- the run-journal ``phase.start`` / ``phase.finish`` / ``phase.error``
  records, whose ``duration_s`` is read off the closed span — the span
  is the only timer, so the journal and the span tree cannot disagree.

An untraced phase runs the same way against the null tracer and the
null journal. A disabled phase (``Phase.enabled`` false) skips the
runner entirely and fills its slot via ``Phase.fallback`` (or
``None``), untraced and uncached.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.engine.graph import PhaseGraph
from repro.engine.phase import Phase
from repro.obs import NULL_JOURNAL, NULL_TELEMETRY, NULL_TRACER

__all__ = ["RunContext", "Executor"]


class RunContext:
    """Everything one graph run threads through its phases.

    - ``values``: output slot -> produced value (sources pre-seeded);
    - ``params``: run knobs the computes read (config, worker count,
      the fault injector, ...);
    - ``telemetry``: the run's :mod:`repro.obs` bundle.
    """

    def __init__(self, telemetry=None, params: Optional[Mapping] = None):
        self.telemetry = telemetry or NULL_TELEMETRY
        self.params: Dict[str, object] = dict(params or {})
        self.values: Dict[str, object] = {}


class Executor:
    """Runs a :class:`PhaseGraph`, one phase runner for every node.

    ``cache`` is an optional :class:`~repro.artifacts.cache.PhaseCache`
    and ``keys`` maps ``Phase.cache_key`` names to concrete cache keys;
    ``profiler`` is an optional
    :class:`~repro.obs.profile.PhaseProfiler`.
    """

    def __init__(self, graph: PhaseGraph, cache=None,
                 keys: Optional[Mapping[str, str]] = None, profiler=None):
        self.graph = graph
        self.cache = cache
        self.keys = dict(keys or {})
        self.profiler = profiler

    # -- one phase ------------------------------------------------------------

    def _run_phase(self, phase: Phase, ctx: RunContext):
        """Run one enabled phase under its span, and journal it."""
        if phase.traced:
            tracer, journal = ctx.telemetry.tracer, ctx.telemetry.journal
            profiler = self.profiler
        else:
            tracer, journal, profiler = NULL_TRACER, NULL_JOURNAL, None
        try:
            with tracer.span(phase.name) as span:
                journal.emit("phase.start", phase=phase.name)
                if profiler is None:
                    result, cached = self._fetch_or_compute(phase, ctx, span)
                else:
                    with profiler.measure(phase.name):
                        result, cached = self._fetch_or_compute(
                            phase, ctx, span)
                span.annotate(**phase.annotations(result, ctx))
        except BaseException as exc:
            if journal.enabled:
                journal.emit("phase.error", phase=phase.name,
                             duration_s=round(span.duration, 6),
                             error=type(exc).__name__)
            raise
        if journal.enabled:
            journal.emit("phase.finish", phase=phase.name,
                         duration_s=round(span.duration, 6), cached=cached)
        return result

    def _fetch_or_compute(self, phase: Phase, ctx: RunContext, span):
        """``(value, cached)``: a cache hit, or a fresh compute (saved
        when the phase is cacheable)."""
        key = (self.keys.get(phase.cache_key)
               if self.cache is not None and phase.cache_key else None)
        if key is not None:
            hit = self.cache.fetch(phase.cache_key, key)
            if hit is not None:
                span.annotate(cached=True)
                return hit, True
        inputs = {slot: ctx.values[slot] for slot in phase.inputs}
        result = phase.compute(ctx, **inputs)
        span.annotate(**phase.fresh_annotations(result, ctx))
        if key is not None:
            self.cache.save(phase.cache_key, key, result)
        return result, False

    # -- running --------------------------------------------------------------

    def run(self, ctx: RunContext,
            targets: Optional[Sequence[str]] = None,
            sources: Optional[Mapping[str, object]] = None,
            root_span: Optional[str] = None,
            root_meta: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """Execute the graph (or the ancestors of ``targets`` only).

        ``sources`` seeds declared source slots with values. With
        ``root_span`` set, the whole run nests under one span of that
        name (annotated with ``root_meta``). Returns ``ctx.values`` —
        every slot produced, keyed by name.
        """
        for slot, value in (sources or {}).items():
            if slot not in self.graph.sources:
                raise KeyError(
                    f"{slot!r} is not a declared source of graph "
                    f"{self.graph.name!r}")
            ctx.values[slot] = value
        order = (self.graph.phases if targets is None
                 else self.graph.subset(targets))
        if root_span is not None:
            with ctx.telemetry.tracer.span(root_span, **(root_meta or {})):
                self._run_order(order, ctx)
        else:
            self._run_order(order, ctx)
        return ctx.values

    def _run_order(self, order: Iterable[Phase], ctx: RunContext) -> None:
        for phase in order:
            missing = [s for s in phase.inputs if s not in ctx.values]
            if missing:
                raise KeyError(
                    f"phase {phase.name!r} is missing input value(s) "
                    f"{missing}; seed them via run(sources=...)")
            if phase.enabled is None or phase.enabled(ctx):
                value = self._run_phase(phase, ctx)
            elif phase.fallback is not None:
                inputs = {slot: ctx.values[slot] for slot in phase.inputs}
                value = phase.fallback(ctx, **inputs)
            else:
                value = None
            ctx.values[phase.provides] = value
