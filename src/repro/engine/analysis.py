"""Lazy memoized analyses as declared engine nodes.

:class:`cached_analysis` replaces the per-analysis "memoize + open the
``analysis.*`` span" blocks that used to be hand-rolled nine times on
:class:`~repro.core.pipeline.Study`. One descriptor declares the
analysis' dependencies (the owner attributes it reads — ``join``,
``events``, ...); access then runs the analysis as a single-node
subgraph of the owner class' :func:`analysis_graph` through the shared
:class:`~repro.engine.executor.Executor` (span and journal records,
no cache), and memoizes the result in the instance ``__dict__`` (exactly like
``functools.cached_property``, so later accesses are plain attribute
lookups).

The span is named ``analysis.<attribute>`` — the same names the
pipeline has always emitted — and opens on the owner's
``telemetry.tracer``, which the owner class must expose.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.engine.executor import Executor, RunContext
from repro.engine.graph import PhaseGraph
from repro.engine.phase import Phase

__all__ = ["cached_analysis", "analyses_of", "analysis_graph"]


class cached_analysis:
    """Declare a lazily-computed, span-traced, memoized analysis.

    Usage::

        @cached_analysis(deps=("join",))
        def monthly(self):
            '''Table 3 / Table 1.'''
            return monthly_summary(self.join)

    ``deps`` name the owner attributes the analysis reads; they become
    the node's declared inputs, so ``repro graph`` shows the analysis
    fan-out and the graph validator rejects an undeclared dependency at
    build time.
    """

    def __init__(self, deps: Sequence[str] = ()):
        self.deps: Tuple[str, ...] = tuple(deps)
        self.fn: Optional[Callable] = None
        self.attr: Optional[str] = None
        self.phase_name: Optional[str] = None

    def __call__(self, fn: Callable) -> "cached_analysis":
        self.fn = fn
        self.__doc__ = fn.__doc__
        return self

    def __set_name__(self, owner: type, name: str) -> None:
        if self.fn is None:
            raise TypeError(
                f"cached_analysis {name!r} was never given a function; "
                f"use @cached_analysis(deps=...)")
        self.attr = name
        self.phase_name = f"analysis.{name}"

    def phase(self) -> Phase:
        """This analysis as a declared engine node."""
        fn = self.fn
        doc = (fn.__doc__ or "").strip().split("\n")[0]
        return Phase(
            self.phase_name,
            inputs=self.deps,
            compute=lambda ctx, **_inputs: fn(ctx.params["subject"]),
            doc=doc,
        )

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        if self.attr not in obj.__dict__:
            obj.__dict__[self.attr] = self._run(obj)
        return obj.__dict__[self.attr]

    def _run(self, obj):
        """Execute just this node (its deps are owner attributes)."""
        graph = analysis_graph(type(obj))
        ctx = RunContext(telemetry=obj.telemetry, params={"subject": obj})
        values = Executor(graph).run(
            ctx, targets=[self.phase_name],
            sources={slot: getattr(obj, slot) for slot in self.deps})
        return values[self.phase_name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"cached_analysis({self.attr!r}, deps={list(self.deps)})"


def analyses_of(cls: type) -> List[cached_analysis]:
    """Every :class:`cached_analysis` declared on ``cls`` (MRO order,
    base classes first, declaration order within a class)."""
    out: List[cached_analysis] = []
    seen = set()
    for klass in reversed(cls.__mro__):
        for value in vars(klass).values():
            if isinstance(value, cached_analysis) and value.attr not in seen:
                seen.add(value.attr)
                out.append(value)
    return out


_GRAPHS: Dict[type, PhaseGraph] = {}


def analysis_graph(cls: type) -> PhaseGraph:
    """The validated single-layer DAG of a class' declared analyses
    (memoized per class). Dependencies are graph sources, seeded from
    the instance at run time."""
    graph = _GRAPHS.get(cls)
    if graph is None:
        descriptors = analyses_of(cls)
        sources = sorted({slot for d in descriptors for slot in d.deps})
        graph = PhaseGraph([d.phase() for d in descriptors],
                           sources=sources, name="analyses")
        _GRAPHS[cls] = graph
    return graph
