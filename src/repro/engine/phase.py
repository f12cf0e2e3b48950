"""The declarative unit of the engine: one named pipeline phase.

A :class:`Phase` declares *what* a stage is — its name, the output slot
it provides, the slots it consumes, whether it is traced or cacheable —
while the :class:`~repro.engine.executor.Executor` decides *how* every
stage runs (span, journal records, profiling, cache traffic) in its one
phase runner. The pipeline itself never repeats that plumbing per
phase; it only declares nodes.

A phase's ``compute`` receives the run context followed by its declared
inputs as keyword arguments::

    Phase("join", inputs=("feed_attacks", "open_resolvers"),
          compute=lambda ctx, feed_attacks, open_resolvers: ...)

Optional knobs:

- ``enabled`` gates the phase on the run context (e.g. ``feed_harden``
  only runs under chaos). A disabled phase still *provides* its slot via
  ``fallback`` — executed untraced and uncached, so clean runs carry no
  trace of the disabled stage.
- ``cache_key`` names the entry in the executor's fingerprint-key map;
  a phase with no ``cache_key`` is never cached; a cached phase's
  artifact goes through the phase-registry ``(dumps, loads)`` pair
  (:data:`repro.artifacts.serializers.PHASE_SERIALIZERS`).
- ``annotations`` produces span metadata from the result, on a cache
  hit and a miss alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

__all__ = ["Phase"]


def _no_annotations(result, ctx) -> Dict[str, object]:
    return {}


@dataclass(frozen=True)
class Phase:
    """One declared node of a :class:`~repro.engine.graph.PhaseGraph`."""

    #: unique node name; also the span name when the phase is traced.
    name: str
    #: ``compute(ctx, **inputs) -> value`` producing the phase's output.
    compute: Callable = None
    #: output slots of other phases (or graph sources) this node consumes.
    inputs: Tuple[str, ...] = ()
    #: the output slot this node fills; defaults to the node name.
    provides: Optional[str] = None
    #: open a span named after the node around its execution.
    traced: bool = True
    #: name of this phase's entry in the executor's fingerprint-key map;
    #: ``None`` means the phase is never cached.
    cache_key: Optional[str] = None
    #: gate on the run context; a disabled phase runs ``fallback``.
    enabled: Optional[Callable] = None
    #: untraced/uncached substitute used when ``enabled(ctx)`` is false
    #: (a disabled phase without one provides ``None``).
    fallback: Optional[Callable] = None
    #: span metadata derived from the result (applied on hit and miss).
    annotations: Callable = field(default=_no_annotations)
    #: one-line description, shown by ``repro graph``.
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a phase needs a non-empty name")
        if self.compute is None:
            raise ValueError(f"phase {self.name!r} declares no compute")
        if self.provides is None:
            object.__setattr__(self, "provides", self.name)
        object.__setattr__(self, "inputs", tuple(self.inputs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.cache_key:
            flags.append("cached")
        if not self.traced:
            flags.append("untraced")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return (f"Phase({self.name!r}, inputs={list(self.inputs)}, "
                f"provides={self.provides!r}{suffix})")
