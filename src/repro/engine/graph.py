"""Phase graphs: validated DAGs of phases, run in declaration order.

A :class:`PhaseGraph` is built from declared :class:`.Phase` nodes plus
the names of *source* slots the caller will provide at run time. The
declaration order is the execution order, so every structural error is
raised at graph-build time, not mid-run:

- two nodes with the same name or the same output slot
  (:class:`DuplicateNodeError`);
- a node consuming a slot that no earlier node provides and no source
  declares (:class:`PhaseGraphError`, naming the node and the slot).
  That one check rejects unknown inputs, producers declared after
  their consumers, and cycles alike.

Declaring the same graph twice therefore yields the same order in any
process on any machine — which is what keeps span trees, cache
traffic, and chaos fault logs reproducible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.phase import Phase

__all__ = ["PhaseGraph", "PhaseGraphError", "DuplicateNodeError"]


class PhaseGraphError(ValueError):
    """A malformed graph declaration; raised as-is for a phase whose
    input no earlier phase or source provides."""


class DuplicateNodeError(PhaseGraphError):
    """Two phases share a name or an output slot."""


class PhaseGraph:
    """An immutable, validated DAG of :class:`.Phase` nodes."""

    def __init__(self, phases: Iterable[Phase], sources: Sequence[str] = (),
                 name: str = "graph"):
        self.name = name
        self.phases: Tuple[Phase, ...] = tuple(phases)
        self.sources: Tuple[str, ...] = tuple(sources)
        self.by_name: Dict[str, Phase] = {}
        self.by_slot: Dict[str, Phase] = {}
        for phase in self.phases:
            if phase.name in self.by_name:
                raise DuplicateNodeError(
                    f"duplicate phase name {phase.name!r}")
            if phase.provides in self.by_slot:
                raise DuplicateNodeError(
                    f"slot {phase.provides!r} is provided by both "
                    f"{self.by_slot[phase.provides].name!r} and "
                    f"{phase.name!r}")
            if phase.provides in self.sources:
                raise DuplicateNodeError(
                    f"slot {phase.provides!r} of phase {phase.name!r} "
                    f"shadows a declared source")
            for slot in phase.inputs:
                if slot not in self.by_slot and slot not in self.sources:
                    raise PhaseGraphError(
                        f"phase {phase.name!r} consumes {slot!r}, which no "
                        f"earlier phase provides and no source declares")
            self.by_name[phase.name] = phase
            self.by_slot[phase.provides] = phase

    # -- queries --------------------------------------------------------------

    def subset(self, targets: Sequence[str]) -> Tuple[Phase, ...]:
        """The phases of ``targets`` and their ancestors, in order —
        the engine's selective-recomputation primitive."""
        for name in targets:
            if name not in self.by_name:
                raise KeyError(f"unknown phase {name!r}")
        needed = set(targets)
        for phase in reversed(self.phases):
            if phase.name in needed:
                needed.update(self.by_slot[slot].name for slot in phase.inputs
                              if slot in self.by_slot)
        return tuple(p for p in self.phases if p.name in needed)

    def edges(self) -> List[Tuple[str, str, str]]:
        """Every dependency as ``(producer, consumer, slot)``; edges
        from graph sources use the source name as producer."""
        out: List[Tuple[str, str, str]] = []
        for phase in self.phases:
            for slot in phase.inputs:
                producer = (self.by_slot[slot].name
                            if slot in self.by_slot else slot)
                out.append((producer, phase.name, slot))
        return out

    # -- rendering ------------------------------------------------------------

    def render_text(self) -> str:
        """The DAG as an indented text listing, one phase per line."""
        lines = [f"{self.name}: {len(self.phases)} phases"]
        if self.sources:
            lines.append(f"  sources: {', '.join(self.sources)}")
        for phase in self.phases:
            flags = []
            if phase.cache_key:
                flags.append("cached")
            if not phase.traced:
                flags.append("untraced")
            if phase.enabled is not None:
                flags.append("conditional")
            deps = ", ".join(phase.inputs) if phase.inputs else "-"
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(f"  {phase.name:<24} <- {deps}{suffix}")
            if phase.doc:
                lines.append(f"  {'':<24}    {phase.doc}")
        return "\n".join(lines)

    def to_dot(self, durations: Optional[Mapping[str, float]] = None) -> str:
        """The DAG in Graphviz DOT form (one node per phase; dashed
        edges come from declared sources).

        ``durations`` maps phase names to last-run wall seconds (from a
        run journal's ``phase.finish`` records — see
        :func:`repro.obs.journal.phase_durations`); annotated nodes get
        the duration as a second label line, turning the DAG render
        into a poor-man's trace view (``repro graph --dot
        --from-journal run.jsonl``).
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for source in self.sources:
            lines.append(f'  "{source}" [shape=plaintext];')
        for phase in self.phases:
            shape = "box" if phase.cache_key else "ellipse"
            if durations is not None and phase.name in durations:
                label = f'{phase.name}\\n{durations[phase.name]:.3f}s'
                lines.append(
                    f'  "{phase.name}" [shape={shape} label="{label}"];')
                continue
            lines.append(f'  "{phase.name}" [shape={shape}];')
        for producer, consumer, slot in self.edges():
            style = (" [style=dashed]" if producer not in self.by_name
                     else f' [label="{slot}"]' if slot != producer else "")
            lines.append(f'  "{producer}" -> "{consumer}"{style};')
        lines.append("}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self):
        return iter(self.phases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PhaseGraph({self.name!r}, {len(self.phases)} phases, "
                f"sources={list(self.sources)})")
