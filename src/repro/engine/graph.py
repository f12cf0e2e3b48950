"""Phase graphs: validated, deterministically-ordered DAGs of phases.

A :class:`PhaseGraph` is built from declared :class:`.Phase` nodes plus
the names of *source* slots the caller will provide at run time. Every
structural error is raised at graph-build time, not mid-run:

- two nodes with the same name or the same output slot
  (:class:`DuplicateNodeError`);
- a node consuming a slot no node provides and no source declares
  (:class:`UnknownInputError`);
- a dependency cycle (:class:`CycleError`, naming the cycle's members
  in order).

The execution order is a *deterministic* topological sort: among ready
nodes, declaration order wins. Declaring the same graph twice therefore
yields the same order in any process on any machine — which is what
keeps span trees, cache traffic, and chaos fault logs reproducible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.phase import Phase

__all__ = ["PhaseGraph", "PhaseGraphError", "DuplicateNodeError",
           "UnknownInputError", "CycleError"]


class PhaseGraphError(ValueError):
    """Base class for graph-construction failures."""


class DuplicateNodeError(PhaseGraphError):
    """Two phases share a name or an output slot."""


class UnknownInputError(PhaseGraphError):
    """A phase consumes a slot nothing provides."""


class CycleError(PhaseGraphError):
    """The declared dependencies contain a cycle."""

    def __init__(self, cycle: Sequence[str]):
        self.cycle = tuple(cycle)
        loop = " -> ".join(self.cycle + (self.cycle[0],))
        super().__init__(f"phase dependency cycle: {loop}")


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
            self.by_name[phase.name] = phase
            self.by_slot[phase.provides] = phase
        self._check_inputs()
        self.order: Tuple[Phase, ...] = self._toposort()

    # -- validation -----------------------------------------------------------

    def _check_inputs(self) -> None:
        known = set(self.by_slot) | set(self.sources)
        for phase in self.phases:
            for slot in phase.inputs:
                if slot not in known:
                    raise UnknownInputError(
                        f"phase {phase.name!r} consumes {slot!r}, which no "
                        f"phase provides and no source declares")

    def _dependencies(self, phase: Phase) -> List[Phase]:
        """Upstream phases of ``phase`` (source inputs have none)."""
        return [self.by_slot[slot] for slot in phase.inputs
                if slot in self.by_slot]

    def _toposort(self) -> Tuple[Phase, ...]:
        """Kahn's algorithm with a declaration-ordered ready list."""
        pending = {p.name: len(self._dependencies(p)) for p in self.phases}
        dependants: Dict[str, List[Phase]] = {p.name: [] for p in self.phases}
        for phase in self.phases:
            for dep in self._dependencies(phase):
                dependants[dep.name].append(phase)
        order: List[Phase] = []
        done = set()
        while len(order) < len(self.phases):
            progressed = False
            for phase in self.phases:  # declaration order breaks ties
                if phase.name in done or pending[phase.name]:
                    continue
                order.append(phase)
                done.add(phase.name)
                for dependant in dependants[phase.name]:
                    pending[dependant.name] -= 1
                progressed = True
            if not progressed:
                raise CycleError(self._find_cycle(done))
        return tuple(order)

    def _find_cycle(self, done: set) -> List[str]:
        """Name one cycle among the nodes the sort could not place."""
        stuck = [p for p in self.phases if p.name not in done]
        start = stuck[0]
        trail: List[str] = []
        seen: Dict[str, int] = {}
        node = start
        while node.name not in seen:
            seen[node.name] = len(trail)
            trail.append(node.name)
            node = next(dep for dep in self._dependencies(node)
                        if dep.name not in done)
        return trail[seen[node.name]:]

    # -- queries --------------------------------------------------------------

    def subset(self, targets: Sequence[str]) -> Tuple[Phase, ...]:
        """The execution order restricted to ``targets`` and their
        ancestors — the engine's selective-recomputation primitive."""
        needed = set()
        stack = []
        for name in targets:
            if name not in self.by_name:
                raise KeyError(f"unknown phase {name!r}")
            stack.append(self.by_name[name])
        while stack:
            phase = stack.pop()
            if phase.name in needed:
                continue
            needed.add(phase.name)
            stack.extend(self._dependencies(phase))
        return tuple(p for p in self.order if p.name in needed)

    def edges(self) -> List[Tuple[str, str, str]]:
        """Every dependency as ``(producer, consumer, slot)``; edges
        from graph sources use the source name as producer."""
        out: List[Tuple[str, str, str]] = []
        for phase in self.order:
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
        for phase in self.order:
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
        for phase in self.order:
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
        return iter(self.order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PhaseGraph({self.name!r}, {len(self.phases)} phases, "
                f"sources={list(self.sources)})")
