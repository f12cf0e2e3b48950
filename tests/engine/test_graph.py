"""Graph validation: the engine's structural-safety contract.

Phases run in the order they are declared. Every malformed declaration
fails at graph-*build* time — a phase consuming a slot no earlier
phase or source provides is rejected (naming the phase and the slot)
before anything runs — and the study graph's rendered order is pinned
by the goldens under ``tests/engine/golden/``.
"""

from pathlib import Path

import pytest

from repro.core.pipeline import study_graph
from repro.engine import DuplicateNodeError, Phase, PhaseGraph, PhaseGraphError

GOLDEN = Path(__file__).parent / "golden"


def _phase(name, inputs=(), provides=None, **kw):
    return Phase(name, compute=lambda ctx, **inputs: name,
                 inputs=inputs, provides=provides, **kw)


class TestPhaseDeclaration:
    def test_rejects_missing_compute(self):
        with pytest.raises(ValueError, match="declares no compute"):
            Phase("nameless")

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty name"):
            Phase("", compute=lambda ctx: None)

    def test_provides_defaults_to_name(self):
        assert _phase("a").provides == "a"
        assert _phase("a", provides="out").provides == "out"


class TestValidation:
    def test_unknown_input_raises_at_build_time(self):
        with pytest.raises(PhaseGraphError,
                           match=r"phase 'b' consumes 'ghost'"):
            PhaseGraph([_phase("a"), _phase("b", inputs=("ghost",))])

    def test_sources_satisfy_inputs(self):
        graph = PhaseGraph([_phase("b", inputs=("seed",))],
                           sources=("seed",))
        assert [p.name for p in graph.phases] == ["b"]

    def test_duplicate_name_raises(self):
        with pytest.raises(DuplicateNodeError, match="duplicate phase name"):
            PhaseGraph([_phase("a"), _phase("a")])

    def test_duplicate_slot_raises(self):
        with pytest.raises(DuplicateNodeError,
                           match=r"slot 'out' is provided by both"):
            PhaseGraph([_phase("a", provides="out"),
                        _phase("b", provides="out")])

    def test_phase_shadowing_a_source_raises(self):
        with pytest.raises(DuplicateNodeError, match="shadows"):
            PhaseGraph([_phase("a", provides="seed")], sources=("seed",))

    def test_consumer_declared_before_producer_raises(self):
        with pytest.raises(PhaseGraphError,
                           match=r"phase 'sink' consumes 'root', which no "
                                 r"earlier phase provides"):
            PhaseGraph([_phase("sink", inputs=("root",)), _phase("root")])

    def test_self_cycle_raises(self):
        # A phase consuming its own output is never satisfiable.
        with pytest.raises(PhaseGraphError,
                           match=r"phase 'a' consumes 'out'"):
            PhaseGraph([_phase("a", inputs=("out",), provides="out")])

    def test_cycle_raises_at_its_first_declared_member(self):
        with pytest.raises(PhaseGraphError,
                           match=r"phase 'a' consumes 'c'"):
            PhaseGraph([
                _phase("a", inputs=("c",)),
                _phase("b", inputs=("a",)),
                _phase("c", inputs=("b",)),
            ])

    def test_cycle_below_valid_prefix_is_still_found(self):
        with pytest.raises(PhaseGraphError,
                           match=r"phase 'x' consumes 'y'"):
            PhaseGraph([
                _phase("ok"),
                _phase("x", inputs=("ok", "y")),
                _phase("y", inputs=("x",)),
            ])


class TestDeterministicOrder:
    PHASES = [
        ("root", ()),
        ("left", ("root",)),
        ("right", ("root",)),
        ("sink", ("left", "right")),
    ]

    def _build(self):
        return PhaseGraph([_phase(n, inputs=i) for n, i in self.PHASES])

    def test_order_is_topological(self):
        order = [p.name for p in self._build().phases]
        assert order.index("root") < order.index("left")
        assert order.index("root") < order.index("right")
        assert order.index("left") < order.index("sink")
        assert order.index("right") < order.index("sink")

    def test_order_is_identical_across_builds(self):
        orders = {tuple(p.name for p in self._build().phases)
                  for _ in range(20)}
        assert len(orders) == 1

    def test_declaration_order_breaks_ties(self):
        # left and right are both ready after root; the declaration
        # order is the run order, so left always runs first.
        order = [p.name for p in self._build().phases]
        assert order == ["root", "left", "right", "sink"]


class TestQueries:
    def _diamond(self):
        return PhaseGraph([
            _phase("root"),
            _phase("left", inputs=("root",)),
            _phase("right", inputs=("root",)),
            _phase("sink", inputs=("left", "right")),
        ])

    def test_subset_runs_only_ancestors(self):
        graph = self._diamond()
        assert [p.name for p in graph.subset(["left"])] == ["root", "left"]
        assert [p.name for p in graph.subset(["sink"])] == \
            ["root", "left", "right", "sink"]

    def test_subset_unknown_target_raises(self):
        with pytest.raises(KeyError, match="ghost"):
            self._diamond().subset(["ghost"])

    def test_edges_match_declared_inputs(self):
        graph = self._diamond()
        assert set(graph.edges()) == {
            ("root", "left", "root"),
            ("root", "right", "root"),
            ("left", "sink", "left"),
            ("right", "sink", "right"),
        }

    def test_render_text_lists_every_phase_once(self):
        text = self._diamond().render_text()
        for name in ("root", "left", "right", "sink"):
            assert sum(1 for line in text.splitlines()
                       if line.strip().startswith(f"{name} ")) == 1

    def test_to_dot_has_every_node_and_edge(self):
        dot = self._diamond().to_dot()
        assert dot.startswith("digraph")
        for name in ("root", "left", "right", "sink"):
            assert f'"{name}" [shape=' in dot
        assert '"root" -> "left"' in dot
        assert '"left" -> "sink"' in dot


class TestStudyGraphGolden:
    """The declared study DAG renders exactly as recorded, so the
    declaration order is the order the engine has always run."""

    def test_render_text_matches_golden(self):
        golden = (GOLDEN / "study_graph.txt").read_text()
        assert study_graph().render_text() + "\n" == golden

    def test_to_dot_matches_golden(self):
        golden = (GOLDEN / "study_graph.dot").read_text()
        assert study_graph().to_dot() + "\n" == golden
