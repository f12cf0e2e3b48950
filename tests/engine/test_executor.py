"""Executor semantics, on synthetic graphs.

The phase runner traces every traced node (and only those), journals
each with its span's duration, skips computes on cache hits and saves
on misses, and disabled phases fall back untraced and uncached.
"""

import pytest

from repro.artifacts.store import ArtifactStore
from repro.artifacts.cache import PhaseCache
from repro.artifacts.serializers import PHASE_SERIALIZERS
from repro.engine import (
    Executor,
    Phase,
    PhaseGraph,
    RunContext,
    cached_analysis,
)
from repro.obs import FakeClock, RunJournal, RunTelemetry, read_journal


def _graph():
    return PhaseGraph([
        Phase("double", compute=lambda ctx, seed: seed * 2,
              inputs=("seed",)),
        Phase("plus", compute=lambda ctx, double: double + 1,
              inputs=("double",),
              annotations=lambda result, ctx: {"value": result}),
        Phase("quiet", compute=lambda ctx, plus: plus, inputs=("plus",),
              traced=False),
    ], sources=("seed",))


class TestExecution:
    def test_values_flow_through_slots(self):
        values = Executor(_graph()).run(RunContext(), sources={"seed": 5})
        assert values["double"] == 10
        assert values["plus"] == 11
        assert values["quiet"] == 11

    def test_targets_run_only_ancestors(self):
        ran = []
        graph = PhaseGraph([
            Phase("a", compute=lambda ctx: ran.append("a")),
            Phase("b", compute=lambda ctx, a: ran.append("b"),
                  inputs=("a",)),
            Phase("c", compute=lambda ctx: ran.append("c")),
        ])
        Executor(graph).run(RunContext(), targets=["b"])
        assert ran == ["a", "b"]

    def test_missing_source_value_raises(self):
        with pytest.raises(KeyError, match="missing input value"):
            Executor(_graph()).run(RunContext())

    def test_undeclared_source_rejected(self):
        with pytest.raises(KeyError, match="not a declared source"):
            Executor(_graph()).run(RunContext(), sources={"ghost": 1})

    def test_disabled_phase_uses_fallback(self):
        graph = PhaseGraph([
            Phase("maybe", compute=lambda ctx: "computed",
                  enabled=lambda ctx: ctx.params.get("on", False),
                  fallback=lambda ctx: "fallback"),
        ])
        assert Executor(graph).run(RunContext())["maybe"] == "fallback"
        assert Executor(graph).run(
            RunContext(params={"on": True}))["maybe"] == "computed"


class TestPhaseSpans:
    def _run(self, telemetry):
        ctx = RunContext(telemetry=telemetry)
        Executor(_graph()).run(
            ctx, sources={"seed": 3}, root_span="root",
            root_meta={"k": "v"})

    def test_span_tree_mirrors_traced_phases(self):
        telemetry = RunTelemetry.create()
        self._run(telemetry)
        roots = telemetry.tracer.roots
        assert [r.name for r in roots] == ["root"]
        assert roots[0].meta == {"k": "v"}
        assert [c.name for c in roots[0].children] == ["double", "plus"]

    def test_annotations_applied_from_results(self):
        telemetry = RunTelemetry.create()
        self._run(telemetry)
        plus = telemetry.tracer.roots[0].children[1]
        assert plus.meta == {"value": 7}

    def test_disabled_phase_is_untraced(self):
        telemetry = RunTelemetry.create()
        graph = PhaseGraph([
            Phase("maybe", compute=lambda ctx: 1,
                  enabled=lambda ctx: False, fallback=lambda ctx: 2),
        ])
        ctx = RunContext(telemetry=telemetry)
        Executor(graph).run(ctx)
        assert telemetry.tracer.roots == []

    def test_journal_durations_are_the_span_durations(self, tmp_path):
        clock = FakeClock()
        telemetry = RunTelemetry.create(clock=clock)
        path = tmp_path / "run.jsonl"
        telemetry.attach_journal(RunJournal(path, clock=clock))
        graph = PhaseGraph([
            Phase("slow", compute=lambda ctx: clock.advance(1.25)),
            Phase("quiet", compute=lambda ctx: clock.advance(9.0),
                  traced=False),
        ])
        Executor(graph).run(RunContext(telemetry=telemetry))
        telemetry.journal.close()
        records = [r for r in read_journal(path)
                   if r["type"].startswith("phase.")]
        assert [(r["type"], r["phase"]) for r in records] == [
            ("phase.start", "slow"), ("phase.finish", "slow")]
        assert records[1]["duration_s"] == 1.25
        assert telemetry.tracer.roots[0].duration == 1.25

    def test_a_raising_phase_journals_its_span_duration(self, tmp_path):
        clock = FakeClock()
        telemetry = RunTelemetry.create(clock=clock)
        path = tmp_path / "run.jsonl"
        telemetry.attach_journal(RunJournal(path, clock=clock))

        def boom(ctx):
            clock.advance(0.5)
            raise ZeroDivisionError

        graph = PhaseGraph([Phase("boom", compute=boom)])
        with pytest.raises(ZeroDivisionError):
            Executor(graph).run(RunContext(telemetry=telemetry))
        telemetry.journal.close()
        error = next(r for r in read_journal(path)
                     if r["type"] == "phase.error")
        assert error["phase"] == "boom"
        assert error["error"] == "ZeroDivisionError"
        assert error["duration_s"] == \
            round(telemetry.tracer.roots[0].duration, 6) == 0.5


class TestPhaseCache:
    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setitem(PHASE_SERIALIZERS, "work",
                            (lambda v: json.dumps(v).encode(),
                             lambda b: json.loads(b.decode())))
        return PhaseCache(ArtifactStore(str(tmp_path)))

    def _graph(self, ran):
        return PhaseGraph([
            Phase("work", compute=lambda ctx: ran.append("work") or [1, 2],
                  cache_key="work"),
        ])

    def test_miss_computes_and_saves_then_hit_skips(self, cache, tmp_path):
        ran = []
        graph = self._graph(ran)
        keys = {"work": "ab" * 32}
        finishes = []
        for n in (1, 2):
            telemetry = RunTelemetry.create()
            path = tmp_path / f"run{n}.jsonl"
            telemetry.attach_journal(RunJournal(path))
            value = Executor(graph, cache=cache, keys=keys).run(
                RunContext(telemetry=telemetry))["work"]
            assert value == [1, 2]
            telemetry.journal.close()
            finishes += [r for r in read_journal(path)
                         if r["type"] == "phase.finish"]
        assert ran == ["work"]  # second run never computed
        assert [r["cached"] for r in finishes] == [False, True]

    def test_hit_annotates_the_span_cached(self, cache):
        graph = self._graph([])
        keys = {"work": "cd" * 32}
        Executor(graph, cache=cache, keys=keys).run(RunContext())
        telemetry = RunTelemetry.create()
        Executor(graph, cache=cache, keys=keys).run(
            RunContext(telemetry=telemetry))
        span = telemetry.tracer.roots[0]
        assert span.meta.get("cached") is True

    def test_uncacheable_phase_passes_through(self, cache):
        ran = []
        graph = PhaseGraph([
            Phase("plain", compute=lambda ctx: ran.append(1) or "x"),
        ])
        executor = Executor(graph, cache=cache, keys={"plain": "ee" * 32})
        executor.run(RunContext())
        executor.run(RunContext())
        assert len(ran) == 2  # no cache_key declared -> never cached

    def test_no_cache_is_a_noop(self):
        ran = []
        graph = self._graph(ran)
        executor = Executor(graph, cache=None, keys={"work": "ff" * 32})
        executor.run(RunContext())
        executor.run(RunContext())
        assert len(ran) == 2


class TestCachedAnalysis:
    class Thing:
        def __init__(self, telemetry):
            self.telemetry = telemetry
            self.base = 10
            self.calls = 0

        @cached_analysis(deps=("base",))
        def doubled(self):
            """Twice the base."""
            self.calls += 1
            return self.base * 2

    def test_memoizes_and_spans_once(self):
        telemetry = RunTelemetry.create()
        thing = self.Thing(telemetry)
        assert thing.doubled == 20
        assert thing.doubled == 20
        assert thing.calls == 1
        roots = [r.name for r in telemetry.tracer.roots]
        assert roots.count("analysis.doubled") == 1

    def test_declares_an_engine_node(self):
        desc = self.Thing.__dict__["doubled"]
        phase = desc.phase()
        assert phase.name == "analysis.doubled"
        assert phase.inputs == ("base",)
        assert phase.doc == "Twice the base."
