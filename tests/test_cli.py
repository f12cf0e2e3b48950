"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.obs import SNAPSHOT_SCHEMA

FAST_ARGS = ["--domains", "700", "--attacks-per-month", "60",
             "--start", "2021-03-01", "--end", "2021-04-01"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.domains == 8000
        assert args.seed == 42

    def test_workers_flag_is_gone(self):
        for argv in (["report"], ["export"], ["visibility"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--workers", "2"])

    def test_case_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["case", "nonexistent"])

    def test_export_output(self):
        args = build_parser().parse_args(["export", "--output", "/tmp/x"])
        assert args.output == "/tmp/x"

    def test_telemetry_flags_on_every_subcommand(self):
        for argv in (["report"], ["export"], ["visibility"],
                     ["case", "transip"]):
            args = build_parser().parse_args(
                argv + ["--trace", "--metrics-out", "/tmp/m.json",
                        "--journal", "/tmp/j.jsonl", "--profile"])
            assert args.trace is True
            assert args.metrics_out == "/tmp/m.json"
            assert args.journal == "/tmp/j.jsonl"
            assert args.profile is True


class TestCommands:
    def test_report_runs(self, capsys):
        assert main(["report"] + FAST_ARGS) == 0
        out = capsys.readouterr().out
        assert "Monthly attack activity" in out
        assert "Resilience efficacy" in out

    def test_export_writes_datasets(self, tmp_path, capsys):
        out_dir = str(tmp_path / "datasets")
        assert main(["export", "--output", out_dir] + FAST_ARGS) == 0
        files = set(os.listdir(out_dir))
        assert "rsdos_records.csv" in files
        assert "prefix2as.tsv" in files
        assert "as2org.jsonl" in files
        assert "anycast_census.jsonl" in files
        assert "open_resolvers.json" in files

    def test_visibility_runs(self, capsys, monkeypatch):
        from repro.core import visibility

        calls = []
        oracle = visibility.analyze_visibility

        def counted(*args):
            calls.append(args)
            return oracle(*args)

        monkeypatch.setattr(visibility, "analyze_visibility", counted)
        assert main(["visibility"] + FAST_ARGS) == 0
        out = capsys.readouterr().out
        assert "Telescope visibility" in out
        assert "randomly spoofed" in out
        assert len(calls) == 1


class TestTelemetryFlags:
    def test_metrics_out_writes_a_parseable_snapshot(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.json")
        assert main(["report", "--metrics-out", path, "--trace"]
                    + FAST_ARGS) == 0
        captured = capsys.readouterr()
        with open(path) as fp:
            snap = json.load(fp)
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["metrics"]["counters"]  # non-empty
        names = [s["name"] for s in snap["spans"]]
        assert names[0] == "study"
        # --trace prints the phase tree on stderr, never stdout.
        assert "phase timings:" in captured.err
        assert "phase timings:" not in captured.out

    def test_stdout_is_byte_identical_with_and_without_flags(
            self, tmp_path, capsys):
        assert main(["report"] + FAST_ARGS) == 0
        plain = capsys.readouterr().out
        assert main(["report", "--trace", "--metrics-out",
                     str(tmp_path / "m.json")] + FAST_ARGS) == 0
        traced = capsys.readouterr().out
        assert traced == plain

    def test_metrics_out_creates_parent_dirs(self, tmp_path, capsys):
        path = str(tmp_path / "deep" / "nested" / "metrics.json")
        assert main(["report", "--metrics-out", path] + FAST_ARGS) == 0
        capsys.readouterr()
        with open(path) as fp:
            assert json.load(fp)["schema"] == SNAPSHOT_SCHEMA

    def test_journal_flag_writes_a_complete_journal(self, tmp_path, capsys):
        from repro.obs import read_journal

        path = str(tmp_path / "run.jsonl")
        assert main(["report", "--journal", path, "--profile"]
                    + FAST_ARGS) == 0
        captured = capsys.readouterr()
        assert f"run journal written to {path}" in captured.err
        records = read_journal(path)
        types = [r["type"] for r in records]
        assert types[0] == "journal.open"
        assert types[-1] == "journal.close"
        assert "run.start" in types and "run.finish" in types
        # The CLI owns the journal, so the report's lazy analyses land
        # in the same file after the pipeline phases.
        finished = [r["phase"] for r in records
                    if r["type"] == "phase.finish"]
        assert "crawl" in finished
        assert any(p.startswith("analysis.") for p in finished)

    def test_journal_and_profile_stdout_byte_identical(self, tmp_path,
                                                       capsys):
        assert main(["report"] + FAST_ARGS) == 0
        plain = capsys.readouterr().out
        assert main(["report", "--journal", str(tmp_path / "j.jsonl"),
                     "--profile"] + FAST_ARGS) == 0
        observed = capsys.readouterr().out
        assert observed == plain


class TestCacheFlags:
    def test_cache_dir_on_every_study_subcommand(self):
        for argv in (["report"], ["export"], ["visibility"]):
            args = build_parser().parse_args(argv + ["--cache-dir", "/tmp/c"])
            assert args.cache_dir == "/tmp/c"

    def test_cache_subcommand_parses(self):
        args = build_parser().parse_args(
            ["cache", "gc", "--cache-dir", "/tmp/c", "--max-bytes", "100"])
        assert args.action == "gc"
        assert args.max_bytes == 100

    def test_warm_run_stdout_byte_identical_and_hits(self, tmp_path, capsys):
        """The CI cache job's contract, asserted in-process: the second
        run over the same --cache-dir hits and prints identical bytes."""
        cache_dir = str(tmp_path / "deep" / "cache")  # parent dirs created
        cold_metrics = str(tmp_path / "cold.json")
        warm_metrics = str(tmp_path / "warm.json")
        assert main(["report", "--cache-dir", cache_dir,
                     "--metrics-out", cold_metrics] + FAST_ARGS) == 0
        cold_out = capsys.readouterr().out
        assert main(["report", "--cache-dir", cache_dir,
                     "--metrics-out", warm_metrics] + FAST_ARGS) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out
        with open(cold_metrics) as fp:
            cold_counters = json.load(fp)["metrics"]["counters"]
        with open(warm_metrics) as fp:
            warm_counters = json.load(fp)["metrics"]["counters"]
        assert not any(k.startswith("repro.cache.hits")
                       for k in cold_counters)
        hits = sum(v for k, v in warm_counters.items()
                   if k.startswith("repro.cache.hits"))
        assert hits == 4  # telescope, crawl, join, events

    def test_cache_ls_gc_clear(self, tmp_path, capsys):
        from repro.artifacts.store import ArtifactStore

        cache_dir = str(tmp_path / "cache")
        store = ArtifactStore(cache_dir)
        store.put("aa" * 32, b"x" * 30, phase="telescope")
        store.put("bb" * 32, b"y" * 30, phase="crawl")

        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "telescope" in out and "crawl" in out
        assert "2 entries" in out and "60 bytes" in out

        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--max-bytes", "30"]) == 0
        assert "evicted 1 entries (30 bytes)" in capsys.readouterr().out
        assert len(store) == 1

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert len(store) == 0

    def test_cache_requires_cache_dir(self, capsys):
        assert main(["cache", "ls"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_cache_gc_requires_max_bytes(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_cache_ls_sorted_and_human_sizes(self, tmp_path, capsys):
        from repro.artifacts.store import ArtifactStore

        cache_dir = str(tmp_path / "cache")
        store = ArtifactStore(cache_dir)
        # Insert out of key order; ls must list in key order.
        store.put("cc" * 32, b"z" * 2048, phase="join")
        store.put("aa" * 32, b"x" * 30, phase="telescope")

        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert out.index("aa" * 8) < out.index("cc" * 8)
        assert "2.0 KiB" in out
        assert "30 B" in out

    def test_cache_ls_is_deterministic(self, tmp_path, capsys):
        from repro.artifacts.store import ArtifactStore

        cache_dir = str(tmp_path / "cache")
        store = ArtifactStore(cache_dir)
        store.put("bb" * 32, b"y", phase="crawl")
        store.put("aa" * 32, b"x", phase="telescope")
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out == first

    def test_cache_ls_json(self, tmp_path, capsys):
        from repro.artifacts.store import ArtifactStore

        cache_dir = str(tmp_path / "cache")
        store = ArtifactStore(cache_dir)
        store.put("bb" * 32, b"y" * 10, phase="crawl")
        store.put("aa" * 32, b"x" * 30, phase="telescope")

        assert main(["cache", "ls", "--cache-dir", cache_dir,
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_entries"] == 2
        assert doc["total_bytes"] == 40
        assert [e["key"] for e in doc["entries"]] == \
            ["aa" * 32, "bb" * 32]
        assert doc["entries"][0]["phase"] == "telescope"
        assert doc["entries"][0]["size"] == 30


class TestServeCommand:
    SERVE_ARGS = ["--seed", "11", "--domains", "300",
                  "--attacks-per-month", "150",
                  "--start", "2021-03-01", "--end", "2021-03-03"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--cache-dir", "/tmp/s"])
        assert args.cache_dir == "/tmp/s"
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.build_only is False
        assert args.plan is False
        assert args.edit_scale == 2.0

    def test_cache_dir_is_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_plan_prints_deterministic_json(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "shards")
        argv = ["serve", "--plan", "--cache-dir", cache_dir]
        assert main(argv + self.SERVE_ARGS) == 0
        first = capsys.readouterr().out
        assert main(argv + self.SERVE_ARGS) == 0
        assert capsys.readouterr().out == first
        plan = json.loads(first)
        assert [d["day"] for d in plan] == ["2021-03-01", "2021-03-02"]
        assert all(set(d["actions"].values()) == {"compute"}
                   for d in plan)

    def test_build_only_cold_then_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "shards")
        argv = ["serve", "--build-only", "--cache-dir", cache_dir]
        assert main(argv + self.SERVE_ARGS) == 0
        cold = capsys.readouterr().out
        assert "(8 partitions computed, 0 reused)" in cold
        assert main(argv + self.SERVE_ARGS) == 0
        warm = capsys.readouterr().out
        assert warm.count("computed 0") == 4
        # A third run is byte-identical to the second.
        assert main(argv + self.SERVE_ARGS) == 0
        assert capsys.readouterr().out == warm

    def test_edit_day_recomputes_a_bounded_subset(self, tmp_path,
                                                  capsys):
        cache_dir = str(tmp_path / "shards")
        argv = ["serve", "--build-only", "--cache-dir", cache_dir]
        assert main(argv + self.SERVE_ARGS) == 0
        capsys.readouterr()
        assert main(argv + self.SERVE_ARGS
                    + ["--edit-day", "2021-03-02",
                       "--edit-scale", "3.0"]) == 0
        out = capsys.readouterr().out
        # Something recomputed, something reused: the edit must not
        # flush the whole store.
        assert "0 reused)" not in out
        assert "(0 partitions computed" not in out
    """``repro graph`` prints the declared DAG: every phase exactly
    once, edges matching the declared inputs."""

    def test_text_lists_every_phase_exactly_once(self, capsys):
        from repro.core.pipeline import study_graph

        assert main(["graph"]) == 0
        out = capsys.readouterr().out
        graph = study_graph()
        for phase in graph.phases:
            heads = [line for line in out.splitlines()
                     if line.strip().startswith(f"{phase.name} ")]
            assert len(heads) == 1, phase.name

    def test_text_edges_match_declared_inputs(self, capsys):
        from repro.core.pipeline import study_graph

        assert main(["graph"]) == 0
        out = capsys.readouterr().out
        for phase in study_graph().phases:
            line = next(l for l in out.splitlines()
                        if l.strip().startswith(f"{phase.name} "))
            deps = line.split("<-", 1)[1].split("[")[0].strip()
            expected = ", ".join(phase.inputs) if phase.inputs else "-"
            assert deps == expected, phase.name

    def test_dot_output_has_every_node_and_edge(self, capsys):
        from repro.core.pipeline import study_graph

        assert main(["graph", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        graph = study_graph()
        for phase in graph.phases:
            assert out.count(f'"{phase.name}" [shape=') == 1
        for producer, consumer, _slot in graph.edges():
            assert f'"{producer}" -> "{consumer}"' in out

    def test_no_analyses_flag_prints_pipeline_only(self, capsys):
        assert main(["graph", "--no-analyses"]) == 0
        out = capsys.readouterr().out
        assert "telescope" in out
        assert "analysis." not in out


REACTIVE_FAST = ["reactive", "--domains", "300", "--triggers", "30",
                 "--probes-per-window", "3", "--probe-budget", "20",
                 "--post-attack-hours", "1"]


class TestReactiveCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["reactive"])
        assert args.domains == 600
        assert args.triggers == 200
        assert args.probes_per_window == 10
        assert args.capacity is None
        assert args.backpressure == "block"
        assert args.chaos is None

    def test_parser_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reactive", "--backpressure", "nope"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reactive", "--chaos", "nope"])

    def test_reactive_runs(self, capsys):
        assert main(REACTIVE_FAST) == 0
        out = capsys.readouterr().out
        assert "reactive: triggers=30" in out
        assert "unaccounted=0" in out
        assert "store sha256:" in out

    def test_chaos_stdout_is_byte_identical(self, capsys):
        """Exactly-once recovery, observable from the outside: the
        deterministic summary on stdout must not change under chaos."""
        assert main(REACTIVE_FAST) == 0
        clean = capsys.readouterr()
        assert main(REACTIVE_FAST + ["--chaos", "heavy",
                                     "--chaos-seed", "3"]) == 0
        chaotic = capsys.readouterr()
        assert chaotic.out == clean.out
        assert "kills=" in chaotic.err
        assert "worker.crash=" in chaotic.err

    def test_metrics_out(self, tmp_path, capsys):
        path = str(tmp_path / "reactive-metrics.json")
        assert main(REACTIVE_FAST + ["--metrics-out", path]) == 0
        with open(path) as fh:
            metrics = json.load(fh)["metrics"]
        assert metrics["counters"]["repro.reactive.triggers"] == 30
        assert "repro.reactive.trigger_latency_s" in metrics["histograms"]


class TestPacksCommand:
    def test_packs_ls_lists_every_registered_pack(self, capsys):
        from repro.attacks.packs import available_packs

        assert main(["packs", "ls"]) == 0
        out = capsys.readouterr().out
        assert "Registered scenario packs" in out
        for name in available_packs():
            assert name in out
        assert "volumetric (default)" in out

    def test_packs_requires_an_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["packs"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["packs", "rm"])

    def test_scenario_pack_flag_on_study_subcommands(self):
        for argv in (["report"], ["export"], ["visibility"]):
            args = build_parser().parse_args(
                argv + ["--scenario-pack", "amplification"])
            assert args.scenario_pack == "amplification"
        assert build_parser().parse_args(["report"]).scenario_pack \
            == "volumetric"

    def test_unknown_pack_is_rejected_with_the_listing(self, capsys):
        from repro.attacks.packs import available_packs

        assert main(["report", "--scenario-pack", "slowloris"]
                    + FAST_ARGS) == 2
        err = capsys.readouterr().err
        assert "unknown scenario pack 'slowloris'" in err
        for name in available_packs():
            assert name in err

    def test_amplification_run_prints_the_pack_section(self, capsys):
        assert main(["report", "--scenario-pack", "amplification"]
                    + FAST_ARGS) == 0
        out = capsys.readouterr().out
        assert "Amplification pack (reflector-query branch)" in out

    def test_volumetric_flag_is_byte_identical_to_default(self, capsys):
        assert main(["report"] + FAST_ARGS) == 0
        plain = capsys.readouterr().out
        assert main(["report", "--scenario-pack", "volumetric"]
                    + FAST_ARGS) == 0
        assert capsys.readouterr().out == plain
