"""Scenario packs through the unmodified engine graph, end to end.

The contract under test: the three non-default packs run through the
same declared phase graph as the volumetric default — the pack nodes
are *conditional* (enabled/fallback, like the chaos fallback nodes),
never a fork — and selecting the default pack keeps the report
byte-identical to the pre-refactor golden.
"""

import dataclasses
import os

import pytest

from repro import run_study
from repro.attacks.amplification import AmplificationParams
from repro.attacks.wartime import N_WAVES, WartimeParams

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name)) as fp:
        return fp.read()


class TestDefaultPathByteIdentity:
    def test_volumetric_report_matches_pre_pack_golden(self, tiny_study):
        assert tiny_study.report() == golden("report_tiny_clean.txt")

    def test_explicit_volumetric_selection_is_identical(self, tiny_config,
                                                        tiny_study):
        config = dataclasses.replace(tiny_config,
                                     scenario_pack="volumetric")
        study = run_study(config)
        assert study.report() == tiny_study.report()

    def test_pack_nodes_fall_back_on_the_default_path(self, tiny_study):
        assert tiny_study.reflector_feed is None
        assert tiny_study.counterfactuals is None
        assert tiny_study.pack_analysis() is None


class TestAmplificationPipeline:
    @pytest.fixture(scope="class")
    def study(self, tiny_config):
        return run_study(dataclasses.replace(
            tiny_config, scenario_pack="amplification"))

    def test_reflector_feed_flows_through_the_graph(self, study):
        assert study.reflector_feed is not None
        assert len(study.reflector_feed) > 0

    def test_inference_validates_against_ground_truth(self, study):
        """The acceptance criterion: inferred reflector windows vs the
        seeded schedule."""
        analysis = study.pack_analysis()
        assert analysis.n_scheduled == AmplificationParams().n_attacks
        assert analysis.n_inferred >= analysis.n_matched
        assert analysis.recall >= 0.8
        assert analysis.mean_baf > 1.0

    def test_reflections_join_as_curated_feed_records(self, study):
        """The second curated feed reaches the unmodified join."""
        reflector_victims = {r.victim_ip
                             for r in study.reflector_feed.reflections}
        joined_victims = {c.victim_ip for c in study.join.classified}
        assert reflector_victims & joined_victims

    def test_report_carries_the_pack_section(self, study):
        report = study.report()
        assert "Amplification pack (reflector-query branch)" in report
        assert "recall" in report


class TestWartimePipeline:
    @pytest.fixture(scope="class")
    def study(self, tiny_config):
        return run_study(dataclasses.replace(
            tiny_config, scenario_pack="wartime",
            pack_params=WartimeParams(start_day=2)))

    def test_waves_reach_the_schedule_and_events(self, study):
        analysis = study.pack_analysis()
        assert len(analysis.waves) == N_WAVES
        assert analysis.n_attacks > 0
        for wave in analysis.waves:
            assert wave.n_attacks > 0
            assert wave.n_orgs > 1  # correlated: many orgs per wave

    def test_visibility_mix_spans_both_classes(self, study):
        analysis = study.pack_analysis()
        visible = sum(w.spoofed_visible for w in analysis.waves)
        assert 0 < visible < analysis.n_attacks

    def test_report_carries_the_wave_timeline(self, study):
        report = study.report()
        assert "Wartime pack (RU waves)" in report
        assert "wave 1:" in report and "wave 3:" in report


class TestDefensePipeline:
    @pytest.fixture(scope="class")
    def study(self, tiny_config):
        return run_study(dataclasses.replace(
            tiny_config, scenario_pack="defense"))

    def test_counterfactuals_flow_through_the_graph(self, study):
        report = study.counterfactuals
        assert report is not None
        assert report.n_attacks > 0
        assert study.pack_analysis() is report

    def test_deltas_are_reductions(self, study):
        for row in study.counterfactuals.harmful_rows():
            for layer in study.counterfactuals.layers:
                assert row.delta(layer.name) >= -1e-9

    def test_schedule_and_events_match_the_default_run(self, study,
                                                       tiny_study):
        """Counterfactuals are an analysis, not an intervention: the
        measured pipeline is untouched."""
        assert len(study.world.attacks) == len(tiny_study.world.attacks)
        assert [e.nsset_id for e in study.events] == \
            [e.nsset_id for e in tiny_study.events]

    def test_report_carries_the_delta_table(self, study):
        report = study.report()
        assert "Defense pack (mitigation counterfactuals)" in report
        assert "layered" in report
        assert "neutralizes" in report


class TestGraphRendering:
    def test_conditional_pack_nodes_render_in_the_dag(self):
        from repro.core.pipeline import study_graph

        rendered = study_graph().render_text()
        assert "pack_telescope" in rendered
        assert "pack_feed" in rendered
        assert "counterfactuals" in rendered

    def test_join_consumes_the_merged_feed_slot(self):
        from repro.core.pipeline import STUDY_GRAPH

        join = next(p for p in STUDY_GRAPH.phases if p.name == "join")
        assert "curated_feed" in join.inputs
