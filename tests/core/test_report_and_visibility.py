"""Tests for report rendering internals and the Study visibility view."""

from repro.core import report as report_module
from repro.core.visibility import VisibilityReport


class TestReportSections:
    def test_header_counts(self, tiny_study):
        text = report_module._header(tiny_study)
        assert "window" in text
        assert str(len(tiny_study.world.directory)) in text.replace(",", "")

    def test_monthly_table_rows(self, tiny_study):
        text = report_module._monthly_table(tiny_study)
        # One row per month plus header machinery.
        assert "2021-03" in text
        assert "total:" in text

    def test_ports_section_mentions_paper_values(self, tiny_study):
        text = report_module._ports_section(tiny_study)
        assert "80.7%" in text    # the paper anchors are printed inline
        assert "90.4" in text

    def test_failure_section(self, tiny_study):
        text = report_module._failure_section(tiny_study)
        assert "92/8%" in text

    def test_impact_section_has_table6(self, tiny_study):
        text = report_module._impact_section(tiny_study)
        assert "Most affected companies" in text

    def test_resilience_section_strata(self, tiny_study):
        text = report_module._resilience_section(tiny_study)
        assert "unicast" in text
        assert "/24" in text

    def test_visibility_section(self, tiny_study):
        text = report_module._visibility_section(tiny_study)
        assert "randomly spoofed" in text

    def test_full_report_idempotent(self, tiny_study):
        assert tiny_study.report() == tiny_study.report()


class TestStudyVisibility:
    def test_cached(self, tiny_study):
        assert tiny_study.visibility is tiny_study.visibility

    def test_is_visibility_report(self, tiny_study):
        assert isinstance(tiny_study.visibility, VisibilityReport)

    def test_counts_ground_truth(self, tiny_study):
        assert tiny_study.visibility.n_truth == len(tiny_study.world.attacks)

    def test_detected_subset(self, tiny_study):
        report = tiny_study.visibility
        assert report.n_detected <= report.n_truth
        per_class_total = sum(t for _, t in report.by_class.values())
        assert per_class_total == report.n_truth
