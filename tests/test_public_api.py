"""Public-API hygiene: exports exist, are documented, and are stable."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro", "repro.util", "repro.net", "repro.dns", "repro.topology",
    "repro.anycast", "repro.world", "repro.attacks", "repro.telescope",
    "repro.openintel", "repro.streaming", "repro.chaos", "repro.obs",
    "repro.artifacts", "repro.engine", "repro.datasets", "repro.core",
    "repro.reactive",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_documented(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_reactive_exports_the_probe_store(self):
        import repro.reactive
        for name in ("ReactiveStore", "ReactiveProbe",
                     "measurement_store_from_reactive",
                     "reactive_impact_series"):
            assert name in repro.reactive.__all__
            assert getattr(repro.reactive, name).__doc__

    def test_engine_exports(self):
        import repro.engine
        assert sorted(repro.engine.__all__) == sorted([
            "Phase", "PhaseGraph", "PhaseGraphError", "DuplicateNodeError",
            "RunContext", "Executor", "cached_analysis", "analyses_of",
            "analysis_graph"])

    def test_top_level_api(self):
        assert callable(repro.run_study)
        assert callable(repro.build_world)
        assert repro.WorldConfig is not None
        assert repro.__version__

    @pytest.mark.parametrize("package", PACKAGES[1:])
    def test_public_callables_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            if getattr(obj, "__module__", "") == "typing":
                continue  # typing aliases (e.g. Transport) carry no doc
            if not getattr(obj, "__doc__", None):
                undocumented.append(f"{package}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_version_matches_pyproject(self):
        import re
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"', pyproject.read_text(),
                          re.MULTILINE)
        assert match
        assert repro.__version__ == match.group(1)
