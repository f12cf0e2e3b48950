"""Public-API hygiene: exports exist, are documented, and are stable."""

import ast
import importlib
import re
from pathlib import Path

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


#: Public names no caller outside tests reaches, kept on purpose.
UNCALLED_ON_PURPOSE = {
    # The closed form the simulated resolver cache is checked against.
    "analytic_failure_share",
    # The reader for the files ``repro export`` writes.
    "dataset_bundle_load",
}

#: Where a caller may live: the package itself, its benchmarks, the
#: study benchmark and the examples.
CALLER_DIRS = ("src", "benchmarks", "studybench", "examples")


def _declaration_lines(tree):
    """Lines of import statements and ``__all__`` lists: a name listed
    there is declared, not called."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


class TestEveryPublicNameHasACaller:
    """A public function, class or ``__all__`` name of ``repro`` that
    only its own unit test reaches is dead code: delete both."""

    def test_public_names_are_referenced_outside_tests(self):
        root = Path(__file__).resolve().parents[1]
        sources = {}
        for directory in CALLER_DIRS:
            for path in sorted((root / directory).rglob("*.py")):
                text = path.read_text()
                tree = ast.parse(text)
                sources[path] = (tree, text.splitlines(),
                                 _declaration_lines(tree))
        # (name, the span of its definition or None for an ``__all__``
        # entry): a reference inside the name's own body does not count.
        public = set()
        for path, (tree, _, _) in sources.items():
            if root / "src" / "repro" not in path.parents:
                continue
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                        and not node.name.startswith("_"):
                    public.add((node.name,
                                (path, node.lineno, node.end_lineno)))
                elif isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets):
                    public.update((element.value, None)
                                  for element in node.value.elts)

        # word -> every (file, line) outside a declaration it appears on
        seen = {}
        for path, (_, lines, declared) in sources.items():
            for lineno, line in enumerate(lines, start=1):
                if lineno not in declared:
                    for word in set(re.findall(r"\w+", line)):
                        seen.setdefault(word, []).append((path, lineno))

        def referenced(name, span):
            return any(not (span and path == span[0]
                            and span[1] <= lineno <= span[2])
                       for path, lineno in seen.get(name, ()))

        uncalled = sorted({name for name, span in public
                           if name not in UNCALLED_ON_PURPOSE
                           and not referenced(name, span)})
        assert not uncalled, (
            f"public names only tests reach: {uncalled}; delete them "
            f"with their tests, or exempt a reference in "
            f"UNCALLED_ON_PURPOSE with its reason")
