"""Source hygiene checks that need only the standard library."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINTED_DIRS = ("src", "tests", "benchmarks", "examples")


def _unused_imports(tree):
    """``(line, name)`` for each name an import binds that the module
    never uses: no ``Name`` node and no word of a string constant
    (``__all__``, a quoted annotation) mentions it."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"\w+", node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.split(".")[0])
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names
                     if alias.name != "*"]
        else:
            continue
        for name in bound:
            if name not in used:
                yield node.lineno, name


def test_no_unused_imports():
    """An import nothing uses is dead code. ``__init__.py`` files are
    exempt: their imports are the package's re-exports."""
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for directory in LINTED_DIRS
              for path in sorted((ROOT / directory).rglob("*.py"))
              if path.name != "__init__.py"
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert not unused, f"{len(unused)} unused imports: {unused}"
