"""Every example and benchmark script imports cleanly.

Examples and benchmarks run outside the tier-1 suite, so a deleted or
renamed module they import would otherwise surface only when someone
runs them. Importing is cheap: their entry points sit behind
``__main__`` checks or inside pytest functions.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = (sorted(ROOT.glob("examples/*.py"))
           + sorted(ROOT.glob("benchmarks/bench_*.py")))


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports(path):
    runpy.run_path(str(path), run_name=f"_import_check_{path.stem}")
