"""Whether NumPy is installed on this host, without importing it.

The study runs one pure-Python implementation of each hot loop and never
loads NumPy, so a study process's peak RSS carries no NumPy import. This
module remains only because the study benchmark's snapshot writer
(``studybench/bench_study_e2e.py``) and the bench ``emit_json`` fixture
record :data:`HAVE_NUMPY` in their ``host`` block, and ``studybench``
must keep working unchanged.
"""

from __future__ import annotations

import importlib.util

#: True when ``numpy`` is importable; found by module lookup alone, so
#: asking never loads it.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

__all__ = ["HAVE_NUMPY"]
