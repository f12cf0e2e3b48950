"""Shared benchmark fixtures: session-scoped studies and result output.

Every benchmark regenerates one of the paper's tables or figures from a
shared 17-month study (scaled world), times the regeneration step with
pytest-benchmark, and writes the paper-vs-measured rows both to stdout
and to ``benchmarks/out/<name>.txt`` so the results survive pytest's
output capture.

Benchmarks with numeric results additionally dump them machine-readable
via ``emit_json`` as ``BENCH_<name>.json`` in the ``repro.obs/v2``
telemetry snapshot schema (each value a ``repro.bench.<name>.<key>``
gauge),
so a perf trajectory accumulates across runs in one parseable format —
``python -m repro obs bench-diff`` compares a fresh batch against the
tracked baselines direction-aware. Unlike the rendered ``.txt`` files (scratch output under the
gitignored ``benchmarks/out/``), the JSON snapshots land in the
**tracked** ``benchmarks/baselines/`` directory — the perf trajectory
is only a trajectory if the snapshots actually reach version control —
or wherever ``REPRO_BENCH_OUT`` points (CI uploads them as artifacts
from there).

``REPRO_BENCH_DOMAINS`` scales the shared study's domain population
(default 20000) so CI smoke runs can exercise the full bench path in
seconds.
"""

from __future__ import annotations

import json
import os
import platform

import pytest

from repro import RunTelemetry, WorldConfig, run_study
from repro.columnar import HAVE_NUMPY
from repro.util.fileio import atomic_write

# The full 17-month window at a laptop-scale population (large enough
# that the mega-anycast providers sit a full domain-count decade above
# the mid-market tier, which Figure 8 stratifies on). One build is
# shared by every benchmark in the session (~2-3 minutes).
BENCH_CONFIG = WorldConfig(
    n_domains=int(os.environ.get("REPRO_BENCH_DOMAINS", "20000")),
    attacks_per_month=1500)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
#: where BENCH_*.json perf snapshots go: a tracked baseline directory
#: by default, or the CI artifact staging dir via REPRO_BENCH_OUT.
JSON_OUT_DIR = (os.environ.get("REPRO_BENCH_OUT")
                or os.path.join(os.path.dirname(__file__), "baselines"))


@pytest.fixture(scope="session")
def study():
    """The shared 17-month bench study."""
    return run_study(BENCH_CONFIG)


@pytest.fixture(scope="session")
def transip_study():
    """A Nov-2020..Mar-2021 study for the TransIP case benches."""
    return run_study(WorldConfig(
        seed=7, start="2020-11-01", end_exclusive="2021-04-01",
        n_domains=2500, n_selfhosted_providers=20, n_filler_providers=10,
        attacks_per_month=200))


@pytest.fixture(scope="session")
def russia_study():
    """A Feb-Mar 2022 study for the Russian case benches."""
    return run_study(WorldConfig(
        seed=11, start="2022-02-01", end_exclusive="2022-04-01",
        n_domains=2000, n_selfhosted_providers=20, n_filler_providers=10,
        attacks_per_month=200))


@pytest.fixture(scope="session")
def emit():
    """Write a benchmark's rendered result to stdout + a file."""
    os.makedirs(OUT_DIR, exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as fp:
            fp.write(text + "\n")

    return _emit


@pytest.fixture(scope="session")
def emit_json():
    """Dump a benchmark's numeric results as ``BENCH_<name>.json``.

    ``values`` is a flat mapping of result keys to numbers; each becomes
    a ``repro.bench.<name>.<key>`` gauge and the file is a full
    ``repro.obs/v2`` snapshot, parseable by the same tooling that reads
    ``--metrics-out`` files (``repro obs summary`` / ``bench-diff``). Snapshots go to :data:`JSON_OUT_DIR` — the
    tracked ``benchmarks/baselines/`` unless ``REPRO_BENCH_OUT``
    redirects them (e.g. to a CI artifact directory). Like the
    ``studybench`` snapshots, each carries a ``host`` block (CPU count,
    Python version, NumPy availability) so numbers from different
    machines are never compared blind. Given a run's ``telemetry``, the
    snapshot also carries that run's span tree, so it says where the
    time went.
    """
    os.makedirs(JSON_OUT_DIR, exist_ok=True)

    def _emit_json(name: str, values, telemetry=None) -> str:
        gauges = RunTelemetry.create()
        for key, value in sorted(values.items()):
            gauges.registry.gauge(f"repro.bench.{name}.{key}").set(value)
        doc = gauges.snapshot()
        if telemetry is not None:
            doc["spans"] = telemetry.snapshot()["spans"]
        doc["host"] = {"cpus": os.cpu_count() or 1,
                       "python": platform.python_version(),
                       "numpy": HAVE_NUMPY}
        path = os.path.join(JSON_OUT_DIR, f"BENCH_{name}.json")
        with atomic_write(path) as fp:
            json.dump(doc, fp, indent=2, sort_keys=True)
            fp.write("\n")
        return path

    return _emit_json
