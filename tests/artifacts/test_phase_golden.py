"""Cached phase outputs, pinned against their schema versions.

A phase cache entry stays valid only while its phase's output is a pure
function of the key, and the key moves with a phase's behaviour only
through :data:`SCHEMA_VERSIONS`. A change that alters what the
telescope, crawl, join, events or catalog phase produces without a
version bump would let a warm run serve the old bytes, and a cold-run
golden would not notice. This golden records, for three seeds of
``WorldConfig.tiny()``, each phase's ``(schema version, sha256 of its
serializer's dump)``:

- digest changed, version unchanged: the test fails and names the
  phase. Either the change was meant to be output-preserving and is
  not, or it must bump the phase's version.
- version bumped: the test fails until the digests are re-recorded, in
  the same commit as the bump, with::

    PYTHONPATH=src python tests/artifacts/test_phase_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import pytest

from repro import WorldConfig, run_study
from repro.artifacts.fingerprint import SCHEMA_VERSIONS
from repro.artifacts.serializers import PHASE_SERIALIZERS, dumps_catalog
from repro.serve.store import ShardedStudyStore

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "phase_outputs.json")
SEEDS = (1, 2, 3)
PHASES = ("telescope", "crawl", "join", "events", "catalog")


def _case_id(seed: int) -> str:
    return f"tiny-seed{seed}"


def phase_dumps(seed: int) -> dict:
    """Each cacheable phase's serialized output for one tiny world."""
    config = WorldConfig.tiny(seed=seed)
    study = run_study(config)
    outputs = {"telescope": study.feed, "crawl": study.store,
               "join": study.join, "events": study.events}
    dumps = {phase: PHASE_SERIALIZERS[phase][0](output)
             for phase, output in outputs.items()}
    with tempfile.TemporaryDirectory() as cache_dir:
        catalog = ShardedStudyStore(config, cache_dir).catalog()
    dumps["catalog"] = dumps_catalog(catalog)
    return dumps


def phase_record(seed: int) -> dict:
    return {phase: [SCHEMA_VERSIONS[phase],
                    hashlib.sha256(data).hexdigest()]
            for phase, data in phase_dumps(seed).items()}


@pytest.mark.parametrize("seed", SEEDS, ids=[_case_id(s) for s in SEEDS])
def test_phase_outputs_match_golden(seed):
    with open(GOLDEN) as fp:
        golden = json.load(fp)[_case_id(seed)]
    assert sorted(golden) == sorted(PHASES)
    for phase, (version, digest) in phase_record(seed).items():
        recorded_version, recorded_digest = golden[phase]
        assert version == recorded_version, (
            f"SCHEMA_VERSIONS[{phase!r}] is {version}, the golden was "
            f"recorded at {recorded_version}: re-record it with --record")
        assert digest == recorded_digest, (
            f"phase {phase!r} changed its output without a "
            f"SCHEMA_VERSIONS bump")


def test_every_cacheable_phase_is_pinned():
    assert set(PHASES) == set(SCHEMA_VERSIONS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    records = {_case_id(seed): phase_record(seed) for seed in SEEDS}
    with open(GOLDEN, "w") as fp:
        json.dump(records, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(json.dumps(records, indent=2, sort_keys=True))
