"""The reactive platform's run summary, byte for byte.

``ReactiveReport.summary()`` carries the exact accounting and the
sha256 of the probe store, so it pins every admission, shed, probe
timestamp and reply of a run. Four runs at ``repro reactive``'s CI
arguments are recorded under ``golden/``: the bounded trigger topic
with ``block`` backpressure, the same run with ``shed_oldest``, the
same run with neither a topic capacity nor a probe budget, and the CI
run fed the world's own RSDoS feed instead of synthetic triggers. The
last is the only one whose triggers miss nameservers: synthetic
triggers always hit one.

The files must never be re-recorded to make a reactive change pass. A
change that is *meant* to change the platform's behaviour re-records
them with::

    PYTHONPATH=src python tests/reactive/test_reactive_golden.py --record
"""

from __future__ import annotations

import os
import sys

import pytest

from repro import WorldConfig, build_world, run_study
from repro.reactive import ReactiveService, fast_transport, synthetic_triggers
from repro.util.timeutil import HOUR

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: ``repro reactive --domains 400 --triggers 100 --probes-per-window 3
#: --probe-budget 30 --post-attack-hours 1 --capacity 32`` and the
#: command's defaults for everything else.
CI_RUN = dict(probes_per_window=3, post_attack_s=1 * HOUR, probe_budget=30,
              feed_capacity=32, backpressure="block")
CASES = {
    "ci": CI_RUN,
    "shed_oldest": dict(CI_RUN, backpressure="shed_oldest"),
    "unbounded": dict(CI_RUN, feed_capacity=None, probe_budget=None),
    "study_feed": CI_RUN,
}


def _world():
    n_domains = 400
    return build_world(WorldConfig(
        seed=42, start="2021-03-01", end_exclusive="2021-04-01",
        n_domains=n_domains,
        n_selfhosted_providers=max(10, n_domains // 30),
        n_filler_providers=max(5, n_domains // 75),
        attacks_per_month=120))


def run_summary(world, case: str) -> str:
    if case == "study_feed":
        triggers = run_study(world=world).feed
    else:
        triggers = synthetic_triggers(world, 100, seed=0, invalid_share=0.02)
    service = ReactiveService(world, transport=fast_transport(seed=42),
                              **CASES[case])
    return service.run(triggers).summary() + "\n"


def _path(case: str) -> str:
    return os.path.join(GOLDEN_DIR, f"summary_{case}.txt")


@pytest.fixture(scope="module")
def world():
    return _world()


@pytest.mark.parametrize("case", sorted(CASES))
def test_summary_matches_golden(world, case):
    with open(_path(case)) as fp:
        assert run_summary(world, case) == fp.read()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    built = _world()
    for name in sorted(CASES):
        text = run_summary(built, name)
        with open(_path(name), "w") as fp:
            fp.write(text)
        print(f"{name}:\n{text}")
