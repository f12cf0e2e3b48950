"""UCSD Network Telescope analog: darknet, backscatter, RSDoS inference.

The darknet passively receives backscatter — response packets victims of
randomly-spoofed attacks send to spoofed sources that happen to fall in
the telescope's /9 + /10 (1/341.33 of IPv4 space). The RSDoS pipeline
turns the raw observations into the 5-minute tumbling-window feed the
paper's join consumes, applying Moore-et-al-style inference thresholds.
"""

from repro.telescope.darknet import Darknet, TELESCOPE_COVERAGE
from repro.telescope.backscatter import BackscatterSimulator
from repro.telescope.rsdos import (
    InferredAttack,
    RSDoSClassifier,
    attack_problem,
)
from repro.telescope.feed import FeedRecord, RSDoSFeed, ppm_to_victim_pps
from repro.telescope.reflector import (
    InferredReflection,
    ReflectorClassifier,
    ReflectorFeed,
    ReflectorObservation,
    ReflectorSimulator,
    match_reflections,
)

__all__ = [
    "Darknet",
    "TELESCOPE_COVERAGE",
    "BackscatterSimulator",
    "InferredAttack",
    "RSDoSClassifier",
    "attack_problem",
    "FeedRecord",
    "RSDoSFeed",
    "ppm_to_victim_pps",
    "ReflectorObservation",
    "InferredReflection",
    "ReflectorSimulator",
    "ReflectorClassifier",
    "ReflectorFeed",
    "match_reflections",
]
