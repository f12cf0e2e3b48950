"""OpenINTEL analog: daily active DNS measurement of the namespace.

One explicit NS query per registered domain per day, resolved through
the unbound-like agnostic resolver (random authoritative selection,
empty cache), with RTT-to-complete and response status recorded. Storage
aggregates per NSSet at daily granularity everywhere and at 5-minute
granularity around attacks — the exact inputs of the paper's analysis.
"""

from repro.openintel.stats import CrawlStats
from repro.openintel.storage import Aggregate, MeasurementStore
from repro.openintel.platform import OpenIntelPlatform

__all__ = [
    "Aggregate",
    "MeasurementStore",
    "OpenIntelPlatform",
    "CrawlStats",
]
