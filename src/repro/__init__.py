"""repro — reproduction of "Investigating the impact of DDoS attacks on
DNS infrastructure" (Sommese et al., IMC 2022).

The public API is intentionally small:

>>> from repro import WorldConfig, run_study
>>> study = run_study(WorldConfig.small())
>>> print(study.report())

``run_study`` builds a seeded synthetic Internet, runs the two
measurement systems (darknet telescope -> RSDoS feed; OpenINTEL-style
daily DNS crawl), joins them with the paper's §4 pipeline, and exposes
every §5/§6 analysis on the returned :class:`repro.core.pipeline.Study`.

Subpackages (importable directly for finer-grained use):

- :mod:`repro.net` — IPv4 primitives, radix trie, AS/Org types
- :mod:`repro.dns` — names, record types, delegations, agnostic resolver
- :mod:`repro.topology` — synthetic AS topology, prefix2AS, AS2Org
- :mod:`repro.anycast` — anycast deployments and the quarterly census
- :mod:`repro.world` — ground truth: providers, domains, capacity model
- :mod:`repro.attacks` — attack model and schedule generation
- :mod:`repro.telescope` — darknet, backscatter, RSDoS inference, feed
- :mod:`repro.openintel` — daily crawl and aggregate storage
- :mod:`repro.streaming` — in-process topics, consumers and a broker
- :mod:`repro.chaos` — seeded fault injection over the pipeline surfaces
- :mod:`repro.obs` — run telemetry: metrics registry, phase spans, clocks
- :mod:`repro.artifacts` — content-addressed phase cache (warm re-runs)
- :mod:`repro.engine` — declarative phase graph + one-runner executor
- :mod:`repro.core` — the paper's join pipeline and analyses
- :mod:`repro.reactive` — the §4.3.1 reactive platform (backpressure,
  admission control, exactly-once recovery) and its probe store
- :mod:`repro.datasets` — open-resolver scan, dataset bundle I/O
"""

from repro.core.pipeline import Study, run_study
from repro.reactive import ReactiveReport, ReactiveService
from repro.artifacts.cache import PhaseCache
from repro.artifacts.store import ArtifactStore
from repro.chaos.injector import FaultInjector
from repro.chaos.policy import ChaosConfig, FaultPolicy
from repro.obs import MetricsRegistry, RunTelemetry
from repro.world.config import WorldConfig
from repro.world.simulation import World, build_world

__version__ = "8.0.0"

__all__ = [
    "Study",
    "run_study",
    "ReactiveService",
    "ReactiveReport",
    "ArtifactStore",
    "PhaseCache",
    "ChaosConfig",
    "FaultPolicy",
    "FaultInjector",
    "MetricsRegistry",
    "RunTelemetry",
    "WorldConfig",
    "World",
    "build_world",
    "__version__",
]
