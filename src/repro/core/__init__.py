"""The paper's method: joining RSDoS with OpenINTEL and analyzing impact.

This package is the reproduction's primary contribution — the §4
pipeline (aggregate, map, join, measure impact) and every §5/§6
analysis built on it. It consumes only the *datasets* (RSDoS feed,
measurement store, domain directory, ancillary data), never the world's
ground truth, exactly like the paper's vantage.
"""

from repro.core.nsset import NSSetMetadata, NSSetInfo
from repro.core.metrics import impact_on_rtt, ImpactSeries
from repro.core.join import AttackClass, ClassifiedAttack, DatasetJoin
from repro.core.events import AttackEvent, extract_events
from repro.core.longitudinal import MonthlySummary, monthly_summary, affected_domains_by_month
from repro.core.ports import PortAnalysis, analyze_ports
from repro.core.impact import FailureAnalysis, ImpactAnalysis, analyze_failures, analyze_impact, top_companies_by_impact
from repro.core.correlation import CorrelationAnalysis, analyze_correlation
from repro.core.resilience import ResilienceAnalysis, analyze_resilience
from repro.core.topasn import top_attacked_asns, top_attacked_ips
from repro.core.vantage import (
    CatchmentDisagreement,
    MultiVantageProber,
    VantagePoint,
    masking_analysis,
)
from repro.core.enduser import (
    CacheScenario,
    EndUserImpact,
    analytic_failure_share,
    caching_grid,
    simulate_enduser_impact,
)
from repro.core.visibility import VisibilityReport, analyze_visibility, match_attacks
from repro.core.pipeline import Study, run_study

__all__ = [
    "NSSetMetadata",
    "NSSetInfo",
    "impact_on_rtt",
    "ImpactSeries",
    "AttackClass",
    "ClassifiedAttack",
    "DatasetJoin",
    "AttackEvent",
    "extract_events",
    "MonthlySummary",
    "monthly_summary",
    "affected_domains_by_month",
    "PortAnalysis",
    "analyze_ports",
    "FailureAnalysis",
    "ImpactAnalysis",
    "analyze_failures",
    "analyze_impact",
    "top_companies_by_impact",
    "CorrelationAnalysis",
    "analyze_correlation",
    "ResilienceAnalysis",
    "analyze_resilience",
    "top_attacked_asns",
    "top_attacked_ips",
    "CatchmentDisagreement",
    "MultiVantageProber",
    "VantagePoint",
    "masking_analysis",
    "CacheScenario",
    "EndUserImpact",
    "analytic_failure_share",
    "caching_grid",
    "simulate_enduser_impact",
    "VisibilityReport",
    "analyze_visibility",
    "match_attacks",
    "Study",
    "run_study",
]
