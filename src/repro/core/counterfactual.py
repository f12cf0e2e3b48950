"""Layered-defense counterfactuals: what-if mitigation over a schedule.

"Defending Root DNS Servers Against DDoS Using Layered Defenses"
(PAPERS.md) evaluates a mitigation stack — upstream filtering, capacity
surge, anycast scale-out — against real attack traces. This module
replays the *unmodified* impact machinery of this repository under each
mitigation layer: the same capacity-cost weighting
(:meth:`~repro.world.capacity.CapacityModel.server_cost_pps`), the same
overload curve (:func:`~repro.world.capacity.overload_drop`), and the
same retry-burn ladder the Table 6 calibration inverts
(:func:`~repro.world.scenarios.expected_retry_burn_s`), so a layer's
number answers "what Equation-1 impact would this attack have produced
had the victim deployed the layer" — a per-attack impact delta, not a
new pipeline.

A mitigation layer composes three orthogonal levers:

* ``filter_efficiency`` — fraction of attack traffic scrubbed upstream
  (BGP blackholing / flowspec / scrubbing service);
* ``capacity_factor`` — server-capacity multiplier (surge provisioning,
  the "scale up" lever);
* ``anycast_sites`` — extra anycast sites spreading the load (the
  "scale out" lever; per-site load divides by ``1 + sites``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.world.capacity import overload_drop
from repro.world.scenarios import expected_retry_burn_s

__all__ = ["MitigationLayer", "DEFAULT_LAYERS", "AttackDelta",
           "DefenseReport", "evaluate_defenses"]

#: per-attempt drop probabilities above this saturate the retry ladder.
_MAX_DROP = 0.95
#: an attack is "neutralized" when its mitigated impact falls below this.
NEUTRALIZED_IMPACT = 1.05


@dataclass(frozen=True)
class MitigationLayer:
    """One defense configuration (levers compose multiplicatively)."""

    name: str
    filter_efficiency: float = 0.0
    capacity_factor: float = 1.0
    anycast_sites: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a mitigation layer needs a name")
        if not 0 <= self.filter_efficiency <= 1:
            raise ValueError("filter_efficiency must be within [0, 1]")
        if self.capacity_factor <= 0:
            raise ValueError("capacity_factor must be positive")
        if self.anycast_sites < 0:
            raise ValueError("anycast_sites must be non-negative")

    @property
    def effective_capacity_factor(self) -> float:
        """Combined capacity multiplier of surge + scale-out."""
        return self.capacity_factor * (1 + self.anycast_sites)


#: The evaluated stack: each single lever, then the layered combination.
DEFAULT_LAYERS: Tuple[MitigationLayer, ...] = (
    MitigationLayer("filtering", filter_efficiency=0.6),
    MitigationLayer("capacity-surge", capacity_factor=3.0),
    MitigationLayer("anycast-scaleout", anycast_sites=6),
    MitigationLayer("layered", filter_efficiency=0.6,
                    capacity_factor=3.0, anycast_sites=6),
)


@dataclass
class AttackDelta:
    """One attack's baseline vs per-layer counterfactual impact."""

    attack_id: int
    victim_ip: int
    baseline_impact: float
    #: layer name -> counterfactual Equation-1 impact.
    impacts: Dict[str, float] = field(default_factory=dict)

    def delta(self, layer: str) -> float:
        """Impact reduction of ``layer`` (positive = improvement)."""
        return self.baseline_impact - self.impacts[layer]

    def neutralized(self, layer: str) -> bool:
        return self.impacts[layer] <= NEUTRALIZED_IMPACT


@dataclass
class DefenseReport:
    """Per-attack impact deltas under every mitigation layer."""

    layers: Tuple[MitigationLayer, ...]
    rows: List[AttackDelta]

    @property
    def n_attacks(self) -> int:
        return len(self.rows)

    def harmful_rows(self) -> List[AttackDelta]:
        """Rows whose baseline impact is above the neutral band."""
        return [r for r in self.rows
                if r.baseline_impact > NEUTRALIZED_IMPACT]

    def mean_impact(self, layer: Optional[str] = None) -> float:
        """Mean impact across harmful attacks (baseline when ``layer``
        is None)."""
        rows = self.harmful_rows()
        if not rows:
            return 1.0
        if layer is None:
            return sum(r.baseline_impact for r in rows) / len(rows)
        return sum(r.impacts[layer] for r in rows) / len(rows)

    def mean_delta(self, layer: str) -> float:
        rows = self.harmful_rows()
        if not rows:
            return 0.0
        return sum(r.delta(layer) for r in rows) / len(rows)

    def neutralized_share(self, layer: str) -> float:
        """Fraction of harmful attacks the layer neutralizes."""
        rows = self.harmful_rows()
        if not rows:
            return 0.0
        return sum(1 for r in rows if r.neutralized(layer)) / len(rows)

    def best_layer(self) -> Optional[str]:
        if not self.layers:
            return None
        return max(self.layers, key=lambda l: self.mean_delta(l.name)).name


def _impact_of(world, ns, attack, layer: Optional[MitigationLayer]) -> float:
    """The attack's Equation-1 impact on ``ns`` under ``layer``.

    Uses the pipeline's own cost/overload/retry machinery at the
    attack's peak rate; ``layer=None`` is the baseline (no mitigation).
    """
    model = world.capacity_model
    cost = sum(model.server_cost_pps(v.pps, v.ports, v.proto)
               for v in attack.vectors)
    capacity = ns.capacity_pps
    if layer is not None:
        cost *= 1.0 - layer.filter_efficiency
        capacity *= layer.effective_capacity_factor
    drop = min(_MAX_DROP, overload_drop(cost / capacity))
    burn_s = expected_retry_burn_s(drop)
    return 1.0 + burn_s * 1000.0 / ns.base_rtt_ms


def evaluate_defenses(world) -> DefenseReport:
    """Evaluate the ``DEFAULT_LAYERS`` stack against every ground-truth
    attack on a modelled (unicast, non-misconfigured) nameserver."""
    rows: List[AttackDelta] = []
    for attack in world.attacks:
        ns = world.nameservers_by_ip.get(attack.victim_ip)
        if ns is None or ns.is_misconfig_target or ns.anycast is not None:
            continue
        row = AttackDelta(
            attack_id=attack.attack_id,
            victim_ip=attack.victim_ip,
            baseline_impact=_impact_of(world, ns, attack, None))
        for layer in DEFAULT_LAYERS:
            row.impacts[layer.name] = _impact_of(world, ns, attack, layer)
        rows.append(row)
    return DefenseReport(layers=DEFAULT_LAYERS, rows=rows)
