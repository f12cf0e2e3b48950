"""The defense scenario pack: layered mitigations as counterfactuals.

This pack schedules no attacks of its own: it takes whatever the world
already carries — the background volumetric schedule plus the scripted
case studies — and asks, for each attack on a modelled nameserver,
what the Equation-1 impact *would have been* had the victim deployed
each mitigation layer (upstream filtering, capacity surge, anycast
scale-out, and the layered combination). The evaluation runs after the
ordinary pipeline as the ``counterfactuals`` conditional node, through
the unmodified impact machinery (:mod:`repro.core.counterfactual`), and
reports per-attack impact deltas.

The pack is deterministic and draws no randomness: the world build and
every default-path artifact stay byte-identical.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.packs import ScenarioPack
from repro.core.counterfactual import DefenseReport, evaluate_defenses

__all__ = ["DefensePack"]


class DefensePack(ScenarioPack):
    """Layered-mitigation counterfactuals over the existing schedule."""

    name = "defense"
    description = ("layered mitigations (filtering, capacity surge, "
                   "anycast scale-out) as per-attack impact-delta "
                   "counterfactuals")

    @property
    def has_counterfactuals(self) -> bool:
        return True

    def counterfactuals(self, world, events) -> DefenseReport:
        return evaluate_defenses(world)

    def analyze(self, study) -> Optional[DefenseReport]:
        return study.counterfactuals

    def report_section(self, study) -> Optional[str]:
        report: Optional[DefenseReport] = study.counterfactuals
        if report is None:
            return None
        lines = ["Defense pack (mitigation counterfactuals)",
                 "-----------------------------------------"]
        lines.append(
            f"  attacks evaluated: {report.n_attacks} "
            f"({len(report.harmful_rows())} harmful, baseline mean "
            f"impact {report.mean_impact():.1f}x)")
        for layer in report.layers:
            lines.append(
                f"  {layer.name:<17} mean impact "
                f"{report.mean_impact(layer.name):6.1f}x  "
                f"(delta {report.mean_delta(layer.name):6.1f}, "
                f"neutralizes {report.neutralized_share(layer.name):.0%})")
        return "\n".join(lines)
