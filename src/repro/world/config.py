"""World configuration: one dataclass of knobs with scaled defaults.

The paper's world is the whole Internet (4M attacks, >200M domains); the
default configuration here is a laptop-scale slice (tens of thousands of
domains, tens of thousands of attacks) chosen so that every *ratio* the
paper reports is preserved while absolute counts shrink by the scale
factor. ``WorldConfig.paper_scale()`` documents the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.packs import DEFAULT_PACK, validate_pack_name
from repro.util.timeutil import Timeline

# Total RSDoS attacks the paper observed over the 17 months (Table 1);
# used to derive the hot-target scale factor (see ``build_world``).
PAPER_TOTAL_ATTACKS = 4_039_485


@dataclass(frozen=True)
class WorldConfig:
    """Every knob of the simulated study world. The model's calibration
    values are constants of the modules that read them (see
    ``docs/calibration.md``)."""

    seed: int = 42

    # -- timeline -------------------------------------------------------------
    start: str = Timeline.PAPER_START
    end_exclusive: str = Timeline.PAPER_END_EXCLUSIVE

    # -- domain population ------------------------------------------------------
    n_domains: int = 20_000
    #: tiny self-hosted deployments (1-20 domains each).
    n_selfhosted_providers: int = 220
    #: generated mid-market hosting providers on top of the analogs.
    n_filler_providers: int = 45

    # -- attack schedule ---------------------------------------------------------
    attacks_per_month: int = 2_000

    # -- scenario pack -----------------------------------------------------------
    #: the attack-class plugin driving extra world/schedule/telescope
    #: hooks (see :mod:`repro.attacks.packs`); ``volumetric`` is the
    #: paper's model and adds nothing to the background above.
    scenario_pack: str = DEFAULT_PACK
    #: the selected pack's parameter dataclass (``None`` = pack
    #: defaults). Canonicalized into every fingerprint, so changing a
    #: pack knob invalidates caches and serve day-keys like any other
    #: config field.
    pack_params: object = None

    def __post_init__(self) -> None:
        if self.n_domains <= 0:
            raise ValueError("n_domains must be positive")
        validate_pack_name(self.scenario_pack)

    @property
    def timeline(self) -> Timeline:
        return Timeline(self.start, self.end_exclusive)

    def paper_scale(self) -> float:
        """Approximate count scale factor vs the paper (attacks axis)."""
        return (self.attacks_per_month * 17) / PAPER_TOTAL_ATTACKS

    @classmethod
    def tiny(cls, seed: int = 42) -> "WorldConfig":
        """A unit-test scale world: one month, few domains."""
        return cls(
            seed=seed,
            start="2021-03-01",
            end_exclusive="2021-04-01",
            n_domains=600,
            n_selfhosted_providers=20,
            n_filler_providers=8,
            attacks_per_month=120,
        )

    @classmethod
    def small(cls) -> "WorldConfig":
        """Integration-test scale: three months, a few thousand domains."""
        return cls(
            start="2021-01-01",
            end_exclusive="2021-04-01",
            n_domains=4_000,
            n_selfhosted_providers=60,
            n_filler_providers=20,
            attacks_per_month=600,
        )
