"""Scenario packs: the pluggable attack-class layer.

The attack plane is not hard-wired into the pipeline: an attack class
is a :class:`ScenarioPack` — a named plugin bundling the world hooks
(extra infrastructure and enrichment), a schedule generator (extra
ground-truth attacks), a telescope flag (whether the darknet also sees
the class as reflector queries), and analysis hooks (a pack-specific
report section). The registry, :data:`_BUILTIN`, maps each pack name
to the module and class that implement it; ``WorldConfig`` carries the
selected pack (name + params, both fingerprinted), and
``build_world``/``run_study`` call the hooks at fixed points — so a new
attack class is a new module and one registry row, never a fork of the
pipeline.

The paper's randomly-spoofed volumetric model is itself the first
pack (:class:`VolumetricPack`): every one of its hooks is a no-op on
top of the background generator and the scripted case studies, so the
default path is byte-identical to the pre-pack pipeline.

Three more packs ship with the library (each imported only when first
selected, so importing this module stays cheap and cycle-free):

* ``amplification`` (:mod:`repro.attacks.amplification`) — reflection
  attacks with BAF distributions and a reflector-query telescope
  branch (:mod:`repro.telescope.reflector`);
* ``wartime`` (:mod:`repro.attacks.wartime`) — correlated geopolitical
  attack waves with target-country enrichment, generalizing the
  mil.ru/RZD case studies;
* ``defense`` (:mod:`repro.attacks.defense`) — layered mitigations
  evaluated as counterfactuals over the schedule
  (:mod:`repro.core.counterfactual`).

Determinism contract: a pack draws only from RNG streams namespaced
``pack:<name>...`` (:meth:`repro.util.rng.RngStreams.stream`), so
installing or selecting a pack never perturbs the background world
build — and the volumetric pack, which draws nothing, leaves every
existing stream untouched.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.attacks.model import Attack

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telescope.reflector import ReflectorFeed

__all__ = ["ScenarioPack", "VolumetricPack",
           "UnknownPackError", "get_pack",
           "available_packs", "validate_pack_name", "DEFAULT_PACK"]

#: the pack every config selects unless told otherwise.
DEFAULT_PACK = "volumetric"

#: The pack registry: name -> (module, class), resolved lazily because
#: pack modules may import world and telescope machinery, which in turn
#: import this module. A new pack is one row here.
_BUILTIN: Dict[str, Tuple[str, str]] = {
    "volumetric": ("repro.attacks.packs", "VolumetricPack"),
    "amplification": ("repro.attacks.amplification", "AmplificationPack"),
    "wartime": ("repro.attacks.wartime", "WartimePack"),
    "defense": ("repro.attacks.defense", "DefensePack"),
}


class UnknownPackError(ValueError):
    """Raised for a scenario-pack name nobody registered."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"unknown scenario pack {name!r}; available packs: "
            + ", ".join(available_packs()))


class ScenarioPack:
    """One pluggable attack class (the pack protocol).

    Subclasses override the hooks they need; every default is a no-op,
    so a pack only pays for what it changes. ``build_world`` constructs
    the one instance a run uses (``world.pack``). Packs must be
    stateless beyond ``params``, and any randomness must come from
    ``world.rngs.stream("pack:<name>", ...)`` streams.
    """

    #: registry name (its :data:`_BUILTIN` key, and the CLI
    #: ``--scenario-pack`` value).
    name: str = "abstract"
    #: one-line description for ``repro packs ls``.
    description: str = ""

    def __init__(self, params=None):
        #: the pack's parameter dataclass; fingerprinted via
        #: ``WorldConfig.pack_params`` when carried by a config.
        self.params = params if params is not None else self.default_params()

    @classmethod
    def default_params(cls):
        """The pack's default parameter dataclass (``None`` if the
        pack has no knobs)."""
        return None

    # -- world hooks ----------------------------------------------------------

    def install_world(self, world, gen) -> None:
        """Add pack infrastructure (providers, domains, enrichment) to
        a world under construction. Runs after the scripted scenario
        install and before prefix2AS/AS2Org are derived."""

    def generate_attacks(self, world) -> List[Attack]:
        """Extra ground-truth attacks on top of the background
        schedule (and the scripted scenarios, when installed)."""
        return []

    # -- telescope hooks ------------------------------------------------------

    #: do this pack's attackers spray stale amplifier lists whose dead
    #: entries fall inside the telescope, seen as queries spoofed as
    #: the victim? Those are inferred by :mod:`repro.telescope.reflector`
    #: and merged into the join as a second curated feed. Every pack's
    #: randomly-spoofed vectors also reach the darknet as backscatter.
    reflector_queries: bool = False

    def observe_darknet(self, world, attacks: List[Attack]
                        ) -> Optional["ReflectorFeed"]:
        """Run the pack's extra darknet inference branch over
        ``attacks``, the slice of the schedule the telescope observes
        (only called when :attr:`reflector_queries` is true)."""
        return None

    # -- analysis hooks -------------------------------------------------------

    @property
    def has_counterfactuals(self) -> bool:
        """Does this pack evaluate mitigation counterfactuals?"""
        return False

    def counterfactuals(self, world, events):
        """Counterfactual analysis over the finished run (only called
        when :attr:`has_counterfactuals` is true)."""
        return None

    def analyze(self, study):
        """Pack-specific analysis of a finished study (``None`` when
        the pack adds nothing)."""
        return None

    def report_section(self, study) -> Optional[str]:
        """Extra report section text (``None`` keeps the default
        report byte-identical)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.params!r})"


@dataclass(frozen=True)
class VolumetricParams:
    """The volumetric pack has no knobs of its own — the background
    generator's are ``WorldConfig.attacks_per_month`` and the constants
    of :mod:`repro.attacks.generator` — but carries a params type so
    every pack fingerprints uniformly."""


class VolumetricPack(ScenarioPack):
    """The paper's attack model: randomly-spoofed volumetric floods.

    The background schedule generator
    (:func:`repro.attacks.generator.generate_schedule`) and the
    scripted case studies (:mod:`repro.world.scenarios`) *are* this
    pack; every hook is therefore a no-op and the default path runs
    byte-identically to the pre-pack pipeline (the goldens assert it).
    """

    name = "volumetric"
    description = ("randomly-spoofed volumetric floods — the paper's "
                   "default attack model (backscatter-inferred)")

    @classmethod
    def default_params(cls):
        return VolumetricParams()


def available_packs() -> List[str]:
    """All registered pack names, sorted."""
    return sorted(_BUILTIN)


def validate_pack_name(name: str) -> str:
    """Return ``name`` if it resolves to a pack, else raise
    :class:`UnknownPackError` (cheap: never imports pack modules)."""
    if name not in _BUILTIN:
        raise UnknownPackError(name)
    return name


def get_pack(name: str, params=None) -> ScenarioPack:
    """Instantiate the pack registered under ``name``.

    ``params`` overrides the pack's default parameter dataclass (this
    is what ``WorldConfig.pack_params`` carries). Unknown names raise
    :class:`UnknownPackError` listing what is available.
    """
    module, cls = _BUILTIN[validate_pack_name(name)]
    return getattr(importlib.import_module(module), cls)(params)
