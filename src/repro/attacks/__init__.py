"""DDoS attack modeling: spoofing classes, vectors, and schedule generation.

The telescope only ever sees the *randomly spoofed* portion of the
attack landscape (paper §2.1/§4.3: ~60% of attacks per Jonker et al.);
the model therefore distinguishes spoofing types per vector, and the
world applies full load while the telescope samples backscatter only
from randomly-spoofed vectors.
"""

from repro.attacks.model import (
    AmplificationProfile,
    Attack,
    AttackVector,
    Campaign,
    ImpairmentProfile,
    Spoofing,
)
from repro.attacks.generator import (
    AttackMix,
    HotTarget,
    TargetCatalog,
    generate_schedule,
)
from repro.attacks.packs import (
    DEFAULT_PACK,
    ScenarioPack,
    UnknownPackError,
    VolumetricPack,
    available_packs,
    get_pack,
    register_pack,
    validate_pack_name,
)

__all__ = [
    "AmplificationProfile",
    "Attack",
    "AttackVector",
    "Campaign",
    "ImpairmentProfile",
    "Spoofing",
    "AttackMix",
    "HotTarget",
    "TargetCatalog",
    "generate_schedule",
    "DEFAULT_PACK",
    "ScenarioPack",
    "UnknownPackError",
    "VolumetricPack",
    "available_packs",
    "get_pack",
    "register_pack",
    "validate_pack_name",
]
