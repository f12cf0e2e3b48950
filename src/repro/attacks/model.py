"""Attack data model.

An :class:`Attack` is the ground-truth event against a single victim IP:
one or more :class:`AttackVector` s (protocol, ports, rate, spoofing
class) over a time window, plus an optional :class:`ImpairmentProfile`
describing post-attack residue (the TransIP December aftermath) or
mitigation (scrubbing). A :class:`Campaign` groups the coordinated
per-victim attacks of one incident (e.g. all three TransIP nameservers).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.net.ip import ip_to_str, slash24_of
from repro.net.ports import PROTO_ICMP, PROTO_TCP, PROTO_UDP, validate_port, validate_proto
from repro.util.timeutil import Window

_attack_ids = itertools.count(1)

# Volumetric packets in the paper's Gbps estimates work out to ~1400
# bytes (8 Gbps at 710 Kpps); we use that for volume inference.
DEFAULT_PACKET_BYTES = 1400


class Spoofing(enum.Enum):
    """How the attack sources its traffic (paper §2.1)."""

    RANDOM = "random"        # randomly/uniformly spoofed — telescope-visible
    REFLECTED = "reflected"  # spoofed-as-victim via reflectors — invisible
    UNSPOOFED = "unspoofed"  # direct from botnet — invisible
    AMPLIFIED = "amplified"  # spoofed-as-victim via DNS amplifiers —
    #                          no backscatter, but the darknet sees
    #                          reflector queries (stale amplifier lists)

    @property
    def telescope_visible(self) -> bool:
        """Visible to the darknet as victim *backscatter*."""
        return self is Spoofing.RANDOM

    @property
    def reflector_visible(self) -> bool:
        """Visible to the darknet as *reflector queries*: the attacker
        sprays its amplifier list with queries spoofed as the victim,
        and the stale share of that list falls inside the telescope."""
        return self is Spoofing.AMPLIFIED


@dataclass(frozen=True)
class AttackVector:
    """One traffic vector of an attack."""

    proto: int
    ports: Tuple[int, ...]
    pps: float
    spoofing: Spoofing = Spoofing.RANDOM
    packet_bytes: int = DEFAULT_PACKET_BYTES

    def __post_init__(self) -> None:
        validate_proto(self.proto)
        if self.proto != PROTO_ICMP and not self.ports:
            raise ValueError("TCP/UDP vectors need at least one port")
        for port in self.ports:
            validate_port(port)
        if self.pps <= 0:
            raise ValueError("vector rate must be positive")
        if self.packet_bytes <= 0:
            raise ValueError("packet size must be positive")

    @property
    def first_port(self) -> int:
        """The first targeted port (the RSDoS feed field)."""
        return self.ports[0] if self.ports else 0

    @classmethod
    def tcp_syn(cls, port: int, pps: float,
                spoofing: Spoofing = Spoofing.RANDOM) -> "AttackVector":
        return cls(PROTO_TCP, (port,), pps, spoofing, packet_bytes=60)

    @classmethod
    def udp_flood(cls, port: int, pps: float,
                  spoofing: Spoofing = Spoofing.RANDOM) -> "AttackVector":
        return cls(PROTO_UDP, (port,), pps, spoofing)


@dataclass(frozen=True)
class AmplificationProfile:
    """The reflection side of an amplified attack.

    An amplification attack never hits the victim directly: the
    attacker queries ``n_amplifiers`` open resolvers at ``query_pps``
    with the source spoofed as the victim, and each query elicits a
    response ``mean_baf`` times larger. Amplifier lists are harvested
    by scanning and go stale; ``list_darknet_share`` is the fraction of
    list entries that (no longer) answer and fall inside the darknet —
    the telescope's only view of this attack class (see
    :mod:`repro.telescope.reflector`).
    """

    n_amplifiers: int
    mean_baf: float
    query_pps: float
    list_darknet_share: float
    qtype: str = "ANY"

    def __post_init__(self) -> None:
        if self.n_amplifiers <= 0:
            raise ValueError("n_amplifiers must be positive")
        if self.mean_baf < 1.0:
            raise ValueError("mean_baf must be at least 1 (amplification)")
        if self.query_pps <= 0:
            raise ValueError("query_pps must be positive")
        if not 0 <= self.list_darknet_share <= 1:
            raise ValueError("list_darknet_share must be within [0, 1]")

    @property
    def darknet_list_entries(self) -> int:
        """Stale amplifier-list entries that point into the darknet."""
        return int(round(self.n_amplifiers * self.list_darknet_share))


@dataclass(frozen=True)
class ImpairmentProfile:
    """How the victim's impairment deviates from the raw attack window.

    ``aftermath_s``: impairment persists this long after the attack ends
    (e.g. operators needing manual recovery — TransIP December 2020,
    where OpenINTEL saw effects for ~8 hours past the telescope-inferred
    end). ``aftermath_load`` is the residual load factor during that
    tail, decaying linearly to zero.

    ``scrub_delay_s``/``scrub_efficiency``: a DDoS scrubbing service
    kicks in after the delay and removes that fraction of attack traffic
    (TransIP March 2021 deployed IP-level scrubbing).

    ``blackout``: the victim applies a blanket block of external clients
    (the mil.ru geofence) from ``blackout_start`` for ``blackout_s``
    seconds; during a blackout every external query is dropped
    regardless of load.
    """

    aftermath_s: int = 0
    aftermath_load: float = 0.0
    scrub_delay_s: int = 0
    scrub_efficiency: float = 0.0
    blackout_start: Optional[int] = None
    blackout_s: int = 0

    def __post_init__(self) -> None:
        if self.aftermath_s < 0 or self.blackout_s < 0 or self.scrub_delay_s < 0:
            raise ValueError("durations must be non-negative")
        if not 0 <= self.aftermath_load <= 1:
            raise ValueError("aftermath_load must be within [0, 1]")
        if not 0 <= self.scrub_efficiency <= 1:
            raise ValueError("scrub_efficiency must be within [0, 1]")


@dataclass
class Attack:
    """Ground truth for one attack against one victim IP."""

    victim_ip: int
    window: Window
    vectors: List[AttackVector]
    attack_id: int = field(default_factory=lambda: next(_attack_ids))
    campaign_id: Optional[int] = None
    impairment: ImpairmentProfile = field(default_factory=ImpairmentProfile)
    # Fraction of attack packets the victim answers while healthy
    # (SYN->SYN/ACK ~ 1.0; many UDP floods elicit ICMP at a lower rate).
    response_ratio: float = 1.0
    #: Number of distinct addresses the attacker spoofs from. ``None``
    #: means the full IPv4 space; bounded pools reproduce the paper's
    #: "attacker IP count" magnitudes (Table 2).
    spoof_pool_size: Optional[int] = None
    #: Reflection parameters of an amplified attack (``None`` for
    #: direct/backscatter-class attacks). When set, the darknet can see
    #: the attack as reflector queries even though it produces no
    #: backscatter.
    amplification: Optional[AmplificationProfile] = None

    def __post_init__(self) -> None:
        if not self.vectors:
            raise ValueError("an attack needs at least one vector")
        if not 0 < self.response_ratio <= 1:
            raise ValueError("response_ratio must be within (0, 1]")
        if self.spoof_pool_size is not None and self.spoof_pool_size <= 0:
            raise ValueError("spoof_pool_size must be positive")
        if self.amplification is not None and not any(
                v.spoofing is Spoofing.AMPLIFIED for v in self.vectors):
            raise ValueError(
                "an amplification profile needs an AMPLIFIED vector")

    # -- rates ----------------------------------------------------------------

    @property
    def total_pps(self) -> float:
        """Full load hitting the victim (all spoofing classes)."""
        return sum(v.pps for v in self.vectors)

    @property
    def spoofed_pps(self) -> float:
        """Telescope-relevant rate: randomly spoofed vectors only."""
        return sum(v.pps for v in self.vectors if v.spoofing.telescope_visible)

    def effective_pps(self, ts: int) -> float:
        """Attack load at instant ``ts`` after scrubbing/aftermath.

        Inside the window: full rate, reduced by scrubbing once
        deployed. In the aftermath tail: residual load decaying linearly.
        Elsewhere: zero.
        """
        imp = self.impairment
        if self.window.contains(ts):
            rate = self.total_pps
            if imp.scrub_efficiency > 0 and ts >= self.window.start + imp.scrub_delay_s:
                rate *= 1.0 - imp.scrub_efficiency
            return rate
        if imp.aftermath_s > 0 and self.window.end <= ts < self.window.end + imp.aftermath_s:
            progress = (ts - self.window.end) / imp.aftermath_s
            return self.total_pps * imp.aftermath_load * (1.0 - progress)
        return 0.0

    def effective_spoofed_pps(self, ts: int) -> float:
        """Spoofed-vector load at ``ts`` (drives backscatter)."""
        total = self.total_pps
        if total <= 0:
            return 0.0
        # Scrubbing and aftermath scale all vectors proportionally.
        return self.effective_pps(ts) * (self.spoofed_pps / total) \
            if self.window.contains(ts) else 0.0

    def blackout_window(self) -> Optional[Window]:
        imp = self.impairment
        if imp.blackout_start is None or imp.blackout_s <= 0:
            return None
        return Window(imp.blackout_start, imp.blackout_start + imp.blackout_s)

    # -- classification ---------------------------------------------------------

    @property
    def impact_window(self) -> Window:
        """Window during which the victim may be impaired (attack +
        aftermath + blackout)."""
        end = self.window.end + self.impairment.aftermath_s
        blackout = self.blackout_window()
        if blackout is not None:
            end = max(end, blackout.end)
        return Window(self.window.start, end)

    @property
    def is_multi_vector(self) -> bool:
        return len(self.vectors) > 1

    @property
    def telescope_visible(self) -> bool:
        return any(v.spoofing.telescope_visible for v in self.vectors)

    @property
    def reflector_visible(self) -> bool:
        """Observable at the darknet as reflector queries."""
        return (self.amplification is not None
                and self.amplification.darknet_list_entries > 0
                and any(v.spoofing.reflector_visible for v in self.vectors))

    @property
    def victim_slash24(self) -> int:
        return slash24_of(self.victim_ip)

    @property
    def duration_s(self) -> int:
        return self.window.duration

    def __repr__(self) -> str:
        return (f"Attack(#{self.attack_id} on {ip_to_str(self.victim_ip)} "
                f"{self.window}, {len(self.vectors)} vector(s), "
                f"{self.total_pps:.0f} pps)")


@dataclass
class Campaign:
    """A coordinated incident: the per-victim attacks of one event."""

    name: str
    attacks: List[Attack] = field(default_factory=list)
    campaign_id: int = field(default_factory=lambda: next(_attack_ids))

    def __post_init__(self) -> None:
        for attack in self.attacks:
            attack.campaign_id = self.campaign_id

    def add(self, attack: Attack) -> None:
        attack.campaign_id = self.campaign_id
        self.attacks.append(attack)

    @property
    def window(self) -> Window:
        if not self.attacks:
            raise ValueError("empty campaign has no window")
        return Window(min(a.window.start for a in self.attacks),
                      max(a.window.end for a in self.attacks))
