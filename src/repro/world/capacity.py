"""Capacity model: attack load → drop probability, delay, SERVFAIL.

The model has two stages, mirroring the failure modes the paper
discusses:

* **Link stage** — every attack packet destined to any address in a /24
  crosses that /24's uplink, which is *bit*-bound: a 1400-byte UDP flood
  saturates a 10 Gbps uplink at ~900 Kpps while a 60-byte SYN flood at
  the same packet rate is only ~340 Mbps. A saturated uplink drops query
  and response datagrams indiscriminately; this is why nameservers
  sharing one /24 (mil.ru, §5.2.3) fail together, and why the telescope
  under-observes victims behind saturated links (§6.5: "the attack
  succeeds and impedes responses that serve as backscatter signal").
* **Server stage** — packets that reach the victim consume server
  resources (*packet*-bound), weighted by how expensive they are to
  dispose of: UDP floods to port 53 are parsed by the DNS software
  itself (application-aware attacks, §6.3.1, weight
  ``app_layer_factor``); TCP SYNs to port 53 burn SYN-queue state
  (weight 1); packets to other ports are discarded cheaply in the
  kernel (weight ``other_port_factor``).

Drop probability follows the classic overload form ``1 - headroom/u``
above the headroom threshold: a server at twice its capacity answers
~40% of queries, at 10x ~8%. Sub-saturation queueing adds an M/M/1-style
delay that only matters near saturation. SERVFAIL is a distinct mode:
an application-overloaded (but link-healthy) server answers quickly with
an error — the 8% SERVFAIL share of failures in §6.3.1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dns.server import ServerReply
from repro.net.ports import PORT_DNS, PROTO_UDP

# Sub-saturation service time that stretches as the queue builds.
_SERVICE_MS = 2.0
_MAX_QUEUE_UTIL = 0.97


@dataclass(frozen=True)
class LoadBreakdown:
    """Utilization of one nameserver at one instant, per stage."""

    server_util: float = 0.0   # packet-weighted load / server capacity (pps)
    link_util: float = 0.0     # attack bits on the /24 uplink / link bps
    app_util: float = 0.0      # UDP port-53 component of server load
    blackout: bool = False     # geofence: all external queries dropped

    @property
    def quiet(self) -> bool:
        return (not self.blackout and self.server_util == 0.0
                and self.link_util == 0.0)


def overload_drop(util: float, headroom: float) -> float:
    """Drop probability at utilization ``util`` given ``headroom``.

    Zero below the headroom threshold, then ``1 - headroom/util``: the
    resource serves ``headroom`` worth of traffic and sheds the rest.
    """
    if util <= headroom:
        return 0.0
    return 1.0 - headroom / util


def queue_delay_ms(util: float) -> float:
    """M/M/1-flavoured queueing delay: negligible until near saturation."""
    rho = min(max(util, 0.0), _MAX_QUEUE_UTIL)
    return _SERVICE_MS / (1.0 - rho) - _SERVICE_MS


class CapacityModel:
    """Samples per-query server replies from a load breakdown."""

    def __init__(self, headroom: float = 0.8, app_layer_factor: float = 4.0,
                 other_port_factor: float = 0.5, servfail_weight: float = 0.10):
        if not 0 < headroom <= 1:
            raise ValueError("headroom must be within (0, 1]")
        if app_layer_factor < 1:
            raise ValueError("app_layer_factor must be >= 1")
        if not 0 <= other_port_factor <= 1:
            raise ValueError("other_port_factor must be within [0, 1]")
        if not 0 <= servfail_weight <= 1:
            raise ValueError("servfail_weight must be within [0, 1]")
        self.headroom = headroom
        self.app_layer_factor = app_layer_factor
        self.other_port_factor = other_port_factor
        self.servfail_weight = servfail_weight

    # -- load weighting --------------------------------------------------------

    def server_cost_pps(self, pps: float, ports, proto: int) -> float:
        """Capacity-weighted cost of an attack vector at the server.

        UDP datagrams to port 53 look like DNS queries and are parsed by
        the authoritative software (expensive); TCP SYNs to port 53 cost
        SYN-queue work (weight 1); everything else dies in the kernel.
        """
        if PORT_DNS in ports:
            if proto == PROTO_UDP:
                return pps * self.app_layer_factor
            return pps
        return pps * self.other_port_factor

    def is_app_layer(self, ports, proto: int) -> bool:
        """Does a vector reach the DNS application itself?"""
        return proto == PROTO_UDP and PORT_DNS in ports

    # -- reply sampling -----------------------------------------------------------

    def sample_reply(self, rng: random.Random, base_rtt_ms: float,
                     load: LoadBreakdown) -> ServerReply:
        """What one query datagram experiences under ``load``.

        Staged like the real path: a blackout drops everything; the /24
        uplink drops a share of *all* packets — attack and query alike —
        so the server only ever sees link survivors; the surviving
        attack load then drives the server stage, where an
        application-overloaded (but reachable) server converts some
        would-be answers into fast SERVFAILs.
        """
        if load.blackout:
            return ServerReply.dropped()
        rtt = base_rtt_ms + rng.expovariate(1.0 / 2.0)  # ~2ms network jitter
        if load.quiet:
            return ServerReply.ok(rtt)
        p_link = overload_drop(load.link_util, self.headroom)
        if p_link > 0 and rng.random() < p_link:
            return ServerReply.dropped()
        survival = 1.0 - p_link
        eff_server = load.server_util * survival
        eff_app = load.app_util * survival
        p_drop = overload_drop(eff_server, self.headroom)
        # SERVFAIL: application-layer floods exhaust the DNS software
        # directly (full weight); any severe server overload also makes
        # it occasionally answer with SERVFAIL (e.g. failed internal
        # lookups) at a reduced weight.
        app_component = ((eff_app - self.headroom) / eff_app
                         if eff_app > self.headroom else 0.0)
        server_component = (0.1 * (eff_server - self.headroom) / eff_server
                            if eff_server > self.headroom else 0.0)
        p_servfail = self.servfail_weight * max(app_component, server_component)
        roll = rng.random()
        if roll < p_servfail:
            return ServerReply.servfail(rtt + queue_delay_ms(eff_server))
        if roll < p_servfail + p_drop * (1.0 - p_servfail):
            return ServerReply.dropped()
        return ServerReply.ok(rtt + queue_delay_ms(eff_server))
