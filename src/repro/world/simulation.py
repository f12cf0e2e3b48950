"""World assembly and the live query-time behaviour of nameservers.

:func:`build_world` wires together topology, providers, domains, attack
schedule, scripted case-study scenarios, the anycast census, and the
ancillary datasets. The resulting :class:`World` answers the one
question the measurement platforms ask: *what does nameserver X do with
a query at time t?* — which it derives from the attack load active at
that instant via the capacity model.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.anycast.census import AnycastCensus
from repro.attacks.generator import (
    HotTarget,
    TargetCatalog,
    generate_schedule,
)
from repro.attacks.model import Attack
from repro.dns.name import DomainName
from repro.dns.rr import RRType
from repro.dns.server import NameserverId, ServerReply
from repro.net.ip import IPv4Prefix, ip_to_str, parse_ip, slash24_of
from repro.topology.as2org import AS2Org
from repro.topology.generator import generate_topology
from repro.topology.prefix2as import Prefix2AS
from repro.util.rng import RngStreams
from repro.util.timeutil import DAY, Timeline, day_start
from repro.world.capacity import CapacityModel, LoadBreakdown
from repro.world.config import PAPER_TOTAL_ATTACKS, WorldConfig
from repro.world.domains import (
    DomainDirectory,
    MisconfigTarget,
    build_population,
)
from repro.world.hosting import (
    HostingProvider,
    Nameserver,
    build_analog_providers,
    build_filler_providers,
    build_selfhosted_providers,
)

# Public-resolver and other misconfiguration-target addresses (Table 5).
# (address, label, owning analog org or None, answers queries?, weight in
# the misconfigured-domain pool, paper's attack count for hot-target
# scheduling.)
SPECIAL_TARGETS = (
    ("8.8.4.4", "Google DNS", "Google", True, 0.26, 2803),
    ("8.8.8.8", "Google DNS", "Google", True, 0.26, 2298),
    ("1.1.1.1", "CloudFlare DNS", "Cloudflare", True, 0.16, 1118),
    ("204.79.197.200", "Bing", "Microsoft", True, 0.08, 668),
    ("13.107.21.200", "Bing", "Microsoft", True, 0.06, 438),
    ("23.227.38.32", "Cloudflare", "Cloudflare", True, 0.06, 273),
    ("192.168.12.34", "Private IP", None, False, 0.06, 346),
    ("198.51.100.77", "Company NAS", None, False, 0.06, 400),
)

# Paper count for the Unified Layer shared IP (redacted in Table 5).
UNIFIED_LAYER_HOT_COUNT = 2566
# Providers offering secondary-NS service (multi-AS NSSets, Figure 12).
SECONDARY_POOL = ("nic.ru", "GoDaddy", "Hosting-000", "Hosting-001", "Hosting-002")
# The region OpenINTEL probes from (the Netherlands): an anycast
# nameserver answers it from the site this region is routed to.
VANTAGE_REGION = "eu-west"
# The World's lazily built views of the attack schedule and the fleet.
_ATTACK_DERIVED = ("_index", "_attack_weights", "link_capacity",
                   "_vantage_site", "_busy_spans", "_dense_days")


class AttackIndex:
    """Time-indexed lookup of active attacks per victim IP and /24."""

    def __init__(self, tracked_s24s: Iterable[int]):
        self._tracked = set(tracked_s24s)
        self._by_ip: Dict[int, List[Attack]] = {}
        self._by_s24: Dict[int, List[Attack]] = {}
        self._ip_starts: Dict[int, List[int]] = {}
        self._s24_starts: Dict[int, List[int]] = {}
        self._ip_maxdur: Dict[int, int] = {}
        self._s24_maxdur: Dict[int, int] = {}
        self._frozen = False

    def add(self, attack: Attack) -> None:
        if self._frozen:
            raise RuntimeError("index is frozen")
        self._by_ip.setdefault(attack.victim_ip, []).append(attack)
        s24 = attack.victim_slash24
        if s24 in self._tracked:
            self._by_s24.setdefault(s24, []).append(attack)

    def freeze(self) -> None:
        for table, starts, maxdur in (
                (self._by_ip, self._ip_starts, self._ip_maxdur),
                (self._by_s24, self._s24_starts, self._s24_maxdur)):
            for key, attacks in table.items():
                attacks.sort(key=lambda a: a.impact_window.start)
                starts[key] = [a.impact_window.start for a in attacks]
                maxdur[key] = max(a.impact_window.duration for a in attacks)
        self._frozen = True

    @staticmethod
    def _active(attacks: List[Attack], starts: List[int], maxdur: int,
                ts: int) -> List[Attack]:
        idx = bisect_right(starts, ts)
        out = []
        j = idx - 1
        floor = ts - maxdur
        while j >= 0 and starts[j] > floor:
            window = attacks[j].impact_window
            if window.contains(int(ts)):
                out.append(attacks[j])
            j -= 1
        return out

    def active_on_ip(self, ip: int, ts: float) -> List[Attack]:
        attacks = self._by_ip.get(ip)
        if not attacks:
            return []
        return self._active(attacks, self._ip_starts[ip],
                            self._ip_maxdur[ip], int(ts))

    def active_on_s24(self, s24: int, ts: float) -> List[Attack]:
        attacks = self._by_s24.get(s24)
        if not attacks:
            return []
        return self._active(attacks, self._s24_starts[s24],
                            self._s24_maxdur[s24], int(ts))

    def attacks_near(self, ip: int) -> List[Attack]:
        """Attacks on ``ip`` or on its /24, when that /24 is tracked."""
        return (self._by_ip.get(ip, [])
                + self._by_s24.get(slash24_of(ip), []))


class World:
    """The assembled ground truth plus query-time behaviour."""

    def __init__(self, config: WorldConfig):
        self.config = config
        self.timeline: Timeline = config.timeline
        self.rngs = RngStreams(config.seed)
        self.providers: Dict[str, HostingProvider] = {}
        self.nameservers_by_ip: Dict[int, Nameserver] = {}
        self.directory = DomainDirectory()
        self.attacks: List[Attack] = []
        self.capacity_model = CapacityModel()
        self.census: Optional[AnycastCensus] = None
        self.prefix2as: Optional[Prefix2AS] = None
        self.as2org: Optional[AS2Org] = None
        self.open_resolver_ips: Set[int] = set()
        self.internet = None  # set by build_world
        self.pack = None  # ScenarioPack instance, set by build_world
        self._rng_transport = self.rngs.stream("transport")

    # -- registration -------------------------------------------------------

    def add_provider(self, provider: HostingProvider) -> None:
        if provider.name in self.providers:
            raise ValueError(f"duplicate provider: {provider.name}")
        self.providers[provider.name] = provider
        for ns in provider.nameservers:
            self.register_nameserver(ns)

    def register_nameserver(self, ns: Nameserver) -> None:
        existing = self.nameservers_by_ip.get(ns.ip)
        if existing is not None and existing is not ns:
            raise ValueError(f"duplicate nameserver IP: {ns.nsid}")
        self.nameservers_by_ip[ns.ip] = ns

    # -- attack machinery --------------------------------------------------------
    #
    # Everything derived from the attack schedule and the nameserver
    # fleet is built on first use, once the world is assembled: a run
    # whose telescope and crawl come from the phase cache never builds
    # it. ``finalize_attacks`` forgets and rebuilds it all at once.

    def finalize_attacks(self) -> None:
        """Rebuild the attack index and everything derived from it now;
        call after editing the schedule or the nameserver fleet."""
        for name in _ATTACK_DERIVED:
            self.__dict__.pop(name, None)
        for name in _ATTACK_DERIVED:
            getattr(self, name)

    def replace_attacks(self, attacks: Iterable[Attack]) -> None:
        """Swap in an edited attack schedule and rebuild every derived
        structure (index, weights, dense days) — the serve layer's
        what-if edit hook. The schedule is re-sorted into the canonical
        ``(start, victim_ip)`` order the generator produces."""
        self.attacks = sorted(attacks,
                              key=lambda a: (a.window.start, a.victim_ip))
        self.finalize_attacks()

    @cached_property
    def _index(self) -> AttackIndex:
        """Time-indexed active attacks per victim IP and tracked /24."""
        index = AttackIndex(slash24_of(ip) for ip in self.nameservers_by_ip)
        for attack in self.attacks:
            index.add(attack)
        index.freeze()
        return index

    @cached_property
    def _attack_weights(self) -> Dict[int, Tuple[float, float, float]]:
        """attack_id -> (server-cost fraction, app-layer fraction, mean
        bits/packet) of the attack's aggregate rate."""
        return {attack.attack_id: self._weights_of(attack)
                for attack in self.attacks}

    def _weights_of(self, attack: Attack) -> Tuple[float, float, float]:
        total = attack.total_pps
        server_cost = sum(
            self.capacity_model.server_cost_pps(v.pps, v.ports, v.proto)
            for v in attack.vectors)
        app = sum(v.pps for v in attack.vectors
                  if self.capacity_model.is_app_layer(v.ports, v.proto))
        bits = sum(v.pps * v.packet_bytes * 8 for v in attack.vectors)
        return server_cost / total, app / total, bits / total

    @cached_property
    def link_capacity(self) -> Dict[int, float]:
        """Per-/24 uplink bandwidth: the largest uplink of the unicast
        servers behind it (co-located servers share it)."""
        best: Dict[int, float] = {}
        for ns in self.nameservers_by_ip.values():
            if ns.anycast is not None or ns.is_misconfig_target:
                continue
            s24 = ns.nsid.slash24
            best[s24] = max(best.get(s24, 0.0), ns.link_bps)
        return best

    @cached_property
    def _vantage_site(self) -> Dict[int, Tuple[float, float]]:
        """Anycast ip -> (catchment share, capacity) of the site the
        vantage region is routed to."""
        sites: Dict[int, Tuple[float, float]] = {}
        for ns in self.nameservers_by_ip.values():
            if ns.anycast is not None:
                site = ns.anycast.site_for_region(VANTAGE_REGION)
                sites[ns.ip] = (site.catchment_weight, site.capacity_pps)
        return sites

    @cached_property
    def _busy_spans(self) -> Dict[int, Tuple[int, ...]]:
        """nsset_id -> the merged impact windows of every attack on a
        member IP or on a member's tracked /24, flattened to sorted
        bounds ``(start0, end0, start1, end1, ...)``."""
        index = self._index
        spans: Dict[int, Tuple[int, ...]] = {}
        for nsset_id, ips in self.directory.nssets.items():
            windows = sorted((a.impact_window.start, a.impact_window.end)
                             for ip in ips for a in index.attacks_near(ip))
            if not windows:
                continue
            bounds = list(windows[0])
            for start, end in windows[1:]:
                if start <= bounds[-1]:
                    bounds[-1] = max(bounds[-1], end)
                else:
                    bounds += (start, end)
            spans[nsset_id] = tuple(bounds)
        return spans

    def busy_spans_of(self, nsset_id: int) -> Tuple[int, ...]:
        """The half-open ``[start, end)`` spans in which an attack may
        load a member of the NSSet, as flattened sorted bounds: ``ts``
        lies in a span iff ``bisect_right(bounds, ts)`` is odd. Outside
        every span each member's load is quiet."""
        return self._busy_spans.get(nsset_id, ())

    @cached_property
    def _dense_days(self) -> Dict[int, FrozenSet[int]]:
        """nsset_id -> day-start timestamps needing 5-minute recording:
        every day a busy span touches, plus one recovery day."""
        dense: Dict[int, FrozenSet[int]] = {}
        for nsset_id, bounds in self._busy_spans.items():
            days: Set[int] = set()
            for i in range(0, len(bounds), 2):
                last = day_start(bounds[i + 1]) + DAY
                days.update(range(day_start(bounds[i]), last + 1, DAY))
            dense[nsset_id] = frozenset(days)
        return dense

    def dense_days_of(self, nsset_id: int) -> FrozenSet[int]:
        return self._dense_days.get(nsset_id, frozenset())

    # -- load & replies ------------------------------------------------------------

    def load_at(self, ns: Nameserver, ts: float) -> LoadBreakdown:
        """Utilization breakdown of one nameserver at one instant."""
        if ns.anycast is not None:
            return self.site_load_at(ns.ip, ts, *self._vantage_site[ns.ip])
        index = self._index
        attacks = index.active_on_ip(ns.ip, ts)
        blackout = any(
            (bw := a.blackout_window()) is not None and bw.contains(int(ts))
            for a in attacks)
        server_cost = 0.0
        app_pps = 0.0
        direct_bps = 0.0
        for attack in attacks:
            pps = attack.effective_pps(int(ts))
            if pps <= 0.0:
                continue
            server_frac, app_frac, bits_pp = self._attack_weights[attack.attack_id]
            server_cost += pps * server_frac
            app_pps += pps * app_frac
            direct_bps += pps * bits_pp
        s24 = ns.nsid.slash24
        link_bps = direct_bps
        for attack in index.active_on_s24(s24, ts):
            if attack.victim_ip != ns.ip:
                pps = attack.effective_pps(int(ts))
                if pps > 0.0:
                    link_bps += pps * self._attack_weights[attack.attack_id][2]
        link_cap = self.link_capacity.get(s24, float("inf"))
        return LoadBreakdown(
            server_util=server_cost / ns.capacity_pps,
            link_util=link_bps / link_cap,
            app_util=app_pps / ns.capacity_pps,
            blackout=blackout)

    def site_load_at(self, ip: int, ts: float, share: float,
                     capacity_pps: float) -> LoadBreakdown:
        """Load of the anycast site that takes ``share`` of the attack
        traffic aimed at ``ip`` and has ``capacity_pps`` of capacity.

        :meth:`load_at` passes the site the vantage region is routed to;
        a :class:`repro.core.vantage.VantagePoint` passes its own.
        """
        attacks = self._index.active_on_ip(ip, ts)
        blackout = any(
            (bw := a.blackout_window()) is not None and bw.contains(int(ts))
            for a in attacks)
        server_cost = 0.0
        app_pps = 0.0
        for attack in attacks:
            pps = attack.effective_pps(int(ts))
            if pps <= 0.0:
                continue
            server_frac, app_frac, _ = self._attack_weights[attack.attack_id]
            server_cost += pps * server_frac
            app_pps += pps * app_frac
        return LoadBreakdown(
            server_util=server_cost * share / capacity_pps,
            link_util=0.0,
            app_util=app_pps * share / capacity_pps,
            blackout=blackout)

    def set_transport_rng(self, rng: random.Random) -> random.Random:
        """Redirect the transport's randomness; returns the previous rng.

        The crawl reseeds a private stream per ``(domain, day)`` (see
        :mod:`repro.openintel.platform`) so reply samples depend only on
        which domain-day is being measured — never on how many queries
        were issued before it — which is what lets the serve layer crawl
        one day at a time. Callers must restore the previous rng when
        done so other probing subsystems keep their shared stream
        semantics.
        """
        prev = self._rng_transport
        self._rng_transport = rng
        return prev

    def transport(self, ns_ip: int, qname: DomainName, qtype: RRType,
                  ts: float) -> ServerReply:
        """Deliver one query datagram; the Transport for resolvers."""
        return self._reply(ns_ip, ts, self._rng_transport, 0.0, self.load_at)

    def _reply(self, ns_ip: int, ts: float, rng: random.Random,
               rtt_offset: float, load_at) -> ServerReply:
        """The reply rule every transport shares: a lame delegation or a
        silent misconfig target drops the query, an answering misconfig
        target replies after its RTT plus jitter, and a live server's
        reply is sampled from ``load_at(ns, ts)``. ``rtt_offset`` is the
        extra propagation RTT of a vantage outside the world's region."""
        ns = self.nameservers_by_ip.get(ns_ip)
        if ns is None:
            return ServerReply.dropped()  # lame delegation
        base_rtt_ms = ns.base_rtt_ms + rtt_offset
        if ns.is_misconfig_target:
            if not ns.answers_queries:
                return ServerReply.dropped()
            return ServerReply.ok(base_rtt_ms + rng.expovariate(0.5))
        return self.capacity_model.sample_reply(rng, base_rtt_ms,
                                                load_at(ns, ts))

    # -- convenience ------------------------------------------------------------

    def nameserver_ips(self) -> Set[int]:
        return set(self.nameservers_by_ip)

    def anycast_ips(self) -> Set[int]:
        return {ip for ip, ns in self.nameservers_by_ip.items()
                if ns.anycast is not None}


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def build_world(config: Optional[WorldConfig] = None,
                install_scenarios: bool = True) -> World:
    """Build the full study world from a configuration.

    Set ``install_scenarios=False`` to get only the statistical
    background (useful for isolating the longitudinal analyses from the
    scripted case studies).
    """
    config = config or WorldConfig()
    from repro.attacks.packs import get_pack
    pack = get_pack(config.scenario_pack, config.pack_params)
    world = World(config)
    world.pack = pack
    rng_topo = world.rngs.stream("topology")
    gen = generate_topology(rng_topo)
    world.internet = gen.internet

    rng_prov = world.rngs.stream("providers")
    for provider in build_analog_providers(gen, rng_prov):
        world.add_provider(provider)
    for provider in build_filler_providers(
            gen, rng_prov, config.n_filler_providers):
        world.add_provider(provider)
    for provider in build_selfhosted_providers(
            gen, rng_prov, config.n_selfhosted_providers):
        world.add_provider(provider)

    misconfig_targets, hot_targets = _install_special_targets(world, gen)

    # The census observes ground-truth anycast deployments (before the
    # population exists; it only needs the nameserver addresses).
    world.census = AnycastCensus.observe_world(
        seed=world.rngs.spawn_seed("census"),
        anycast_ips=world.anycast_ips())
    world.open_resolver_ips = {
        parse_ip(ip) for ip, label, _, answers, _, _ in SPECIAL_TARGETS
        if answers and "DNS" in label}

    rng_pop = world.rngs.stream("population")
    world.directory = build_population(
        rng_pop, list(world.providers.values()), config.n_domains,
        misconfig_targets, SECONDARY_POOL)
    _ensure_misconfig_coverage(world, misconfig_targets, rng_pop)

    if install_scenarios:
        from repro.world import scenarios
        scenarios.install_scenario_infrastructure(world, gen)

    # Pack infrastructure lands after the scripted scenarios and before
    # the routing tables are derived, so pack providers resolve through
    # prefix2AS/AS2Org like everything else. Packs draw only from
    # ``pack:<name>`` streams, so the background build is unperturbed.
    pack.install_world(world, gen)

    world.prefix2as = Prefix2AS.from_topology(gen.internet)
    world.as2org = AS2Org.from_topology(gen.internet)

    rng_attacks = world.rngs.stream("attacks")
    catalog = _build_target_catalog(world, gen, hot_targets, rng_attacks)
    # Hot-target counts in Table 5 are 17-month totals; the generator
    # spreads a count of ``paper_count x scale`` over the configured
    # timeline. Matching the paper's *per-month* hot-target rate
    # therefore needs the volume ratio times the fraction of the
    # 17-month window this world covers.
    n_months = max(1, len(list(world.timeline.months())))
    paper_monthly = PAPER_TOTAL_ATTACKS / 17.0
    scale = (config.attacks_per_month / paper_monthly) * (n_months / 17.0)
    world.attacks = generate_schedule(
        rng_attacks, world.timeline, catalog, config.attacks_per_month, scale)

    if install_scenarios:
        from repro.world import scenarios
        world.attacks.extend(scenarios.scenario_attacks(world))
        world.attacks.sort(key=lambda a: (a.window.start, a.victim_ip))

    extra = pack.generate_attacks(world)
    if extra:
        world.attacks.extend(extra)
        world.attacks.sort(key=lambda a: (a.window.start, a.victim_ip))
    return world


def _install_special_targets(world: World, gen) -> Tuple[List[MisconfigTarget],
                                                         List[HotTarget]]:
    """Announce and register the public-resolver / misconfig addresses."""
    misconfig: List[MisconfigTarget] = []
    hot: List[HotTarget] = []
    for text, label, org_name, answers, weight, paper_count in SPECIAL_TARGETS:
        ip = parse_ip(text)
        if org_name is not None:
            asys = gen.analog_as[org_name]
            prefix = IPv4Prefix(slash24_of(ip), 24)
            if world.internet.origin_asn(ip) is None:
                world.internet.announce(asys, prefix)
        host = DomainName(f"resolver-{text.replace('.', '-')}.example")
        world.register_nameserver(Nameserver(
            nsid=NameserverId(host, ip), provider_name=label,
            asn=world.internet.origin_asn(ip) or 0,
            capacity_pps=1e9, base_rtt_ms=6.0, anycast=None,
            is_misconfig_target=True, answers_queries=answers))
        misconfig.append(MisconfigTarget(ip=ip, label=label.replace(" ", "-").lower(),
                                         weight=weight))
        hot.append(HotTarget(ip=ip, n_attacks=paper_count, label=label))
    # The Unified Layer shared IP: a real authoritative that also hosts
    # web content, drawing frequent (ineffective) attacks.
    ul = world.providers["Unified Layer"]
    hot.append(HotTarget(ip=ul.nameservers[0].ip,
                         n_attacks=UNIFIED_LAYER_HOT_COUNT,
                         label="Unified Layer"))
    return misconfig, hot


def _ensure_misconfig_coverage(world: World, targets: List[MisconfigTarget],
                               rng: random.Random) -> None:
    """Guarantee at least one misconfigured domain per special target.

    The Table 4/5 phenomenon (public resolvers ranking among attacked
    "nameservers") only exists if the addresses appear in NS records;
    at small population scales the random misconfiguration draw can
    miss a target entirely.
    """
    from repro.dns.zone import Delegation

    providers = list(world.providers.values())
    for target in targets:
        if world.directory.domains_of_ip(target.ip):
            continue
        name = DomainName(
            f"misconfigured-{target.label}-{ip_to_str(target.ip).replace('.', '-')}.com")
        delegation = Delegation.build(
            name, {DomainName(f"ns.{target.label}.example"): (target.ip,)})
        world.directory.add(name, rng.choice(providers), delegation,
                            misconfig=True)


def _build_target_catalog(world: World, gen, hot_targets: List[HotTarget],
                          rng: random.Random) -> TargetCatalog:
    special = {h.ip for h in hot_targets}
    weights: Dict[int, float] = {}
    for ip in world.directory.nameserver_ips():
        if ip in special:
            continue
        if ip not in world.nameservers_by_ip:
            continue
        count = world.directory.domain_count_of_ip(ip)
        weights[ip] = math.sqrt(count) + 1.0
    other_pool: List[int] = []
    filler_prefixes = [p for asys in gen.filler_as for p in asys.prefixes]
    for _ in range(8000):
        prefix = rng.choice(filler_prefixes)
        other_pool.append(prefix.random_ip(rng))
    ns_groups: Dict[int, Tuple[int, ...]] = {}
    for provider in world.providers.values():
        group = provider.ns_ips
        for ip in group:
            ns_groups[ip] = group
    return TargetCatalog(ns_ip_weights=weights, other_ips=other_pool,
                         hot_targets=hot_targets, ns_groups=ns_groups)
