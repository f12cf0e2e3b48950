"""Tests for world assembly and query-time behaviour."""

import pytest

from repro.dns.name import DomainName
from repro.dns.rr import RRType
from repro.net.ip import parse_ip, slash24_of
from repro.util.timeutil import DAY, parse_ts
from repro.world.simulation import (_ATTACK_DERIVED, SPECIAL_TARGETS,
                                    AttackIndex, build_world)


class TestWorldAssembly:
    def test_population_size(self, tiny_world, tiny_config):
        # Generated domains + the scripted scenario domains.
        assert len(tiny_world.directory) >= tiny_config.n_domains

    def test_every_ns_ip_registered(self, tiny_world):
        unknown = [ip for ip in tiny_world.directory.nameserver_ips()
                   if ip not in tiny_world.nameservers_by_ip]
        assert unknown == []

    def test_special_targets_registered(self, tiny_world):
        for text, label, _, answers, _, _ in SPECIAL_TARGETS:
            ns = tiny_world.nameservers_by_ip[parse_ip(text)]
            assert ns.is_misconfig_target
            assert ns.answers_queries == answers

    def test_google_dns_attributed_to_google(self, tiny_world):
        asn = tiny_world.internet.origin_asn(parse_ip("8.8.8.8"))
        assert tiny_world.as2org.name_of(asn) == "Google"

    def test_open_resolver_set(self, tiny_world):
        assert parse_ip("8.8.8.8") in tiny_world.open_resolver_ips
        assert parse_ip("204.79.197.200") not in tiny_world.open_resolver_ips

    def test_census_covers_anycast(self, tiny_world):
        snap = tiny_world.census.snapshots[0]
        anycast_s24s = {slash24_of(ip) for ip in tiny_world.anycast_ips()}
        assert snap.anycast_slash24s <= anycast_s24s

    def test_scenario_providers_installed(self, tiny_world):
        assert "Russian MoD" in tiny_world.providers
        assert "RZD" in tiny_world.providers
        assert tiny_world.directory.get_by_name("mil.ru") is not None
        assert tiny_world.directory.get_by_name("rzd.ru") is not None

    def test_milru_single_slash24(self, tiny_world):
        mod = tiny_world.providers["Russian MoD"]
        assert len(mod.slash24s) == 1
        assert len(mod.nameservers) == 3

    def test_rzd_two_slash24s(self, tiny_world):
        rzd = tiny_world.providers["RZD"]
        assert len(rzd.slash24s) == 2

    def test_link_capacities_only_unicast(self, tiny_world):
        for s24 in tiny_world.link_capacity:
            members = [ns for ns in tiny_world.nameservers_by_ip.values()
                       if ns.nsid.slash24 == s24]
            assert any(ns.anycast is None for ns in members)

    def test_deterministic_build(self, tiny_config):
        a = build_world(tiny_config)
        b = build_world(tiny_config)
        assert sorted(a.nameservers_by_ip) == sorted(b.nameservers_by_ip)
        assert len(a.attacks) == len(b.attacks)
        assert [(x.victim_ip, x.window.start) for x in a.attacks] == \
            [(x.victim_ip, x.window.start) for x in b.attacks]


class TestTransport:
    def test_unknown_ip_dropped(self, tiny_world):
        reply = tiny_world.transport(parse_ip("203.0.113.99"),
                                     DomainName("x.com"), RRType.NS, 0)
        assert not reply.answered

    def test_public_resolver_answers(self, tiny_world):
        reply = tiny_world.transport(parse_ip("8.8.8.8"),
                                     DomainName("x.com"), RRType.NS,
                                     tiny_world.timeline.start)
        assert reply.answered

    def test_dead_target_never_answers(self, tiny_world):
        reply = tiny_world.transport(parse_ip("192.168.12.34"),
                                     DomainName("x.com"), RRType.NS,
                                     tiny_world.timeline.start)
        assert not reply.answered

    def test_quiet_server_answers_fast(self, tiny_world):
        provider = tiny_world.providers["Euskaltel"]
        ns = provider.nameservers[0]
        quiet_ts = parse_ts("2021-03-25 12:00")
        replies = [tiny_world.transport(ns.ip, DomainName("x.com"),
                                        RRType.NS, quiet_ts)
                   for _ in range(50)]
        assert all(r.answered for r in replies)
        mean = sum(r.rtt_ms for r in replies) / len(replies)
        assert mean < ns.base_rtt_ms + 10


class TestLoadModel:
    def test_transip_march_load(self, tiny_world):
        transip = tiny_world.providers["TransIP"]
        a = transip.nameservers[0]
        load = tiny_world.load_at(a, parse_ts("2021-03-01 20:00"))
        # 710 Kpps TCP SYN on a 50 Kpps server: u ~ 14.
        assert 10 < load.server_util < 20
        assert not load.blackout

    def test_quiet_after_attack(self, tiny_world):
        transip = tiny_world.providers["TransIP"]
        a = transip.nameservers[0]
        load = tiny_world.load_at(a, parse_ts("2021-03-20 12:00"))
        assert load.quiet

    def test_anycast_dilution(self, tiny_world):
        # Same attack rate on a mega-anycast NS yields far lower site
        # utilization than on a unicast NS of similar size.
        cloudflare = tiny_world.providers["Cloudflare"]
        ns = cloudflare.nameservers[0]
        share, site_cap = tiny_world._vantage_site[ns.ip]
        assert share < 0.5

    def test_attack_index_day_padding(self, tiny_world):
        transip = tiny_world.providers["TransIP"]
        nsset_ids = tiny_world.directory.nssets_of_ip(transip.nameservers[0].ip)
        for nsset_id in nsset_ids:
            dense = tiny_world.dense_days_of(nsset_id)
            if not dense:
                continue
            attack_day = parse_ts("2021-03-01")
            assert attack_day in dense
            assert attack_day + DAY in dense  # recovery margin


class TestLazyAttackIndex:
    """Everything derived from the schedule is built on first use; it
    must equal what an explicit ``finalize_attacks()`` builds."""

    @staticmethod
    def _samples(world):
        """(ns, ts) pairs across attack windows, recoveries and quiet
        times, for unicast, anycast and /24-neighbour servers."""
        servers = [ns for ns in world.nameservers_by_ip.values()
                   if not ns.is_misconfig_target]
        by_s24 = {}
        for ns in servers:
            by_s24.setdefault(ns.nsid.slash24, []).append(ns)
        out = []
        for attack in world.attacks[::3]:
            ns = world.nameservers_by_ip.get(attack.victim_ip)
            if ns is None or ns.is_misconfig_target:
                continue
            window = attack.impact_window
            for ts in (window.start, (window.start + window.end) // 2,
                       window.end + 600):
                out += [(member, ts) for member in by_s24[ns.nsid.slash24]]
        out += [(ns, parse_ts("2021-03-25 12:00")) for ns in servers[::40]]
        return out

    def test_lazy_equals_explicit(self, tiny_config):
        lazy = build_world(tiny_config)
        eager = build_world(tiny_config)
        eager.finalize_attacks()
        assert not set(_ATTACK_DERIVED) & set(vars(lazy))
        assert set(_ATTACK_DERIVED) <= set(vars(eager))
        # load_at is the first use: it builds the lazy world's index.
        lazy_loads = [lazy.load_at(lazy.nameservers_by_ip[ns.ip], ts)
                      for ns, ts in self._samples(eager)]
        assert lazy_loads == [eager.load_at(ns, ts)
                              for ns, ts in self._samples(eager)]
        assert any(not load.quiet for load in lazy_loads)
        assert lazy._busy_spans == eager._busy_spans
        assert lazy._dense_days == eager._dense_days
        # attack ids come from a process-wide counter: compare in order.
        assert [lazy._attack_weights[a.attack_id] for a in lazy.attacks] == \
            [eager._attack_weights[a.attack_id] for a in eager.attacks]
        assert lazy.link_capacity == eager.link_capacity
        assert lazy._vantage_site == eager._vantage_site

    def test_fleet_views_built_on_first_read(self, tiny_config):
        # A lazy build that never fills these would let
        # test_link_capacities_only_unicast pass on an empty dict.
        world = build_world(tiny_config)
        assert "link_capacity" not in vars(world)
        assert len(world.link_capacity) > 0
        assert "_vantage_site" not in vars(world)
        assert len(world._vantage_site) > 0
        assert "_index" not in vars(world)

    def test_replace_attacks_rebuilds(self, tiny_config):
        world = build_world(tiny_config)
        transip = world.providers["TransIP"].nameservers[0]
        hit = parse_ts("2021-03-01 20:00")
        nsset_id = next(iter(world.directory.nssets_of_ip(transip.ip)))
        assert not world.load_at(transip, hit).quiet
        original = list(world.attacks)

        world.replace_attacks([])
        assert world.load_at(transip, hit).quiet
        assert world.attacks == []
        assert world.dense_days_of(nsset_id) == frozenset()

        world.replace_attacks(original)
        assert not world.load_at(transip, hit).quiet
        assert parse_ts("2021-03-01") in world.dense_days_of(nsset_id)

    def test_replace_attacks_rebuilds_busy_spans(self, tiny_config):
        from bisect import bisect_right

        world = build_world(tiny_config)
        transip = world.providers["TransIP"].nameservers[0]
        hit = parse_ts("2021-03-01 20:00")
        nsset_id = next(iter(world.directory.nssets_of_ip(transip.ip)))
        spans = world.busy_spans_of(nsset_id)
        assert bisect_right(spans, hit) % 2 == 1
        original = list(world.attacks)

        world.replace_attacks([])
        assert world.busy_spans_of(nsset_id) == ()

        world.replace_attacks(original)
        assert world.busy_spans_of(nsset_id) == spans


class TestAttackIndex:
    def _index(self, attacks, tracked=()):
        index = AttackIndex(tracked)
        for attack in attacks:
            index.add(attack)
        index.freeze()
        return index

    def test_active_on_ip(self):
        from repro.attacks.model import Attack, AttackVector
        from repro.util.timeutil import Window

        attack = Attack(victim_ip=1, window=Window(1000, 2000),
                        vectors=[AttackVector.udp_flood(53, 10.0)])
        index = self._index([attack])
        assert index.active_on_ip(1, 1500) == [attack]
        assert index.active_on_ip(1, 2500) == []
        assert index.active_on_ip(2, 1500) == []

    def test_overlapping_attacks(self):
        from repro.attacks.model import Attack, AttackVector
        from repro.util.timeutil import Window

        a1 = Attack(victim_ip=1, window=Window(0, 5000),
                    vectors=[AttackVector.udp_flood(53, 10.0)])
        a2 = Attack(victim_ip=1, window=Window(1000, 2000),
                    vectors=[AttackVector.udp_flood(80, 10.0)])
        index = self._index([a1, a2])
        assert set(id(a) for a in index.active_on_ip(1, 1500)) == \
            {id(a1), id(a2)}
        assert index.active_on_ip(1, 3000) == [a1]

    def test_slash24_tracking(self):
        from repro.attacks.model import Attack, AttackVector
        from repro.util.timeutil import Window

        attack = Attack(victim_ip=0x0A000005, window=Window(0, 100),
                        vectors=[AttackVector.udp_flood(53, 10.0)])
        tracked = self._index([attack], tracked={0x0A000000})
        assert tracked.active_on_s24(0x0A000000, 50) == [attack]
        untracked = self._index([attack])
        assert untracked.active_on_s24(0x0A000000, 50) == []

    def test_frozen_rejects_add(self):
        index = self._index([])
        from repro.attacks.model import Attack, AttackVector
        from repro.util.timeutil import Window

        with pytest.raises(RuntimeError):
            index.add(Attack(victim_ip=1, window=Window(0, 1),
                             vectors=[AttackVector.udp_flood(53, 1.0)]))
