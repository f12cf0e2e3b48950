"""Tests for providers, deployment profiles, and the domain population."""

import random
from math import exp, lgamma, log

import pytest

from repro.net.ip import slash24_of
from repro.topology.generator import generate_topology
from repro.world.domains import (
    MISCONFIG_FRACTION,
    MisconfigTarget,
    NSSetRegistry,
    build_population,
)
from repro.world.hosting import (
    DeploymentProfile,
    ProfileKind,
    build_analog_providers,
    build_filler_providers,
    build_provider,
    build_selfhosted_providers,
)


@pytest.fixture(scope="module")
def gen():
    return generate_topology(random.Random(4))


@pytest.fixture(scope="module")
def providers(gen):
    rng = random.Random(5)
    out = build_analog_providers(gen, rng)
    out += build_filler_providers(gen, rng, 10)
    out += build_selfhosted_providers(gen, rng, 15)
    return out


class TestDeploymentProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeploymentProfile(ProfileKind.SELF_HOSTED, n_nameservers=0,
                              n_prefixes=1)
        with pytest.raises(ValueError):
            DeploymentProfile(ProfileKind.SELF_HOSTED, n_nameservers=2,
                              n_prefixes=3)
        with pytest.raises(ValueError):
            DeploymentProfile(ProfileKind.SELF_HOSTED, n_nameservers=2,
                              n_prefixes=2, n_asns=3)

    def test_anycast_flags(self):
        full = DeploymentProfile(ProfileKind.MEGA_ANYCAST, n_nameservers=2,
                                 n_prefixes=2, anycast_sites=10, anycast_ns=2)
        assert full.is_anycast and not full.is_partial_anycast
        partial = DeploymentProfile(ProfileKind.PARTIAL_ANYCAST,
                                    n_nameservers=3, n_prefixes=3,
                                    anycast_sites=5, anycast_ns=1)
        assert partial.is_partial_anycast and not partial.is_anycast


class TestBuildProvider:
    def test_transip_shape(self, providers):
        transip = next(p for p in providers if p.name == "TransIP")
        # Paper §5.1.1: three unicast NS, three /24s, one ASN.
        assert len(transip.nameservers) == 3
        assert len(transip.slash24s) == 3
        assert len(set(transip.asns)) == 1
        assert all(ns.anycast is None for ns in transip.nameservers)

    def test_mega_anycast_shape(self, providers):
        cloudflare = next(p for p in providers if p.name == "Cloudflare")
        assert all(ns.anycast is not None for ns in cloudflare.nameservers)
        assert len(cloudflare.nameservers[0].anycast.sites) == 30

    def test_partial_anycast_mixed(self, providers):
        ovh = next(p for p in providers if p.name == "OVH")
        kinds = [ns.anycast is not None for ns in ovh.nameservers]
        assert any(kinds) and not all(kinds)

    def test_ns_ips_unique_across_providers(self, providers):
        ips = [ip for p in providers for ip in p.ns_ips]
        assert len(ips) == len(set(ips))

    def test_ns_ips_inside_provider_asn(self, gen, providers):
        for provider in providers[:10]:
            for ns in provider.nameservers:
                assert gen.internet.origin_asn(ns.ip) in provider.asns

    def test_prefix_spread(self, providers):
        # A multi-prefix provider's nameservers occupy distinct /24s.
        hetzner = next(p for p in providers if p.name == "Hetzner")
        s24s = {slash24_of(ns.ip) for ns in hetzner.nameservers}
        assert len(s24s) == hetzner.profile.n_prefixes

    def test_selfhosted_single_prefix(self, providers):
        selfhost = [p for p in providers if p.name.startswith("SelfHost")]
        assert selfhost
        for provider in selfhost:
            assert len(provider.slash24s) == 1

    def test_nameserver_rtt_reflects_country(self, providers):
        transip = next(p for p in providers if p.name == "TransIP")   # NL
        linode = next(p for p in providers if p.name == "Linode")     # US
        nl_rtt = transip.nameservers[0].base_rtt_ms
        us_rtt = min(ns.base_rtt_ms for ns in linode.nameservers
                     if ns.anycast is None)
        assert nl_rtt < us_rtt

    def test_slug(self, providers):
        nforce = next(p for p in providers if p.name == "NForce B.V.")
        assert nforce.slug == "nforce-b-v"

    def test_rejects_insufficient_ases(self, gen):
        profile = DeploymentProfile(ProfileKind.SELF_HOSTED, n_nameservers=2,
                                    n_prefixes=2, n_asns=2)
        asys = gen.filler_as[0]
        with pytest.raises(ValueError):
            build_provider(gen.internet, random.Random(1), "X",
                           asys.org, [asys], profile, 1.0)


class TestNSSetRegistry:
    def test_interning(self):
        registry = NSSetRegistry()
        a = registry.intern([3, 1, 2])
        b = registry.intern((1, 2, 3))
        assert a == b
        assert registry.ips_of(a) == (1, 2, 3)

    def test_deduplicates_ips(self):
        registry = NSSetRegistry()
        nsset_id = registry.intern([1, 1, 2])
        assert registry.ips_of(nsset_id) == (1, 2)

    def test_distinct_sets_distinct_ids(self):
        registry = NSSetRegistry()
        assert registry.intern([1]) != registry.intern([2])
        assert len(registry) == 2


def _binomial_window(n, p, tail):
    """The smallest ``(lo, hi)`` with at most ``tail`` of Binomial(n, p)
    below ``lo`` and at most ``tail`` above ``hi``."""
    def pmf(k):
        return exp(lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
                   + k * log(p) + (n - k) * log(1 - p))

    lo, below = 0, pmf(0)
    while below <= tail:
        lo += 1
        below += pmf(lo)
    hi, above = n, pmf(n)
    while above <= tail:
        hi -= 1
        above += pmf(hi)
    return lo, hi


class TestBuildPopulation:
    @pytest.fixture(scope="class")
    def directory(self, providers):
        targets = [MisconfigTarget(ip=0x08080808, label="google-dns", weight=1.0)]
        return build_population(
            random.Random(6), providers, 3000, targets,
            secondary_pool=("nic.ru", "GoDaddy"))

    def test_population_size(self, directory):
        assert len(directory) == 3000

    def test_unique_names(self, directory):
        names = [d.name for d in directory.domains]
        assert len(names) == len(set(names))

    def test_zipf_concentration(self, directory):
        # The biggest provider hosts far more than the median one.
        from collections import Counter
        counts = Counter(d.provider_name for d in directory.domains)
        ordered = sorted(counts.values(), reverse=True)
        assert ordered[0] > 10 * ordered[len(ordered) // 2]

    def test_misconfig_fraction(self, directory):
        misconfig = [d for d in directory.domains if d.misconfig]
        lo, hi = _binomial_window(3000, MISCONFIG_FRACTION, tail=1e-5)
        assert lo <= len(misconfig) <= hi
        for record in misconfig:
            assert record.delegation.nameserver_ips == (0x08080808,)

    def test_multi_provider_nssets(self, directory):
        multi = [d for d in directory.domains if d.secondary_provider]
        assert multi
        for record in multi[:20]:
            assert record.secondary_provider != record.provider_name
            # Secondary adds nameservers beyond the primary's.
            assert len(record.delegation.nameserver_ips) > 2

    def test_transip_nl_concentration(self, directory):
        transip = [d for d in directory.domains
                   if d.provider_name == "TransIP" and not d.misconfig]
        if len(transip) >= 20:
            nl = sum(1 for d in transip if d.tld == "nl")
            assert nl / len(transip) > 0.4  # configured 0.66 +- noise

    def test_third_party_web_only_transip(self, directory):
        flagged = {d.provider_name for d in directory.domains
                   if d.third_party_web}
        assert flagged <= {"TransIP"}

    def test_indexes_consistent(self, directory):
        for record in directory.domains[:200]:
            for ip in record.delegation.nameserver_ips:
                assert record.domain_id in directory.domains_of_ip(ip)
            assert record.domain_id in directory.domains_of_nsset(record.nsset_id)

    def test_nssets_of_ip(self, directory):
        record = next(d for d in directory.domains if not d.misconfig)
        ip = record.delegation.nameserver_ips[0]
        assert record.nsset_id in directory.nssets_of_ip(ip)

    def test_get_by_name(self, directory):
        record = directory.domains[0]
        assert directory.get_by_name(str(record.name)) is record
        assert directory.get_by_name("nonexistent.example") is None

    def test_duplicate_add_rejected(self, directory, providers):
        record = directory.domains[0]
        with pytest.raises(ValueError):
            directory.add(record.name, providers[0], record.delegation)

    def test_nsset_sizes(self, directory):
        assert sum(len(directory.domains_of_nsset(nsset_id))
                   for nsset_id, _ in directory.nssets.items()) == len(directory)
