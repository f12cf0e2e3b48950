"""Tests for the scenario calibration helpers.

The Table 6 ladder rests on two inversions: ``expected_retry_burn_s``
(drop probability -> answered-query latency) must match the resolver's
actual behaviour, and ``drop_for_impact`` must invert it.
"""

import random

import pytest

from repro.dns.resolver import AgnosticResolver
from repro.dns.rr import RRType
from repro.dns.server import ServerReply
from repro.world.scenarios import drop_for_impact, expected_retry_burn_s


def measured_burn(p: float, n: int = 15000, base_rtt: float = 10.0) -> float:
    """Empirical mean extra latency of answered queries at loss ``p``."""
    loss_rng = random.Random(11)

    def transport(ns_ip, qname, qtype, ts):
        if loss_rng.random() < p:
            return ServerReply.dropped()
        return ServerReply.ok(base_rtt)

    resolver = AgnosticResolver(transport, random.Random(5))
    total = 0.0
    count = 0
    for _ in range(n):
        result = resolver.resolve("x.com", RRType.NS, [1, 2], when=0)
        if result.status.name == "OK":
            total += result.rtt_ms - base_rtt
            count += 1
    return total / count / 1000.0


class TestExpectedRetryBurn:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7])
    def test_matches_resolver_simulation(self, p):
        predicted = expected_retry_burn_s(p)
        measured = measured_burn(p)
        assert measured == pytest.approx(predicted, abs=0.08, rel=0.05)

    def test_monotone(self):
        values = [expected_retry_burn_s(p / 20) for p in range(19)]
        assert values == sorted(values)

    def test_zero_loss_zero_burn(self):
        assert expected_retry_burn_s(0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            expected_retry_burn_s(1.0)
        with pytest.raises(ValueError):
            expected_retry_burn_s(-0.1)

    def test_saturates_at_ladder_mean(self):
        # As p -> 1 every answered query is a survivor of the full
        # backoff ladder; the answered-conditional mean approaches the
        # unweighted ladder mean (0 + 1.5 + 4.5 + 10.5) / 4.
        assert expected_retry_burn_s(0.94) < 4.125
        assert expected_retry_burn_s(0.94) > 3.5


class TestDropForImpact:
    def test_inverts_burn(self):
        for target in (10.0, 50.0, 150.0, 300.0):
            baseline_ms = 12.0
            p = drop_for_impact(target, baseline_ms)
            achieved = 1.0 + expected_retry_burn_s(p) * 1000.0 / baseline_ms
            assert achieved == pytest.approx(target, rel=0.02)

    def test_monotone_in_target(self):
        ps = [drop_for_impact(t, 10.0) for t in (5, 20, 80, 200)]
        assert ps == sorted(ps)

    def test_monotone_in_baseline(self):
        # A higher baseline needs less loss for the same impact factor...
        assert drop_for_impact(50.0, 50.0) > drop_for_impact(50.0, 5.0)

    def test_trivial_targets(self):
        assert drop_for_impact(1.0, 10.0) == 0.0
        assert drop_for_impact(0.5, 10.0) == 0.0
        assert drop_for_impact(100.0, 0.0) == 0.0

    def test_unreachable_target_saturates(self):
        # 4.125 s max burn / 1 ms baseline ~ 4,126x ceiling.
        assert drop_for_impact(100_000.0, 10.0) == 0.95
