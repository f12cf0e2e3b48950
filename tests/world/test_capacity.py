"""Tests for the load/drop/delay capacity model."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.dns.rcode import Rcode
from repro.net.ports import PORT_DNS, PORT_HTTP, PROTO_TCP, PROTO_UDP
from repro.world.capacity import (
    CapacityModel,
    LoadBreakdown,
    overload_drop,
    queue_delay_ms,
)

UTIL = st.floats(min_value=0, max_value=1000)


class TestOverloadDrop:
    def test_zero_below_headroom(self):
        assert overload_drop(0.5) == 0.0
        assert overload_drop(0.8) == 0.0

    def test_classic_values(self):
        assert overload_drop(1.0) == pytest.approx(0.2)
        assert overload_drop(2.0) == pytest.approx(0.6)
        assert overload_drop(8.0) == pytest.approx(0.9)

    @given(UTIL)
    def test_bounded(self, util):
        p = overload_drop(util)
        assert 0.0 <= p < 1.0

    @given(st.tuples(UTIL, UTIL))
    def test_monotone(self, pair):
        lo, hi = sorted(pair)
        assert overload_drop(lo) <= overload_drop(hi)


class TestQueueDelay:
    def test_negligible_at_low_load(self):
        assert queue_delay_ms(0.0) == 0.0
        assert queue_delay_ms(0.3) < 1.0

    def test_grows_near_saturation(self):
        assert queue_delay_ms(0.95) > queue_delay_ms(0.5) * 5

    def test_capped_above_one(self):
        assert queue_delay_ms(5.0) == queue_delay_ms(1.0)


class TestLoadBreakdown:
    def test_quiet(self):
        assert LoadBreakdown().quiet
        assert not LoadBreakdown(server_util=0.1).quiet
        assert not LoadBreakdown(blackout=True).quiet


class TestServerCost:
    def test_udp_53_is_app_layer(self):
        model = CapacityModel()
        assert model.server_cost_pps(100.0, (PORT_DNS,), PROTO_UDP) == 400.0
        assert model.is_app_layer((PORT_DNS,), PROTO_UDP)

    def test_tcp_53_is_syn_cost(self):
        model = CapacityModel()
        assert model.server_cost_pps(100.0, (PORT_DNS,), PROTO_TCP) == 100.0
        assert not model.is_app_layer((PORT_DNS,), PROTO_TCP)

    def test_other_ports_cheap(self):
        model = CapacityModel()
        assert model.server_cost_pps(100.0, (PORT_HTTP,), PROTO_TCP) == 50.0


class TestSampleReply:
    def _sample_many(self, load, n=4000, seed=1):
        model = CapacityModel()
        rng = random.Random(seed)
        return [model.sample_reply(rng, 20.0, load) for _ in range(n)]

    def test_quiet_always_answers(self):
        replies = self._sample_many(LoadBreakdown(), n=500)
        assert all(r.answered for r in replies)
        assert all(r.rcode == Rcode.NOERROR for r in replies)

    def test_quiet_rtt_near_baseline(self):
        replies = self._sample_many(LoadBreakdown(), n=500)
        mean_rtt = sum(r.rtt_ms for r in replies) / len(replies)
        assert 20.0 < mean_rtt < 25.0

    def test_blackout_drops_everything(self):
        replies = self._sample_many(LoadBreakdown(blackout=True), n=200)
        assert all(not r.answered for r in replies)

    def test_overload_drop_rate(self):
        # u=2 -> p=0.6 at default headroom.
        replies = self._sample_many(LoadBreakdown(server_util=2.0))
        drop_rate = sum(1 for r in replies if not r.answered) / len(replies)
        assert 0.55 < drop_rate < 0.65

    def test_extreme_overload_nearly_dead(self):
        replies = self._sample_many(LoadBreakdown(server_util=400.0))
        # Nearly nothing resolves: the rare answers that do come back
        # are SERVFAILs from the drowning server.
        ok_rate = sum(1 for r in replies
                      if r.answered and r.rcode == Rcode.NOERROR) / len(replies)
        assert ok_rate < 0.01

    def test_servfail_mode_on_app_overload(self):
        load = LoadBreakdown(server_util=3.0, app_util=3.0, link_util=0.1)
        replies = self._sample_many(load)
        servfails = sum(1 for r in replies
                        if r.answered and r.rcode == Rcode.SERVFAIL)
        assert servfails > 0
        # SERVFAIL stays the minority failure mode (paper: 8% of failures).
        drops = sum(1 for r in replies if not r.answered)
        assert servfails < drops

    def test_no_servfail_when_link_saturated(self):
        load = LoadBreakdown(server_util=3.0, app_util=3.0, link_util=5.0)
        replies = self._sample_many(load)
        assert not any(r.answered and r.rcode == Rcode.SERVFAIL
                       for r in replies)

    def test_link_overload_alone_drops(self):
        replies = self._sample_many(LoadBreakdown(link_util=4.0))
        drop_rate = sum(1 for r in replies if not r.answered) / len(replies)
        assert 0.75 < drop_rate < 0.85

