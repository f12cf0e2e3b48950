"""Tests for the agnostic resolver — the mechanism behind the paper's
RTT-inflation signal."""

import random

import pytest

from repro.dns.name import DomainName
from repro.dns.rcode import ResponseStatus
from repro.dns import resolver as resolver_module
from repro.dns.resolver import (
    ATTEMPT_TIMEOUT_MS,
    DEADLINE_MS,
    MAX_TIMEOUT_MS,
    AgnosticResolver,
)
from repro.dns.rr import RRType
from repro.dns.server import ServerReply

NS_A, NS_B, NS_C = 0x0A000001, 0x0A000002, 0x0A000003


def make_resolver(transport, seed=1, **kwargs):
    return AgnosticResolver(transport, random.Random(seed), **kwargs)


@pytest.fixture
def timers(monkeypatch):
    """Sets the ladder's module constants for one test:
    ``timers(deadline_ms=1000.0)``."""
    def set_timers(**values):
        for name, value in values.items():
            monkeypatch.setattr(resolver_module, name.upper(), value)
    return set_timers


def scripted(replies):
    """Transport answering per-server from a dict of reply factories;
    ``transport.queried`` lists the servers it was sent to, in order."""
    def transport(ns_ip, qname, qtype, ts):
        transport.queried.append(ns_ip)
        entry = replies[ns_ip]
        return entry() if callable(entry) else entry
    transport.queried = []
    return transport


def resolve_logged(resolver, servers):
    """Resolve once; the result and the servers this resolution queried."""
    queried = resolver.transport.queried
    queried.clear()
    result = resolver.resolve("example.com", RRType.NS, servers, when=0)
    return result, list(queried)


class TestHappyPath:
    def test_single_healthy_server(self):
        resolver = make_resolver(scripted({NS_A: ServerReply.ok(20.0)}))
        result, queried = resolve_logged(resolver, [NS_A])
        assert result.status is ResponseStatus.OK
        assert result.rtt_ms == pytest.approx(20.0)
        assert queried == [NS_A]

    def test_random_selection_covers_all_servers(self):
        counts = {NS_A: 0, NS_B: 0, NS_C: 0}

        def transport(ns_ip, qname, qtype, ts):
            counts[ns_ip] += 1
            return ServerReply.ok(10.0)

        resolver = make_resolver(transport)
        for _ in range(600):
            resolver.resolve("example.com", RRType.NS,
                             [NS_A, NS_B, NS_C], when=0)
        for count in counts.values():
            assert 130 < count < 270  # roughly uniform

    def test_empty_server_list(self):
        resolver = make_resolver(scripted({}))
        result = resolver.resolve("example.com", RRType.NS, [], when=0)
        assert result.status is ResponseStatus.NETWORK_ERROR


class TestRetryBehaviour:
    def test_dead_server_burns_timeout_then_retries(self):
        replies = {NS_A: ServerReply.dropped(), NS_B: ServerReply.ok(15.0)}
        resolver = make_resolver(scripted(replies), seed=3)
        # Force first pick to be the dead server by resolving until we
        # observe a 2-attempt resolution.
        saw_retry = False
        for _ in range(50):
            result, queried = resolve_logged(resolver, [NS_A, NS_B])
            assert result.status is ResponseStatus.OK
            if len(queried) == 2:
                saw_retry = True
                # Total time = one burned timeout + the answer RTT.
                assert result.rtt_ms == pytest.approx(1500.0 + 15.0)
        assert saw_retry

    def test_no_immediate_repeat_of_timed_out_server(self):
        replies = {NS_A: ServerReply.dropped(), NS_B: ServerReply.ok(10.0)}
        resolver = make_resolver(scripted(replies), seed=7)
        for _ in range(30):
            _, ips = resolve_logged(resolver, [NS_A, NS_B])
            for prev, nxt in zip(ips, ips[1:]):
                assert prev != nxt

    def test_all_dead_is_timeout_at_deadline(self):
        resolver = make_resolver(scripted({NS_A: ServerReply.dropped(),
                                           NS_B: ServerReply.dropped()}))
        result = resolver.resolve("example.com", RRType.NS,
                                  [NS_A, NS_B], when=0)
        assert result.status is ResponseStatus.TIMEOUT
        assert result.rtt_ms <= 15000.0

    def test_exponential_backoff(self):
        times = []

        def transport(ns_ip, qname, qtype, ts):
            times.append(ts)
            return ServerReply.dropped()

        resolver = make_resolver(transport)
        resolver.resolve("example.com", RRType.NS, [NS_A, NS_B], when=0)
        # Attempt instants advance by the (doubling) timeouts: 1.5, 3, 6...
        deltas = [round(b - a, 1) for a, b in zip(times, times[1:])]
        assert deltas[0] == pytest.approx(1.5)
        assert deltas[1] == pytest.approx(3.0)
        assert deltas[2] == pytest.approx(6.0)

    def test_slow_reply_beyond_timer_counts_as_timeout(self):
        replies = {NS_A: ServerReply.ok(2000.0), NS_B: ServerReply.ok(10.0)}
        resolver = make_resolver(scripted(replies), seed=2)
        for _ in range(30):
            result, queried = resolve_logged(resolver, [NS_A, NS_B])
            assert result.status is ResponseStatus.OK
            # Whenever NS_A was tried first, the client burned 1500 ms.
            if len(queried) > 1:
                assert result.rtt_ms >= 1500.0

    def test_max_attempts_respected(self, timers):
        timers(deadline_ms=100000.0)
        resolver = make_resolver(scripted({NS_A: ServerReply.dropped()}),
                                 max_attempts=3)
        _, queried = resolve_logged(resolver, [NS_A])
        assert queried == [NS_A] * 3


class TestServfail:
    def test_servfail_retries_other_server(self):
        replies = {NS_A: ServerReply.servfail(5.0), NS_B: ServerReply.ok(10.0)}
        resolver = make_resolver(scripted(replies), seed=4)
        for _ in range(30):
            result = resolver.resolve("example.com", RRType.NS,
                                      [NS_A, NS_B], when=0)
            assert result.status is ResponseStatus.OK

    def test_all_servfail_reports_servfail(self):
        resolver = make_resolver(scripted({NS_A: ServerReply.servfail(5.0),
                                           NS_B: ServerReply.servfail(5.0)}))
        result = resolver.resolve("example.com", RRType.NS,
                                  [NS_A, NS_B], when=0)
        assert result.status is ResponseStatus.SERVFAIL


class TestTimeAccounting:
    def test_transport_sees_advancing_time(self):
        seen = []

        def transport(ns_ip, qname, qtype, ts):
            seen.append(ts)
            return ServerReply.dropped() if len(seen) < 3 else ServerReply.ok(10)

        resolver = make_resolver(transport)
        resolver.resolve("example.com", RRType.NS, [NS_A, NS_B], when=1000.0)
        assert seen[0] == pytest.approx(1000.0)
        assert seen == sorted(seen)

    def test_rtt_includes_all_burned_time(self):
        calls = {"n": 0}

        def transport(ns_ip, qname, qtype, ts):
            calls["n"] += 1
            if calls["n"] <= 2:
                return ServerReply.dropped()
            return ServerReply.ok(25.0)

        resolver = make_resolver(transport)
        result = resolver.resolve("example.com", RRType.NS,
                                  [NS_A, NS_B], when=0)
        assert result.rtt_ms == pytest.approx(1500.0 + 3000.0 + 25.0)


class TestConfigValidation:
    def test_rejects_bad_attempts(self):
        with pytest.raises(ValueError):
            make_resolver(scripted({}), max_attempts=0)


class TestDeadlineClamping:
    """The attempt timers must never overrun the overall client budget:
    a timer firing past the deadline is cut to it."""

    def test_no_clamp_when_within_budget(self):
        # The ladder's timers fit its budget, so none needs cutting.
        assert 0 < ATTEMPT_TIMEOUT_MS <= MAX_TIMEOUT_MS <= DEADLINE_MS

    def test_resolve_never_exceeds_tight_deadline(self, timers):
        timers(deadline_ms=1000.0)
        resolver = make_resolver(scripted({NS_A: ServerReply.dropped(),
                                           NS_B: ServerReply.dropped()}))
        result = resolver.resolve("example.com", RRType.NS,
                                  [NS_A, NS_B], when=0)
        assert result.status is ResponseStatus.TIMEOUT
        assert result.rtt_ms <= 1000.0

    def test_slow_answer_within_clamped_timer_still_wins(self, timers):
        # An 800 ms answer fits both the 1500 ms timer and the 1000 ms
        # budget.
        timers(deadline_ms=1000.0)
        resolver = make_resolver(scripted({NS_A: ServerReply.ok(800.0)}))
        result = resolver.resolve("example.com", RRType.NS, [NS_A], when=0)
        assert result.status is ResponseStatus.OK
        assert result.rtt_ms == pytest.approx(800.0)


class TestRetransmissionEdgeCases:
    def test_backoff_caps_at_max_timeout(self, timers):
        times = []

        def transport(ns_ip, qname, qtype, ts):
            times.append(ts)
            return ServerReply.dropped()

        timers(max_timeout_ms=3000.0, deadline_ms=100000.0)
        resolver = make_resolver(transport, max_attempts=6)
        resolver.resolve("example.com", RRType.NS, [NS_A, NS_B], when=0)
        deltas = [round(b - a, 1) for a, b in zip(times, times[1:])]
        # 1.5 doubles once to 3.0 then stays capped there.
        assert deltas == [1.5, 3.0, 3.0, 3.0, 3.0]

    def test_deadline_expiry_mid_attempt_truncates_elapsed(self, timers):
        # Deadline 2000 ms: the first burned timeout costs 1500, the
        # second timer (3000 ms) overruns the remaining 500 — the client
        # gives up at exactly the deadline, not at 4500.
        timers(deadline_ms=2000.0)
        resolver = make_resolver(scripted({NS_A: ServerReply.dropped(),
                                           NS_B: ServerReply.dropped()}))
        result, queried = resolve_logged(resolver, [NS_A, NS_B])
        assert result.status is ResponseStatus.TIMEOUT
        assert result.rtt_ms == pytest.approx(2000.0)
        # The second datagram went out; its timer was cut short.
        assert len(queried) == 2

    def test_servfail_seen_before_deadline_expiry_wins_verdict(self, timers):
        # One server SERVFAILs fast, the other is dead: when the budget
        # runs out the resolver reports SERVFAIL (unbound's verdict),
        # not TIMEOUT.
        timers(deadline_ms=3000.0)
        resolver = make_resolver(scripted({NS_A: ServerReply.servfail(5.0),
                                           NS_B: ServerReply.dropped()}),
                                 seed=6)
        result = resolver.resolve("example.com", RRType.NS,
                                  [NS_A, NS_B], when=0)
        assert result.status is ResponseStatus.SERVFAIL

    def test_refused_counts_toward_servfail_verdict(self):
        from repro.dns.rcode import Rcode

        resolver = make_resolver(scripted({
            NS_A: ServerReply(rtt_ms=5.0, rcode=Rcode.REFUSED)}))
        result = resolver.resolve("example.com", RRType.NS, [NS_A], when=0)
        assert result.status is ResponseStatus.SERVFAIL

    def test_single_server_is_retried_despite_demotion(self):
        # With one server there is no alternative: the no-immediate-
        # repeat rule must not deadlock the pick loop.
        calls = {"n": 0}

        def transport(ns_ip, qname, qtype, ts):
            calls["n"] += 1
            return ServerReply.dropped() if calls["n"] < 3 else ServerReply.ok(9.0)

        resolver = make_resolver(transport)
        result = resolver.resolve("example.com", RRType.NS, [NS_A], when=0)
        assert result.status is ResponseStatus.OK
        assert calls["n"] == 3


class TestResolutionResult:
    def test_attempts_end_at_the_answering_server(self):
        replies = {NS_A: ServerReply.dropped(), NS_B: ServerReply.dropped(),
                   NS_C: ServerReply.ok(10.0)}
        resolver = make_resolver(scripted(replies), seed=5)
        _, queried = resolve_logged(resolver, [NS_A, NS_B, NS_C])
        assert queried[-1] == NS_C
        assert set(queried[:-1]) <= {NS_A, NS_B}

    def test_qname_normalized(self):
        sent = []

        def transport(ns_ip, qname, qtype, ts):
            sent.append(qname)
            return ServerReply.ok(1.0)

        resolver = make_resolver(transport)
        resolver.resolve("EXAMPLE.com", RRType.NS, [NS_A], when=0)
        assert sent == [DomainName("example.com")]
