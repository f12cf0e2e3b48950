"""Tests for the agnostic resolver — the mechanism behind the paper's
RTT-inflation signal."""

import random

import pytest

from repro.dns.name import DomainName
from repro.dns.rcode import ResponseStatus
from repro.dns.resolver import AgnosticResolver, ResolverConfig
from repro.dns.rr import RRType
from repro.dns.server import ServerReply

NS_A, NS_B, NS_C = 0x0A000001, 0x0A000002, 0x0A000003


def make_resolver(transport, seed=1, **config_kwargs):
    return AgnosticResolver(transport, random.Random(seed),
                            ResolverConfig(**config_kwargs))


def scripted(replies):
    """Transport answering per-server from a dict of reply factories."""
    def transport(ns_ip, qname, qtype, ts):
        entry = replies[ns_ip]
        return entry() if callable(entry) else entry
    return transport


class TestHappyPath:
    def test_single_healthy_server(self):
        resolver = make_resolver(scripted({NS_A: ServerReply.ok(20.0)}))
        result = resolver.resolve("example.com", RRType.NS, [NS_A], when=0)
        assert result.status is ResponseStatus.OK
        assert result.rtt_ms == pytest.approx(20.0)
        assert result.n_attempts == 1
        assert result.attempts[0].ns_ip == NS_A

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
            result = resolver.resolve("example.com", RRType.NS,
                                      [NS_A, NS_B], when=0)
            assert result.status is ResponseStatus.OK
            if result.n_attempts == 2:
                saw_retry = True
                # Total time = one burned timeout + the answer RTT.
                assert result.rtt_ms == pytest.approx(1500.0 + 15.0)
        assert saw_retry

    def test_no_immediate_repeat_of_timed_out_server(self):
        replies = {NS_A: ServerReply.dropped(), NS_B: ServerReply.ok(10.0)}
        resolver = make_resolver(scripted(replies), seed=7)
        for _ in range(30):
            result = resolver.resolve("example.com", RRType.NS,
                                      [NS_A, NS_B], when=0)
            ips = [o.ns_ip for o in result.attempts]
            for prev, nxt in zip(ips, ips[1:]):
                assert prev != nxt

    def test_all_dead_is_timeout_at_deadline(self):
        resolver = make_resolver(scripted({NS_A: ServerReply.dropped(),
                                           NS_B: ServerReply.dropped()}))
        result = resolver.resolve("example.com", RRType.NS,
                                  [NS_A, NS_B], when=0)
        assert result.status is ResponseStatus.TIMEOUT
        assert result.rtt_ms <= 15000.0
        assert not any(o.reply.answered for o in result.attempts)

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
            result = resolver.resolve("example.com", RRType.NS,
                                      [NS_A, NS_B], when=0)
            assert result.status is ResponseStatus.OK
            # Whenever NS_A was tried first, the client burned 1500 ms.
            if result.n_attempts > 1:
                assert result.rtt_ms >= 1500.0

    def test_max_attempts_respected(self):
        resolver = make_resolver(scripted({NS_A: ServerReply.dropped()}),
                                 max_attempts=3, deadline_ms=100000.0)
        result = resolver.resolve("example.com", RRType.NS, [NS_A], when=0)
        assert result.n_attempts == 3


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

    def test_terminal_servfail_config(self):
        resolver = make_resolver(scripted({NS_A: ServerReply.servfail(5.0)}),
                                 servfail_is_terminal=True)
        result = resolver.resolve("example.com", RRType.NS, [NS_A], when=0)
        assert result.status is ResponseStatus.SERVFAIL
        assert result.n_attempts == 1


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
    def test_rejects_bad_timeouts(self):
        with pytest.raises(ValueError):
            ResolverConfig(attempt_timeout_ms=0)
        with pytest.raises(ValueError):
            ResolverConfig(attempt_timeout_ms=100, max_timeout_ms=50)

    def test_rejects_bad_attempts(self):
        with pytest.raises(ValueError):
            ResolverConfig(max_attempts=0)

    def test_rejects_bad_deadline(self):
        with pytest.raises(ValueError):
            ResolverConfig(deadline_ms=0)


class TestDeadlineClamping:
    """The attempt timers must never be allowed to overrun the overall
    client budget (the bug: a deadline below the default 1500 ms attempt
    timeout let one timer firing blow past the deadline)."""

    def test_attempt_timeout_clamped_to_deadline(self):
        config = ResolverConfig(deadline_ms=1000.0, attempt_timeout_ms=1500.0)
        assert config.attempt_timeout_ms == 1000.0
        assert config.max_timeout_ms == 1000.0

    def test_max_timeout_clamped_to_deadline(self):
        config = ResolverConfig(deadline_ms=4000.0)
        assert config.attempt_timeout_ms == 1500.0  # already within budget
        assert config.max_timeout_ms == 4000.0

    def test_no_clamp_when_within_budget(self):
        config = ResolverConfig()
        assert config.attempt_timeout_ms == 1500.0
        assert config.max_timeout_ms == 6000.0

    def test_resolve_never_exceeds_tight_deadline(self):
        resolver = make_resolver(scripted({NS_A: ServerReply.dropped(),
                                           NS_B: ServerReply.dropped()}),
                                 deadline_ms=1000.0)
        result = resolver.resolve("example.com", RRType.NS,
                                  [NS_A, NS_B], when=0)
        assert result.status is ResponseStatus.TIMEOUT
        assert result.rtt_ms <= 1000.0

    def test_slow_answer_within_clamped_timer_still_wins(self):
        # 800 ms answer fits the clamped 1000 ms timer; without the
        # clamp a 1500 ms timer would also accept it, but a dropped
        # first attempt would have burned 1500 of the 1000 ms budget.
        resolver = make_resolver(scripted({NS_A: ServerReply.ok(800.0)}),
                                 deadline_ms=1000.0)
        result = resolver.resolve("example.com", RRType.NS, [NS_A], when=0)
        assert result.status is ResponseStatus.OK
        assert result.rtt_ms == pytest.approx(800.0)


class TestRetransmissionEdgeCases:
    def test_backoff_caps_at_max_timeout(self):
        times = []

        def transport(ns_ip, qname, qtype, ts):
            times.append(ts)
            return ServerReply.dropped()

        resolver = make_resolver(transport, max_timeout_ms=3000.0,
                                 deadline_ms=100000.0, max_attempts=6)
        resolver.resolve("example.com", RRType.NS, [NS_A, NS_B], when=0)
        deltas = [round(b - a, 1) for a, b in zip(times, times[1:])]
        # 1.5 doubles once to 3.0 then stays capped there.
        assert deltas == [1.5, 3.0, 3.0, 3.0, 3.0]

    def test_deadline_expiry_mid_attempt_truncates_elapsed(self):
        # Deadline 2000 ms: the first burned timeout costs 1500, the
        # second timer (3000 ms) overruns the remaining 500 — the client
        # gives up at exactly the deadline, not at 4500.
        resolver = make_resolver(scripted({NS_A: ServerReply.dropped(),
                                           NS_B: ServerReply.dropped()}),
                                 deadline_ms=2000.0)
        result = resolver.resolve("example.com", RRType.NS,
                                  [NS_A, NS_B], when=0)
        assert result.status is ResponseStatus.TIMEOUT
        assert result.rtt_ms == pytest.approx(2000.0)
        # The final truncated attempt is recorded as a drop.
        assert not result.attempts[-1].reply.answered

    def test_servfail_seen_before_deadline_expiry_wins_verdict(self):
        # One server SERVFAILs fast, the other is dead: when the budget
        # runs out the resolver reports SERVFAIL (unbound's verdict),
        # not TIMEOUT.
        resolver = make_resolver(scripted({NS_A: ServerReply.servfail(5.0),
                                           NS_B: ServerReply.dropped()}),
                                 seed=6, deadline_ms=3000.0)
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
        assert result.n_attempts == 3


class TestResolutionResult:
    def test_attempts_end_at_the_answering_server(self):
        replies = {NS_A: ServerReply.dropped(), NS_B: ServerReply.dropped(),
                   NS_C: ServerReply.ok(10.0)}
        resolver = make_resolver(scripted(replies), seed=5)
        result = resolver.resolve("example.com", RRType.NS,
                                  [NS_A, NS_B, NS_C], when=0)
        assert result.attempts[-1].ns_ip == NS_C
        assert {o.ns_ip for o in result.attempts[:-1]} <= {NS_A, NS_B}

    def test_qname_normalized(self):
        resolver = make_resolver(scripted({NS_A: ServerReply.ok(1.0)}))
        result = resolver.resolve("EXAMPLE.com", RRType.NS, [NS_A], when=0)
        assert result.qname == DomainName("example.com")
