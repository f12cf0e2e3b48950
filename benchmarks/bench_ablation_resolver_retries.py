"""Ablation: how resolver retries shape the paper's observable.

The agnostic resolver's retry-after-timeout behaviour is what converts
partial packet loss into *RTT inflation* and total loss into *timeouts*
(§4.1's impact signal). With retries disabled (one attempt, as a naive
measurement client would do), the same attacks show up as failures
instead of latency — the paper's impact metric would not exist.
"""

import random

from repro.dns.resolver import AgnosticResolver
from repro.dns.rr import RRType
from repro.dns.server import ServerReply
from repro.util.tables import Table, format_pct

NS_SET = (0x0A000001, 0x0A000002, 0x0A000003)
DROP_P = 0.6  # per-attempt loss during a moderate attack
N = 4000


def lossy_transport(rng):
    def transport(ns_ip, qname, qtype, ts):
        if rng.random() < DROP_P:
            return ServerReply.dropped()
        return ServerReply.ok(20.0)
    return transport


def run_resolver(max_attempts: int):
    rng = random.Random(99)
    resolver = AgnosticResolver(lossy_transport(rng), random.Random(7),
                                max_attempts=max_attempts)
    ok_rtts = []
    failures = 0
    for _ in range(N):
        result = resolver.resolve("example.com", RRType.NS, NS_SET, when=0)
        if result.status.name == "OK":
            ok_rtts.append(result.rtt_ms)
        else:
            failures += 1
    mean_rtt = sum(ok_rtts) / len(ok_rtts) if ok_rtts else float("nan")
    return mean_rtt, failures / N


def regenerate():
    return {attempts: run_resolver(attempts) for attempts in (1, 2, 4, 6)}


def test_ablation_resolver_retries(benchmark, emit):
    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    table = Table(["max attempts", "mean answered RTT (ms)",
                   "failure rate", "impact vs 20ms baseline"],
                  title="Ablation - resolver retry budget at 60% per-attempt "
                        "loss (the mechanism behind Equation 1)")
    for attempts, (mean_rtt, failure_rate) in sorted(results.items()):
        table.add_row([attempts, f"{mean_rtt:.0f}",
                       format_pct(failure_rate),
                       f"{mean_rtt / 20.0:.0f}x"])
    emit("ablation_resolver_retries", table.render())

    # One attempt: the loss shows up as failures, not latency.
    assert results[1][1] > 0.45
    assert results[1][0] < 25.0
    # Six attempts (unbound-like; effectively four before the 15 s
    # deadline truncates the backoff ladder): failures collapse to
    # ~p^4 ~= 13% while answered latency inflates enormously — the
    # paper's RTT-impact observable.
    assert results[6][1] < 0.20
    assert results[6][0] > 500.0
    # Monotone: more retries, fewer failures, higher answered RTT.
    failure_rates = [results[a][1] for a in sorted(results)]
    assert failure_rates == sorted(failure_rates, reverse=True)
