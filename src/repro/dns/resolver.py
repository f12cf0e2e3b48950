"""The unbound-like *agnostic* stub resolver.

OpenINTEL resolves through unbound configured to pick a random
authoritative nameserver for the first query of each registered domain
(paper §3.2). That agnostic behaviour is what makes the paper's
measurements representative of an empty-cache end user: when a random
pick lands on a dead server the resolver eats a retransmission timeout
before trying another, inflating the observed resolution time — the very
signal Figures 2/8 are built on.

The resolver here reproduces that mechanism: uniform random server
selection without immediate repeats, a fixed retransmission schedule,
and accounting of the *total* elapsed resolution time across attempts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.dns.name import DomainName
from repro.dns.rcode import Rcode, ResponseStatus
from repro.dns.rr import RRType
from repro.dns.server import ServerReply

# A transport resolves (ns_ip, qname, qtype, epoch_seconds) -> ServerReply.
# The simulated world provides one that knows about attack load; tests
# provide scripted ones.
Transport = Callable[[int, DomainName, RRType, float], ServerReply]


# OpenINTEL's one retransmission ladder (unbound-style): the first
# attempt's timer doubles after each timeout up to ``MAX_TIMEOUT_MS``,
# and ``DEADLINE_MS`` is the overall client budget (the workers cap
# resolution time). The timers fit the budget, so one timer firing
# never overruns it.
ATTEMPT_TIMEOUT_MS = 1500.0
MAX_TIMEOUT_MS = 6000.0
DEADLINE_MS = 15000.0
#: datagrams sent before the client gives up and reports TIMEOUT.
MAX_ATTEMPTS = 6


@dataclass
class ResolutionResult:
    """The end-to-end outcome of resolving one query.

    ``rtt_ms`` is the total wall-clock the client spent, including
    timeouts burned on unresponsive servers — this matches OpenINTEL's
    recorded round-trip-to-complete-the-query.
    """

    status: ResponseStatus
    rtt_ms: float


class AgnosticResolver:
    """Stub resolver with uniform random nameserver selection.

    Parameters
    ----------
    transport:
        Callable that delivers a single query datagram to a nameserver
        IP and reports the observed :class:`ServerReply`.
    rng:
        ``random.Random`` used for server selection (seeded per
        measurement platform for reproducibility).
    max_attempts:
        Datagrams sent before giving up (at least one).
    """

    def __init__(self, transport: Transport, rng,
                 max_attempts: int = MAX_ATTEMPTS):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.transport = transport
        self.rng = rng
        self.max_attempts = max_attempts

    def _pick(self, servers: Sequence[int], last: Optional[int]) -> int:
        """Uniform random pick, avoiding the immediately-previous server
        when an alternative exists (unbound demotes a timed-out server)."""
        if len(servers) == 1:
            return servers[0]
        while True:
            choice = self.rng.choice(servers)
            if choice != last:
                return choice

    def resolve(self, qname, qtype: RRType, servers: Sequence[int],
                when: float) -> ResolutionResult:
        """Resolve ``qname``/``qtype`` against an NSSet of server IPs.

        ``when`` is the epoch-seconds instant the first datagram leaves;
        subsequent attempts advance it by the elapsed timeouts so the
        world model sees queries at the correct instants during an
        evolving attack.
        """
        qname = DomainName(qname)
        if not servers:
            return ResolutionResult(ResponseStatus.NETWORK_ERROR, 0.0)
        elapsed = 0.0
        timeout = ATTEMPT_TIMEOUT_MS
        last: Optional[int] = None
        servfails = 0
        for _ in range(self.max_attempts):
            ns_ip = self._pick(servers, last)
            last = ns_ip
            reply = self.transport(ns_ip, qname, qtype, when + elapsed / 1000.0)
            if reply.answered and reply.rtt_ms <= timeout:
                cost = reply.rtt_ms
            else:
                # Dropped, or the response arrived after the timer fired:
                # the client burns the full timeout either way.
                cost = timeout
            remaining = DEADLINE_MS - elapsed
            if cost > remaining:
                # Deadline exhausted. If an authoritative answered with
                # SERVFAIL along the way, that is the resolver's verdict
                # (unbound reports SERVFAIL, not timeout, in this case).
                elapsed = DEADLINE_MS
                status = (ResponseStatus.SERVFAIL if servfails
                          else ResponseStatus.TIMEOUT)
                return ResolutionResult(status, elapsed)
            elapsed += cost
            if reply.answered and reply.rtt_ms <= timeout:
                if reply.rcode == Rcode.NOERROR:
                    return ResolutionResult(ResponseStatus.OK, elapsed)
                if reply.rcode == Rcode.NXDOMAIN:
                    return ResolutionResult(ResponseStatus.NXDOMAIN, elapsed)
                if reply.rcode in (Rcode.SERVFAIL, Rcode.REFUSED):
                    servfails += 1  # and try another server
            else:
                timeout = min(timeout * 2, MAX_TIMEOUT_MS)
        status = ResponseStatus.SERVFAIL if servfails else ResponseStatus.TIMEOUT
        return ResolutionResult(status, elapsed)
