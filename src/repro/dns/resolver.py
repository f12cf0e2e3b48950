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

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.dns.name import DomainName
from repro.dns.rcode import Rcode, ResponseStatus
from repro.dns.rr import RRType
from repro.dns.server import ServerReply

# A transport resolves (ns_ip, qname, qtype, epoch_seconds) -> ServerReply.
# The simulated world provides one that knows about attack load; tests
# provide scripted ones.
Transport = Callable[[int, DomainName, RRType, float], ServerReply]


@dataclass(frozen=True)
class ResolverConfig:
    """Retransmission policy.

    ``attempt_timeout_ms`` doubles after each timeout up to
    ``max_timeout_ms`` (unbound-style exponential backoff);
    ``max_attempts`` bounds the total datagrams sent before the client
    gives up and reports TIMEOUT. ``deadline_ms`` is the overall client
    budget (OpenINTEL's workers cap resolution time).
    """

    attempt_timeout_ms: float = 1500.0
    max_timeout_ms: float = 6000.0
    max_attempts: int = 6
    deadline_ms: float = 15000.0
    servfail_is_terminal: bool = False

    def __post_init__(self) -> None:
        if self.attempt_timeout_ms <= 0 or self.max_timeout_ms < self.attempt_timeout_ms:
            raise ValueError("invalid timeout configuration")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        # A single attempt may never overrun the overall client budget:
        # clamp the retransmission timers into the deadline, so the
        # first timer firing cannot blow past what the worker allows.
        if self.attempt_timeout_ms > self.deadline_ms:
            object.__setattr__(self, "attempt_timeout_ms", float(self.deadline_ms))
        if self.max_timeout_ms > self.deadline_ms:
            object.__setattr__(self, "max_timeout_ms", float(self.deadline_ms))


@dataclass(frozen=True)
class QueryOutcome:
    """One attempt: which server, what happened, how long it took."""

    ns_ip: int
    reply: ServerReply
    elapsed_ms: float


@dataclass
class ResolutionResult:
    """The end-to-end outcome of resolving one (qname, qtype).

    ``rtt_ms`` is the total wall-clock the client spent, including
    timeouts burned on unresponsive servers — this matches OpenINTEL's
    recorded round-trip-to-complete-the-query.
    """

    qname: DomainName
    qtype: RRType
    status: ResponseStatus
    rtt_ms: float
    attempts: List[QueryOutcome] = field(default_factory=list)

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)


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
    config:
        Retransmission policy.
    """

    def __init__(self, transport: Transport, rng, config: Optional[ResolverConfig] = None):
        self.transport = transport
        self.rng = rng
        self.config = config or ResolverConfig()

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
            return ResolutionResult(qname, qtype, ResponseStatus.NETWORK_ERROR, 0.0)
        cfg = self.config
        elapsed = 0.0
        timeout = cfg.attempt_timeout_ms
        attempts: List[QueryOutcome] = []
        last: Optional[int] = None
        servfails = 0
        for _ in range(cfg.max_attempts):
            ns_ip = self._pick(servers, last)
            last = ns_ip
            reply = self.transport(ns_ip, qname, qtype, when + elapsed / 1000.0)
            if reply.answered and reply.rtt_ms <= timeout:
                cost = reply.rtt_ms
            else:
                # Dropped, or the response arrived after the timer fired:
                # the client burns the full timeout either way.
                reply = ServerReply.dropped() if not reply.answered else reply
                cost = timeout
            remaining = cfg.deadline_ms - elapsed
            if cost > remaining:
                # Deadline exhausted. If an authoritative answered with
                # SERVFAIL along the way, that is the resolver's verdict
                # (unbound reports SERVFAIL, not timeout, in this case).
                elapsed = cfg.deadline_ms
                attempts.append(QueryOutcome(ns_ip, ServerReply.dropped(), remaining))
                status = (ResponseStatus.SERVFAIL if servfails
                          else ResponseStatus.TIMEOUT)
                return ResolutionResult(qname, qtype, status, elapsed, attempts)
            elapsed += cost
            attempts.append(QueryOutcome(ns_ip, reply, cost))
            if reply.answered and reply.rtt_ms <= timeout:
                if reply.rcode == Rcode.NOERROR:
                    return ResolutionResult(qname, qtype, ResponseStatus.OK,
                                            elapsed, attempts)
                if reply.rcode == Rcode.NXDOMAIN:
                    return ResolutionResult(qname, qtype, ResponseStatus.NXDOMAIN,
                                            elapsed, attempts)
                if reply.rcode == Rcode.SERVFAIL:
                    servfails += 1
                    if cfg.servfail_is_terminal:
                        return ResolutionResult(qname, qtype, ResponseStatus.SERVFAIL,
                                                elapsed, attempts)
                    # Otherwise fall through and try another server.
                elif reply.rcode == Rcode.REFUSED:
                    servfails += 1
            else:
                timeout = min(timeout * 2, cfg.max_timeout_ms)
        status = ResponseStatus.SERVFAIL if servfails else ResponseStatus.TIMEOUT
        return ResolutionResult(qname, qtype, status, elapsed, attempts)
