"""Measurement record schema.

A :class:`Measurement` is one resolution of one domain's NS RRset: the
timestamp the worker issued it, the domain and its NSSet, the outcome
status, and the round-trip time to *complete* the query — including
retransmission timeouts burned on unresponsive servers, which is what
makes RTT the paper's impact signal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.rcode import ResponseStatus


@dataclass(frozen=True)
class Measurement:
    """One domain resolution outcome."""

    ts: int
    domain_id: int
    nsset_id: int
    status: ResponseStatus
    rtt_ms: float
    n_attempts: int = 1

    def __post_init__(self) -> None:
        if self.rtt_ms < 0:
            raise ValueError("rtt must be non-negative")
        if self.n_attempts < 1:
            raise ValueError("n_attempts must be >= 1")

    @property
    def ok(self) -> bool:
        return self.status is ResponseStatus.OK
