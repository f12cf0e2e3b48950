"""DNS response codes and OpenINTEL-style response statuses.

The wire protocol carries an RCODE; OpenINTEL's stored records use a
coarser *status* that also covers network-level outcomes (a timeout has
no RCODE because no response arrived). Both appear in the paper: §6.3.1
reports failures split 92% TIMEOUT / 8% SERVFAIL.
"""

from __future__ import annotations

import enum


class Rcode(enum.IntEnum):
    """RFC 1035/2136 response codes (the subset we use)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5

    def __str__(self) -> str:
        return self.name


class ResponseStatus(enum.Enum):
    """Measurement-level outcome of a resolution attempt.

    ``OK`` and ``SERVFAIL`` map onto RCODEs; ``TIMEOUT`` means every
    retransmission went unanswered; ``NETWORK_ERROR`` covers ICMP
    unreachable and similar transport failures.
    """

    OK = "ok"
    SERVFAIL = "servfail"
    NXDOMAIN = "nxdomain"
    TIMEOUT = "timeout"
    REFUSED = "refused"
    NETWORK_ERROR = "network_error"

    def __str__(self) -> str:
        return self.name
