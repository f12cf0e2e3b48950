"""Resource record types.

Every measurement in the study is an explicit NS query;
:class:`RRType` names the query type a measurement carries.
"""

from __future__ import annotations

import enum


class RRType(enum.IntEnum):
    """Resource record types the substrate models."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    TXT = 16
    AAAA = 28

    def __str__(self) -> str:
        return self.name
