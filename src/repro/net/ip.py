"""Int-backed IPv4 addresses and the prefix type.

Addresses are stored as plain 32-bit unsigned integers, parsed and
formatted by the module-level helpers; ``IPv4Prefix`` is a thin,
hashable wrapper over a (network, length) pair.
"""

from __future__ import annotations

from typing import Tuple, Union

IPV4_BITS = 32
IPV4_SPACE = 1 << IPV4_BITS  # 2**32

IPLike = Union[int, str]


def parse_ip(text: str) -> int:
    """Parse dotted-quad notation into an int. Strict: exactly four
    decimal octets, no leading-zero ambiguity beyond plain ints."""
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part or not part.isdigit() or len(part) > 3:
            raise ValueError(f"invalid IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"invalid IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


def ip_to_str(value: int) -> str:
    """Format a 32-bit int as dotted-quad."""
    if not 0 <= value < IPV4_SPACE:
        raise ValueError(f"IPv4 int out of range: {value}")
    return f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def coerce_ip(value: IPLike) -> int:
    """Accept an int or a dotted-quad string; return int."""
    if isinstance(value, int):
        if not 0 <= value < IPV4_SPACE:
            raise ValueError(f"IPv4 int out of range: {value}")
        return value
    return parse_ip(value)


def mask_of(length: int) -> int:
    """Netmask int for a prefix length."""
    if not 0 <= length <= IPV4_BITS:
        raise ValueError(f"invalid prefix length: {length}")
    if length == 0:
        return 0
    return ((1 << length) - 1) << (IPV4_BITS - length)


def network_of(ip: int, length: int) -> int:
    """Network base address of ``ip`` at prefix length ``length``."""
    return ip & mask_of(length)


def slash24_of(ip: int) -> int:
    """Base address of the /24 containing ``ip`` (the paper's aggregation
    granularity for prefix diversity and the anycast census match)."""
    return ip & 0xFFFFFF00


def parse_prefix(text: str) -> Tuple[int, int]:
    """Parse ``a.b.c.d/len`` into a canonical (network, length) pair."""
    if "/" not in text:
        raise ValueError(f"prefix must contain '/': {text!r}")
    ip_part, _, len_part = text.partition("/")
    if not len_part.isdigit():
        raise ValueError(f"invalid prefix length in {text!r}")
    length = int(len_part)
    base = network_of(parse_ip(ip_part), length)
    return base, length


class IPv4Prefix:
    """A CIDR prefix, canonicalized so the host bits are zero."""

    __slots__ = ("network", "length")

    def __init__(self, network: IPLike, length: int):
        base = coerce_ip(network)
        if not 0 <= length <= IPV4_BITS:
            raise ValueError(f"invalid prefix length: {length}")
        canonical = network_of(base, length)
        if canonical != base:
            raise ValueError(
                f"{ip_to_str(base)}/{length} has host bits set; "
                f"did you mean {ip_to_str(canonical)}/{length}?")
        object.__setattr__(self, "network", canonical)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IPv4Prefix is immutable")

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        base, length = parse_prefix(text)
        return cls(base, length)

    @property
    def mask(self) -> int:
        return mask_of(self.length)

    @property
    def num_addresses(self) -> int:
        return 1 << (IPV4_BITS - self.length)

    @property
    def first(self) -> int:
        return self.network

    @property
    def last(self) -> int:
        return self.network | (self.num_addresses - 1)

    def contains_ip(self, ip: IPLike) -> bool:
        return (coerce_ip(ip) & self.mask) == self.network

    def random_ip(self, rng) -> int:
        """A uniformly random address inside the prefix."""
        return self.network | rng.randrange(self.num_addresses)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Prefix):
            return self.network == other.network and self.length == other.length
        return NotImplemented

    def __lt__(self, other: "IPv4Prefix") -> bool:
        return (self.network, self.length) < (other.network, other.length)

    def __hash__(self) -> int:
        return hash((self.network, self.length))

    def __str__(self) -> str:
        return f"{ip_to_str(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"IPv4Prefix.parse({str(self)!r})"

    def __contains__(self, ip: IPLike) -> bool:
        return self.contains_ip(ip)
