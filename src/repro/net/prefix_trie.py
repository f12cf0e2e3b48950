"""Binary radix (Patricia-style) trie for longest-prefix matching.

Backs the prefix2AS dataset lookups (mapping an attacked IP to its
origin AS) exactly as CAIDA's RouteViews-derived dataset is used in the
paper. Supports insert, exact lookup, longest-prefix match, and covered
enumeration.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.ip import IPV4_BITS, coerce_ip, network_of

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Maps CIDR prefixes to values with longest-prefix-match semantics.

    >>> trie = PrefixTrie()
    >>> trie.insert("10.0.0.0/8", "corp")
    >>> trie.insert("10.1.0.0/16", "lab")
    >>> trie.longest_match("10.1.2.3")
    (('10.1.0.0/16' network int, 16), 'lab')  # doctest: +SKIP
    """

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @staticmethod
    def _key(prefix) -> Tuple[int, int]:
        """Accept an IPv4Prefix, an ``(int, len)`` pair, or a CIDR string."""
        if isinstance(prefix, tuple):
            network, length = prefix
            return network_of(coerce_ip(network), length), int(length)
        if isinstance(prefix, str):
            from repro.net.ip import parse_prefix

            return parse_prefix(prefix)
        return prefix.network, prefix.length

    def _find(self, network: int, length: int) -> Optional[_Node[V]]:
        """The node at ``network/length``, or None if it was never made."""
        node = self._root
        shift = IPV4_BITS - 1
        for i in range(length):
            node = node.children[(network >> (shift - i)) & 1]
            if node is None:
                return None
        return node

    def insert(self, prefix, value: V) -> None:
        """Insert or replace the value at ``prefix``."""
        network, length = self._key(prefix)
        node = self._root
        shift = IPV4_BITS - 1
        for i in range(length):
            children = node.children
            bit = (network >> (shift - i)) & 1
            node = children[bit]
            if node is None:
                node = children[bit] = _Node()
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def exact(self, prefix) -> Optional[V]:
        """Value stored exactly at ``prefix``, or None."""
        node = self._find(*self._key(prefix))
        return node.value if node is not None and node.has_value else None

    def longest_match(self, ip) -> Optional[Tuple[Tuple[int, int], V]]:
        """Longest-prefix match for an address.

        Returns ``((network, length), value)`` of the most specific
        covering prefix, or None when nothing covers the address.
        """
        addr = coerce_ip(ip)
        node = self._root
        best: Optional[_Node[V]] = node if node.has_value else None
        best_length = 0  # 0 with a value at the root: the default route
        shift = IPV4_BITS - 1
        for depth in range(IPV4_BITS):
            node = node.children[(addr >> (shift - depth)) & 1]
            if node is None:
                break
            if node.has_value:
                best, best_length = node, depth + 1
        if best is None:
            return None
        return (network_of(addr, best_length), best_length), best.value

    def lookup(self, ip) -> Optional[V]:
        """Just the value of the longest match (the common call)."""
        match = self.longest_match(ip)
        return match[1] if match else None

    def covered(self, prefix) -> Iterator[Tuple[Tuple[int, int], V]]:
        """All stored prefixes equal to or more specific than ``prefix``."""
        network, length = self._key(prefix)
        node = self._find(network, length)
        if node is not None:
            yield from self._walk(node, network, length)

    @staticmethod
    def _walk(node: _Node[V], network: int, length: int
              ) -> Iterator[Tuple[Tuple[int, int], V]]:
        """Stored prefixes at and below ``node``, in address order."""
        stack = [(node, network, length)]
        while stack:
            node, network, length = stack.pop()
            if node.has_value:
                yield (network, length), node.value
            zero, one = node.children
            if one is not None:  # pushed first, so walked after zero
                stack.append((one, network | (1 << (IPV4_BITS - 1 - length)),
                              length + 1))
            if zero is not None:
                stack.append((zero, network, length + 1))

    def copy(self) -> "PrefixTrie[V]":
        """An independent trie holding the same prefixes and values."""
        clone: PrefixTrie[V] = PrefixTrie()
        clone._size = self._size
        stack = [(self._root, clone._root)]
        while stack:
            node, twin = stack.pop()
            twin.value, twin.has_value = node.value, node.has_value
            for bit, child in enumerate(node.children):
                if child is not None:
                    twin.children[bit] = _Node()
                    stack.append((child, twin.children[bit]))
        return clone

    def items(self) -> Iterator[Tuple[Tuple[int, int], V]]:
        """All (prefix, value) pairs in the trie, in address order."""
        return self._walk(self._root, 0, 0)
