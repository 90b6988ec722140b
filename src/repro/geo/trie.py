"""Binary radix trie for longest-prefix matching.

The AS database (BGP-table shaped) needs LPM: a /24 announcement must
win over the covering /16. A path-compressed binary trie gives O(W)
lookups (W = address width) independent of table size.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, List, Optional, Tuple, TypeVar

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("zero", "one", "value", "has_value")

    def __init__(self):
        self.zero: Optional["_Node[V]"] = None
        self.one: Optional["_Node[V]"] = None
        self.value: Optional[V] = None
        self.has_value = False


class RadixTrie(Generic[V]):
    """LPM trie over fixed-width integer keys.

    Args:
        width: address width in bits (32 for IPv4, 128 for IPv6).
    """

    def __init__(self, width: int = 32):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self._root: _Node[V] = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _check_prefix(self, prefix: int, prefix_len: int) -> None:
        if not 0 <= prefix_len <= self.width:
            raise ValueError(f"prefix length {prefix_len} out of [0, {self.width}]")
        if prefix >> self.width:
            raise ValueError(f"prefix wider than {self.width} bits")
        host_bits = self.width - prefix_len
        if host_bits and prefix & ((1 << host_bits) - 1):
            raise ValueError("prefix has bits set below the prefix length")

    def insert(self, prefix: int, prefix_len: int, value: V) -> None:
        """Insert or replace the value at *prefix*/*prefix_len*."""
        self._check_prefix(prefix, prefix_len)
        node = self._root
        for depth in range(prefix_len):
            bit = (prefix >> (self.width - 1 - depth)) & 1
            if bit:
                if node.one is None:
                    node.one = _Node()
                node = node.one
            else:
                if node.zero is None:
                    node.zero = _Node()
                node = node.zero
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def lookup(self, address: int) -> Optional[V]:
        """Longest-prefix match for *address*; None if nothing covers it."""
        if address >> self.width:
            raise ValueError(f"address wider than {self.width} bits")
        node = self._root
        best: Optional[V] = node.value if node.has_value else None
        for depth in range(self.width):
            bit = (address >> (self.width - 1 - depth)) & 1
            node = node.one if bit else node.zero
            if node is None:
                break
            if node.has_value:
                best = node.value
        return best

    def lookup_exact(self, prefix: int, prefix_len: int) -> Optional[V]:
        """Value stored at exactly *prefix*/*prefix_len*, or None."""
        self._check_prefix(prefix, prefix_len)
        node = self._root
        for depth in range(prefix_len):
            bit = (prefix >> (self.width - 1 - depth)) & 1
            node = node.one if bit else node.zero
            if node is None:
                return None
        return node.value if node.has_value else None

    def items(self) -> Iterator[Tuple[int, int, V]]:
        """Iterate (prefix, prefix_len, value) in DFS order."""
        stack: List[Tuple[_Node[V], int, int]] = [(self._root, 0, 0)]
        while stack:
            node, prefix, depth = stack.pop()
            if node.has_value:
                yield (prefix << (self.width - depth), depth, node.value)  # type: ignore[misc]
            if node.one is not None:
                stack.append((node.one, (prefix << 1) | 1, depth + 1))
            if node.zero is not None:
                stack.append((node.zero, prefix << 1, depth + 1))

    def ranges(self) -> Iterator[Tuple[int, int, V]]:
        """The trie flattened: disjoint ``(first, last, value)`` rows in
        address order, each carrying what :meth:`lookup` returns for
        every address in it — the longest prefix wins by construction.
        Space no prefix covers is absent."""
        stack: List[Tuple[Optional[_Node[V]], int, int, bool, Optional[V]]] = [
            (self._root, 0, 0, False, None)
        ]
        while stack:
            node, prefix, depth, covered, best = stack.pop()
            if node is not None and node.has_value:
                covered, best = True, node.value
            if node is None or (node.zero is None and node.one is None):
                if covered:
                    host_bits = self.width - depth
                    first = prefix << host_bits
                    yield (first, first | ((1 << host_bits) - 1), best)  # type: ignore[misc]
                continue
            stack.append((node.one, (prefix << 1) | 1, depth + 1, covered, best))
            stack.append((node.zero, prefix << 1, depth + 1, covered, best))
