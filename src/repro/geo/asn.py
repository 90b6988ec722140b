"""AS-number database: IP → origin AS, via longest-prefix match.

BGP-derived AS data is prefix-shaped (a /24 carve-out must beat the
covering /16), so this database is *built* on the radix trie. It is
*read* the way the geo database is: the first lookup after the last
announcement flattens the trie into sorted disjoint ranges, and a
lookup is one bisect instead of a walk of up to 32 (128) levels.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.geo.trie import RadixTrie


@dataclass(frozen=True)
class AsRecord:
    """One origin AS: number and holder name."""

    asn: int
    name: str


class AsnDatabase:
    """LPM IP→AS lookup (one instance per address family)."""

    def __init__(self, width: int = 32):
        self._trie: RadixTrie[AsRecord] = RadixTrie(width=width)
        # The trie flattened (RadixTrie.ranges): range starts and, beside
        # them, (last, record). None until a lookup needs them.
        self._starts: Optional[List[int]] = None
        self._rows: List[Tuple[int, AsRecord]] = []
        self.lookups = 0
        self.misses = 0

    def add_prefix(self, prefix: int, prefix_len: int, record: AsRecord) -> None:
        """Announce *prefix*/*prefix_len* as originated by *record*."""
        self._trie.insert(prefix, prefix_len, record)
        self._starts = None

    def lookup(self, address: int) -> Optional[AsRecord]:
        """Most-specific covering announcement; None if unannounced."""
        self.lookups += 1
        if self._starts is None:
            ranges = list(self._trie.ranges())
            self._rows = [(last, record) for _, last, record in ranges]
            self._starts = [first for first, _, _ in ranges]
        if address >> self._trie.width:
            raise ValueError(f"address wider than {self._trie.width} bits")
        index = bisect.bisect_right(self._starts, address) - 1
        if index >= 0:
            last, record = self._rows[index]
            if address <= last:
                return record
        self.misses += 1
        return None

    def __len__(self) -> int:
        return len(self._trie)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that matched an announcement."""
        if not self.lookups:
            return 0.0
        return 1.0 - self.misses / self.lookups
