"""Heavy-hitter tracking: the Space-Saving algorithm.

"Busiest pairs" on the live map, "top talkers" in the ops view — at
thousands of connections per second the exact answer needs unbounded
memory, and Metwally et al.'s Space-Saving gives the classic bounded
alternative: *m* counters track the top items with guaranteed error
≤ N/m, and any item with true count > N/m is guaranteed present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Hashable, List, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True)
class TopEntry(Generic[K]):
    """One reported heavy hitter.

    ``count`` may overestimate by at most ``error``; the true count is
    within ``[count - error, count]``.
    """

    key: K
    count: int
    error: int


class SpaceSaving(Generic[K]):
    """Bounded top-K counting.

    Args:
        capacity: number of counters (*m*). Error bound is N/m for N
            observed items.
    """

    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._counts: Dict[K, int] = {}
        self._errors: Dict[K, int] = {}
        self.total = 0

    def add(self, key: K, count: int = 1) -> None:
        """Observe *key* (*count* times)."""
        if count <= 0:
            raise ValueError("count must be positive")
        self.total += count
        if key in self._counts:
            self._counts[key] += count
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = count
            self._errors[key] = 0
            return
        # Evict the minimum counter; the newcomer inherits its count
        # as the error bound.
        victim = min(self._counts, key=self._counts.get)  # type: ignore[arg-type]
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[key] = floor + count
        self._errors[key] = floor

    def top(self, k: int = 10) -> List[TopEntry[K]]:
        """The top *k* entries, largest first."""
        if k < 1:
            raise ValueError("k must be positive")
        ordered = sorted(self._counts.items(), key=lambda kv: -kv[1])[:k]
        return [
            TopEntry(key=key, count=count, error=self._errors[key])
            for key, count in ordered
        ]

    def guaranteed_top(self, k: int = 10) -> List[TopEntry[K]]:
        """Entries whose lower bound beats every other upper bound's
        floor — hitters that are top-k for certain, not by estimate."""
        entries = self.top(len(self._counts) or 1)
        if len(entries) <= k:
            return entries
        threshold = entries[k].count  # the (k+1)-th estimate
        return [e for e in entries[:k] if e.count - e.error >= threshold]

    @property
    def error_bound(self) -> float:
        """The algorithm's worst-case overestimate, N/m."""
        return self.total / self.capacity

    def __len__(self) -> int:
        return len(self._counts)

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot every counter and its error bound as a ``(key,
        count, error)`` row; pair keys stay tuples."""
        errors = self._errors
        return {
            "capacity": self.capacity,
            "total": self.total,
            "entries": [
                (key, count, errors[key]) for key, count in self._counts.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.capacity = int(state["capacity"])
        self.total = int(state["total"])
        self._counts = {}
        self._errors = {}
        for key, count, error in state["entries"]:
            self._counts[key] = count
            self._errors[key] = error
