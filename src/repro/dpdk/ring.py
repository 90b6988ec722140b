"""Bounded ring buffers for queue↔worker handoff.

Models ``rte_ring``: fixed capacity, burst enqueue/dequeue, and
watermark stats. Overflow behaviour is explicit — a full ring rejects
the burst remainder and the producer counts drops, exactly the
pressure signal the RSS-scaling bench measures.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, Iterable, List, Optional, TypeVar

T = TypeVar("T")


class RingFull(RuntimeError):
    """Raised by :meth:`Ring.enqueue` when the ring is at capacity."""


class RingEmpty(RuntimeError):
    """Raised by :meth:`Ring.dequeue` when the ring is empty."""


class Ring(Generic[T]):
    """A bounded FIFO with burst operations and occupancy stats.

    ``items`` is the queue itself: the port reads :attr:`free_space`
    once per burst, appends that many rows at most, and books them with
    :meth:`settle_burst`. Everyone else goes through the methods.
    """

    def __init__(self, capacity: int = 1024, name: str = "ring"):
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.items: Deque[T] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.drops = 0
        self.displaced = 0
        self.high_watermark = 0
        self._peak = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def free_space(self) -> int:
        """Slots remaining."""
        return self.capacity - len(self.items)

    @property
    def is_empty(self) -> bool:
        return not self.items

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def enqueue(self, item: T) -> None:
        """Add one item.

        Raises:
            RingFull: at capacity; the drop is counted.
        """
        if len(self.items) >= self.capacity:
            self.drops += 1
            raise RingFull(self.name)
        self.items.append(item)
        self.settle_burst(1)

    def enqueue_burst(self, items: Iterable[T]) -> int:
        """Add as many items as fit; returns how many were accepted.

        Items beyond capacity are dropped and counted, mirroring
        ``rte_ring_enqueue_burst`` semantics.
        """
        accepted = 0
        for item in items:
            if len(self.items) >= self.capacity:
                self.drops += 1
                continue
            self.items.append(item)
            accepted += 1
        self.settle_burst(accepted)
        return accepted

    def settle_burst(self, appended: int) -> None:
        """Book *appended* items already on ``items``. A burst only appends (a
        displacement swaps one row for another): its peak is the depth it leaves."""
        self.enqueued += appended
        depth = len(self.items)
        if depth > self.high_watermark:
            self.high_watermark = depth
        if depth > self._peak:
            self._peak = depth

    def take_peak(self) -> int:
        """Peak occupancy since the last call; resets to current depth.

        The pipeline drains rings to empty at batch boundaries, so an
        instantaneous read is useless as a pressure signal — overload
        sensors read the within-batch peak instead.
        """
        peak = max(self._peak, len(self.items))
        self._peak = len(self.items)
        return peak

    def displace_newest(self, predicate: Callable[[T], bool]) -> Optional[T]:
        """Remove and return the newest queued item matching *predicate*.

        Priority admission under overload: a full ring can evict its
        newest low-priority item to make room for a high-priority one
        (newest, because the oldest is closest to being served).
        Returns None if nothing matches; the caller owns the victim.
        """
        items = self.items
        for index in range(len(items) - 1, -1, -1):
            if predicate(items[index]):
                victim = items[index]
                del items[index]
                self.displaced += 1
                return victim
        return None

    def dequeue(self) -> T:
        """Remove and return one item.

        Raises:
            RingEmpty: nothing queued.
        """
        if not self.items:
            raise RingEmpty(self.name)
        self.dequeued += 1
        return self.items.popleft()

    def dequeue_burst(self, maxitems: int) -> List[T]:
        """Remove up to *maxitems*; empty list when nothing is queued."""
        if maxitems < 0:
            raise ValueError("burst size cannot be negative")
        count = min(maxitems, len(self.items))
        burst = [self.items.popleft() for _ in range(count)]
        self.dequeued += count
        return burst

    def __repr__(self) -> str:
        return (
            f"Ring(name={self.name!r}, capacity={self.capacity}, "
            f"occupancy={len(self.items)}, drops={self.drops})"
        )
