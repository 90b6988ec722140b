"""Exponential backoff with deterministic jitter, on virtual time.

Nothing here sleeps. The pipeline is single-threaded and cooperative,
so "retry later" means *schedule against the virtual clock and flush
when the caller next polls with time advanced past the deadline*.
Jitter comes from a seeded :class:`random.Random`, so two runs with
the same seed back off identically — the property the chaos harness's
determinism check rests on.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

NS_PER_MS = 1_000_000


class RetryPolicy:
    """Backoff schedule: ``base * multiplier**(attempt-1)``, jittered.

    Args:
        max_attempts: attempts before the caller should give up (the
            first try counts as attempt 1).
        base_delay_ns: delay after the first failure.
        multiplier: exponential growth factor per attempt.
        max_delay_ns: backoff ceiling.
        jitter: fraction of the computed delay randomized away (0.1 =
            the delay lands uniformly in [0.9d, 1.1d]).
        seed: jitter RNG seed; same seed, same schedule.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay_ns: int = 10 * NS_PER_MS,
        multiplier: float = 2.0,
        max_delay_ns: int = 1_000_000_000,
        jitter: float = 0.1,
        seed: int = 0,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if base_delay_ns <= 0:
            raise ValueError("base_delay_ns must be positive")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.max_attempts = max_attempts
        self.base_delay_ns = base_delay_ns
        self.multiplier = multiplier
        self.max_delay_ns = max_delay_ns
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay_ns(self, attempt: int) -> int:
        """Backoff before retry number *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        delay = self.base_delay_ns * (self.multiplier ** (attempt - 1))
        delay = min(delay, self.max_delay_ns)
        if self.jitter:
            spread = delay * self.jitter
            delay += self._rng.uniform(-spread, spread)
        return max(1, int(delay))

    def exhausted(self, attempt: int) -> bool:
        """True once *attempt* exceeds the retry budget."""
        return attempt >= self.max_attempts

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the jitter RNG so a restored run continues the
        exact backoff schedule the seed promised."""
        return {"rng": self._rng.getstate()}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._rng.setstate(state["rng"])


class RetryQueue:
    """Bounded queue of work waiting out its backoff.

    Items are opaque to the queue; callers push ``(item, attempt)``
    pairs and pull back the ones whose deadline has passed. The bound
    matters: an outage longer than the buffer must shed load visibly
    (the evicted items are returned so the caller can count them)
    rather than grow without limit.
    """

    def __init__(self, policy: RetryPolicy, max_pending: int = 1024):
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.policy = policy
        self.max_pending = max_pending
        self._pending: Deque[Tuple[int, int, Any]] = deque()  # (due_ns, attempt, item)
        self.scheduled = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._pending)

    def schedule(self, item: Any, now_ns: int, attempt: int) -> Optional[Any]:
        """Queue *item* for retry; returns an evicted item when full."""
        evicted = None
        if len(self._pending) >= self.max_pending:
            _, _, evicted = self._pending.popleft()
            self.evicted += 1
        due_ns = now_ns + self.policy.delay_ns(attempt)
        self._pending.append((due_ns, attempt, item))
        self.scheduled += 1
        return evicted

    def due(self, now_ns: int) -> List[Tuple[Any, int]]:
        """Pop every item whose backoff deadline has passed.

        Returns ``(item, attempt)`` pairs; *attempt* is the count of
        tries already made, so the next try is ``attempt + 1``.
        """
        ready: List[Tuple[Any, int]] = []
        remaining: Deque[Tuple[int, int, Any]] = deque()
        for due_ns, attempt, item in self._pending:
            if due_ns <= now_ns:
                ready.append((item, attempt))
            else:
                remaining.append((due_ns, attempt, item))
        self._pending = remaining
        return ready

    def drain(self) -> List[Tuple[Any, int]]:
        """Pop everything regardless of deadline (end of a run)."""
        ready = [(item, attempt) for _, attempt, item in self._pending]
        self._pending.clear()
        return ready

    # -- durability --------------------------------------------------------

    def state_dict(self, encode_item=None) -> dict:
        """Snapshot the pending entries and counters.

        Args:
            encode_item: maps each opaque item to plain snapshot data
                (identity when None — items must already be plain).
        """
        encode = encode_item or (lambda item: item)
        return {
            "max_pending": self.max_pending,
            "scheduled": self.scheduled,
            "evicted": self.evicted,
            "pending": [
                [due_ns, attempt, encode(item)]
                for due_ns, attempt, item in self._pending
            ],
        }

    def load_state(self, state: dict, decode_item=None) -> None:
        """Restore a :meth:`state_dict` snapshot (inverse encoder)."""
        decode = decode_item or (lambda item: item)
        self.max_pending = int(state["max_pending"])
        self.scheduled = int(state["scheduled"])
        self.evicted = int(state["evicted"])
        self._pending = deque(
            (int(due_ns), int(attempt), decode(item))
            for due_ns, attempt, item in state["pending"]
        )
