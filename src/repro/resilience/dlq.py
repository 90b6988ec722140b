"""Bounded dead-letter queue for undecodable payloads.

A malformed frame on the message bus is evidence, not garbage: it may
be the first symptom of a codec version skew, a corrupting switch, or
a bug in the publisher. Instead of silently dropping it, the analytics
service parks the raw bytes here with full provenance — which stage
rejected it, why, and when — and ``ruru dlq`` renders the queue for a
human. The queue is bounded (drop-oldest) so a sustained corruption
storm costs memory proportional to the cap, never the outage length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class DeadLetter:
    """One parked payload and its provenance."""

    seq: int
    stage: str
    reason: str
    payload: bytes
    timestamp_ns: int

    def preview(self, width: int = 24) -> str:
        """Hex preview of the payload head, for tables."""
        head = self.payload[:width]
        suffix = ".." if len(self.payload) > width else ""
        return head.hex() + suffix


_letter_row = attrgetter(*DeadLetter.__dataclass_fields__)


class DeadLetterQueue:
    """Drop-oldest bounded queue of :class:`DeadLetter` entries.

    ``total`` counts every letter ever parked (the monotonic series
    behind ``ruru_dlq_total``); ``len()`` is the current depth
    (``ruru_dlq_depth``); ``overflowed`` counts letters that pushed an
    older one out.
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[DeadLetter] = deque()
        self._counts: Dict[Tuple[str, str], int] = {}
        self.total = 0
        self.overflowed = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(
        self, stage: str, reason: str, payload: bytes, timestamp_ns: int
    ) -> DeadLetter:
        """Park one payload; evicts the oldest entry when full."""
        if len(self._entries) >= self.capacity:
            self._entries.popleft()
            self.overflowed += 1
        letter = DeadLetter(
            seq=self.total,
            stage=stage,
            reason=reason,
            payload=bytes(payload),
            timestamp_ns=timestamp_ns,
        )
        self._entries.append(letter)
        self.total += 1
        key = (stage, reason)
        self._counts[key] = self._counts.get(key, 0) + 1
        return letter

    def entries(self, limit: Optional[int] = None) -> List[DeadLetter]:
        """The newest *limit* entries (all when None), oldest first."""
        if limit is None or limit >= len(self._entries):
            return list(self._entries)
        return list(self._entries)[-limit:]

    def summary(self) -> Dict[Tuple[str, str], int]:
        """Lifetime letter counts keyed by (stage, reason)."""
        return dict(self._counts)

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot every parked letter as a ``(seq, stage, reason,
        payload, timestamp_ns)`` row, payload bytes as they are, so the
        evidence survives a crash along with the counters."""
        return {
            "capacity": self.capacity,
            "total": self.total,
            "overflowed": self.overflowed,
            "counts": list(self._counts.items()),
            "entries": list(map(_letter_row, self._entries)),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.capacity = int(state["capacity"])
        self.total = int(state["total"])
        self.overflowed = int(state["overflowed"])
        self._counts = dict(state["counts"])
        self._entries = deque(DeadLetter(*row) for row in state["entries"])

    def format_table(self, limit: int = 20) -> str:
        """Render the queue for ``ruru dlq``."""
        lines = [
            f"dead-letter queue: depth={len(self)} total={self.total} "
            f"overflowed={self.overflowed} capacity={self.capacity}",
        ]
        if self._counts:
            lines.append("by (stage, reason):")
            for (stage, reason), count in sorted(self._counts.items()):
                lines.append(f"  {stage:>12} | {reason:<32} {count:>8}")
        shown = self.entries(limit)
        if shown:
            lines.append(f"newest {len(shown)} entries:")
            lines.append(f"  {'seq':>6} {'t(ms)':>10} {'stage':>12} "
                         f"{'reason':<28} payload")
            for letter in shown:
                lines.append(
                    f"  {letter.seq:>6} {letter.timestamp_ns / 1e6:>10.3f} "
                    f"{letter.stage:>12} {letter.reason[:28]:<28} "
                    f"{len(letter.payload)}B:{letter.preview()}"
                )
        return "\n".join(lines)
