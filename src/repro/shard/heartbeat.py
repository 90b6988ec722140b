"""Shard heartbeats and the lease that judges them.

Every shard child emits a small heartbeat message on a wall-clock
cadence, stamped with ``time.monotonic_ns()``. On Linux that clock is
``CLOCK_MONOTONIC``, which is system-wide — the parent can subtract
the child's send stamp from its own receive stamp and get a real
one-way control-plane latency, no clock sync protocol needed.

The :class:`FailureDetector` is the classic lease: a shard that has
not been heard from within ``deadline_ns`` is declared down. A dead
process is caught sooner, by the EOF on its pipe; the lease is for the
one that is alive but *stuck* (stopped, deadlocked, swapping) — its
pipes stay open, so nothing else would ever notice. It is the only
stall detector the sharded runtime has: every blocking wait on a shard
is a wait under its lease.
"""

from __future__ import annotations

import struct
import time
from typing import Dict, List, Optional

from repro.mq.frames import Message

HEARTBEAT_TOPIC = b"hb"
#: How often a shard child says it is alive.
HEARTBEAT_INTERVAL_NS = 25_000_000  # 25 ms
#: The lease, in missed heartbeats: a live shard silent for this many
#: intervals (2 s) is killed and declared ``heartbeat-deadline``. Long
#: enough that a loaded host's scheduler cannot fake a stall, short
#: enough that a real one costs the run two seconds and one batch.
LEASE_HEARTBEATS = 80
_HEARTBEAT = struct.Struct("!IQQ")  # shard_id, seq, sent_mono_ns


class HeartbeatError(ValueError):
    """A heartbeat frame failed to parse."""


def encode_heartbeat(shard_id: int, seq: int, now_ns: Optional[int] = None) -> Message:
    """One heartbeat message, stamped with the monotonic clock."""
    sent_ns = time.monotonic_ns() if now_ns is None else now_ns
    return Message.with_topic(
        HEARTBEAT_TOPIC, _HEARTBEAT.pack(shard_id, seq, sent_ns)
    )


def decode_heartbeat(message: Message):
    """``(shard_id, seq, sent_mono_ns)`` from a heartbeat message."""
    if message.topic != HEARTBEAT_TOPIC:
        raise HeartbeatError(f"not a heartbeat: topic {message.topic!r}")
    if len(message.frames) != 2 or len(message.frames[1]) != _HEARTBEAT.size:
        raise HeartbeatError("malformed heartbeat payload")
    return _HEARTBEAT.unpack(message.frames[1])


class FailureDetector:
    """Deadline-based liveness over observed heartbeats.

    Args:
        deadline_ns: silence longer than this declares a shard down.
    """

    def __init__(self, deadline_ns: int):
        if deadline_ns <= 0:
            raise ValueError("deadline_ns must be positive")
        self.deadline_ns = deadline_ns
        self._last_seen_ns: Dict[int, int] = {}
        self._last_latency_ns: Dict[int, int] = {}
        self.heartbeats_observed = 0

    def watch(self, shard_id: int, now_ns: Optional[int] = None) -> None:
        """Start (or reset) the lease for a shard — called at spawn, so
        a shard that never says hello still expires one deadline later."""
        self._last_seen_ns[shard_id] = (
            time.monotonic_ns() if now_ns is None else now_ns
        )

    def observe(
        self,
        shard_id: int,
        sent_ns: int,
        received_ns: Optional[int] = None,
    ) -> int:
        """Record one heartbeat; returns the control-plane latency (ns)."""
        now_ns = time.monotonic_ns() if received_ns is None else received_ns
        self._last_seen_ns[shard_id] = now_ns
        latency = max(0, now_ns - sent_ns)
        self._last_latency_ns[shard_id] = latency
        self.heartbeats_observed += 1
        return latency

    def forget(self, shard_id: int) -> None:
        """Stop watching (the shard was declared down or drained)."""
        self._last_seen_ns.pop(shard_id, None)

    def expired(self, now_ns: Optional[int] = None) -> List[int]:
        """Shards whose lease has lapsed, in shard-id order."""
        now = time.monotonic_ns() if now_ns is None else now_ns
        return sorted(
            shard_id
            for shard_id, seen in self._last_seen_ns.items()
            if now - seen > self.deadline_ns
        )

    def last_latency_ns(self, shard_id: int) -> Optional[int]:
        return self._last_latency_ns.get(shard_id)
