"""``repro.shard`` — the RX-queue workers as real OS processes.

The paper's deployment runs RSS queues on "different DPDK processing
threads … on separate CPU cores"; this package makes those boundaries
real OS processes, so a crash — or a stall — is *contained* instead of
fatal. The placement is fixed, not derived: the parent keeps the RSS
router and the books, RX queue *i*'s worker is forked child
``shard-i``, and the edge between them is a pair of pipes
(:mod:`~repro.shard.transport`) carrying length-prefixed frames
(:mod:`~repro.shard.wire`); latency records come back to the parent
with each batch's ack and go to the caller's record sink.

There is one mode. Dispatch is lock-step, so every count follows the
round counter and replays exactly; liveness follows the heartbeat lease
(:mod:`~repro.shard.heartbeat`), which every blocking wait on a shard
sits under. Around that: kill-then-reap supervision with restart
budgets (:mod:`~repro.shard.supervisor`), a restart from what the
parent already holds — the shard's last checkpoint reply plus one delta
of its acked counts, nothing on disk — reroute/shed policies during
down windows, and a global conservation ledger the drain proves exactly
(:mod:`~repro.shard.runtime`).
"""

from __future__ import annotations

from repro.shard.heartbeat import FailureDetector, HeartbeatError
from repro.shard.runtime import (
    SHED_POLICIES,
    ShardRunReport,
    ShardedRuntime,
)
from repro.shard.supervisor import (
    SHARD_DOWN,
    SHARD_DRAINED,
    SHARD_FAILED,
    SHARD_UP,
    ShardHandle,
    ShardSupervisor,
)
from repro.shard.transport import (
    FdPair,
    Transport,
    TransportClosed,
    TransportError,
    pipe_pair,
)
from repro.shard.wire import FrameDecodeError, StreamDecoder
from repro.shard.worker import ShardBooks

__all__ = [
    "FailureDetector",
    "FdPair",
    "FrameDecodeError",
    "HeartbeatError",
    "SHARD_DOWN",
    "SHARD_DRAINED",
    "SHARD_FAILED",
    "SHARD_UP",
    "SHED_POLICIES",
    "ShardBooks",
    "ShardHandle",
    "ShardRunReport",
    "ShardSupervisor",
    "ShardedRuntime",
    "StreamDecoder",
    "Transport",
    "TransportClosed",
    "TransportError",
    "pipe_pair",
]
