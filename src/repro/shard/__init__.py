"""``repro.shard`` — process placement derived from the stage graph.

The paper's deployment runs RSS queues on "different DPDK processing
threads … on separate CPU cores"; this package makes those boundaries
real OS processes, so a crash is *contained* instead of fatal. The
same declared topology that already derives drain order and crash
points (:mod:`repro.stack.topology`) here derives placement
(:mod:`~repro.shard.placement`): the parent keeps admission control
and the RSS router, each RX queue's worker becomes a forked child,
the ``mq`` stage becomes a real byte-stream transport
(:mod:`~repro.shard.transport` + the length-prefixed
:mod:`~repro.shard.wire` framing); latency records come back to the
parent with each batch's ack and go to the caller's record sink.

Robustness is the point, not the garnish: heartbeat leases with
deadline detection (:mod:`~repro.shard.heartbeat`), SIGKILL-tolerant
supervision with restart budgets (:mod:`~repro.shard.supervisor`),
checkpoint + WAL restore per shard
(:mod:`repro.durability.shardstate`), reroute/shed policies during
down windows, and a global conservation ledger the drain proves
exactly (:mod:`~repro.shard.runtime`).
"""

from __future__ import annotations

from repro.shard.heartbeat import FailureDetector, HeartbeatError
from repro.shard.placement import (
    PlacementError,
    ProcessSpec,
    ShardPlan,
    derive_placement,
)
from repro.shard.runtime import (
    SHED_POLICIES,
    ShardRunReport,
    ShardedRuntime,
)
from repro.shard.supervisor import (
    SHARD_DOWN,
    SHARD_DRAINED,
    SHARD_FAILED,
    SHARD_SUSPECT,
    SHARD_UP,
    ShardHandle,
    ShardSupervisor,
)
from repro.shard.transport import (
    FdPair,
    Transport,
    TransportClosed,
    TransportError,
    loopback_pair,
    make_fd_pair,
)
from repro.shard.wire import FrameDecodeError, StreamDecoder, encode_message
from repro.shard.worker import ShardBooks

__all__ = [
    "FailureDetector",
    "FdPair",
    "FrameDecodeError",
    "HeartbeatError",
    "PlacementError",
    "ProcessSpec",
    "SHARD_DOWN",
    "SHARD_DRAINED",
    "SHARD_FAILED",
    "SHARD_SUSPECT",
    "SHARD_UP",
    "SHED_POLICIES",
    "ShardBooks",
    "ShardHandle",
    "ShardPlan",
    "ShardRunReport",
    "ShardSupervisor",
    "ShardedRuntime",
    "StreamDecoder",
    "Transport",
    "TransportClosed",
    "TransportError",
    "derive_placement",
    "encode_message",
    "loopback_pair",
    "make_fd_pair",
]
