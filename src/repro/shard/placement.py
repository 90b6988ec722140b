"""Process placement derived from the stage-graph topology.

The stage graph (:mod:`repro.stack.topology`) already derives drain
order, checkpoint payload and crash points from one declared table.
Placement is the same move for *process boundaries*: walk the
topology, decide which OS process hosts each stage, and turn every
edge that crosses a process boundary into a wire transport.

The derivation mirrors the paper's deployment: the NIC (RSS fan-out)
stays in the parent — it *is* the router — each ``workers`` replica
gets its own process (the paper's "different DPDK processing threads
… on separate CPU cores", here made real OS processes so a crash is
contained), and the ``mq`` stage is not a process at all but the edge
between them: the MQ frame codec carried over a pipe or socketpair.
The analytics tier and everything downstream of it is not assembled:
a sharded run hands its latency records to the caller's sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.stack.topology import stage_names

#: Stages that always stay in the parent: admission control and the
#: RSS router cannot move — they are what fans traffic *out* to shards.
PARENT_STAGES = ("overload", "nic")

#: The stage replicated one-per-shard.
SHARDED_STAGE = "workers"

#: The stage realized as wire transports rather than a process.
EDGE_STAGE = "mq"


class PlacementError(ValueError):
    """The requested placement cannot be derived from the topology."""


@dataclass(frozen=True)
class ProcessSpec:
    """One OS process and the stages it hosts.

    ``shard_id`` is None for the parent; worker shards carry the RX
    queue they own (queue id == shard id, preserving the NIC's RSS
    indirection semantics).
    """

    name: str
    stages: Tuple[str, ...]
    shard_id: Optional[int] = None
    queue_id: Optional[int] = None


@dataclass(frozen=True)
class EdgeSpec:
    """One topology edge that crosses a process boundary."""

    source: str
    target: str
    stage: str  # the topology stage this edge realizes (always "mq")


@dataclass(frozen=True)
class ShardPlan:
    """The derived placement: who runs what, and over which wires."""

    parent: ProcessSpec
    shards: Tuple[ProcessSpec, ...]
    edges: Tuple[EdgeSpec, ...]

    def describe(self) -> str:
        """Human-readable placement table (docs and ``--describe``)."""
        lines = [
            f"process {self.parent.name}: {', '.join(self.parent.stages)}"
        ]
        for spec in self.shards:
            queue = (
                f" (rx queue {spec.queue_id})" if spec.queue_id is not None else ""
            )
            lines.append(
                f"process {spec.name}{queue}: {', '.join(spec.stages)}"
            )
        for edge in self.edges:
            lines.append(
                f"edge {edge.source} -> {edge.target}: stage "
                f"{edge.stage!r} over wire framing"
            )
        return "\n".join(lines)


def derive_placement(num_shards: int) -> ShardPlan:
    """Place the declared topology across *num_shards* worker shard
    processes, one per RX queue."""
    if num_shards < 1:
        raise PlacementError("num_shards must be at least 1")
    names = stage_names()
    for required in (*PARENT_STAGES, SHARDED_STAGE, EDGE_STAGE):
        if required not in names:
            raise PlacementError(
                f"topology has no {required!r} stage to place"
            )
    parent = ProcessSpec(
        name="parent",
        stages=tuple(name for name in names if name in PARENT_STAGES),
    )
    shards = tuple(
        ProcessSpec(
            name=f"shard-{shard_id}",
            stages=(SHARDED_STAGE,),
            shard_id=shard_id,
            queue_id=shard_id,
        )
        for shard_id in range(num_shards)
    )
    edges = tuple(
        EdgeSpec(source="parent", target=spec.name, stage=EDGE_STAGE)
        for spec in shards
    )
    return ShardPlan(parent=parent, shards=shards, edges=edges)
