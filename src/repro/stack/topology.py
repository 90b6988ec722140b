"""The canonical Ruru stage topology — the one place the dataflow
shape is declared.

Everything cross-cutting is *derived* from this table rather than
hand-listed per assembly:

* the graceful-drain order (:meth:`repro.stack.RuruStack.drain`
  traverses stages in declaration order);
* the checkpoint payload (each stage contributes its ``state_dict``
  fragment in declaration order);
* the registered crash points
  (:data:`repro.faults.crashpoints.CRASH_POINTS` is built from
  :func:`crash_points` below);
* the per-batch processing order (``process_batch`` traverses the
  same list).

This module is deliberately dependency-free — it imports nothing from
the rest of :mod:`repro` — so the fault registry can derive its crash
point table without importing any component code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class StageSpec:
    """One node of the stage graph.

    Attributes:
        name: unique stage name (also the progress/drain label prefix).
        description: what the stage is, for docs and reports.
        upstream: names of the stages this one consumes from.
        crash_points: ``(point, description)`` pairs for the process
            boundaries this stage owns — the kill -9 surface of the
            durable runtime.
    """

    name: str
    description: str
    upstream: Tuple[str, ...] = ()
    crash_points: Tuple[Tuple[str, str], ...] = ()


#: The pipeline graph of the paper's Fig. 2, in dataflow order. The
#: declaration order *is* the processing order and the drain order;
#: anomaly/topk/frontend/telemetry all tap the enriched stream, and
#: tsdb/checkpoint close the durable tail.
TOPOLOGY: Tuple[StageSpec, ...] = (
    StageSpec(
        name="overload",
        # A control stage, not a dataflow stage: it ticks the
        # backpressure loop (watermark sensors -> degradation ladder)
        # before the batch enters the NIC, so admission decisions for
        # this batch reflect last batch's pressure. It owns no crash
        # points — its state rides the normal checkpoint payload.
        description="closed-loop overload controller: pressure sensing + shed ladder",
    ),
    StageSpec(
        name="nic",
        description="DPDK NIC: symmetric RSS into per-queue rx rings",
        crash_points=(
            ("nic.rx", "before a packet batch is offered to the NIC"),
        ),
    ),
    StageSpec(
        name="workers",
        description="per-queue lcore workers: parse + handshake latency",
        upstream=("nic",),
        crash_points=(
            ("worker.poll", "between worker poll rounds, rings partially drained"),
        ),
    ),
    StageSpec(
        name="mq",
        description="ZeroMQ-style PUSH/PULL bus carrying latency records",
        upstream=("workers",),
        crash_points=(
            ("mq.publish", "after workers drained, records in flight on the bus"),
        ),
    ),
    StageSpec(
        name="analytics",
        description="enrichment worker pool + TSDB/frontend fan-out",
        upstream=("mq",),
        crash_points=(
            ("analytics.ingest", "mid-drain of the analytics PULL queue"),
        ),
    ),
    StageSpec(
        name="anomaly",
        description="anomaly detectors riding the enriched stream",
        upstream=("analytics",),
    ),
    StageSpec(
        name="topk",
        description="heavy-hitter sketch riding the enriched stream",
        upstream=("analytics",),
    ),
    StageSpec(
        name="frontend",
        description="enriched SUB feed toward the live map",
        upstream=("analytics",),
    ),
    StageSpec(
        name="telemetry",
        description="self-monitoring registry, stage timing and exporter",
        upstream=("analytics",),
    ),
    StageSpec(
        name="tsdb",
        description="measurement store behind the WAL and fault wrappers",
        upstream=("analytics",),
        crash_points=(
            ("tsdb.wal.pre", "write accepted, before the WAL append"),
            ("tsdb.wal.post", "WAL appended, before the store applied the batch"),
            ("tsdb.applied", "store applied the batch, WAL and store agree"),
        ),
    ),
    StageSpec(
        name="checkpoint",
        description="periodic atomic snapshots of every stateful stage",
        upstream=("tsdb",),
        crash_points=(
            ("checkpoint.pre", "checkpoint due, nothing written yet"),
            ("checkpoint.mid", "mid-checkpoint-write: a torn file at the final path"),
            ("checkpoint.post", "checkpoint written, nothing done since"),
        ),
    ),
)

#: Protocol-level crash points that belong to a graph *traversal*
#: rather than any single stage. ``drain.mid`` sits between flush-mq
#: and flush-analytics in the graceful drain.
PROTOCOL_POINTS: Tuple[Tuple[str, str], ...] = (
    ("drain.mid", "graceful drain interrupted between stages"),
)


def stage_names() -> Tuple[str, ...]:
    """Every stage name, in dataflow (= drain = checkpoint) order."""
    return tuple(spec.name for spec in TOPOLOGY)


def get_spec(name: str) -> StageSpec:
    """Look one stage up by name."""
    for spec in TOPOLOGY:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown stage {name!r}; known: {', '.join(stage_names())}")


def crash_points() -> Dict[str, str]:
    """The registered crash-point table, derived from the topology.

    Stage-owned points come out in stage declaration order, followed by
    the traversal-protocol points — which is exactly the historical
    hand-maintained ordering of ``repro.faults.crashpoints``.
    """
    points: Dict[str, str] = {}
    for spec in TOPOLOGY:
        for point, description in spec.crash_points:
            if point in points:
                raise ValueError(f"crash point {point!r} declared twice")
            points[point] = description
    for point, description in PROTOCOL_POINTS:
        if point in points:
            raise ValueError(f"crash point {point!r} declared twice")
        points[point] = description
    return points


def validate() -> None:
    """Structural sanity: unique names, upstream edges resolve, edges
    point backwards (the declaration order is a topological order)."""
    seen: Dict[str, int] = {}
    for index, spec in enumerate(TOPOLOGY):
        if spec.name in seen:
            raise ValueError(f"stage {spec.name!r} declared twice")
        seen[spec.name] = index
        for upstream in spec.upstream:
            if upstream not in seen:
                raise ValueError(
                    f"stage {spec.name!r} consumes {upstream!r}, which is "
                    f"not declared before it"
                )


validate()
