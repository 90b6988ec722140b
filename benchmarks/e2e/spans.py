"""Spans recorded from outside the program, and what they add up to.

The traced repeat walks ``stack.graph.stages`` itself — the loop
``StageGraph.process`` runs when no profiler is bound — and records one
span around every ``stage.process``, under one parent span per batch,
plus one span for the drain. For the sharded runtime the spans wrap
``offer`` and ``drain``. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.stack import StageContext

_clock = time.perf_counter_ns

#: Root span names.
BATCH = "batch"
DRAIN = "drain"


class SpanLog:
    """Append-only span store: parallel lists, one slot per span."""

    def __init__(self):
        self.name: List[str] = []
        self.parent: List[Optional[int]] = []
        self.batch_seq: List[int] = []
        self.packets: List[int] = []
        self.start_ns: List[int] = []
        self.end_ns: List[int] = []

    def open(self, name: str, parent: Optional[int], batch_seq: int, packets: int) -> int:
        span_id = len(self.name)
        self.name.append(name)
        self.parent.append(parent)
        self.batch_seq.append(batch_seq)
        self.packets.append(packets)
        self.end_ns.append(0)
        self.start_ns.append(_clock())
        return span_id

    def close(self, span_id: int) -> None:
        self.end_ns[span_id] = _clock()

    def __len__(self) -> int:
        return len(self.name)

    def duration_ns(self, span_id: int) -> int:
        return self.end_ns[span_id] - self.start_ns[span_id]

    def self_ns(self) -> List[int]:
        """Each span's duration minus what its child spans cover."""
        own = [self.duration_ns(span_id) for span_id in range(len(self))]
        for span_id, parent in enumerate(self.parent):
            if parent is not None:
                own[parent] -= self.duration_ns(span_id)
        return own

    def durations_ns(self, name: str) -> List[Tuple[int, int]]:
        """(batch_seq, duration) of every span called *name*."""
        return [
            (self.batch_seq[span_id], self.duration_ns(span_id))
            for span_id, span_name in enumerate(self.name)
            if span_name == name
        ]

    def as_dicts(self) -> List[Dict]:
        return [
            {
                "id": span_id,
                "parent": self.parent[span_id],
                "name": self.name[span_id],
                "batch_seq": self.batch_seq[span_id],
                "start_ns": self.start_ns[span_id],
                "end_ns": self.end_ns[span_id],
                "packets": self.packets[span_id],
            }
            for span_id in range(len(self))
        ]

    def write(self, path: str, **header) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "clock": "perf_counter_ns", "spans": self.as_dicts()}, handle)
            handle.write("\n")


class StackProbe:
    """Counters the traced walk reads between batches (outside spans)."""

    def __init__(self):
        self.peak_flow_entries = 0
        #: batch_seq of every batch whose checkpoint stage wrote a file.
        self.checkpoint_batches: List[int] = []


def span_call(log: SpanLog, name: str, call: Callable) -> Callable:
    """Wrap *call* so every invocation records one root span."""
    seq = 0

    def spanned(*args) -> None:
        nonlocal seq
        span_id = log.open(name, None, seq, len(args[0]) if args else 0)
        call(*args)
        log.close(span_id)
        seq += 1

    return spanned


def staged_offer(stack, log: SpanLog, probe: StackProbe) -> Callable[[list], None]:
    """What ``RuruStack.process_batch`` does, with a span around every
    stage under one root span per batch."""
    stages = list(stack.graph.stages)
    pipeline = stack.pipeline
    checkpointer = stack.checkpointer
    seq = 0

    def now_ns() -> int:
        return stack.now_ns

    def offer(batch: list) -> None:
        nonlocal seq
        packets = len(batch)
        written = checkpointer.checkpoints_written if checkpointer else 0
        root = log.open(BATCH, None, seq, packets)
        # No crash schedule is armed in any benchmarked preset, so the
        # stages' crash-point hook has nothing to reach.
        ctx = StageContext(batch=batch, now_fn=now_ns, reached=None)
        for stage in stages:
            span_id = log.open(stage.name, root, seq, packets)
            stage.process(ctx)
            log.close(span_id)
        log.close(root)
        entries = sum(pipeline.flow_table_occupancy())
        if entries > probe.peak_flow_entries:
            probe.peak_flow_entries = entries
        if checkpointer and checkpointer.checkpoints_written > written:
            probe.checkpoint_batches.append(seq)
        seq += 1

    return offer
