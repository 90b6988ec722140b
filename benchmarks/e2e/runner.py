"""One repeat of one workload: feed, time, verify.

Closed loop: the next batch is offered the moment the previous one
returns, so a slow stack receives less load. Open loop: batch *b* is
offered when its last frame is due on a fixed-rate wire, whatever the
stack is doing, and a measurement's age is counted from when its
handshake's final ACK was due — so the wait for the batch to fill and
any stall the stack imposed on later frames both show.

Only four clock reads and one ``len()`` per batch sit inside the timed
region; matching records to ground truth happens after it.
"""

from __future__ import annotations

import gc
import resource
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from benchmarks.e2e.oracle import Oracle, leaks_address
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.stats import NS_PER_S, due_ns
from benchmarks.e2e.workloads import FEED_BATCH

_clock = time.perf_counter_ns
_cpu = time.process_time_ns


@dataclass
class Repeat:
    packets: int
    records: int
    expected: int
    #: Ground-truth measurements missing or wrong, plus frames dropped.
    failed: int
    #: First offer (closed loop: ``begin``) to the end of ``finish``.
    wall_ns: int
    #: The same wall in pieces: ``begin``, every ``offer``, ``finish``.
    #: Every repeat feeds the same batches to a fresh system, so piece
    #: *b* of one repeat is comparable with piece *b* of the next.
    begin_ns: int
    batch_ns: List[int]
    finish_ns: int
    #: User+sys CPU of this process inside each ``offer``, and the rest:
    #: ``begin``, ``finish`` and the children reaped in the repeat.
    batch_cpu_ns: List[int]
    other_cpu_ns: int
    #: Age of each measurement on arrival at the last tier, keyed by the
    #: capture time of its handshake's final ACK.
    freshness_ns: Dict[int, int]
    #: Open loop: how late each batch was offered.
    lag_ns: List[int] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    #: Traced repeats only: the spans, and the counters read off the
    #: system under test before it was torn down.
    log: Optional[SpanLog] = None
    harvest: Dict[str, float] = field(default_factory=dict)


def _children_cpu_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((usage.ru_utime + usage.ru_stime) * NS_PER_S)


def _wait_until(deadline_ns: int) -> None:
    """Poll the clock, as a DPDK lcore polls its NIC. Sleeping between
    batches hands the vCPU back to a shared host, and what the next
    ``offer`` then costs (cold caches, a migrated thread) is the host's
    doing: it made in-stack CPU the noisiest figure of the open loop."""
    while _clock() < deadline_ns:
        pass


def batch_due_ns(t0_ns: int, batch_index: int, batch_len: int, rate_pps: float) -> int:
    """When an open-loop batch is offered: as its last frame is due."""
    return due_ns(t0_ns, batch_index * FEED_BATCH + batch_len - 1, rate_pps)


def run_repeat(
    target,
    batches: List[list],
    oracle: Oracle,
    rate_pps: Optional[float] = None,
    check_leaks: bool = False,
    log: Optional[SpanLog] = None,
) -> Repeat:
    """Build a fresh system under test, drive *batches* through it, audit.

    With *log*, the target's calls record spans into it (the traced run).
    """
    target.build()
    try:
        if log is not None:
            target.trace(log)
        gc.collect()
        count = len(batches)
        offered = [0] * count
        done = [0] * count
        cpu_before = [0] * count
        cpu_after = [0] * count
        arrived = [0] * count
        delivered = target.delivered
        offer = target.offer
        children_before = _children_cpu_ns()
        cpu_start = _cpu()
        t0_ns = _clock()
        target.begin()
        begun_ns = _clock()
        if rate_pps is not None:
            t0_ns = begun_ns  # the schedule starts once the system is up
        for index, batch in enumerate(batches):
            if rate_pps is not None:
                _wait_until(batch_due_ns(t0_ns, index, len(batch), rate_pps))
            cpu_before[index] = _cpu()
            offered[index] = _clock()
            offer(batch)
            done[index] = _clock()
            cpu_after[index] = _cpu()
            arrived[index] = len(delivered)
        cpu_finish = _cpu()
        finish_from_ns = _clock()
        target.finish()
        end_ns = _clock()
        cpu_end = _cpu()
        batch_cpu = [after - before for before, after in zip(cpu_before, cpu_after)]
        # begin + finish + any shard children, which finish() has reaped.
        # Open loop: the pacing spin between offers is deliberately left out.
        other_cpu_ns = (
            (cpu_before[0] - cpu_start)
            + (cpu_end - cpu_finish)
            + (_children_cpu_ns() - children_before)
        )

        packets = sum(len(batch) for batch in batches)
        audit = target.audit(packets)
        items = target.items()
        failed, matched = oracle.verify(items)
        if check_leaks and target.anonymized:
            leaks = sum(1 for item, spec in matched if leaks_address(item, spec))
            if leaks:
                audit.violations.append(f"{leaks} frontend frames carry an address")

        freshness: Dict[int, int] = {}
        ack_index = oracle.ack_index
        for position, item in enumerate(items):
            index = ack_index.get(item.timestamp_ns)
            if index is None:
                continue  # unexpected record: already counted as failed
            batch = bisect_right(arrived, position)
            arrival_ns = done[batch] if batch < count else end_ns
            if rate_pps is None:
                due = offered[index // FEED_BATCH]
            else:
                due = due_ns(t0_ns, index, rate_pps)
            freshness[item.timestamp_ns] = arrival_ns - due

        lag: List[int] = []
        if rate_pps is not None:
            lag = [
                offered[index] - batch_due_ns(t0_ns, index, len(batch), rate_pps)
                for index, batch in enumerate(batches)
            ]
        return Repeat(
            packets=packets,
            records=len(items),
            expected=oracle.count,
            failed=failed + audit.dropped_frames,
            wall_ns=end_ns - t0_ns,
            begin_ns=begun_ns - t0_ns,
            batch_ns=[end - start for start, end in zip(offered, done)],
            finish_ns=end_ns - finish_from_ns,
            batch_cpu_ns=batch_cpu,
            other_cpu_ns=other_cpu_ns,
            freshness_ns=freshness,
            lag_ns=lag,
            violations=audit.violations,
            log=log,
            harvest=target.harvest() if log is not None else {},
        )
    finally:
        target.dispose()
