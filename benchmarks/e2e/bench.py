"""One workload, start to finish: set-up, repeats, the figures they yield."""

from __future__ import annotations

import gc
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from benchmarks.e2e.oracle import Oracle
from benchmarks.e2e.runner import Repeat, run_repeat
from benchmarks.e2e.stats import NS_PER_S, median, percentile, undisturbed
from benchmarks.e2e.targets import make_target
from benchmarks.e2e.workloads import (
    FEED_BATCH,
    PACED_RATE_PPS,
    SCALE,
    Trace,
    Workload,
    build_trace,
    check_drift,
)

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")

#: Set-up is run this many times and its median reported, so one slow
#: import or page fault does not read as a set-up regression.
SETUPS = 5
MIN_REPEATS = 3


class LedgerViolation(RuntimeError):
    """A conservation equation did not close: the run proves nothing."""


@dataclass
class Bench:
    """A set-up workload, ready to repeat."""

    workload: Workload
    seed: int
    trace: Trace
    oracle: Oracle
    batches: List[list]
    digest: str
    setup_s: List[float]
    scratch_dir: str
    target: object
    repeats: List[Repeat] = field(default_factory=list)

    @property
    def rate_pps(self) -> Optional[float]:
        return PACED_RATE_PPS if self.workload.paced else None

    @property
    def plain(self) -> List[Repeat]:
        """The untraced timed repeats: the only ones metrics are read off."""
        return [repeat for repeat in self.repeats if repeat.log is None]

    def repeat(self, keep: bool = True, check_leaks: bool = False, log=None) -> Repeat:
        result = run_repeat(
            self.target,
            self.batches,
            self.oracle,
            rate_pps=self.rate_pps,
            check_leaks=check_leaks,
            log=log,
        )
        if result.violations:
            raise LedgerViolation(
                f"{self.workload.name}: " + "; ".join(result.violations)
            )
        if keep:
            self.repeats.append(result)
        return result

    def close(self) -> None:
        shutil.rmtree(self.scratch_dir, ignore_errors=True)


def set_up(workload: Workload, seed: int, scale: float = SCALE, setups: int = SETUPS) -> Bench:
    """Generate the trace and build the first stack, *setups* times over."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    scratch_dir = tempfile.mkdtemp(prefix="scratch-", dir=RESULTS_DIR)
    try:
        setup_s: List[float] = []
        for _ in range(setups):
            started = time.perf_counter()
            trace = build_trace(workload, seed, scale)
            target = make_target(workload, trace, scratch_dir)
            target.build()  # includes the geo/ASN build of the analytics presets
            setup_s.append(time.perf_counter() - started)
            target.dispose()
        digest = trace.digest()
        check_drift(workload, seed, scale, digest)
        bench = Bench(
            workload=workload,
            seed=seed,
            trace=trace,
            oracle=Oracle(trace),
            batches=trace.batches(),
            digest=digest,
            setup_s=setup_s,
            scratch_dir=scratch_dir,
            target=target,
        )
    except BaseException:
        shutil.rmtree(scratch_dir, ignore_errors=True)
        raise
    # Everything alive now is set-up state that lives for the whole run;
    # keep the collector from re-walking it during the timed repeats. GC
    # itself stays on, as ``ruru live`` runs it.
    gc.collect()
    gc.freeze()
    return bench


def run_for(bench: Bench, seconds: float) -> None:
    """One discarded warm-up, then timed repeats for *seconds*."""
    bench.repeat(keep=False)
    started = time.perf_counter()
    while len(bench.repeats) < MIN_REPEATS or time.perf_counter() - started < seconds:
        # The address-leak scan walks every delivered measurement; once
        # per run is enough to catch a tier that started forwarding them.
        bench.repeat(check_leaks=not bench.repeats)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux), in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steady_sum(rows: List[List[int]]) -> float:
    """Sum over positions of the undisturbed cost across repeats.

    Every repeat runs the same pieces of work in the same order, so
    piece *b* of one repeat is comparable with piece *b* of the next.
    Taking each piece's lower decile across repeats keeps what that
    piece costs every time (a checkpoint, an expiry sweep, a collection
    the allocation count triggers) and drops what hit it once or twice.
    Medians of whole repeats cannot do that: a 100 ms stall somewhere in
    every one-second repeat moves them all.
    """
    return sum(undisturbed(column) for column in zip(*rows))


def steady_busy_ns(repeats: List[Repeat]) -> float:
    """Time inside the system's calls: ``begin``, every ``offer``, ``finish``."""
    return (
        undisturbed([r.begin_ns for r in repeats])
        + steady_sum([r.batch_ns for r in repeats])
        + undisturbed([r.finish_ns for r in repeats])
    )


def steady_wall_ns(repeats: List[Repeat]) -> float:
    if repeats[0].lag_ns:
        # The schedule, not the stack, sets an open loop's wall.
        return median([r.wall_ns for r in repeats])
    return steady_busy_ns(repeats)


def steady_cpu_ns(repeats: List[Repeat]) -> float:
    return steady_sum([r.batch_cpu_ns for r in repeats]) + undisturbed(
        [r.other_cpu_ns for r in repeats]
    )


def steady_freshness_ms(repeats: List[Repeat]) -> List[float]:
    """Each measurement's age: its undisturbed value over the repeats."""
    return [
        undisturbed([r.freshness_ns[key] for r in repeats if key in r.freshness_ns])
        / 1e6
        for key in repeats[0].freshness_ns
    ]


def pooled_freshness_ms(repeats: List[Repeat]) -> List[float]:
    """Every sample of every repeat, interference and all: the raw tail."""
    return [ns / 1e6 for r in repeats for ns in r.freshness_ns.values()]


def end_to_end(bench: Bench) -> Dict[str, float]:
    """The end-to-end metrics of the timed repeats (see README.md)."""
    repeats = bench.plain
    first = repeats[0]
    wall_s = steady_wall_ns(repeats) / NS_PER_S
    freshness = steady_freshness_ms(repeats)
    return {
        "packets_per_s": first.packets / wall_s,
        "records_per_s": first.records / wall_s,
        "cpu_us_per_packet": steady_cpu_ns(repeats) / 1e3 / first.packets,
        "freshness_p50_ms": median(freshness),
        "freshness_p90_ms": percentile(freshness, 0.90),
        "setup_s": median(bench.setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def late_batches(bench: Bench) -> int:
    """Open-loop batches offered more than one batch period late.

    Judged like every other figure: batch *b*'s lag is its undisturbed
    value over the repeats. A stack that cannot hold the schedule falls
    behind at the same batches in every repeat; a stall of the shared
    box lands on different ones and is set aside. More than 1 % of
    batches late means the freshness figures describe the generator's
    backlog, not the stack, and the run fails as ``unsustained``.
    """
    period_ns = FEED_BATCH * NS_PER_S / PACED_RATE_PPS
    rows = [repeat.lag_ns for repeat in bench.plain if repeat.lag_ns]
    return sum(1 for column in zip(*rows) if undisturbed(column) > period_ns)
