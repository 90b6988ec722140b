"""Durability overhead gate: checkpoints must stay near-free.

The checkpointer rides on the live monitoring path, so its cost is a
correctness property like telemetry's: this gate fails the build if a
run with 1 s periodic checkpoints regresses more than 10% against an
identical run whose periodic checkpointing is disabled (one clean
drain checkpoint only — the WAL and every other durability code path
stay on in both, so the measurement isolates the checkpoint cost).

Methodology mirrors the telemetry gate: strict alternation in one
process, CPU time via ``time.process_time``, and the smaller of the
median/median and min/min estimators so a one-sided noise spike cannot
fail the build.

The second test measures the recovery path itself — checkpoint size,
load+replay wall time — and prints the numbers EXPERIMENTS.md quotes.
"""

import gc
import shutil
import statistics
import tempfile
import time

from repro.cli import command_spec
from repro.durability.recovery import recover_runtime
from repro.faults.crashpoints import CrashSchedule, SimulatedCrash
from repro.scenarios.runner import Episode

PAIRS = 10
MAX_REGRESSION = 0.10
# A production-shaped configuration: retention bounds the store, so
# checkpoint size (and cost) is O(window), not O(run length).
RUN = [
    "--profile", "clean", "--seed", "42", "--duration", "8", "--rate", "40",
    "--queues", "2", "--retention", "2",
]

# Periodic checkpointing effectively off: only the final clean drain
# checkpoint is written, exactly once, in both configurations' drains.
NEVER_S = float(1 << 33)
EVERY_S = 1.0


def durable_stack(state_dir, *flags, crash_schedule=None):
    """``ruru live``'s stack on *state_dir*, built but not yet fed."""
    spec = command_spec(["live", "--state-dir", state_dir, *RUN, *flags])
    return Episode(spec, crash_schedule=crash_schedule).stack


def _timed_run(state_dir, checkpoint_interval_s):
    shutil.rmtree(state_dir, ignore_errors=True)
    runtime = durable_stack(
        state_dir, "--checkpoint-interval", str(checkpoint_interval_s)
    )
    gc.collect()
    gc.disable()
    started = time.process_time()
    report = runtime.run()
    elapsed = time.process_time() - started
    gc.enable()
    return elapsed, report, runtime


class TestCheckpointOverhead:
    def test_overhead_within_budget(self):
        workdir = tempfile.mkdtemp(prefix="ruru-bench-")
        try:
            # Warm both paths before timing.
            _timed_run(workdir + "/warm-on", EVERY_S)
            _timed_run(workdir + "/warm-off", NEVER_S)

            base_times, durable_times = [], []
            for index in range(PAIRS):
                base_times.append(
                    _timed_run(f"{workdir}/off-{index}", NEVER_S)[0]
                )
                elapsed, report, runtime = _timed_run(
                    f"{workdir}/on-{index}", EVERY_S
                )
                durable_times.append(elapsed)

            # The checkpointed run really checkpointed, and both ran
            # the full workload cleanly.
            assert runtime.checkpointer.checkpoints_written >= 8
            assert report.ok

            median_est = (
                statistics.median(durable_times) / statistics.median(base_times)
                - 1
            )
            min_est = min(durable_times) / min(base_times) - 1
            overhead = min(median_est, min_est)
            print(
                f"\ncheckpoint overhead: median-est {median_est:+.1%}, "
                f"min-est {min_est:+.1%} over {PAIRS} interleaved pairs "
                f"({runtime.checkpointer.checkpoints_written} checkpoints, "
                f"{runtime.checkpointer.bytes_written / 1024:.0f} KiB written)"
            )
            assert overhead <= MAX_REGRESSION, (
                f"checkpoint overhead {overhead:.1%} exceeds the "
                f"{MAX_REGRESSION:.0%} budget "
                f"(median-est {median_est:.1%}, min-est {min_est:.1%})"
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class TestRecoveryPath:
    def test_bench_recovery(self, benchmark):
        """Wall time of checkpoint load + WAL replay after a crash."""
        workdir = tempfile.mkdtemp(prefix="ruru-bench-")
        try:
            # Leave real crash debris behind: checkpoints plus a WAL
            # tail the checkpoint does not cover. (Killing the runtime
            # directly, with no post-crash drain, keeps the WAL dirty.)
            schedule = CrashSchedule()
            schedule.arm("tsdb.applied", hit=10)
            victim = durable_stack(workdir + "/state", crash_schedule=schedule)
            try:
                victim.run()
            except SimulatedCrash:
                pass
            assert schedule.fired, "workload too small to reach the crash"
            del victim

            def recover_once():
                runtime = durable_stack(workdir + "/state")
                return recover_runtime(runtime)

            report = benchmark(recover_once)
            assert not report.cold_start
            assert report.replayed_batches > 0
            size_kib = report.checkpoint.size_bytes / 1024
            print(
                f"\nrecovery: {benchmark.stats['mean'] * 1e3:.1f} ms mean "
                f"(checkpoint {size_kib:.0f} KiB, "
                f"{report.replayed_batches} WAL batches replayed, "
                f"{report.duplicates_skipped} duplicates skipped)"
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
