"""Order statistics and the open-loop schedule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

NS_PER_S = 1_000_000_000

#: A percentile is only reported with at least this many samples
#: beyond it; fewer and the figure is one outlier's value.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def undisturbed(values: Sequence[float]) -> float:
    """Lower decile: what one piece of work costs when left alone.

    Interference on a shared box (a neighbour, a preempted vCPU) only
    ever adds time, so the samples of one repeated piece of work are
    skewed upwards. The lower decile stays on the undisturbed cost while
    up to nine tenths of the samples are hit; the median gives way at
    half, the lower quartile at three quarters (with every core of the
    box contended, ten runs of ``handshake-durable`` spread 17 % by the
    median, 8 % by the quartile and 4 % by the decile). Below eleven
    samples it is the minimum.
    """
    ordered = sorted(values)
    return float(ordered[(len(ordered) - 1) // 10])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refuses one the sample cannot support."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile {q} outside (0, 1)")
    rank = math.ceil(q * len(values))
    beyond = len(values) - rank
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return float(sorted(values)[rank - 1])


def due_ns(t0_ns: int, frame_index: int, rate_pps: float) -> int:
    """When frame *frame_index* is due on the wire of an open loop that
    starts at *t0_ns* and sends *rate_pps* frames per second."""
    return t0_ns + int(frame_index * NS_PER_S / rate_pps)
