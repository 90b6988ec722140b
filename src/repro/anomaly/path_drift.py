"""Path-drift detection: population change per path, online.

The spike detector catches large single-sample excursions; drift is
subtler — a route change that moves the whole population by 20 ms
will never trip a 6-sigma per-sample test, but the *distribution*
shift is unmistakable. Following the Fontugne-style analysis in
:mod:`repro.analysis`, this detector keeps a bounded reservoir of
recent latency samples per path for consecutive time windows and
KS-compares each completed window against the previous one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.cdf import EmpiricalCdf, ks_distance, ks_significant
from repro.analytics.enricher import EnrichedMeasurement
from repro.anomaly.events import AnomalyEvent, Severity

NS_PER_S = 1_000_000_000

PairKey = Tuple[str, str]


_U64 = (1 << 64) - 1


class _SplitMix64:
    """Seedable PRNG whose entire state is one 64-bit integer.

    The detector keeps one RNG per (path, window) reservoir, and every
    reservoir's RNG lands in every checkpoint. ``random.Random`` there
    means a 625-word Mersenne state vector per reservoir — hundreds of
    kilobytes of snapshot for a few dozen paths. Reservoir eviction
    needs only uniform indices, so a single-word generator is the
    right trade.
    """

    def __init__(self, seed: int = 0):
        self.state = seed & _U64

    def randrange(self, bound: int) -> int:
        """Uniform int in [0, bound); bias is ~bound/2^64, negligible."""
        self.state = (self.state + 0x9E3779B97F4A7C15) & _U64
        mixed = self.state
        mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & _U64
        return (mixed ^ (mixed >> 31)) % bound


class Reservoir:
    """Classic reservoir sampling: a bounded uniform sample of a stream."""

    def __init__(self, capacity: int = 200, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = _SplitMix64(seed)
        self._items: List[float] = []
        self._row: Optional[tuple] = None  # the state row, until the next add
        self.seen = 0

    def add(self, value: float) -> None:
        self.seen += 1
        self._row = None
        if len(self._items) < self.capacity:
            self._items.append(value)
            return
        index = self._rng.randrange(self.seen)
        if index < self.capacity:
            self._items[index] = value

    @property
    def items(self) -> List[float]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def state_row(self) -> tuple:
        """Snapshot ``(capacity, seen, items, rng)``: the sample as
        little-endian float64 bytes (bit-exact, one object for the codec
        instead of hundreds of floats), the stream position and the RNG.

        The row is kept until the next :meth:`add`: most paths see no
        sample between two checkpoints, and the reservoirs dominate the
        anomaly tier's checkpoint cost.
        """
        if self._row is None:
            items = self._items
            self._row = (
                self.capacity, self.seen, struct.pack(f"<{len(items)}d", *items), self._rng.state
            )
        return self._row

    @classmethod
    def from_state(cls, row: tuple) -> "Reservoir":
        """Rebuild a reservoir that continues its pre-crash sequence."""
        capacity, seen, raw, rng = row
        reservoir = cls(capacity=capacity)
        reservoir.seen = seen
        reservoir._items = list(struct.unpack(f"<{len(raw) // 8}d", raw))
        reservoir._rng.state = rng
        return reservoir


@dataclass
class _PairState:
    window_start: int
    current: Reservoir
    previous: Optional[List[float]] = None


class PathDriftDetector:
    """Window-over-window KS drift per (src city, dst city) path."""

    def __init__(
        self,
        window_ns: int = 300 * NS_PER_S,
        min_samples: int = 30,
        alpha: float = 0.01,
        min_median_shift_ms: float = 5.0,
        reservoir_capacity: int = 200,
        seed: int = 0,
    ):
        if min_samples < 2:
            raise ValueError("min_samples must be at least 2")
        self.window_ns = window_ns
        self.min_samples = min_samples
        self.alpha = alpha
        self.min_median_shift_ms = min_median_shift_ms
        self.reservoir_capacity = reservoir_capacity
        self._seed = seed
        self._states: Dict[PairKey, _PairState] = {}
        self.events: List[AnomalyEvent] = []
        self.windows_compared = 0

    def observe(self, measurement: EnrichedMeasurement) -> Optional[AnomalyEvent]:
        """Feed one measurement; returns a drift event if one confirmed."""
        key: PairKey = (measurement.src_city, measurement.dst_city)
        window_start = (
            measurement.timestamp_ns // self.window_ns
        ) * self.window_ns
        state = self._states.get(key)
        if state is None:
            state = _PairState(
                window_start=window_start,
                current=Reservoir(self.reservoir_capacity, seed=self._seed),
            )
            self._states[key] = state

        event: Optional[AnomalyEvent] = None
        if window_start > state.window_start:
            event = self._roll_window(key, state, window_start)
        state.current.add(measurement.total_ms)
        return event

    def _roll_window(
        self, key: PairKey, state: _PairState, new_window: int
    ) -> Optional[AnomalyEvent]:
        completed = state.current.items
        event: Optional[AnomalyEvent] = None
        if (
            state.previous is not None
            and len(completed) >= self.min_samples
            and len(state.previous) >= self.min_samples
        ):
            self.windows_compared += 1
            event = self._compare(key, state.previous, completed, state.window_start)
        if len(completed) >= self.min_samples:
            state.previous = completed
        state.current = Reservoir(self.reservoir_capacity, seed=self._seed)
        state.window_start = new_window
        return event

    def _compare(
        self,
        key: PairKey,
        previous: List[float],
        current: List[float],
        window_start: int,
    ) -> Optional[AnomalyEvent]:
        median_before = EmpiricalCdf(previous).median
        median_after = EmpiricalCdf(current).median
        shift = abs(median_after - median_before)
        if shift < self.min_median_shift_ms:
            return None
        if not ks_significant(previous, current, alpha=self.alpha):
            return None
        event = AnomalyEvent(
            kind="path-drift",
            start_ns=window_start,
            severity=Severity.WARNING,
            description=(
                f"median {median_before:.1f} -> {median_after:.1f} ms "
                f"(KS={ks_distance(previous, current):.2f})"
            ),
            subject=f"{key[0]}->{key[1]}",
            evidence={
                "median_before_ms": median_before,
                "median_after_ms": median_after,
                "ks": ks_distance(previous, current),
            },
        )
        event.close(window_start + self.window_ns)
        self.events.append(event)
        return event

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot every pair's ``(key, window_start, current,
        previous)`` row and the counter."""
        return {
            "windows_compared": self.windows_compared,
            "states": [
                (
                    key,
                    state.window_start,
                    state.current.state_row(),
                    None if state.previous is None else tuple(state.previous),
                )
                for key, state in self._states.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.windows_compared = int(state["windows_compared"])
        self._states = {
            key: _PairState(
                window_start=window_start,
                current=Reservoir.from_state(current),
                previous=None if previous is None else list(previous),
            )
            for key, window_start, current, previous in state["states"]
        }

    def finish(self, now_ns: Optional[int] = None) -> List[AnomalyEvent]:
        """End of stream: compare every pair's final window."""
        for key, state in self._states.items():
            completed = state.current.items
            if (
                state.previous is not None
                and len(completed) >= self.min_samples
                and len(state.previous) >= self.min_samples
            ):
                self.windows_compared += 1
                self._compare(key, state.previous, completed, state.window_start)
        return list(self.events)
