"""Windowed aggregation by location pair and AS pair.

"Ruru aggregates statistics by source and destination locations, and
AS numbers for further analysis." The :class:`PairAggregator` keeps
one running-statistics cell per (src, dst) pair per window and flushes
each completed window as TSDB points — the rollup the Grafana panels
and the connection-count anomaly detector read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.analytics.enricher import EnrichedMeasurement
from repro.analytics.quantile import P2Quantile
from repro.tsdb.point import Point, SeriesKey, series_key

PairKey = Tuple[str, str]


# A pair's rollup series key, built once and kept across windows: every
# window writes the same few hundred pairs again.
@lru_cache(maxsize=8192)
def _location_key(src_city: str, dst_city: str) -> SeriesKey:
    return series_key("latency_by_location", {"src_city": src_city, "dst_city": dst_city})


@lru_cache(maxsize=8192)
def _asn_key(src_asn: int, dst_asn: int) -> SeriesKey:
    return series_key("latency_by_asn", {"src_asn": str(src_asn), "dst_asn": str(dst_asn)})


@dataclass
class PairStats:
    """Streaming statistics for one pair in one window.

    Mean/variance by Welford; the tail by a P² sketch when
    *track_p99* was requested at the aggregator — all O(1) per sample,
    no retained values.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    min_value: float = math.inf
    max_value: float = -math.inf
    p99: Optional[P2Quantile] = None

    def add(self, value: float) -> None:
        """Fold in one sample."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        if self.p99 is not None:
            self.p99.add(value)

    @property
    def stddev(self) -> float:
        """Population standard deviation of the window."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / self.count)

    def state_row(self) -> tuple:
        """Snapshot the running moments (and the P² sketch if present)
        as one ``(count, mean, m2, min, max, p99)`` row.

        Infinities (the empty-cell min/max sentinels) are refused by the
        snapshot codec, so they travel as None and restore to the same
        sentinels.
        """
        return (
            self.count,
            self.mean,
            self._m2,
            None if math.isinf(self.min_value) else self.min_value,
            None if math.isinf(self.max_value) else self.max_value,
            self.p99.state_dict() if self.p99 is not None else None,
        )

    @classmethod
    def from_state(cls, state: tuple) -> "PairStats":
        """Rebuild a cell from a :meth:`state_row`."""
        from repro.analytics.quantile import P2Quantile

        count, mean, m2, low, high, p99 = state
        return cls(
            count=count,
            mean=mean,
            _m2=m2,
            min_value=math.inf if low is None else low,
            max_value=-math.inf if high is None else high,
            p99=None if p99 is None else P2Quantile.from_state(p99),
        )


@dataclass
class _Window:
    start_ns: int
    by_location: Dict[PairKey, PairStats] = field(default_factory=dict)
    by_asn: Dict[Tuple[int, int], PairStats] = field(default_factory=dict)


class PairAggregator:
    """Tumbling-window aggregator over enriched measurements.

    Args:
        window_ns: window width (default 1 s, the frontend's stats
            cadence; the SNMP-comparison experiment uses 5 minutes).
        emit: called with the flushed TSDB points of each completed
            window; when None, points accumulate in :attr:`flushed`.
    """

    def __init__(
        self,
        window_ns: int = 1_000_000_000,
        emit: Optional[Callable[[List[Point]], None]] = None,
        track_p99: bool = False,
    ):
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self.window_ns = window_ns
        self.emit = emit
        self.track_p99 = track_p99
        self.flushed: List[Point] = []
        self._window: Optional[_Window] = None
        self.measurements_seen = 0

    def add(self, measurement: EnrichedMeasurement) -> None:
        """Fold one measurement into the current window.

        A measurement past the window's end flushes it first; late
        arrivals from a still-earlier window are folded into the
        current one rather than reopening history (single-pass
        streaming, as the live pipeline requires).
        """
        self.measurements_seen += 1
        window_start = (
            measurement.timestamp_ns // self.window_ns
        ) * self.window_ns
        if self._window is None:
            self._window = _Window(start_ns=window_start)
        elif window_start > self._window.start_ns:
            self.flush()
            self._window = _Window(start_ns=window_start)

        window = self._window
        total_ms = measurement.total_ms
        for cells, pair in (
            (window.by_location, measurement.location_pair),
            (window.by_asn, measurement.asn_pair),
        ):
            stats = cells.get(pair)
            if stats is None:  # a cell is built only for a pair new to the window
                stats = cells[pair] = self._new_stats()
            stats.add(total_ms)

    def _new_stats(self) -> PairStats:
        return PairStats(p99=P2Quantile(0.99) if self.track_p99 else None)

    def flush(self) -> List[Point]:
        """Emit the current window's points and reset it."""
        if self._window is None:
            return []
        points = self._points_for(self._window)
        self._window = None
        if self.emit is not None:
            self.emit(points)
        else:
            self.flushed.extend(points)
        return points

    def _points_for(self, window: _Window) -> List[Point]:
        start_ns = window.start_ns
        fields = self._fields
        return [
            Point.in_series(key_of(*pair), start_ns, fields(stats))
            for cells, key_of in (
                (window.by_location, _location_key),
                (window.by_asn, _asn_key),
            )
            for pair, stats in sorted(cells.items())
        ]

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the open window so a restored run flushes it with
        the pre-crash samples included, instead of losing the partial
        window at every restart."""
        window = self._window
        return {
            "window_ns": self.window_ns,
            "track_p99": self.track_p99,
            "measurements_seen": self.measurements_seen,
            "window": None
            if window is None
            else {
                "start_ns": window.start_ns,
                "by_location": [
                    (pair, stats.state_row())
                    for pair, stats in window.by_location.items()
                ],
                "by_asn": [
                    (pair, stats.state_row())
                    for pair, stats in window.by_asn.items()
                ],
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (replaces any open window)."""
        self.window_ns = int(state["window_ns"])
        self.track_p99 = bool(state["track_p99"])
        self.measurements_seen = int(state["measurements_seen"])
        window_state = state["window"]
        if window_state is None:
            self._window = None
            return
        self._window = _Window(
            start_ns=int(window_state["start_ns"]),
            by_location={
                pair: PairStats.from_state(cell)
                for pair, cell in window_state["by_location"]
            },
            by_asn={
                pair: PairStats.from_state(cell)
                for pair, cell in window_state["by_asn"]
            },
        )

    @staticmethod
    def _fields(stats: PairStats) -> Dict[str, float]:
        fields = {
            "connections": stats.count,
            "mean_ms": stats.mean,
            "min_ms": stats.min_value,
            "max_ms": stats.max_value,
            "stddev_ms": stats.stddev,
        }
        if stats.p99 is not None and stats.p99.value is not None:
            fields["p99_ms"] = stats.p99.value
        return fields
