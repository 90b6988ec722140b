"""Shared streaming primitives: EWMA baselines and windowed rates.

Detectors must run at stream rate with O(keys) memory — no history
replays. The two primitives here give them that: an exponentially
weighted mean/variance per key, and tumbling-window counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generic, Hashable, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)


@dataclass
class _EwmaCell:
    mean: float = 0.0
    variance: float = 0.0
    samples: int = 0


class EwmaBaseline(Generic[K]):
    """Per-key exponentially weighted mean and variance.

    Args:
        alpha: smoothing factor (weight of the newest sample).
        warmup: samples per key before the baseline is trusted;
            :meth:`is_anomalous` never fires during warmup.
    """

    def __init__(self, alpha: float = 0.05, warmup: int = 30):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if warmup < 1:
            raise ValueError("warmup must be at least 1 sample")
        self.alpha = alpha
        self.warmup = warmup
        self._cells: Dict[K, _EwmaCell] = {}

    def observe(self, key: K, value: float) -> None:
        """Fold one sample into *key*'s baseline."""
        cell = self._cells.get(key)
        if cell is None:
            cell = _EwmaCell(mean=value)
            self._cells[key] = cell
        delta = value - cell.mean
        cell.mean += self.alpha * delta
        cell.variance = (1 - self.alpha) * (cell.variance + self.alpha * delta * delta)
        cell.samples += 1

    def mean(self, key: K) -> Optional[float]:
        cell = self._cells.get(key)
        return cell.mean if cell else None

    def stddev(self, key: K) -> Optional[float]:
        cell = self._cells.get(key)
        return math.sqrt(cell.variance) if cell else None

    def is_warm(self, key: K) -> bool:
        cell = self._cells.get(key)
        return cell is not None and cell.samples >= self.warmup

    def zscore(self, key: K, value: float) -> Optional[float]:
        """How many stddevs *value* sits above the baseline; None
        during warmup. A tiny variance floor avoids division blowups
        on constant streams.
        """
        cell = self._cells.get(key)
        if cell is None or cell.samples < self.warmup:
            return None
        stddev = math.sqrt(max(cell.variance, 1e-12))
        return (value - cell.mean) / stddev

    def keys(self):
        return self._cells.keys()

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot every per-key cell as a ``(key, mean, variance,
        samples)`` row."""
        return {
            "alpha": self.alpha,
            "warmup": self.warmup,
            "cells": [
                (key, cell.mean, cell.variance, cell.samples)
                for key, cell in self._cells.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.alpha = float(state["alpha"])
        self.warmup = int(state["warmup"])
        self._cells = {
            key: _EwmaCell(mean, variance, samples)
            for key, mean, variance, samples in state["cells"]
        }


class WindowedRate(Generic[K]):
    """Tumbling-window counters per key.

    ``add`` returns the windows that *closed* as time advanced, so a
    caller can inspect completed windows exactly once.
    """

    def __init__(self, window_ns: int):
        if window_ns <= 0:
            raise ValueError("window must be positive")
        self.window_ns = window_ns
        self._current_start: Optional[int] = None
        self._counts: Dict[K, int] = {}

    def add(self, key: K, timestamp_ns: int, count: int = 1):
        """Count an occurrence; returns (window_start, counts) for the
        window that just closed, or None."""
        window_start = (timestamp_ns // self.window_ns) * self.window_ns
        closed: Optional[Tuple[int, Dict[K, int]]] = None
        if self._current_start is None:
            self._current_start = window_start
        elif window_start > self._current_start:
            closed = (self._current_start, self._counts)
            self._counts = {}
            self._current_start = window_start
        self._counts[key] = self._counts.get(key, 0) + count
        return closed

    def flush(self):
        """Close the in-progress window (end of stream)."""
        if self._current_start is None:
            return None
        closed = (self._current_start, self._counts)
        self._counts = {}
        self._current_start = None
        return closed

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the open window's ``(key, count)`` rows."""
        return {
            "window_ns": self.window_ns,
            "current_start": self._current_start,
            "counts": list(self._counts.items()),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.window_ns = int(state["window_ns"])
        start = state["current_start"]
        self._current_start = None if start is None else int(start)
        self._counts = dict(state["counts"])
