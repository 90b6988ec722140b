"""Path-drift detector tests."""

import random

import pytest

from repro.anomaly.path_drift import PathDriftDetector, Reservoir
from tests.anomaly.test_latency_spike import _measurement

S = 1_000_000_000
WINDOW = 300 * S


class TestReservoir:
    def test_keeps_everything_under_capacity(self):
        reservoir = Reservoir(capacity=10)
        for value in range(5):
            reservoir.add(float(value))
        assert sorted(reservoir.items) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_bounded_at_capacity(self):
        reservoir = Reservoir(capacity=50, seed=1)
        for value in range(1000):
            reservoir.add(float(value))
        assert len(reservoir) == 50
        assert reservoir.seen == 1000

    def test_roughly_uniform(self):
        # Average of a uniform sample of 0..999 should be near 500.
        means = []
        for seed in range(20):
            reservoir = Reservoir(capacity=100, seed=seed)
            for value in range(1000):
                reservoir.add(float(value))
            means.append(sum(reservoir.items) / len(reservoir.items))
        assert 430 < sum(means) / len(means) < 570

    def test_validation(self):
        with pytest.raises(ValueError):
            Reservoir(capacity=0)


def _feed(detector, start_s, duration_s, median, rng, rate=1.0):
    count = int(duration_s * rate)
    for i in range(count):
        t = int((start_s + i / rate) * S)
        detector.observe(_measurement(t, rng.lognormvariate(
            __import__("math").log(median), 0.05
        )))


class TestPathDriftDetector:
    def test_route_change_detected(self):
        rng = random.Random(1)
        detector = PathDriftDetector(window_ns=WINDOW, min_samples=30)
        _feed(detector, 0, 600, 140.0, rng)       # two windows at 140 ms
        _feed(detector, 600, 600, 180.0, rng)     # route change: +40 ms
        events = detector.finish()
        assert events, "a 40 ms median shift must be flagged"
        event = events[0]
        assert event.kind == "path-drift"
        assert event.subject == "Auckland->Los Angeles"
        assert event.evidence["median_after_ms"] > event.evidence["median_before_ms"]

    def test_stable_path_silent(self):
        rng = random.Random(2)
        detector = PathDriftDetector(window_ns=WINDOW, min_samples=30)
        _feed(detector, 0, 1800, 140.0, rng)
        assert detector.finish() == []

    def test_small_shift_below_floor_ignored(self):
        rng = random.Random(3)
        detector = PathDriftDetector(
            window_ns=WINDOW, min_samples=30, min_median_shift_ms=10.0
        )
        _feed(detector, 0, 600, 140.0, rng)
        _feed(detector, 600, 600, 143.0, rng)  # 3 ms: under the floor
        assert detector.finish() == []

    def test_sparse_path_never_compared(self):
        rng = random.Random(4)
        detector = PathDriftDetector(window_ns=WINDOW, min_samples=30)
        _feed(detector, 0, 1200, 140.0, rng, rate=0.05)  # ~15 samples/window
        detector.finish()
        assert detector.windows_compared == 0

    def test_subtle_shift_spike_detector_would_miss(self):
        """The detector's reason to exist: a +20 ms full-population
        shift is far below any per-sample sigma test."""
        rng = random.Random(5)
        from repro.anomaly.latency_spike import LatencySpikeDetector

        drift = PathDriftDetector(window_ns=WINDOW, min_samples=30)
        spike = LatencySpikeDetector()
        for phase, median in ((0, 140.0), (600, 160.0)):
            count = 600
            for i in range(count):
                t = int((phase + i) * S)
                import math

                m = _measurement(t, rng.lognormvariate(math.log(median), 0.05))
                drift.observe(m)
                spike.observe(m)
        assert drift.finish(), "drift detector must flag the shift"
        assert spike.finish() == [], "spike detector must not"


class TestReservoirCheckpointCache:
    """A reservoir's packed form is kept until its next ``add``: most
    paths see no sample between two checkpoints, and re-packing them
    was half of what a checkpoint still cost."""

    def test_unchanged_reservoir_is_not_repacked(self):
        from repro.anomaly import path_drift

        reservoir = path_drift.Reservoir(capacity=4, seed=1)
        for value in (1.0, 2.0, 3.0):
            reservoir.add(value)
        first = reservoir.state_row()
        # The very row of the last pack, not an equal new one.
        assert reservoir.state_row() is first

    def test_every_add_invalidates_the_cache(self):
        import struct

        from repro.anomaly.path_drift import Reservoir

        reservoir = Reservoir(capacity=3, seed=7)
        for value in range(50):  # appends, replacements and misses
            reservoir.add(float(value))
            state = reservoir.state_row()
            items = reservoir.items
            assert state[2] == struct.pack(f"<{len(items)}d", *items)
            assert Reservoir.from_state(state).state_row() == state
