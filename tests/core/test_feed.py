"""The episode driver's cutter: one rule for batch boundaries, the
trailing batch and the stop flag.

The properties hold for any timestamp-sorted stream; the parametrised
check pins the cutter to the four hand-rolled loops it replaced
(``RuruStack.run``, ``RuruPipeline.run_packets``, ``ShardedRuntime.run``
and the recovery harness's slices), kept here as references, on the
seeds the committed baselines run.
"""

from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.feed import batches, drive
from repro.traffic.generator import GeneratorConfig, TrafficGenerator

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000

Stamp = namedtuple("Stamp", "timestamp_ns")

streams = st.lists(st.integers(0, 5_000), max_size=200).map(
    lambda stamps: [Stamp(stamp) for stamp in sorted(stamps)]
)
sizes = st.integers(1, 40)
windows = st.integers(1, 600)


def offered_by(packets, size, window_ns=None, stop=None):
    offered = []
    drive(offered.append, iter(packets), size, window_ns, stop)
    return offered


class TestCutterProperties:
    @given(streams, sizes)
    def test_count_batches_partition_the_stream(self, packets, size):
        cut = offered_by(packets, size)
        assert [packet for batch in cut for packet in batch] == packets
        assert all(len(batch) == size for batch in cut[:-1])
        assert all(1 <= len(batch) <= size for batch in cut[-1:])

    @given(streams, windows)
    def test_window_batches_never_span_a_boundary(self, packets, window_ns):
        cut = offered_by(packets, 1, window_ns)
        assert [packet for batch in cut for packet in batch] == packets
        assert all(cut)
        origin = packets[0].timestamp_ns if packets else 0
        slots = [
            {(packet.timestamp_ns - origin) // window_ns for packet in batch}
            for batch in cut
        ]
        assert all(len(slot) == 1 for slot in slots)
        # ... and a window is one batch, not two.
        assert len({min(slot) for slot in slots}) == len(cut)

    @given(st.one_of(st.none(), windows))
    def test_an_empty_stream_offers_nothing(self, window_ns):
        assert offered_by([], 8, window_ns) == []
        assert offered_by([], 8, window_ns, stop=lambda: True) == []

    @given(streams, sizes, st.integers(1, 12))
    def test_a_flag_raised_after_batch_k_offers_exactly_k(self, packets, size, k):
        offered = []

        def offer(batch):
            offered.append(batch)

        drive(offer, packets, size, stop=lambda: len(offered) >= k)
        assert offered == offered_by(packets, size)[:k]

    @given(streams, sizes)
    def test_the_flag_is_polled_after_each_batch_and_before_the_tail(
        self, packets, size
    ):
        polls = []
        cut = offered_by(packets, size, stop=lambda: polls.append(1))
        assert cut == offered_by(packets, size)
        # Between any two batches once, and once more before the last.
        assert len(polls) == len(cut)


# -- the four loops the cutter replaced, as references ------------------------


def stack_rule(packets, size, window_ns=None):
    """``RuruStack.run`` at the parent: cut when the *next* packet
    arrives, by count or by virtual-time window."""
    offered, batch, window_end = [], [], None
    for packet in packets:
        if window_ns is None:
            cut = len(batch) >= size
        else:
            if window_end is None:
                window_end = packet.timestamp_ns + window_ns
            cut = packet.timestamp_ns >= window_end
            while packet.timestamp_ns >= window_end:
                window_end += window_ns
        if cut:
            offered.append(batch)
            batch = []
        batch.append(packet)
    if batch:
        offered.append(batch)
    return offered


def eager_rule(packets, size):
    """``RuruPipeline.run_packets`` and ``ShardedRuntime.run`` at the
    parent: cut the moment the batch is full (the pipeline's drain of an
    empty tail offered no frames)."""
    offered, batch = [], []
    for packet in packets:
        batch.append(packet)
        if len(batch) >= size:
            offered.append(batch)
            batch = []
    if batch:
        offered.append(batch)
    return offered


def slice_rule(packets, size):
    """``RecoveryHarness.run_trial`` at the parent."""
    return [packets[i : i + size] for i in range(0, len(packets), size)]


@pytest.fixture(scope="module", params=[7, 11, 42])
def workload(request):
    config = GeneratorConfig(
        duration_ns=4 * NS_PER_S, mean_flows_per_s=40, seed=request.param
    )
    return TrafficGenerator(config=config).packet_list()


@pytest.mark.parametrize("size", [64, 256, 1, 10_000_000])
def test_count_boundaries_equal_all_four_parent_rules(workload, size):
    cut = list(batches(iter(workload), size))
    assert cut == stack_rule(workload, size)
    assert cut == eager_rule(workload, size)
    assert cut == slice_rule(workload, size)


@pytest.mark.parametrize("window_ms", [100, 1, 5_000])
def test_window_boundaries_equal_the_parent_rule(workload, window_ms):
    window_ns = window_ms * NS_PER_MS
    assert list(batches(iter(workload), 256, window_ns)) == stack_rule(
        workload, 256, window_ns
    )


def test_a_whole_multiple_leaves_no_empty_tail(workload):
    whole = workload[: 64 * 5]
    assert [len(batch) for batch in batches(whole, 64)] == [64] * 5
