"""The harness's own arithmetic: spans, percentiles, the open-loop schedule."""

import pytest

from benchmarks.e2e.runner import batch_due_ns
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.stats import due_ns, percentile, undisturbed
from benchmarks.e2e.workloads import FEED_BATCH


def _span(log, name, parent, start, end):
    span_id = log.open(name, parent, 0, 0)
    log.start_ns[span_id], log.end_ns[span_id] = start, end
    return span_id


class TestSpanSelfTime:
    def test_self_time_is_duration_minus_children(self):
        log = SpanLog()
        root = _span(log, "batch", None, 0, 100)
        nic = _span(log, "nic", root, 5, 35)
        workers = _span(log, "workers", root, 40, 90)
        _span(log, "parse", workers, 45, 70)
        own = log.self_ns()
        assert own[root] == 100 - 30 - 50  # grandchildren do not count twice
        assert own[nic] == 30
        assert own[workers] == 50 - 25
        assert sum(own) == 100  # self times partition the root

    def test_durations_by_name(self):
        log = SpanLog()
        for seq in range(3):
            span_id = log.open("nic", None, seq, 256)
            log.start_ns[span_id], log.end_ns[span_id] = seq * 10, seq * 10 + 4
        assert log.durations_ns("nic") == [(0, 4), (1, 4), (2, 4)]
        assert log.as_dicts()[2]["batch_seq"] == 2


class TestPercentile:
    def test_refuses_without_ten_samples_beyond(self):
        with pytest.raises(ValueError, match="beyond"):
            percentile(list(range(999)), 0.99)  # 9 beyond rank 990

    def test_nearest_rank(self):
        assert percentile(list(range(1, 1001)), 0.99) == 990  # exactly 10 beyond
        assert percentile(list(range(1, 101)), 0.5) == 50

    def test_undisturbed_is_the_lower_decile(self):
        assert undisturbed(list(range(21, 0, -1))) == 3
        assert undisturbed([4, 2, 3]) == 2  # under eleven samples: the smallest
        # Up to nine tenths of the samples may be hit without moving it.
        assert undisturbed([10, 10] + [50 + i for i in range(18)]) == 10


class TestOpenLoopSchedule:
    def test_frame_due_time(self):
        assert due_ns(1_000, 0, 20_000) == 1_000
        assert due_ns(1_000, 20_000, 20_000) == 1_000 + 1_000_000_000
        assert due_ns(0, 1, 20_000) == 50_000  # one frame every 50 us

    def test_batch_is_offered_when_its_last_frame_is_due(self):
        assert batch_due_ns(0, 0, FEED_BATCH, 20_000) == due_ns(0, FEED_BATCH - 1, 20_000)
        # A short trailing batch does not wait for frames that never come.
        assert batch_due_ns(0, 3, 10, 20_000) == due_ns(0, 3 * FEED_BATCH + 9, 20_000)

    def test_first_frame_of_a_batch_waits_a_whole_fill(self):
        fill_ns = batch_due_ns(0, 0, FEED_BATCH, 20_000) - due_ns(0, 0, 20_000)
        assert fill_ns == (FEED_BATCH - 1) * 50_000
