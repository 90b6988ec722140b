"""Port statistics tests."""

from repro.dpdk.port_stats import PortStats


def record_rx(stats, queue_id, frame_len):
    """One queued frame, through the burst accounting the port uses."""
    stats.record_rx_burst({queue_id: 1}, frame_len)


class TestPortStats:
    def test_record_rx(self):
        stats = PortStats()
        record_rx(stats, 0, 100)
        record_rx(stats, 1, 60)
        record_rx(stats, 1, 40)
        assert stats.ipackets == 3
        assert stats.ibytes == 200
        assert stats.q_ipackets == {0: 1, 1: 2}

    def test_misses_and_errors(self):
        stats = PortStats()
        stats.record_miss()
        stats.ierrors += 2
        assert stats.imissed == 1
        assert stats.ierrors == 2

    def test_queue_balance(self):
        stats = PortStats()
        for _ in range(3):
            record_rx(stats, 0, 10)
        record_rx(stats, 1, 10)
        assert stats.queue_balance(2) == [0.75, 0.25]

    def test_balance_empty(self):
        assert PortStats().queue_balance(2) == []

    def test_reset(self):
        stats = PortStats()
        record_rx(stats, 0, 10)
        stats.record_miss()
        stats.ierrors += 1
        stats.reset()
        assert stats.ipackets == 0
        assert stats.imissed == 0
        assert stats.ierrors == 0
        assert stats.q_ipackets == {}
