"""Buffer-budget and rx-row tests."""

import pytest

from repro.dpdk.mbuf import MbufPool, RxRow
from repro.dpdk.nic import NicPort
from repro.net.packet import build_tcp_packet
from repro.net.tcp import TCP_FLAG_SYN


def _row(pool, data=b"frame", **fields):
    """Take one buffer from *pool* and wrap *data* in the row holding it."""
    pool.settle(taken=1)
    return RxRow(
        fields.get("timestamp_ns", 0), fields.get("rss_hash", 0), None, data,
        fields.get("queue_id", 0), pool,
    )


class TestMbufPool:
    def test_alloc_free_cycle(self):
        pool = MbufPool(size=4)
        row = _row(pool, timestamp_ns=7, rss_hash=0xAB, queue_id=2)
        assert row.data == b"frame"
        assert row.timestamp_ns == 7
        assert row.rss_hash == 0xAB
        assert row.queue_id == 2
        assert pool.in_use == 1
        row.free()
        assert pool.in_use == 0
        assert pool.available == 4

    def test_exhaustion_raises_and_counts(self):
        # The port is who finds the budget spent: it counts, never raises.
        nic = NicPort(num_queues=1, mbuf_pool=MbufPool(size=2))
        frames = [build_tcp_packet(1, 2, i, 443, TCP_FLAG_SYN) for i in range(3)]
        assert [nic.receive(frame) for frame in frames] == [True, True, False]
        assert nic.pool.exhausted_count == 1
        # Booking more buffers than the pool has is the caller's bug.
        with pytest.raises(ValueError):
            nic.pool.settle(taken=1)

    def test_free_returns_capacity(self):
        pool = MbufPool(size=1)
        _row(pool, b"x").free()
        assert _row(pool, b"y").data == b"y"

    def test_double_free_rejected(self):
        pool = MbufPool(size=2)
        row = _row(pool, b"x")
        row.free()
        with pytest.raises(ValueError):
            row.free()

    def test_foreign_mbuf_rejected(self):
        # A row gives its buffer back to the pool it names, whoever
        # frees it: the other pool's books never move.
        pool_a, pool_b = MbufPool(size=1), MbufPool(size=1)
        row = _row(pool_a, b"x")
        with pytest.raises(ValueError):
            pool_b.give_back()
        row.free()
        assert (pool_a.free_count, pool_b.free_count) == (1, 0)

    def test_data_cleared_on_free(self):
        # A row is immutable: freeing returns the buffer, and nothing
        # the holder still reads changes under it.
        pool = MbufPool(size=1)
        row = _row(pool, b"secret")
        row.free()
        assert pool.in_use == 0
        assert row.data == b"secret"
        with pytest.raises(AttributeError):
            row.data = b""

    def test_counters(self):
        pool = MbufPool(size=8)
        rows = [_row(pool, b"p") for _ in range(5)]
        for row in rows:
            row.free()
        assert pool.alloc_count == 5
        assert pool.free_count == 5

    def test_buffers_are_created_on_first_use_up_to_size(self):
        # The budget is a count: out, back, refused — and never past size.
        pool = MbufPool(size=3)
        assert (pool.available, pool.in_use) == (3, 0)
        pool.settle(taken=3)
        assert (pool.available, pool.in_use) == (0, 3)
        pool.settle(taken=0, refused=1)
        assert pool.exhausted_count == 1
        pool.give_back()
        assert (pool.available, pool.in_use) == (1, 2)
        # Within one burst a buffer given back can be taken again.
        pool.settle(taken=3, given_back=2, refused=1)
        assert (pool.available, pool.in_use) == (0, 3)
        assert (pool.alloc_count, pool.free_count, pool.exhausted_count) == (6, 3, 2)
        with pytest.raises(ValueError):
            pool.give_back(4)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MbufPool(size=0)

    def test_poolless_mbuf_free_is_noop(self):
        RxRow(0, 0, None, b"loose").free()
