"""The rx path's two shortcuts as properties: the folded hash and the
counted buffer budget.

A key of period two bytes lets ``RssHasher`` fold a tuple to sixteen bits
before two table lookups; the bit-serial ``toeplitz_hash`` is the oracle
for that and for the general path every other key keeps. ``MbufPool`` is a
count, settled once per burst; whatever the burst, pool size, ring
capacity and ladder level, buffers out must equal rows queued, and the
causes of a miss must add up to the misses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline
from repro.dpdk.nic import NicPort
from repro.dpdk.rss import DEFAULT_RSS_KEY, RssHasher, make_symmetric_key
from repro.net.packet import Packet, build_tcp_packet
from repro.net.tcp import TCP_FLAG_ACK, TCP_FLAG_PSH, TCP_FLAG_SYN
from repro.overload import OverloadController
from tests.conftest import toeplitz_of_tuple

u16 = st.integers(0, 0xFFFF)
families = st.sampled_from([(False, 32), (True, 128)])


@st.composite
def tuples(draw):
    is_ipv6, width = draw(families)
    address = st.integers(0, (1 << width) - 1)
    return draw(address), draw(address), draw(u16), draw(u16), is_ipv6


def _is_folded(hasher):
    return hasher.hash_tuple.__func__ is RssHasher._hash_tuple_folded


class TestFoldedHash:
    @given(
        flow=tuples(),
        pattern=st.binary(min_size=2, max_size=2),
        length=st.sampled_from([40, 52, 80]),
    )
    @settings(max_examples=200, deadline=None)
    def test_fold_equals_the_oracle_and_the_swapped_tuple(self, flow, pattern, length):
        key = make_symmetric_key(length, pattern)
        hasher = RssHasher(key=key)
        assert _is_folded(hasher)
        src, dst, sport, dport, is_ipv6 = flow
        folded = hasher.hash_tuple(*flow)
        assert folded == toeplitz_of_tuple(key, *flow)
        assert folded == hasher.hash_tuple(dst, src, dport, sport, is_ipv6)
        # The unrolled general path, which the fold replaces, agrees.
        assert folded == RssHasher.hash_tuple(hasher, *flow)

    @given(flow=tuples())
    @settings(max_examples=100, deadline=None)
    def test_a_key_without_the_period_takes_the_general_path(self, flow):
        hasher = RssHasher(key=DEFAULT_RSS_KEY)
        assert not _is_folded(hasher)
        # 40 bytes cover an IPv4 tuple; an IPv6 one cycles the key.
        key = (DEFAULT_RSS_KEY * 2)[:40] if flow[4] else DEFAULT_RSS_KEY
        assert hasher.hash_tuple(*flow) == toeplitz_of_tuple(key, *flow)

    @pytest.mark.parametrize("length", [16, 17, 39, 40, 41])
    def test_the_fold_is_chosen_by_the_forty_bytes_a_tuple_consumes(self, length):
        # An odd-length key shorter than 40 bytes loses its period where
        # it is cycled, so it keeps the general path; either way the
        # oracle over the cycled key agrees.
        key = make_symmetric_key(length)
        hasher = RssHasher(key=key)
        assert _is_folded(hasher) == (length % 2 == 0 or length >= 40)
        flow = (0x20010DB8 << 96 | 5, 0x20010DB8 << 96 | 9, 443, 50000, True)
        assert hasher.hash_tuple(*flow) == toeplitz_of_tuple((key * 3)[:40], *flow)

    @given(flows=st.lists(tuples(), min_size=1, max_size=20), queue=st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_the_reta_still_steers_the_folded_hash(self, flows, queue):
        frames = [
            build_tcp_packet(src, dst, sport, dport, TCP_FLAG_SYN, ipv6=is_ipv6)
            for src, dst, sport, dport, is_ipv6 in flows
        ]
        steered = NicPort(num_queues=4)
        steered.rebalance([1 if q == queue else 0 for q in range(4)])
        steered.receive_burst(frames)
        assert len(steered.queues[queue]) == len(frames)
        table = NicPort(num_queues=4)
        table.hasher.set_reta([(i // 32 + queue) % 4 for i in range(128)])
        table.receive_burst(frames)
        for rx_queue in table.queues:
            for row in rx_queue.rx_burst(len(frames)):
                parsed = row.parsed
                assert row.rss_hash == table.hasher.hash_tuple(*parsed[:4], parsed.is_ipv6)
                assert row.queue_id == ((row.rss_hash & 127) // 32 + queue) % 4


# -- the budget ------------------------------------------------------------

_ARP = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28


@st.composite
def bursts(draw):
    """A few bursts of handshake, payload, IPv6 and non-TCP frames over
    a handful of flows, so rings fill unevenly."""
    def frame(kind, port):
        if kind == "arp":
            return Packet(data=_ARP)
        if kind == "data":
            return build_tcp_packet(
                1, 2, port, 443, TCP_FLAG_ACK | TCP_FLAG_PSH, payload=b"x" * 200
            )
        flags = TCP_FLAG_SYN if kind in ("syn", "syn6") else TCP_FLAG_ACK
        return build_tcp_packet(1, 2, port, 443, flags, ipv6=kind == "syn6")

    kinds = st.sampled_from(["syn", "ack", "data", "data", "data", "syn6", "arp"])
    one = st.builds(frame, kinds, st.integers(1000, 1007))
    return draw(st.lists(st.lists(one, max_size=24), min_size=1, max_size=4))


def _pipeline(pool_size, capacity, level):
    controller = None
    if level is not None:
        controller = OverloadController(sampled_modulus=2)
        controller.level = level
    return RuruPipeline(
        config=PipelineConfig(
            num_queues=2, queue_capacity=capacity, mbuf_pool_size=pool_size
        ),
        admission=controller,
    )


class TestBufferBudget:
    @given(
        offered=bursts(),
        pool_size=st.integers(1, 24),
        capacity=st.integers(1, 12),
        level=st.sampled_from([None, 0, 1, 2, 3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_buffers_out_are_rows_queued_and_misses_have_causes(
        self, offered, pool_size, capacity, level
    ):
        pipeline = _pipeline(pool_size, capacity, level)
        nic, pool = pipeline.nic, pipeline.nic.pool
        for index, burst in enumerate(offered):
            pipeline.offer_burst(burst)
            assert pool.alloc_count - pool.free_count == pool.in_use == nic.pending()
            assert pool.in_use <= pool_size
            assert all(len(queue) <= capacity for queue in nic.queues)
            # Ring-full, pool-empty and shed-by-policy are the only ways
            # to miss; a displacement costs the victim, not the arrival,
            # and is booked on the ring and on the controller.
            controller = pipeline.admission
            policy_shed = controller.shed_total(stage="nic") if controller else 0
            displacements = controller.ring_displacements if controller else 0
            rings = [queue.ring for queue in nic.queues]
            assert (
                sum(ring.drops + ring.displaced for ring in rings)
                + pool.exhausted_count + policy_shed
                == nic.stats.imissed + displacements
            )
            assert sum(ring.enqueued for ring in rings) == nic.stats.ipackets
            if index % 2:
                pipeline.drain()
                assert pool.in_use == nic.pending() == 0
        pipeline.drain()
        assert pool.in_use == nic.pending() == 0
        assert pool.alloc_count == pool.free_count
        with pytest.raises(ValueError):
            pool.give_back()

    def test_ring_drops_count_where_the_port_refuses_the_frame(self):
        # At the parent commit: imissed 6, ring.drops 0.
        nic = NicPort(num_queues=1, queue_capacity=4)
        frames = [build_tcp_packet(1, 2, i, 443, TCP_FLAG_SYN) for i in range(10)]
        assert nic.receive_burst(frames) == 4
        ring = nic.queues[0].ring
        assert (nic.stats.imissed, ring.drops, nic.pool.exhausted_count) == (6, 6, 0)
        assert (ring.enqueued, ring.high_watermark, ring.take_peak()) == (4, 4, 4)
