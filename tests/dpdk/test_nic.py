"""Simulated NIC tests."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline
from repro.dpdk.mbuf import MbufPool
from repro.dpdk.nic import NicPort
from repro.dpdk.rss import DEFAULT_RSS_KEY
from repro.net.packet import Packet, build_tcp_packet
from repro.net.tcp import TCP_FLAG_ACK, TCP_FLAG_PSH, TCP_FLAG_SYN
from repro.overload import OverloadController


def _flow_packets(src, dst, sport, dport):
    """A SYN one way plus an ACK the other way."""
    return [
        build_tcp_packet(src, dst, sport, dport, TCP_FLAG_SYN, timestamp_ns=1),
        build_tcp_packet(dst, src, dport, sport, TCP_FLAG_ACK, timestamp_ns=2),
    ]


class TestClassification:
    def test_both_directions_same_queue(self):
        nic = NicPort(num_queues=8)
        for i in range(50):
            syn, ack = _flow_packets(1000 + i, 2000 + i, 10000 + i, 443)
            nic.receive(syn)
            nic.receive(ack)
            syn_mbuf = None
            for queue in nic.queues:
                for mbuf in queue.rx_burst(64):
                    if syn_mbuf is None:
                        syn_mbuf = mbuf
                    else:
                        assert mbuf.queue_id == syn_mbuf.queue_id
                        assert mbuf.rss_hash == syn_mbuf.rss_hash

    def test_asymmetric_key_splits_directions(self):
        nic = NicPort(num_queues=8, rss_key=DEFAULT_RSS_KEY)
        split = 0
        for i in range(50):
            syn, ack = _flow_packets(3_000_000 + i, 9_000_000 + i, 20000 + i, 443)
            nic.receive(syn)
            nic.receive(ack)
            queues = [
                mbuf.queue_id
                for queue in nic.queues
                for mbuf in queue.rx_burst(64)
            ]
            if len(set(queues)) > 1:
                split += 1
        assert split > 30  # the ablation premise: asymmetric keys split flows

    def test_non_ip_goes_to_queue_zero(self):
        nic = NicPort(num_queues=4)
        arp = Packet(data=b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28, timestamp_ns=5)
        assert nic.receive(arp)
        assert len(nic.queues[0]) == 1

    def test_rx_metadata(self):
        nic = NicPort(num_queues=2)
        packet = build_tcp_packet(7, 8, 9, 10, TCP_FLAG_SYN, timestamp_ns=1234)
        nic.receive(packet)
        mbuf = next(m for q in nic.queues for m in q.rx_burst(4))
        assert mbuf.timestamp_ns == 1234
        assert mbuf.data == packet.data


class TestDrops:
    def test_pool_exhaustion_counts_misses(self):
        nic = NicPort(num_queues=1, mbuf_pool=MbufPool(size=2))
        packets = [build_tcp_packet(1, 2, i, 443, TCP_FLAG_SYN) for i in range(5)]
        accepted = nic.receive_burst(packets)
        assert accepted == 2
        assert nic.stats.imissed == 3

    def test_ring_overflow_counts_misses_and_frees_mbuf(self):
        pool = MbufPool(size=100)
        nic = NicPort(num_queues=1, mbuf_pool=pool, queue_capacity=4)
        packets = [build_tcp_packet(1, 2, i, 443, TCP_FLAG_SYN) for i in range(10)]
        accepted = nic.receive_burst(packets)
        assert accepted == 4
        assert nic.stats.imissed == 6
        # Mbufs of dropped frames must be returned to the pool.
        assert pool.in_use == 4


class TestStats:
    def test_counters_and_balance(self):
        nic = NicPort(num_queues=4)
        packets = [
            build_tcp_packet(100 + i, 200 + i, 3000 + i, 443, TCP_FLAG_SYN)
            for i in range(400)
        ]
        nic.receive_burst(packets)
        assert nic.stats.ipackets == 400
        assert nic.stats.ibytes == sum(len(p.data) for p in packets)
        balance = nic.queue_balance()
        assert abs(sum(balance) - 1.0) < 1e-9
        assert all(share > 0.1 for share in balance)

    def test_pending(self):
        nic = NicPort(num_queues=2)
        nic.receive(build_tcp_packet(1, 2, 3, 4, TCP_FLAG_SYN))
        assert nic.pending() == 1
        for queue in nic.queues:
            queue.rx_burst(8)
        assert nic.pending() == 0


def _mixed_frames():
    """Handshake and data segments, IPv6, VLAN, UDP-shaped noise, ARP and
    a runt, over several flows, timestamps not quite in order."""
    v6 = 0x20010DB8 << 96
    frames = []
    for i in range(12):
        frames += [
            build_tcp_packet(10 + i, 20 + i, 1000 + i, 443, TCP_FLAG_SYN, timestamp_ns=100 * i + 7),
            build_tcp_packet(
                20 + i, 10 + i, 443, 1000 + i, TCP_FLAG_ACK | TCP_FLAG_PSH,
                payload=b"x" * 300, timestamp_ns=100 * i + 3,
            ),
            build_tcp_packet(10 + i, 20 + i, 1000 + i, 443, TCP_FLAG_ACK, timestamp_ns=100 * i + 9),
        ]
    frames += [
        build_tcp_packet(v6 + 1, v6 + 2, 5, 6, TCP_FLAG_SYN, ipv6=True, timestamp_ns=2000),
        build_tcp_packet(1, 2, 3, 4, TCP_FLAG_ACK, vlan_id=7, timestamp_ns=2001),
        Packet(data=b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28, timestamp_ns=2002),
        Packet(data=b"\x00" * 9, timestamp_ns=2003),
    ]
    return frames


def _port_state(nic):
    """Everything a receive leaves behind, in comparable form."""
    pool, controller = nic.pool, nic.admission
    state = {
        "stats": nic.stats,
        "rings": [
            [
                (m.data, m.timestamp_ns, m.rss_hash, m.queue_id, m.parsed)
                for m in queue.ring.items
            ]
            for queue in nic.queues
        ],
        "watermarks": [queue.ring.high_watermark for queue in nic.queues],
        "pool": (pool.alloc_count, pool.free_count, pool.exhausted_count, pool.in_use),
    }
    if controller is not None:
        state["admission"] = (
            controller.offered,
            controller.admitted,
            controller.shed_counts(),
            controller.ring_displacements,
            controller.truncated,
            controller.take_nic_shed(),
        )
    return state


class TestBurstEqualsOneByOne:
    """``receive_burst`` settles its books once per burst; what it leaves
    behind must be what frame-by-frame ``receive`` leaves."""

    @staticmethod
    def _both_ways(make_port, frames=None):
        frames = frames or _mixed_frames()
        one_by_one, burst = make_port(), make_port()
        singles = [one_by_one.receive(frame) for frame in frames]
        accepted = burst.receive_burst(frames)
        assert accepted == sum(singles)
        assert _port_state(burst) == _port_state(one_by_one)
        return burst, accepted

    def test_with_room(self):
        nic, accepted = self._both_ways(lambda: NicPort(num_queues=4))
        assert accepted == len(_mixed_frames())
        assert len(nic.stats.q_ipackets) == 4

    def test_full_ring_drops(self):
        nic, accepted = self._both_ways(
            lambda: NicPort(num_queues=1, queue_capacity=5)
        )
        assert accepted == 5
        assert nic.stats.imissed == len(_mixed_frames()) - 5

    def test_exhausted_pool(self):
        nic, accepted = self._both_ways(
            lambda: NicPort(num_queues=2, mbuf_pool=MbufPool(size=7))
        )
        assert accepted == 7
        assert nic.pool.exhausted_count == len(_mixed_frames()) - 7

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_full_ring_displaces_at_each_ladder_level(self, level):
        def make_port():
            controller = OverloadController(sampled_modulus=2, snap_len=64)
            controller.level = level
            return NicPort(num_queues=1, queue_capacity=6, admission=controller)

        nic, _ = self._both_ways(make_port)
        controller = nic.admission
        assert sum(controller.offered.values()) == len(_mixed_frames())
        assert controller.shed_total(stage="ring") > 0
        # Handshake frames evict queued payload only where payload is
        # still admitted to be queued.
        assert (controller.ring_displacements > 0) == (level <= 1)


class TestOfferBurst:
    @staticmethod
    def _pipeline():
        controller = OverloadController(sampled_modulus=2)
        controller.level = 1
        return RuruPipeline(
            config=PipelineConfig(num_queues=1, queue_capacity=6),
            admission=controller,
        )

    def test_burst_settles_the_books_as_single_offers_do(self):
        frames = _mixed_frames()
        one_by_one, burst = self._pipeline(), self._pipeline()
        singles = [one_by_one.offer(frame) for frame in frames]
        assert burst.offer_burst(frames) == sum(singles)
        assert burst.stats == one_by_one.stats
        assert burst.stats.packets_offered == len(frames)
        assert burst.stats.packets_shed > 0
        assert burst.clock.now_ns == one_by_one.clock.now_ns == 2003
        assert _port_state(burst.nic) == _port_state(one_by_one.nic)

    def test_burst_from_a_generator_is_offered_whole(self):
        frames = _mixed_frames()
        from_list, from_generator = self._pipeline(), self._pipeline()
        queued = from_list.offer_burst(frames)
        assert from_generator.offer_burst(f for f in frames) == queued
        assert from_generator.stats == from_list.stats
        assert from_generator.clock.now_ns == from_list.clock.now_ns
        assert _port_state(from_generator.nic) == _port_state(from_list.nic)

    def test_quiesced_pipeline_counts_and_offers_nothing(self):
        pipeline = self._pipeline()
        pipeline.quiesce()
        frames = _mixed_frames()
        assert pipeline.offer_burst(frames) == 0
        assert pipeline.offer(frames[0]) is False
        stats = pipeline.stats
        assert stats.packets_rejected_quiesced == len(frames) + 1
        assert stats.packets_offered == 0
        assert pipeline.nic.pending() == 0
        assert pipeline.nic.stats == NicPort().stats
        assert sum(pipeline.admission.offered.values()) == 0
        assert pipeline.clock.now_ns == 0
