"""NIC-side triage: policy shedding, displacement, loss attribution."""

from repro.net.packet import Packet, build_tcp_packet
from repro.net.tcp import TCP_FLAG_ACK, TCP_FLAG_PSH, TCP_FLAG_RST, TCP_FLAG_SYN
from repro.dpdk.nic import NicPort
from repro.overload import HANDSHAKE, PAYLOAD, OverloadController
from repro.overload.controller import LEVEL_HANDSHAKE_ONLY


def syn(sport=1000):
    return build_tcp_packet(0x0A000001, 0x0A000002, sport, 443, TCP_FLAG_SYN)


def data(sport=1000, size=400):
    return build_tcp_packet(
        0x0A000001,
        0x0A000002,
        sport,
        443,
        TCP_FLAG_PSH | TCP_FLAG_ACK,
        payload=b"x" * size,
    )


def ack(sport=1000):
    return build_tcp_packet(0x0A000001, 0x0A000002, sport, 443, TCP_FLAG_ACK)


def port(capacity=4, controller=None):
    return NicPort(num_queues=1, queue_capacity=capacity, admission=controller)


class TestDisplacement:
    def test_handshake_displaces_newest_payload(self):
        controller = OverloadController()
        nic = port(capacity=4, controller=controller)
        # Two handshakes then two data segments fill the ring.
        for packet in (syn(1), ack(2), data(3), data(4)):
            assert nic.receive(packet)
        ring = nic.queues[0].ring
        assert ring.is_full

        incoming = syn(5)
        assert nic.receive(incoming) is True
        assert len(ring) == 4
        assert controller.ring_displacements == 1
        assert controller.shed_total(klass=PAYLOAD, stage="ring") == 1
        assert ring.displaced == 1
        # Displacement is not a miss: the handshake made it in.
        assert nic.stats.imissed == 0
        assert nic.stats.ipackets == 5
        # The victim was the *newest* payload frame (sport 4); the
        # incoming handshake now sits at the tail.
        queued = list(ring.items)
        assert queued[-1].data == incoming.data
        assert not any(m.data == data(4).data for m in queued)
        assert any(m.data == data(3).data for m in queued)
        # The evicted mbuf went back to the pool.
        assert nic.pool.in_use == 4

    def test_payload_never_displaces(self):
        controller = OverloadController()
        nic = port(capacity=2, controller=controller)
        assert nic.receive(data(1))
        assert nic.receive(data(2))
        assert nic.receive(data(3)) is False
        assert controller.ring_displacements == 0
        assert controller.shed_total(klass=PAYLOAD, stage="ring") == 1
        assert nic.stats.imissed == 1
        # A ring-full loss of an admitted frame is still attributed
        # shed, so the pipeline splits it out of nic_drops.
        assert controller.take_nic_shed() == 1

    def test_padded_control_segments_are_not_displaceable(self):
        # A pure ACK and an RST padded to Ethernet's 60-byte minimum
        # fill the ring; a SYN finds no payload to evict.
        controller = OverloadController()
        nic = port(capacity=2, controller=controller)
        for flags in (TCP_FLAG_ACK, TCP_FLAG_RST):
            frame = build_tcp_packet(0x0A000001, 0x0A000002, 7, 443, flags)
            assert nic.receive(Packet(data=frame.data + b"\x00" * 6))
        ring = nic.queues[0].ring
        assert not any(controller.is_displaceable(m) for m in ring.items)
        assert nic.receive(syn(3)) is False
        assert controller.ring_displacements == 0
        assert controller.shed_total(klass=PAYLOAD) == 0
        assert controller.shed_total(klass=HANDSHAKE, stage="ring") == 1

    def test_handshake_drops_when_no_victim(self):
        controller = OverloadController()
        nic = port(capacity=2, controller=controller)
        assert nic.receive(syn(1))
        assert nic.receive(ack(2))
        assert nic.receive(syn(3)) is False
        assert controller.ring_displacements == 0
        assert controller.shed_total(klass=HANDSHAKE, stage="ring") == 1
        assert nic.stats.imissed == 1


class TestPolicyShed:
    def test_ladder_sheds_before_allocation(self):
        controller = OverloadController()
        controller.level = LEVEL_HANDSHAKE_ONLY
        nic = port(capacity=8, controller=controller)
        assert nic.receive(syn(1)) is True
        assert nic.receive(data(2)) is False
        assert nic.stats.imissed == 1
        assert nic.stats.ipackets == 1
        assert controller.shed_total(klass=PAYLOAD, stage="nic") == 1
        assert controller.take_nic_shed() == 1
        assert controller.take_nic_shed() == 0
        # Nothing was allocated for the shed frame.
        assert nic.pool.in_use == 1

    def test_no_admission_means_plain_drops(self):
        nic = port(capacity=1)
        assert nic.receive(data(1))
        assert nic.receive(data(2)) is False
        assert nic.stats.imissed == 1


class TestConservation:
    def test_offered_splits_into_admitted_plus_shed(self):
        controller = OverloadController(sampled_modulus=2)
        controller.level = LEVEL_HANDSHAKE_ONLY
        nic = port(capacity=2, controller=controller)
        packets = [syn(1), data(2), ack(3), data(4), syn(5), ack(6)]
        queued = sum(1 for p in packets if nic.receive(p))

        offered = sum(controller.offered.values())
        admitted = sum(controller.admitted.values())
        policy_shed = controller.shed_total(stage="nic")
        ring_shed = controller.shed_total(stage="ring")
        assert offered == len(packets)
        assert offered == admitted + policy_shed
        assert queued == admitted - ring_shed + controller.ring_displacements
        assert nic.stats.ipackets == queued
        assert nic.stats.imissed == len(packets) - queued
