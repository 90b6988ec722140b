"""Queue worker tests."""

from repro.core.config import PipelineConfig
from repro.core.stats import PipelineStats
from repro.core.worker import QueueWorker
from repro.dpdk.mbuf import RxRow
from repro.dpdk.nic import NicPort
from repro.net.packet import Packet
from tests.conftest import make_handshake


def _nic_with_handshake(num_queues=1):
    nic = NicPort(num_queues=num_queues)
    for packet in make_handshake():
        nic.receive(packet)
    return nic


class TestQueueWorker:
    def test_poll_processes_burst_and_measures(self):
        nic = _nic_with_handshake()
        got = []
        worker = QueueWorker(nic, queue_id=0, sink=got.append)
        processed = worker.poll()
        assert processed == 3
        assert len(got) == 1
        assert got[0].external_ns == 50_000_000

    def test_poll_empty_queue_returns_zero(self):
        nic = NicPort(num_queues=1)
        worker = QueueWorker(nic, queue_id=0)
        assert worker.poll() == 0

    def test_mbufs_freed_after_processing(self):
        nic = _nic_with_handshake()
        worker = QueueWorker(nic, queue_id=0)
        worker.poll()
        assert nic.pool.in_use == 0

    def test_parse_errors_counted(self):
        nic = NicPort(num_queues=1)
        nic.receive(Packet(data=b"\x00" * 40, timestamp_ns=1))  # not-ip junk
        stats = PipelineStats()
        worker = QueueWorker(nic, queue_id=0, pipeline_stats=stats)
        worker.poll()
        assert stats.parse_errors == 1
        assert "not-ip" in stats.parse_error_reasons

    def test_mbuf_without_a_header_pass_is_parsed_from_its_bytes(self):
        # RxRow is public: a row enqueued without the port's parse (as
        # the shard child's are built) is parsed by the worker from its
        # bytes.
        nic = NicPort(num_queues=1)
        for packet in make_handshake():
            nic.pool.settle(taken=1)
            row = RxRow(packet.timestamp_ns, 0, None, packet.data, 0, nic.pool)
            nic.queues[0].ring.enqueue(row)
        got = []
        worker = QueueWorker(nic, queue_id=0, sink=got.append)
        assert worker.poll() == 3
        assert len(got) == 1 and got[0].external_ns == 50_000_000
        assert nic.pool.in_use == 0

    def test_observer_sees_parsed_packets(self):
        nic = _nic_with_handshake()
        seen = []
        worker = QueueWorker(nic, queue_id=0, observers=[seen.extend])
        worker.poll()
        assert len(seen) == 3
        assert seen[0].is_syn

    def test_burst_size_respected(self):
        nic = NicPort(num_queues=1)
        for _ in range(3):
            for packet in make_handshake():
                nic.receive(packet)
        config = PipelineConfig(burst_size=4)
        worker = QueueWorker(nic, queue_id=0, config=config)
        assert worker.poll() == 4
        assert worker.poll() == 4
        assert worker.poll() == 1
