"""Flow specs and the packet-level synthesizer.

A :class:`FlowSpec` describes one TCP connection as the *tap* will see
it: where the endpoints are, the RTT between the client and the tap
(the flow's eventual "internal" latency) and between the tap and the
server ("external"), plus behavioural knobs — handshake-only flows
(scans/floods), RST aborts, SYN loss beyond the tap, data exchanges,
FIN close.

:class:`FlowSynthesizer` turns a spec into genuine wire-format frames
with tap-relative capture timestamps. The timestamp arithmetic is the
ground truth the measurement pipeline is validated against::

    t(SYN@tap)     = start + internal/2
    t(SYN-ACK@tap) = t(SYN@tap) + external + server_delay
    t(ACK@tap)     = t(SYN-ACK@tap) + internal + client_delay

so Ruru should measure ``external_rtt + server_delay`` as external
latency and ``internal_rtt + client_delay`` as internal latency —
exposed as :meth:`FlowSpec.expected_external_ns` and
:meth:`FlowSpec.expected_internal_ns`.

Data segments carry RFC 7323 timestamp options with per-host 1 kHz
TSval clocks, which is what the pping baseline consumes.

Every segment leaves its TCP checksum zero, as a capture taken behind
checksum offload does (the NIC fills it in after the tap's copy); the
IPv4 header checksums are valid. So every ``ruru generate`` pcap
carries zero TCP checksums.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import List, Optional

from repro.net.packet import DEFAULT_DST_MAC, DEFAULT_SRC_MAC, Packet, pack_tcp_frame
from repro.net.tcp import (
    OPT_NOP,
    OPT_TIMESTAMP,
    TCP_FLAG_ACK,
    TCP_FLAG_FIN,
    TCP_FLAG_PSH,
    TCP_FLAG_RST,
    TCP_FLAG_SYN,
)

NS_PER_MS = 1_000_000
DEFAULT_RTO_MS = 1000.0

_TIMESTAMP_NOP_NOP = struct.Struct("!BBIIBB")


def timestamp_options(tsval: int, tsecr: int) -> bytes:
    """The 12 option bytes of every synthesized segment: an RFC 7323
    timestamp, then two NOPs of padding, as real stacks emit."""
    return _TIMESTAMP_NOP_NOP.pack(OPT_TIMESTAMP, 10, tsval, tsecr, OPT_NOP, OPT_NOP)


@dataclass
class FlowSpec:
    """One connection, described from the tap's vantage point."""

    start_ns: int
    client_ip: int
    server_ip: int
    client_port: int
    server_port: int
    internal_rtt_ms: float
    external_rtt_ms: float
    server_delay_ms: float = 0.5
    client_delay_ms: float = 0.2
    data_exchanges: int = 2
    request_bytes: int = 220
    response_bytes: int = 1200
    completes: bool = True
    rst_after_synack: bool = False
    syn_lost_beyond_tap: bool = False
    rto_ms: float = DEFAULT_RTO_MS
    fin_close: bool = True
    client_isn: int = 0
    server_isn: int = 0
    is_ipv6: bool = False

    def __post_init__(self):
        if self.internal_rtt_ms < 0 or self.external_rtt_ms < 0:
            raise ValueError("RTTs cannot be negative")
        if self.data_exchanges < 0:
            raise ValueError("data_exchanges cannot be negative")

    # -- ground truth the pipeline should recover -----------------------

    def expected_external_ns(self) -> int:
        """External latency Ruru should measure for this flow."""
        extra = self.rto_ms if self.syn_lost_beyond_tap else 0.0
        return int((self.external_rtt_ms + self.server_delay_ms + extra) * NS_PER_MS)

    def expected_internal_ns(self) -> int:
        """Internal latency Ruru should measure for this flow."""
        return int((self.internal_rtt_ms + self.client_delay_ms) * NS_PER_MS)

    def expected_total_ns(self) -> int:
        return self.expected_external_ns() + self.expected_internal_ns()


class FlowSynthesizer:
    """Expands flow specs into tap-timestamped wire frames.

    Each frame is one :func:`~repro.net.packet.pack_tcp_frame` call with
    the 12 timestamp+NOP+NOP option bytes and a zero TCP checksum.
    """

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random(0)

    def synthesize(self, spec: FlowSpec) -> List[Packet]:
        """All frames of one flow, in tap-timestamp order."""
        rng = self.rng
        # Every seq/ack below is masked to 32 bits: the packer writes them as given.
        client_isn = (spec.client_isn or rng.getrandbits(32)) & 0xFFFFFFFF
        server_isn = (spec.server_isn or rng.getrandbits(32)) & 0xFFFFFFFF
        # Per-host TSval clocks: 1 kHz with random epoch offsets.
        client_ts_offset = rng.getrandbits(30)
        server_ts_offset = rng.getrandbits(30)

        def client_tsval(at_ns: int) -> int:
            return (client_ts_offset + at_ns // NS_PER_MS) & 0xFFFFFFFF

        def server_tsval(at_ns: int) -> int:
            return (server_ts_offset + at_ns // NS_PER_MS) & 0xFFFFFFFF

        internal_ns = int(spec.internal_rtt_ms * NS_PER_MS)
        external_ns = int(spec.external_rtt_ms * NS_PER_MS)
        one_way_internal = internal_ns // 2

        packets: List[Packet] = []
        last_client_tsval = 0
        last_server_tsval = 0

        def emit(
            at_ns: int,
            from_client: bool,
            flags: int,
            seq: int,
            ack: int,
            payload: bytes = b"",
        ) -> None:
            nonlocal last_client_tsval, last_server_tsval
            if from_client:
                tsval = client_tsval(at_ns)
                tsecr = last_server_tsval
                last_client_tsval = tsval
                src_ip, dst_ip = spec.client_ip, spec.server_ip
                src_port, dst_port = spec.client_port, spec.server_port
            else:
                tsval = server_tsval(at_ns)
                tsecr = last_client_tsval
                last_server_tsval = tsval
                src_ip, dst_ip = spec.server_ip, spec.client_ip
                src_port, dst_port = spec.server_port, spec.client_port
            packets.append(
                Packet(
                    pack_tcp_frame(
                        src_ip, dst_ip, src_port, dst_port, flags, seq, ack,
                        timestamp_options(tsval, tsecr), payload, spec.is_ipv6,
                        64, 65535, None,  # TTL, window, untagged
                        DEFAULT_SRC_MAC, DEFAULT_DST_MAC,
                    ),
                    at_ns,
                )
            )

        # --- SYN -----------------------------------------------------------
        t_syn = spec.start_ns + one_way_internal
        emit(t_syn, True, TCP_FLAG_SYN, client_isn, 0)

        if spec.syn_lost_beyond_tap:
            # The tap saw the SYN, the server did not; the retransmit
            # after one RTO carries the same ISN and actually connects.
            t_syn_retx = t_syn + int(spec.rto_ms * NS_PER_MS)
            emit(t_syn_retx, True, TCP_FLAG_SYN, client_isn, 0)
            synack_base = t_syn_retx
        else:
            synack_base = t_syn

        if not spec.completes:
            return packets

        # --- SYN-ACK ---------------------------------------------------------
        t_synack = synack_base + external_ns + int(spec.server_delay_ms * NS_PER_MS)
        emit(
            t_synack,
            False,
            TCP_FLAG_SYN | TCP_FLAG_ACK,
            server_isn,
            (client_isn + 1) & 0xFFFFFFFF,
        )

        # --- final handshake packet: ACK or RST ------------------------------
        t_third = t_synack + internal_ns + int(spec.client_delay_ms * NS_PER_MS)
        if spec.rst_after_synack:
            emit(
                t_third,
                True,
                TCP_FLAG_RST | TCP_FLAG_ACK,
                (client_isn + 1) & 0xFFFFFFFF,
                (server_isn + 1) & 0xFFFFFFFF,
            )
            return packets
        emit(
            t_third,
            True,
            TCP_FLAG_ACK,
            (client_isn + 1) & 0xFFFFFFFF,
            (server_isn + 1) & 0xFFFFFFFF,
        )

        # --- data exchanges ---------------------------------------------------
        client_sent = 0
        server_sent = 0
        t_cursor = t_third
        for _round in range(spec.data_exchanges):
            think_ns = int(rng.uniform(0.1, 2.0) * NS_PER_MS)
            t_request = t_cursor + think_ns
            emit(
                t_request,
                True,
                TCP_FLAG_PSH | TCP_FLAG_ACK,
                (client_isn + 1 + client_sent) & 0xFFFFFFFF,
                (server_isn + 1 + server_sent) & 0xFFFFFFFF,
                payload=b"Q" * spec.request_bytes,
            )
            client_sent += spec.request_bytes
            t_response = t_request + external_ns + int(spec.server_delay_ms * NS_PER_MS)
            emit(
                t_response,
                False,
                TCP_FLAG_PSH | TCP_FLAG_ACK,
                (server_isn + 1 + server_sent) & 0xFFFFFFFF,
                (client_isn + 1 + client_sent) & 0xFFFFFFFF,
                payload=b"R" * spec.response_bytes,
            )
            server_sent += spec.response_bytes
            t_data_ack = t_response + internal_ns
            emit(
                t_data_ack,
                True,
                TCP_FLAG_ACK,
                (client_isn + 1 + client_sent) & 0xFFFFFFFF,
                (server_isn + 1 + server_sent) & 0xFFFFFFFF,
            )
            t_cursor = t_data_ack

        # --- close --------------------------------------------------------------
        if spec.fin_close:
            t_fin = t_cursor + int(rng.uniform(0.5, 5.0) * NS_PER_MS)
            emit(
                t_fin,
                True,
                TCP_FLAG_FIN | TCP_FLAG_ACK,
                (client_isn + 1 + client_sent) & 0xFFFFFFFF,
                (server_isn + 1 + server_sent) & 0xFFFFFFFF,
            )
            t_fin_ack = t_fin + external_ns + int(spec.server_delay_ms * NS_PER_MS)
            emit(
                t_fin_ack,
                False,
                TCP_FLAG_FIN | TCP_FLAG_ACK,
                (server_isn + 1 + server_sent) & 0xFFFFFFFF,
                (client_isn + 2 + client_sent) & 0xFFFFFFFF,
            )
            t_last = t_fin_ack + internal_ns
            emit(
                t_last,
                True,
                TCP_FLAG_ACK,
                (client_isn + 2 + client_sent) & 0xFFFFFFFF,
                (server_isn + 2 + server_sent) & 0xFFFFFFFF,
            )
        return packets
