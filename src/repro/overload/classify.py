"""Admission-time frame triage.

Ruru derives its latency signal almost entirely from small control
segments: SYN / SYN-ACK / ACK carry the 3-way-handshake RTT, and pure
ACK / FIN / RST segments drive flow-table state transitions. Data
segments are bulk. When the system must drop, the order of sacrifice
is therefore fixed:

- ``HANDSHAKE`` — any TCP segment with SYN set, or any TCP segment
  without payload (pure ACK, FIN, RST). Shed last.
- ``PAYLOAD`` — TCP segments carrying data. Shed first.
- ``OTHER`` — non-TCP or unparseable frames. Shed before handshake.

The class is read off the port's one header pass — a
:class:`~repro.net.parser.ParsedPacket`, or the reject reason when the
frame has none — so payload length is the IP datagram's, not the
captured frame's: a pure ACK padded to Ethernet's 60-byte minimum is
still ``HANDSHAKE``. Every admitted frame is classed, so the per-class
offered counts are meaningful denominators even when nothing is shed.
"""

from __future__ import annotations

from repro.net.parser import PacketParser, ParsedPacket
from repro.net.tcp import TCP_FLAG_SYN

HANDSHAKE = "handshake"
PAYLOAD = "payload"
OTHER = "other"

#: Classification order is shedding priority, most-sheddable first.
CLASSES = (PAYLOAD, OTHER, HANDSHAKE)

_PARSER = PacketParser()


def classify_parsed(parsed) -> str:
    """Shed class of one header pass's result: a ``ParsedPacket``, or
    anything else (a reject reason) for a frame without one."""
    if parsed.__class__ is not ParsedPacket:
        return OTHER
    if parsed.flags & TCP_FLAG_SYN or not parsed.payload_len:
        return HANDSHAKE
    return PAYLOAD


def classify_frame(data: bytes) -> str:
    """Triage one wire frame, for callers that hold no parse of it."""
    return classify_parsed(_PARSER.header_pass(data, 0))
