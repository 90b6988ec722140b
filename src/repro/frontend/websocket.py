"""RFC 6455 WebSocket framing and an in-memory channel.

Implements the data-plane parts of the protocol that carry Ruru's
frontend feed: frame encode/decode (FIN bit, opcodes, 7/16/64-bit
payload lengths, client-side masking) and a server↔client channel
whose bytes genuinely round-trip through the framing layer — so the
frontend benches measure real serialization work.

The HTTP upgrade handshake is out of scope (it happens once per
browser session and carries no measurement traffic).
"""

from __future__ import annotations

import json
import struct
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

OP_CONTINUATION = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_CONTROL_OPCODES = frozenset({OP_CLOSE, OP_PING, OP_PONG})
_ALL_OPCODES = frozenset({OP_CONTINUATION, OP_TEXT, OP_BINARY}) | _CONTROL_OPCODES


class WebSocketError(ValueError):
    """Raised for malformed frames or protocol violations."""


@dataclass(frozen=True)
class CloseFrame:
    """A decoded close frame: status code plus optional reason."""

    code: int = 1000
    reason: str = ""


def _mask_payload(payload: bytes, mask: bytes) -> bytes:
    return bytes(b ^ mask[i % 4] for i, b in enumerate(payload))


def encode_frame(
    opcode: int,
    payload: bytes,
    fin: bool = True,
    mask: Optional[bytes] = None,
) -> bytes:
    """Serialize one frame.

    Client→server frames must carry a 4-byte *mask* (RFC 6455 §5.3);
    server→client frames must not.
    """
    if opcode not in _ALL_OPCODES:
        raise WebSocketError(f"unknown opcode 0x{opcode:x}")
    if opcode in _CONTROL_OPCODES:
        if not fin:
            raise WebSocketError("control frames cannot be fragmented")
        if len(payload) > 125:
            raise WebSocketError("control frame payload exceeds 125 bytes")
    header = bytearray()
    header.append((0x80 if fin else 0) | opcode)
    mask_bit = 0x80 if mask is not None else 0
    length = len(payload)
    if length < 126:
        header.append(mask_bit | length)
    elif length < (1 << 16):
        header.append(mask_bit | 126)
        header += struct.pack("!H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack("!Q", length)
    if mask is not None:
        if len(mask) != 4:
            raise WebSocketError("mask must be 4 bytes")
        header += mask
        payload = _mask_payload(payload, mask)
    return bytes(header) + payload


def decode_frame(data: bytes) -> Tuple[int, bytes, bool, int]:
    """Parse one frame from *data*.

    Returns (opcode, payload, fin, bytes_consumed); raises
    :class:`WebSocketError` if the buffer holds no complete frame.
    """
    if len(data) < 2:
        raise WebSocketError("incomplete frame header")
    fin = bool(data[0] & 0x80)
    if data[0] & 0x70:
        raise WebSocketError("reserved bits set without extension")
    opcode = data[0] & 0x0F
    if opcode not in _ALL_OPCODES:
        raise WebSocketError(f"unknown opcode 0x{opcode:x}")
    masked = bool(data[1] & 0x80)
    length = data[1] & 0x7F
    offset = 2
    if length == 126:
        if len(data) < offset + 2:
            raise WebSocketError("incomplete 16-bit length")
        length = struct.unpack_from("!H", data, offset)[0]
        offset += 2
    elif length == 127:
        if len(data) < offset + 8:
            raise WebSocketError("incomplete 64-bit length")
        length = struct.unpack_from("!Q", data, offset)[0]
        offset += 8
    mask = None
    if masked:
        if len(data) < offset + 4:
            raise WebSocketError("incomplete mask")
        mask = data[offset:offset + 4]
        offset += 4
    if len(data) < offset + length:
        raise WebSocketError("incomplete payload")
    payload = data[offset:offset + length]
    if mask is not None:
        payload = _mask_payload(payload, mask)
    return opcode, bytes(payload), fin, offset + length


class WebSocketChannel:
    """An in-memory server↔client WebSocket connection.

    Every message is encoded to wire bytes on send and decoded on
    receive; the channel also tracks byte counters so benches can
    report feed bandwidth.
    """

    def __init__(self, name: str = "ws"):
        self.name = name
        self._to_client: Deque[bytes] = deque()
        self._to_server: Deque[bytes] = deque()
        self.open = True
        self.close_frame: Optional[CloseFrame] = None
        self.bytes_to_client = 0
        self.bytes_to_server = 0
        self.messages_to_client = 0

    def _require_open(self) -> None:
        if not self.open:
            raise WebSocketError(f"{self.name}: channel is closed")

    # -- server side ------------------------------------------------------

    def server_send_text(self, text: str) -> int:
        """Send a text message to the client; returns wire bytes."""
        self._require_open()
        frame = encode_frame(OP_TEXT, text.encode("utf-8"))
        self._to_client.append(frame)
        self.bytes_to_client += len(frame)
        self.messages_to_client += 1
        return len(frame)

    def server_send_json(self, obj) -> int:
        """JSON-serialize and send (the map feed's message shape)."""
        return self.server_send_text(json.dumps(obj, separators=(",", ":")))

    def server_close(self, code: int = 1000, reason: str = "") -> None:
        """Initiate a close from the server side."""
        self._require_open()
        payload = struct.pack("!H", code) + reason.encode("utf-8")
        self._to_client.append(encode_frame(OP_CLOSE, payload))
        self.open = False
        self.close_frame = CloseFrame(code, reason)

    # -- client side --------------------------------------------------------

    def client_recv_text(self) -> Optional[str]:
        """Receive one text message; None when nothing is queued."""
        while self._to_client:
            frame = self._to_client.popleft()
            opcode, payload, _fin, _consumed = decode_frame(frame)
            if opcode == OP_TEXT:
                return payload.decode("utf-8")
            if opcode == OP_CLOSE:
                code = struct.unpack("!H", payload[:2])[0] if len(payload) >= 2 else 1000
                self.close_frame = CloseFrame(code, payload[2:].decode("utf-8"))
                return None
        return None

    def client_recv_json(self):
        """Receive and JSON-decode one message; None when queue is empty."""
        text = self.client_recv_text()
        return None if text is None else json.loads(text)

    def client_recv_all_json(self) -> List[dict]:
        """Drain all queued JSON messages."""
        out = []
        while True:
            obj = self.client_recv_json()
            if obj is None:
                return out
            out.append(obj)
