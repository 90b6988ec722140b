"""Transports over real fds: framing, EOF, partial writes, deadlock."""

import os
import signal

import pytest

from repro.mq.frames import Message
from repro.shard.transport import TransportClosed, TransportError, pipe_pair


def msg(*frames: bytes) -> Message:
    return Message(list(frames))


class TestLoopback:
    def test_send_recv_round_trip_both_kinds(self, loopback_pair):
        a, b = loopback_pair
        a.send(msg(b"topic", b"payload"))
        received = b.recv(timeout=1.0)
        assert received.frames == (b"topic", b"payload")
        b.send(msg(b"reply"))
        assert a.recv(timeout=1.0).frames == (b"reply",)
        a.close()
        b.close()

    def test_recv_timeout_returns_none(self, loopback_pair):
        a, b = loopback_pair
        assert b.recv(timeout=0.0) is None
        a.close()
        b.close()

    def test_recv_all_drains_in_order(self, loopback_pair):
        a, b = loopback_pair
        for i in range(5):
            a.send(msg(b"t", bytes([i])))
        out = b.recv_all()
        assert [m.frames[1] for m in out] == [bytes([i]) for i in range(5)]
        a.close()
        b.close()

    def test_eof_raises_transport_closed_once_inbox_empties(self, loopback_pair):
        a, b = loopback_pair
        a.send(msg(b"last"))
        a.close()
        assert b.recv(timeout=1.0).frames == (b"last",)
        with pytest.raises(TransportClosed):
            b.recv(timeout=1.0)
        b.close()

    def test_send_to_dead_peer_raises_closed(self, loopback_pair):
        a, b = loopback_pair
        b.close()
        with pytest.raises(TransportClosed):
            # Keep writing until the kernel reports the peer is gone.
            for _ in range(64):
                a.send(msg(b"x" * 65536))
        a.close()

    def test_send_stall_times_out_instead_of_hanging(self, loopback_pair):
        a, b = loopback_pair
        big = msg(b"x" * (1 << 22))  # 4 MiB >> pipe buffer
        with pytest.raises(TransportError):
            a.send(big, timeout=0.2)
        a.close()
        b.close()

    def test_pump_latches_eof_without_raising(self, loopback_pair):
        a, b = loopback_pair
        a.close()
        b.pump()
        assert b.eof
        b.close()


class TestTornTail:
    def test_torn_tail_from_killed_writer_stays_buffered(self, loopback_pair):
        """A peer SIGKILLed mid-message must not poison the reader."""
        a, b = loopback_pair
        blob = bytes(memoryview(bytearray(1024)))
        # Write a complete message then a torn prefix of another, raw.
        from repro.shard.wire import encode_message

        encoded = encode_message(msg(b"whole", blob))
        torn = encode_message(msg(b"torn", blob))[:-7]
        os.write(a._write_fd, encoded + torn)
        a.close()
        assert b.recv(timeout=1.0).frames[0] == b"whole"
        with pytest.raises(TransportClosed):
            b.recv(timeout=1.0)  # torn tail never surfaces as a message
        b.close()


class TestFdPairs:
    @pytest.mark.parametrize("make_pair", [pipe_pair], ids=["pipe"])
    def test_cross_process_round_trip(self, make_pair):
        pair = make_pair()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                child = pair.adopt_child()
                message = child.recv(timeout=5.0)
                child.send(msg(b"echo", *message.frames))
                child.close()
                code = 0
            finally:
                os._exit(code)
        parent = pair.adopt_parent()
        parent.send(msg(b"ping", b"data"))
        reply = parent.recv(timeout=5.0)
        assert reply.frames == (b"echo", b"ping", b"data")
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        parent.close()

    @pytest.mark.parametrize("make_pair", [pipe_pair], ids=["pipe"])
    def test_child_sigkill_produces_eof(self, make_pair):
        pair = make_pair()
        pid = os.fork()
        if pid == 0:
            pair.adopt_child()
            signal.pause()
            os._exit(0)
        parent = pair.adopt_parent()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        with pytest.raises(TransportClosed):
            while True:
                if parent.recv(timeout=5.0) is None:
                    pytest.fail("no EOF after child SIGKILL")
        parent.close()

    def test_large_message_survives_partial_writes(self):
        """A message far beyond the pipe buffer crosses intact because
        send loops over short writes while the child drains."""
        pair = pipe_pair()
        payload = os.urandom(1 << 20)  # 1 MiB >> 64 KiB pipe buffer
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                child = pair.adopt_child()
                message = child.recv(timeout=10.0)
                ok = message.frames[1] == payload
                child.send(msg(b"ok" if ok else b"bad"))
                code = 0
            finally:
                os._exit(code)
        parent = pair.adopt_parent()
        parent.send(msg(b"big", payload), timeout=10.0)
        assert parent.recv(timeout=10.0).frames[0] == b"ok"
        os.waitpid(pid, 0)
        parent.close()

    def test_bidirectional_flood_does_not_deadlock(self):
        """Both sides writing more than the pipe holds: send's
        drain-while-blocked loop must break the write-write cycle."""
        pair = pipe_pair()
        chunk = os.urandom(1 << 18)  # 256 KiB each way
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                child = pair.adopt_child()
                child.send(msg(b"flood", chunk), timeout=10.0)
                message = child.recv(timeout=10.0)
                assert message.frames[1] == chunk
                code = 0
            finally:
                os._exit(code)
        parent = pair.adopt_parent()
        parent.send(msg(b"flood", chunk), timeout=10.0)
        reply = parent.recv(timeout=10.0)
        assert reply.frames[1] == chunk
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        parent.close()
