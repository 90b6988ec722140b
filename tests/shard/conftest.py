"""Shard test plumbing: no test may leak a process, and a loopback
channel for the framing tests."""

import os
import signal
import time

import pytest

from repro.shard.transport import Transport


def _state_and_parent(pid):
    """``(state, ppid)`` of *pid* from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        # "pid (comm) state ppid ..." — comm may hold spaces.
        state, ppid = stat.read().rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def _children_of(parent_pid):
    """``(pid, state)`` of every child of *parent_pid*."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            state, ppid = _state_and_parent(entry)
        except OSError:
            continue  # exited while we were looking
        if ppid == parent_pid:
            found.append((int(entry), state))
    return found


def stop_process(pid, timeout_s=5.0):
    """SIGSTOP *pid* and wait until the kernel shows it stopped — the
    signal is asynchronous, and a stall test must not race it."""
    os.kill(pid, signal.SIGSTOP)
    deadline = time.monotonic() + timeout_s
    while _state_and_parent(pid)[0] != "T":
        assert time.monotonic() < deadline, f"SIGSTOP never landed on {pid}"
        time.sleep(0.002)


@pytest.fixture(autouse=True)
def no_leaked_processes(request):
    """After each test this process must have no children at all.

    A stopped child that outlives its parent keeps the parent's stdout
    pipe open and wedges whoever is reading it, so anything left —
    running, stopped or zombie — is SIGKILLed, reaped and fails the
    test that left it, by name.
    """
    yield
    leaked = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break  # no children: the only acceptable end state
        if pid:
            leaked.append(f"{pid} (zombie)")
            continue
        survivors = _children_of(os.getpid())
        if not survivors:
            break
        for pid, state in survivors:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            leaked.append(f"{pid} (state {state})")
    assert not leaked, (
        f"{request.node.nodeid} left child process(es) behind: "
        + ", ".join(leaked)
    )


@pytest.fixture
def loopback_pair():
    """Both ends of one channel in this process — framing over real
    fds, two pipes exactly as :func:`repro.shard.transport.pipe_pair`
    lays them out."""
    a_read, b_write = os.pipe()
    b_read, a_write = os.pipe()
    a = Transport(a_read, a_write, label="loop-a")
    b = Transport(b_read, b_write, label="loop-b")
    yield a, b
    a.close()
    b.close()
