"""Deterministic, seed-driven fault injection.

One :class:`FaultInjector` per chaos run. Every stage boundary gets its
own :class:`random.Random` derived from ``(seed, stage)``, so adding a
fault at one boundary never perturbs the decision stream at another —
the property that makes chaos runs comparable across profiles and
bit-identical across repeats of the same seed.

The injector only *decides and mangles*; delivery stays with the real
components. Adapters in :mod:`repro.faults.adapters` splice the
decisions into the packet stream, the PUSH socket, the geo/ASN
databases and the TSDB.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.faults.profiles import FaultProfile
from repro.net.packet import Packet


class FaultInjector:
    """Seeded decisions + payload mangling for one chaos run."""

    def __init__(self, profile: FaultProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        self._rngs: Dict[str, random.Random] = {}
        # (stage, kind) -> how many faults actually fired.
        self.injected: Dict[Tuple[str, str], int] = {}

    def rng(self, stage: str) -> random.Random:
        """The decision stream for one stage boundary."""
        rng = self._rngs.get(stage)
        if rng is None:
            rng = self._rngs[stage] = random.Random(f"{self.seed}:{stage}")
        return rng

    def decide(self, stage: str, kind: str, rate: float) -> bool:
        """Roll one fault decision; counts it when it fires.

        The roll is consumed even at rate 0 only if rate > 0 — a zero
        rate must not advance the RNG, so enabling one fault kind in a
        profile never shifts another kind's decision stream.
        """
        if rate <= 0.0:
            return False
        if self.rng(stage).random() < rate:
            key = (stage, kind)
            self.injected[key] = self.injected.get(key, 0) + 1
            return True
        return False

    def count(self, stage: str, kind: str) -> int:
        return self.injected.get((stage, kind), 0)

    def total_injected(self) -> int:
        return sum(self.injected.values())

    # -- byte mangling ------------------------------------------------------

    def corrupt_bytes(self, stage: str, data: bytes) -> bytes:
        """Flip 1–4 random bytes of *data*."""
        if not data:
            return data
        rng = self.rng(stage)
        out = bytearray(data)
        for _ in range(rng.randint(1, min(4, len(out)))):
            out[rng.randrange(len(out))] ^= rng.randint(1, 255)
        return bytes(out)

    def truncate_bytes(self, stage: str, data: bytes) -> bytes:
        """Cut *data* at a random interior point."""
        if len(data) < 2:
            return b""
        return data[: self.rng(stage).randint(1, len(data) - 1)]

    # -- NIC rx boundary ----------------------------------------------------

    def packet_stream(self, packets: Iterable[Packet]) -> Iterator[Packet]:
        """Apply rx faults to a packet stream, preserving timestamp order.

        Drops, truncations and bit flips act in place; duplicates are
        emitted back-to-back (a re-delivering tap); delays push a copy
        of the frame later in virtual time through a small reorder
        buffer so downstream still sees non-decreasing timestamps.
        """
        profile = self.profile
        stage = "nic.rx"
        delayed: List[Tuple[int, int, Packet]] = []  # (due_ns, tiebreak, pkt)
        tiebreak = 0
        for packet in packets:
            while delayed and delayed[0][0] <= packet.timestamp_ns:
                yield heapq.heappop(delayed)[2]
            if self.decide(stage, "drop", profile.packet_drop_rate):
                continue
            data = packet.data
            if self.decide(stage, "truncate", profile.packet_truncate_rate):
                data = self.truncate_bytes(stage, data)
            if self.decide(stage, "corrupt", profile.packet_corrupt_rate):
                data = self.corrupt_bytes(stage, data)
            if data is not packet.data:
                packet = Packet(data=data, timestamp_ns=packet.timestamp_ns)
            if self.decide(stage, "delay", profile.packet_delay_rate):
                delay_ns = self.rng(stage).randint(1, profile.packet_max_delay_ns)
                tiebreak += 1
                heapq.heappush(
                    delayed,
                    (
                        packet.timestamp_ns + delay_ns,
                        tiebreak,
                        Packet(
                            data=packet.data,
                            timestamp_ns=packet.timestamp_ns + delay_ns,
                        ),
                    ),
                )
                continue
            yield packet
            if self.decide(stage, "duplicate", profile.packet_duplicate_rate):
                yield packet
        while delayed:
            yield heapq.heappop(delayed)[2]

    # -- worker crash boundary ----------------------------------------------

    def crashy_poll(self, poll, role: str):
        """Wrap an lcore poll body to crash at the profile's rate.

        The crash fires *before* the poll runs, so no mbuf is ever
        half-processed — accepted packets stay in the ring for the
        post-restart poll, preserving count conservation.
        """
        rate = self.profile.worker_crash_rate
        if rate <= 0:
            return poll

        def unstable_poll() -> int:
            if self.decide("worker", "crash", rate):
                raise WorkerCrash(f"injected crash in {role}")
            return poll()

        return unstable_poll


class WorkerCrash(RuntimeError):
    """The injected failure mode for queue-worker poll bodies."""
