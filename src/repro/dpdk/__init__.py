"""DPDK simulation: the substrate Ruru's fast path runs on.

The real Ruru uses DPDK's poll-mode driver, symmetric Receive Side
Scaling (RSS) into multiple hardware queues, and one processing thread
per queue pinned to its own core. This package reproduces those
semantics in-process (the per-queue workers themselves are a list of
poll bodies that :class:`repro.core.pipeline.RuruPipeline` calls
round-robin — cooperative, deterministic scheduling):

* :mod:`repro.dpdk.clock` — a virtual TSC-style nanosecond clock.
* :mod:`repro.dpdk.mbuf` — a fixed-size packet-buffer budget with
  taken/given-back accounting (exhaustion == rx drops, as on real
  hardware) and the row a received frame travels as.
* :mod:`repro.dpdk.ring` — bounded single-producer/single-consumer
  rings used for queue↔worker handoff.
* :mod:`repro.dpdk.rss` — the Toeplitz RSS hash, including the
  symmetric key trick that sends both directions of a flow to the
  same queue (Ruru depends on this so SYN and SYN-ACK meet in one
  hash table).
* :mod:`repro.dpdk.nic` — a multi-queue NIC that classifies incoming
  frames with RSS and exposes per-queue ``rx_burst``.
"""

from repro.dpdk.clock import VirtualClock
from repro.dpdk.mbuf import MbufPool, RxRow
from repro.dpdk.ring import Ring, RingEmpty, RingFull
from repro.dpdk.rss import (
    DEFAULT_RSS_KEY,
    SYMMETRIC_RSS_KEY,
    RssHasher,
    make_symmetric_key,
    toeplitz_hash,
)
from repro.dpdk.nic import NicPort, RxQueue
from repro.dpdk.port_stats import PortStats

__all__ = [
    "VirtualClock",
    "MbufPool",
    "RxRow",
    "Ring",
    "RingEmpty",
    "RingFull",
    "DEFAULT_RSS_KEY",
    "SYMMETRIC_RSS_KEY",
    "RssHasher",
    "make_symmetric_key",
    "toeplitz_hash",
    "NicPort",
    "RxQueue",
    "PortStats",
]
