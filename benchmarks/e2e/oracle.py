"""Ground truth: which measurements a trace must yield, and their values.

Independent of the pipeline: expectations come from the ``FlowSpec``s
the generator kept, keyed by the capture time of each handshake's final
ACK — the one identity that survives every tier (latency records carry
it as ``ack_ns``, anonymized measurements as ``timestamp_ns``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Tuple

from repro.net.addresses import int_to_ip, int_to_ipv6
from repro.traffic.flows import FlowSpec

from benchmarks.e2e.workloads import Trace

NS_PER_MS = 1_000_000

#: The tolerance ``tests/core/test_pipeline.py`` holds the pipeline to.
TOLERANCE_NS = NS_PER_MS


def handshake_ack_ns(spec: FlowSpec) -> int:
    """Tap capture time of *spec*'s final handshake ACK.

    The arithmetic ``repro.traffic.flows`` documents as its ground
    truth, integer truncation included; :class:`Oracle` checks it
    against the generated frames.
    """
    internal_ns = int(spec.internal_rtt_ms * NS_PER_MS)
    syn_ns = spec.start_ns + internal_ns // 2
    if spec.syn_lost_beyond_tap:
        syn_ns += int(spec.rto_ms * NS_PER_MS)
    synack_ns = (
        syn_ns
        + int(spec.external_rtt_ms * NS_PER_MS)
        + int(spec.server_delay_ms * NS_PER_MS)
    )
    return synack_ns + internal_ns + int(spec.client_delay_ms * NS_PER_MS)


class Oracle:
    """Every completing, tap-visible flow of one trace."""

    def __init__(self, trace: Trace):
        index_of = {
            packet.timestamp_ns: index for index, packet in enumerate(trace.frames)
        }
        last_ns = trace.frames[-1].timestamp_ns
        self.expected: Dict[int, List[FlowSpec]] = {}
        #: ACK capture time -> index of that frame in the fed trace.
        self.ack_index: Dict[int, int] = {}
        self.count = 0
        for spec in trace.generator.specs:
            if not spec.completes or spec.rst_after_synack:
                continue
            ack_ns = handshake_ack_ns(spec)
            if trace.truncated and ack_ns > last_ns:
                continue  # the ACK falls behind the cut: not tap-visible
            index = index_of.get(ack_ns)
            if index is None:
                raise RuntimeError(
                    f"oracle out of step with repro.traffic: no frame at the "
                    f"expected ACK time {ack_ns} of flow starting {spec.start_ns}"
                )
            self.expected.setdefault(ack_ns, []).append(spec)
            self.ack_index[ack_ns] = index
            self.count += 1

    def verify(self, items: Iterable) -> Tuple[int, List[Tuple[object, FlowSpec]]]:
        """Match delivered records against the expectations.

        *items* expose ``timestamp_ns``, ``external_ns`` and
        ``internal_ns``. Returns how many expectations failed (missing,
        wrong by more than the tolerance, duplicated or unexpected) and
        the (item, spec) pairs that matched.
        """
        remaining = {ack: list(specs) for ack, specs in self.expected.items()}
        failed = 0
        matched: List[Tuple[object, FlowSpec]] = []
        for item in items:
            specs = remaining.get(item.timestamp_ns)
            if not specs:
                failed += 1  # unexpected or duplicate
                continue
            for spec in specs:
                if (
                    abs(item.external_ns - spec.expected_external_ns()) <= TOLERANCE_NS
                    and abs(item.internal_ns - spec.expected_internal_ns())
                    <= TOLERANCE_NS
                ):
                    specs.remove(spec)
                    matched.append((item, spec))
                    break
            else:
                specs.pop()
                failed += 1  # delivered, but with the wrong latency
        failed += sum(len(specs) for specs in remaining.values())
        return failed, matched


def leaks_address(measurement, spec: FlowSpec) -> bool:
    """Whether any field of a frontend-tier *measurement* carries an
    endpoint address of *spec*, as an integer or in text form."""
    to_text = int_to_ipv6 if spec.is_ipv6 else int_to_ip
    addresses = (spec.client_ip, spec.server_ip)
    texts = [to_text(address) for address in addresses]
    for value in dataclasses.astuple(measurement):
        if isinstance(value, str):
            if any(text in value for text in texts):
                return True
        elif value in addresses:
            return True
    return False
