"""Closed-loop overload control: pressure sensing, priority shedding.

The paper's premise is keeping up with a 10G tap; the one failure mode
Ruru cannot tolerate is silently falling behind it. This package closes
the loop between queue pressure and admission:

- :mod:`repro.overload.classify` — frame triage at NIC admission:
  handshake (carries the entire latency signal) vs payload vs other.
- :mod:`repro.overload.watermark` — low/high hysteresis bands and
  peak-occupancy sensors over rings and MQ queues.
- :mod:`repro.overload.controller` — the degradation ladder
  ``full -> sampled -> handshake-only -> headers-only`` stepped with
  dwell times on the virtual clock, plus per-class/per-stage shed
  accounting.
- :mod:`repro.overload.gate` — the record-level admission gate at the
  pipeline->MQ boundary.

The extended conservation invariant ``ingested == processed + dropped +
deadlettered + shed`` is :meth:`repro.resilience.Ledger.from_parts`.
"""

from repro.overload.classify import CLASSES, HANDSHAKE, OTHER, PAYLOAD, classify_frame
from repro.overload.controller import (
    LEVEL_NAMES,
    OverloadController,
    OverloadTransition,
)
from repro.overload.gate import GatedPushSocket
from repro.overload.watermark import WatermarkBand, ring_reader, socket_reader

__all__ = [
    "CLASSES",
    "HANDSHAKE",
    "PAYLOAD",
    "OTHER",
    "classify_frame",
    "LEVEL_NAMES",
    "OverloadController",
    "OverloadTransition",
    "GatedPushSocket",
    "WatermarkBand",
    "ring_reader",
    "socket_reader",
]
