"""Deterministic fault injection for the Ruru pipeline.

Everything here is seed-driven: a :class:`FaultProfile` says *what can
go wrong and how often*, a :class:`FaultInjector` turns that into
per-stage decision streams from one seed, the adapters splice those
decisions into real components, and :func:`render_chaos` reports a
full pipeline + analytics episode run under a named profile, checking
that the resilience layer absorbed every fault (see
:mod:`repro.resilience`).

Same (profile, seed) → byte-identical fault sequence → identical run
counts. That determinism is what makes chaos testable in CI.
"""

from repro.faults.adapters import (
    FaultyPushSocket,
    FlakyAsnDatabase,
    FlakyGeoDatabase,
    FlakyTimeSeriesDatabase,
    LookupFailure,
    TsdbWriteError,
)
from repro.faults.chaos import chaos_ok, render_chaos
from repro.faults.crashpoints import CRASH_POINTS, CrashSchedule, SimulatedCrash
from repro.faults.injector import FaultInjector, WorkerCrash
from repro.faults.profiles import PROFILES, FaultProfile, get_profile

__all__ = [
    "CRASH_POINTS",
    "CrashSchedule",
    "FaultInjector",
    "FaultProfile",
    "FaultyPushSocket",
    "FlakyAsnDatabase",
    "FlakyGeoDatabase",
    "FlakyTimeSeriesDatabase",
    "LookupFailure",
    "PROFILES",
    "SimulatedCrash",
    "TsdbWriteError",
    "WorkerCrash",
    "chaos_ok",
    "get_profile",
    "render_chaos",
]
