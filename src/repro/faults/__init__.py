"""Deterministic fault injection for the Ruru pipeline.

Everything here is seed-driven: a :class:`FaultProfile` says *what can
go wrong and how often*, a :class:`FaultInjector` turns that into
per-stage decision streams from one seed, the adapters splice those
decisions into real components, and :func:`run_chaos` runs a full
pipeline + analytics stack under a named profile and checks that the
resilience layer absorbed every fault (see :mod:`repro.resilience`).

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
from repro.faults.chaos import ChaosReport, run_chaos
from repro.faults.crashpoints import CRASH_POINTS, CrashSchedule, SimulatedCrash
from repro.faults.injector import FaultInjector, WorkerCrash
from repro.faults.profiles import PROFILES, FaultProfile, get_profile

__all__ = [
    "CRASH_POINTS",
    "ChaosReport",
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
    "get_profile",
    "run_chaos",
]
