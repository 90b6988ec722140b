"""Deterministic kill -9 points at every stage boundary.

The fault profiles in this package model *component* misbehaviour —
drops, corruption, exceptions the resilience layer absorbs. A crash is
categorically different: the whole process dies mid-instruction and no
handler runs. :class:`SimulatedCrash` therefore derives from
``BaseException``, so the supervisor's ``except Exception`` (and every
other recovery path) is structurally unable to absorb it — exactly
like the real signal.

A :class:`CrashSchedule` arms one registered crash point: the *hit*-th
time execution reaches that boundary, the crash fires. Same
(point, hit, workload seed) → the process dies at the identical
instruction every run, which is what lets the recovery harness assert
invariants per crash point instead of hoping a random kill lands
somewhere interesting.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.stack.topology import crash_points

# Registered crash points, in pipeline order — derived from the stage
# topology, so a stage cannot declare a kill site the fault registry
# does not know about (and vice versa). Each stage wrapper, the
# durable TSDB and the checkpointer instrument the boundaries they own
# by calling ``schedule.reached(point)``.
CRASH_POINTS: Dict[str, str] = crash_points()


class SimulatedCrash(BaseException):
    """The process 'dies' here — nothing may catch and continue.

    BaseException, not Exception: a kill -9 never unwinds through
    application handlers, so neither does its simulation.
    """

    def __init__(self, point: str, hit: int):
        super().__init__(f"simulated kill -9 at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class CrashSchedule:
    """Arms at most one (point, hit) pair; counts every boundary pass.

    ``reached(point)`` is called by instrumented code at each boundary;
    it raises :class:`SimulatedCrash` when the armed point reaches its
    armed hit count, and is a cheap counter bump otherwise. ``passes``
    survives for post-mortem assertions ("the run really did cross
    mq.publish 40 times before dying").
    """

    def __init__(self):
        self._armed_point: Optional[str] = None
        self._armed_hit = 0
        self.passes: Dict[str, int] = {}
        self.fired: Optional[SimulatedCrash] = None

    def arm(self, point: str, hit: int = 1) -> "CrashSchedule":
        """Arm the schedule; *hit* is 1-based (first pass = hit 1)."""
        if point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {point!r}; "
                f"registered: {', '.join(sorted(CRASH_POINTS))}"
            )
        if hit < 1:
            raise ValueError("hit is 1-based")
        self._armed_point = point
        self._armed_hit = hit
        return self

    def will_fire(self, point: str) -> bool:
        """Would the next :meth:`reached` call for *point* crash?

        The checkpointer uses this to decide whether to leave a torn
        file behind before the crash (the ``checkpoint.mid`` torn-write
        simulation).
        """
        return (
            self.fired is None
            and point == self._armed_point
            and self.passes.get(point, 0) + 1 >= self._armed_hit
        )

    def reached(self, point: str) -> None:
        """Mark one pass over *point*; crash if the armed hit is due."""
        count = self.passes.get(point, 0) + 1
        self.passes[point] = count
        if (
            self.fired is None
            and point == self._armed_point
            and count >= self._armed_hit
        ):
            self.fired = SimulatedCrash(point, count)
            raise self.fired
