"""Circuit breaker over the virtual clock.

The classic three-state machine (closed → open → half-open), sized for
the two places Ruru needs it: the geo/ASN enricher and the TSDB write
path. When either dependency starts failing, the breaker opens and the
service *degrades* — records flow on un-enriched, points defer to the
retry queue — instead of burning every record against a dead backend.

All transitions are timestamped with the caller's virtual ``now_ns``
and kept in a log, which is how the chaos harness measures recovery
time (open → closed) after a brown-out clears.
"""

from __future__ import annotations

from typing import List, Tuple

BREAKER_CLOSED = 0
BREAKER_OPEN = 1
BREAKER_HALF_OPEN = 2

_STATE_NAMES = {
    BREAKER_CLOSED: "closed",
    BREAKER_OPEN: "open",
    BREAKER_HALF_OPEN: "half-open",
}


class CircuitBreaker:
    """Failure-counting breaker guarding one downstream dependency.

    Args:
        name: label for metrics and transition logs.
        failure_threshold: consecutive failures that trip the breaker.
        recovery_timeout_ns: how long an open breaker blocks before
            letting probe calls through (half-open).
        half_open_successes: consecutive probe successes required to
            close again; one probe failure re-opens immediately.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 5,
        recovery_timeout_ns: int = 1_000_000_000,
        half_open_successes: int = 2,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if recovery_timeout_ns <= 0:
            raise ValueError("recovery_timeout_ns must be positive")
        if half_open_successes < 1:
            raise ValueError("half_open_successes must be at least 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_timeout_ns = recovery_timeout_ns
        self.half_open_successes = half_open_successes
        self.state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at_ns = 0
        self.opened_count = 0
        # (now_ns, from_state, to_state), oldest first.
        self.transitions: List[Tuple[int, int, int]] = []

    # -- state machine ------------------------------------------------------

    def allow(self, now_ns: int) -> bool:
        """May a call proceed at *now_ns*?

        An open breaker flips to half-open once the recovery timeout
        has elapsed, letting the next call through as a probe.
        """
        if self.state == BREAKER_OPEN:
            if now_ns - self._opened_at_ns >= self.recovery_timeout_ns:
                self._transition(now_ns, BREAKER_HALF_OPEN)
                self._probe_successes = 0
                return True
            return False
        return True

    def record_success(self, now_ns: int) -> None:
        """A guarded call succeeded."""
        if self.state == BREAKER_HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_successes:
                self._transition(now_ns, BREAKER_CLOSED)
                self._consecutive_failures = 0
        else:
            self._consecutive_failures = 0

    def record_failure(self, now_ns: int) -> None:
        """A guarded call failed; may trip the breaker."""
        if self.state == BREAKER_HALF_OPEN:
            self._open(now_ns)
            return
        self._consecutive_failures += 1
        if (
            self.state == BREAKER_CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._open(now_ns)

    def _open(self, now_ns: int) -> None:
        self._transition(now_ns, BREAKER_OPEN)
        self._opened_at_ns = now_ns
        self._consecutive_failures = 0
        self.opened_count += 1

    def _transition(self, now_ns: int, to_state: int) -> None:
        self.transitions.append((now_ns, self.state, to_state))
        self.state = to_state

    # -- durability ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the state machine and its transition log.

        The transition log rides along so post-restart chaos reports
        still see pre-crash open/close episodes.
        """
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "probe_successes": self._probe_successes,
            "opened_at_ns": self._opened_at_ns,
            "opened_count": self.opened_count,
            "transitions": list(self.transitions),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.state = int(state["state"])
        self._consecutive_failures = int(state["consecutive_failures"])
        self._probe_successes = int(state["probe_successes"])
        self._opened_at_ns = int(state["opened_at_ns"])
        self.opened_count = int(state["opened_count"])
        self.transitions = list(state["transitions"])

    # -- reporting ----------------------------------------------------------

    @property
    def state_name(self) -> str:
        return _STATE_NAMES[self.state]

    def recovery_times_ns(self) -> List[int]:
        """Durations of every completed open → closed episode.

        Measured from the moment the breaker opened to the moment it
        closed again (through half-open probing) — the chaos report's
        "recovery time".
        """
        times: List[int] = []
        opened_at = None
        for now_ns, _, to_state in self.transitions:
            if to_state == BREAKER_OPEN and opened_at is None:
                opened_at = now_ns
            elif to_state == BREAKER_CLOSED and opened_at is not None:
                times.append(now_ns - opened_at)
                opened_at = None
        return times

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state_name}, "
            f"opened={self.opened_count})"
        )
