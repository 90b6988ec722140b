"""Crash supervision for lcore poll bodies.

The EAL scheduler assumes a poll callable never raises; one uncaught
exception in one queue worker would otherwise take the whole pipeline
down mid-trace. The supervisor wraps each poll body: a crash is
caught, logged with its role, counted as a restart, and the lcore
polls again next round with its worker state (flow table, parser)
intact — so no packet already accepted into a ring is ever lost to a
crash, which is what keeps the count-conservation invariant true under
the chaos harness's ``worker_crash_rate``.

A per-role restart budget guards against a *deterministically* crashing
worker (a real bug, not injected chaos): exhausting it re-raises so
tests fail loudly instead of spinning.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

PollFn = Callable[[], int]


class RestartBudget:
    """A bounded number of restarts per key, shared policy object.

    Both the in-process :class:`Supervisor` (lcore poll bodies) and the
    process-level shard supervisor need the same guard: injected chaos
    gets restarted, a deterministically-crashing unit must eventually
    be declared failed instead of flapping forever. ``consume`` spends
    one restart and reports whether it was granted; once a key is
    exhausted every further consume is refused.
    """

    def __init__(self, max_restarts: int = 3):
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        self.max_restarts = max_restarts
        self.spent_by_key: Dict[str, int] = {}

    def consume(self, key: str) -> bool:
        """Spend one restart for *key*; False when the budget is gone."""
        spent = self.spent_by_key.get(key, 0)
        if spent >= self.max_restarts:
            return False
        self.spent_by_key[key] = spent + 1
        return True

    def exhausted(self, key: str) -> bool:
        return self.spent_by_key.get(key, 0) >= self.max_restarts

    def remaining(self, key: str) -> int:
        return max(0, self.max_restarts - self.spent_by_key.get(key, 0))

    @property
    def total_spent(self) -> int:
        return sum(self.spent_by_key.values())


class Supervisor:
    """Wraps poll callables; catches, counts and reports crashes.

    Each crash spends one restart of the role's :class:`RestartBudget`
    (the policy the shard supervisor spends per shard); a crash the
    budget refuses re-raises.
    """

    def __init__(self, max_restarts_per_role: int = 10_000):
        if max_restarts_per_role < 1:
            raise ValueError("max_restarts_per_role must be positive")
        self.budget = RestartBudget(max_restarts=max_restarts_per_role)
        # (role, exception repr), oldest first, bounded.
        self.crash_log: List[Tuple[str, str]] = []
        self._crash_log_cap = 256

    @property
    def restarts_by_role(self) -> Dict[str, int]:
        return self.budget.spent_by_key

    @property
    def total_restarts(self) -> int:
        return self.budget.total_spent

    def supervise(self, poll: PollFn, role: str) -> PollFn:
        """A drop-in replacement for *poll* that survives crashes."""
        # Every supervised role is exported, crashed or not.
        self.budget.spent_by_key.setdefault(role, 0)

        def supervised_poll() -> int:
            try:
                return poll()
            except Exception as exc:  # noqa: BLE001 — the whole point
                if len(self.crash_log) < self._crash_log_cap:
                    self.crash_log.append((role, repr(exc)))
                if not self.budget.consume(role):
                    raise RuntimeError(
                        f"lcore {role!r} exceeded {self.budget.max_restarts} "
                        f"restarts; last error: {exc!r}"
                    ) from exc
                return 0

        return supervised_poll
