"""``repro.resilience`` — the machinery that keeps Ruru measuring.

The paper's headline anecdote is Ruru catching *someone else's*
failure (the nightly firewall update adding 4000 ms to every new
connection). A passive monitor only earns that role if it survives
adverse conditions itself: malformed frames, peerless sockets, flaky
enrichment databases, browned-out storage, crashed workers. This
package provides the survival kit, all deterministic on the virtual
clock so chaos runs replay bit-identically:

* :class:`~repro.resilience.retry.RetryPolicy` /
  :class:`~repro.resilience.retry.RetryQueue` — exponential backoff
  with seeded jitter, scheduled against virtual time.
* :class:`~repro.resilience.breaker.CircuitBreaker` — closed /
  open / half-open, guarding the enricher and the TSDB write path.
* :class:`~repro.resilience.dlq.DeadLetterQueue` — a bounded queue of
  undecodable payloads with full provenance (stage, reason, bytes).
* :class:`~repro.resilience.supervisor.Supervisor` — catches crashes
  in lcore poll bodies and restarts them, counting every restart.
* :class:`~repro.resilience.invariants.Ledger` — the
  count-conservation invariant ``ingested == processed + dropped +
  deadlettered [+ shed] [+ lost_at_crash]`` asserted after every run.
* :class:`~repro.resilience.layer.ResilienceLayer` — the bundle the
  analytics service takes; binds every knob into the PR 1 telemetry
  registry (``ruru_retry_total``, ``ruru_breaker_state``,
  ``ruru_dlq_depth``, …) so degradation is observable, never silent.
"""

from __future__ import annotations

from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.resilience.dlq import DeadLetter, DeadLetterQueue
from repro.resilience.invariants import InvariantViolation, Ledger
from repro.resilience.layer import ResilienceLayer
from repro.resilience.retry import RetryPolicy, RetryQueue
from repro.resilience.supervisor import RestartBudget, Supervisor

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "DeadLetter",
    "DeadLetterQueue",
    "InvariantViolation",
    "Ledger",
    "ResilienceLayer",
    "RestartBudget",
    "RetryPolicy",
    "RetryQueue",
    "Supervisor",
]
