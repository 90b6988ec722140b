"""The bundle of resilience machinery the analytics service carries.

One object, constructed by the caller (the chaos harness, the CLI, or
a test) and handed to :class:`~repro.analytics.service.AnalyticsService`.
It owns:

* the dead-letter queue for undecodable bus payloads;
* the breaker guarding geo/ASN enrichment (open → records publish
  un-enriched with the ``degraded`` flag);
* the breaker guarding TSDB writes (open → point batches defer to the
  retry queue instead of hammering a dead store);
* the retry policy/queue for deferred TSDB writes;
* the running counters that make all of it observable.

The stack's books read every counter and state here, and the metrics
registry renders them (``ruru_retry_total``, ``ruru_breaker_state``,
``ruru_dlq_depth``, ``ruru_dlq_total``, and friends).
"""

from __future__ import annotations

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.dlq import DeadLetterQueue
from repro.resilience.retry import RetryPolicy, RetryQueue


class ResilienceLayer:
    """Breakers + DLQ + retry queue + counters, ready to wire in.

    Args:
        seed: drives retry jitter; chaos runs pass their run seed so
            backoff schedules replay exactly.
    """

    def __init__(self, seed: int = 0):
        self.dlq = DeadLetterQueue()
        self.enrich_breaker = CircuitBreaker(
            "enrich", failure_threshold=5, recovery_timeout_ns=500_000_000
        )
        self.tsdb_breaker = CircuitBreaker(
            "tsdb", failure_threshold=3, recovery_timeout_ns=500_000_000
        )
        self.retry_policy = RetryPolicy(seed=seed)
        # Deferred TSDB batches held while the store is down; older
        # batches are shed (and counted) beyond this.
        self.retry_queue = RetryQueue(self.retry_policy, max_pending=256)
        # -- counters (plain ints on the hot path, bridged at scrape) --
        self.retries = 0                 # TSDB write re-attempts
        self.enrich_failures = 0         # enricher raised
        self.degraded_published = 0      # measurements published un-enriched
        self.tsdb_write_failures = 0     # write attempts that raised
        self.points_written = 0          # points that reached the store
        self.points_lost = 0             # points shed after budget/overflow

    @property
    def breakers(self):
        return (self.enrich_breaker, self.tsdb_breaker)

    # -- durability --------------------------------------------------------

    def state_dict(self, encode_retry_item=None) -> dict:
        """Snapshot the whole bundle: DLQ contents, breaker machines,
        retry queue (pending write batches included), and counters.

        Args:
            encode_retry_item: plain-data encoder for retry-queue items
                (the analytics service passes a line-protocol encoder
                for its point batches).
        """
        return {
            "dlq": self.dlq.state_dict(),
            "enrich_breaker": self.enrich_breaker.state_dict(),
            "tsdb_breaker": self.tsdb_breaker.state_dict(),
            "retry_policy": self.retry_policy.state_dict(),
            "retry_queue": self.retry_queue.state_dict(encode_retry_item),
            "counters": {
                "retries": self.retries,
                "enrich_failures": self.enrich_failures,
                "degraded_published": self.degraded_published,
                "tsdb_write_failures": self.tsdb_write_failures,
                "points_written": self.points_written,
                "points_lost": self.points_lost,
            },
        }

    def load_state(self, state: dict, decode_retry_item=None) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.dlq.load_state(state["dlq"])
        self.enrich_breaker.load_state(state["enrich_breaker"])
        self.tsdb_breaker.load_state(state["tsdb_breaker"])
        self.retry_policy.load_state(state["retry_policy"])
        self.retry_queue.load_state(state["retry_queue"], decode_retry_item)
        counters = state["counters"]
        self.retries = int(counters["retries"])
        self.enrich_failures = int(counters["enrich_failures"])
        self.degraded_published = int(counters["degraded_published"])
        self.tsdb_write_failures = int(counters["tsdb_write_failures"])
        self.points_written = int(counters["points_written"])
        self.points_lost = int(counters["points_lost"])
