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

``bind_registry`` wires everything into the PR 1 telemetry registry:
``ruru_retry_total``, ``ruru_breaker_state``, ``ruru_dlq_depth``,
``ruru_dlq_total``, ``ruru_degraded_published_total``, and friends.
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

    def bind_registry(self, registry) -> None:
        """Bridge every resilience counter/state into *registry*."""
        retry_total = registry.counter(
            "ruru_retry_total",
            help="Retry attempts made against a failed dependency.",
            labels=("stage",),
        )
        breaker_state = registry.gauge(
            "ruru_breaker_state",
            help="Circuit breaker state (0=closed, 1=open, 2=half-open).",
            labels=("breaker",),
        )
        breaker_opened = registry.counter(
            "ruru_breaker_opened_total",
            help="Times each circuit breaker tripped open.",
            labels=("breaker",),
        )
        dlq_depth = registry.gauge(
            "ruru_dlq_depth",
            help="Payloads currently parked in the dead-letter queue.",
        )
        dlq_total = registry.counter(
            "ruru_dlq_total",
            help="Payloads ever dead-lettered, by stage and reason.",
            labels=("stage", "reason"),
        )
        degraded = registry.counter(
            "ruru_degraded_published_total",
            help="Measurements published un-enriched with the degraded flag.",
        )
        enrich_failures = registry.counter(
            "ruru_enrich_failures_total",
            help="Enrichment attempts that raised (geo/ASN lookup faults).",
        )
        write_failures = registry.counter(
            "ruru_tsdb_write_failures_total",
            help="TSDB write attempts that raised.",
        )
        points_lost = registry.counter(
            "ruru_tsdb_points_lost_total",
            help="Points shed after the retry budget or pending bound.",
        )
        retry_pending = registry.gauge(
            "ruru_retry_pending",
            help="Write batches waiting out their backoff.",
        )
        retry_children = [
            (stage, retry_total.labels(stage)) for stage in ("tsdb",)
        ]

        def collect() -> None:
            for stage, child in retry_children:
                child.value = self.retries
            for breaker in self.breakers:
                breaker_state.labels(breaker.name).set(breaker.state)
                breaker_opened.labels(breaker.name).value = breaker.opened_count
            dlq_depth.set(len(self.dlq))
            for (stage, reason), count in self.dlq.summary().items():
                dlq_total.labels(stage, reason).value = count
            degraded.value = self.degraded_published
            enrich_failures.value = self.enrich_failures
            write_failures.value = self.tsdb_write_failures
            points_lost.value = self.points_lost
            retry_pending.set(len(self.retry_queue))

        registry.register_collector(collect)
