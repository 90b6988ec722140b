"""Metrics registry: counters, gauges and histograms with labels.

The deployment story of the paper (Sec. 3) rests on the operators
being able to see the measurement pipeline's own health — ``imissed``
on the NIC, per-stage throughput, parse-drop reasons. This module is
the one place those numbers are read out: a run's books are rendered
into it by one *collector* run at scrape time (:mod:`repro.stack.metrics`),
the stage profiler publishes its timings the same way, and everything
is read back out through two views:

* :meth:`MetricsRegistry.exposition` — Prometheus text format, what
  ``ruru metrics`` prints and what a real scrape endpoint would serve;
* :meth:`MetricsRegistry.snapshot` — a JSON-able dict, what the
  :class:`~repro.obs.exporter.TelemetryExporter` writes into the
  in-repo TSDB as self-monitoring series.

Primitives follow the Prometheus data model: a metric *family* has a
name, a help string and a fixed set of label names; ``labels(...)``
resolves one labelled child, which is the object hot paths hold on to
and increment. Families with no labels collapse to a single child
returned directly from the registry, so the common case stays one
attribute store per increment.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_DURATION_BUCKETS_NS",
]

# Nanosecond latency buckets spanning 1 us .. 1 s — the range a pipeline
# stage can plausibly occupy under the virtual clock.
DEFAULT_DURATION_BUCKETS_NS: Tuple[float, ...] = (
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
)


class Counter:
    """A monotonically increasing count.

    ``value`` is a plain attribute so bridged collectors can assign the
    authoritative total directly; instrumented code uses :meth:`inc`.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (occupancy, ring depth)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    Args:
        bounds: ascending upper bucket bounds; an implicit ``+Inf``
            bucket is always appended. A sample equal to a bound lands
            in that bound's bucket (``le`` is inclusive).
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly ascending")
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Counts per bucket, cumulative as Prometheus expects."""
        out, running = [], 0
        for bucket in self.bucket_counts:
            running += bucket
            out.append(running)
        return out


_KIND_TO_CLASS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its labelled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        _validate_metric_name(name)
        for label in label_names:
            _validate_label_name(label)
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.label_names:
            # Unlabelled family: materialize the single child up front.
            self._children[()] = self._new_child()

    def _new_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets or DEFAULT_DURATION_BUCKETS_NS)
        return _KIND_TO_CLASS[self.kind]()

    def labels(self, *values, **kwargs):
        """Resolve (creating on first use) the child for a label set.

        Accepts positional values in ``label_names`` order, or keyword
        values; mixing is rejected.
        """
        if values and kwargs:
            raise ValueError("pass label values positionally or by name, not both")
        if kwargs:
            try:
                values = tuple(kwargs.pop(name) for name in self.label_names)
            except KeyError as exc:
                raise ValueError(f"missing label {exc.args[0]!r} for {self.name}")
            if kwargs:
                raise ValueError(
                    f"unknown labels {sorted(kwargs)} for {self.name} "
                    f"(expects {list(self.label_names)})"
                )
        values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects {len(self.label_names)} label values, "
                f"got {len(values)}"
            )
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._new_child()
        return child

    @property
    def unlabeled(self):
        """The single child of a label-less family."""
        return self._children[()]

    def samples(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """All (label_values, child) pairs, in creation order."""
        return self._children.items()

    def cardinality(self) -> int:
        """How many labelled children exist."""
        return len(self._children)


class MetricsRegistry:
    """The process-wide metric namespace.

    Families are created idempotently: asking for an existing name with
    a matching (kind, labels) signature returns the existing family, so
    independent components can share series; a conflicting signature is
    an error rather than a silent split-brain.
    """

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[[], None]] = []

    # -- family factories ---------------------------------------------------

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        """A counter family; returns the child directly when unlabelled."""
        return self._get_or_create(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        """A gauge family; returns the child directly when unlabelled."""
        return self._get_or_create(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        """A histogram family; returns the child directly when unlabelled."""
        return self._get_or_create(name, "histogram", help, labels, buckets=buckets)

    def _get_or_create(self, name, kind, help, labels, buckets=None):
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, labels, buckets=buckets)
            self._families[name] = family
        else:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            if family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{list(family.label_names)}"
                )
        return family.unlabeled if not family.label_names else family

    def family(self, name: str) -> MetricFamily:
        """Look up a family by name (KeyError if absent)."""
        return self._families[name]

    def families(self) -> List[MetricFamily]:
        return list(self._families.values())

    # -- collectors ---------------------------------------------------------

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Register a zero-arg callable run before every read-out.

        A collector *assigns* authoritative totals read off live
        objects (a run's books, the stage profiler's timings), so the
        registry holds the current values at scrape time with zero
        added cost per packet.
        """
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run every registered collector (scrape-time refresh)."""
        for collector in self._collectors:
            collector()

    # -- views --------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """A JSON-able dump of every family and sample."""
        self.collect()
        out: Dict[str, dict] = {}
        for family in self._families.values():
            samples = []
            for label_values, child in family.samples():
                labels = dict(zip(family.label_names, label_values))
                if family.kind == "histogram":
                    samples.append({
                        "labels": labels,
                        "sum": child.sum,
                        "count": child.count,
                        "buckets": {
                            _format_bound(bound): cumulative
                            for bound, cumulative in zip(
                                tuple(child.bounds) + (float("inf"),),
                                child.cumulative_counts(),
                            )
                        },
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    def exposition(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        self.collect()
        lines: List[str] = []
        for family in self._families.values():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for label_values, child in family.samples():
                label_pairs = list(zip(family.label_names, label_values))
                if family.kind == "histogram":
                    bounds = tuple(child.bounds) + (float("inf"),)
                    for bound, cumulative in zip(bounds, child.cumulative_counts()):
                        bucket_labels = label_pairs + [("le", _format_bound(bound))]
                        lines.append(
                            f"{family.name}_bucket{_format_labels(bucket_labels)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_format_labels(label_pairs)} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(label_pairs)} "
                        f"{child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_format_labels(label_pairs)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


# -- formatting helpers -----------------------------------------------------


def _validate_metric_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid metric name: {name!r}")


def _validate_label_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid label name: {name!r}")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in pairs
    )
    return "{" + inner + "}"


def _format_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return str(value)
