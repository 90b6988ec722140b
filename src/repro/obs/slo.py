"""Declarative service-level objectives over the telemetry registry.

An :class:`Slo` names one objective — a drop-rate ceiling, a latency
quantile bound, a throughput floor — as *data*, evaluated against the
shared :class:`~repro.obs.registry.MetricsRegistry` at drain time.
Evaluation never reaches into component objects: everything it reads
is already bridged into the registry by the scrape-time collectors, so
an SLO holds for any assembly (measure, live, chaos, durable) that
publishes the underlying series.

Sources:

* ``("sum", metric)`` — the summed value of a counter/gauge family's
  children; an optional trailing ``{label: value}`` dict restricts the
  sum to children matching those labels;
* ``("ratio", numerator, denominator)`` — two summed families divided
  (drop rates, loss rates);
* ``("quantile", metric, q)`` — a bucket-interpolated quantile over a
  histogram family, children merged.

An SLO whose series does not exist in the registry is *skipped*, not
violated — objectives over optional subsystems (the MQ loss counters)
only bind when the subsystem is assembled.

Results surface in ``PipelineStats.summary()`` (``slo.<name>`` keys),
``ruru metrics --slo`` and ``RuruStack.drain()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Slo",
    "SloResult",
    "DEFAULT_SLOS",
    "evaluate_slos",
    "slos_from_dict",
    "summarize_slos",
]


@dataclass(frozen=True)
class Slo:
    """One declarative objective.

    Attributes:
        name: stable identifier (also the summary key suffix).
        description: operator-facing sentence.
        source: where the observed value comes from (see module doc).
        bound: the objective's threshold.
        kind: ``"max"`` (observed must stay at or under *bound*) or
            ``"min"`` (observed must stay at or over *bound*).
        unit: display unit for rendering.
    """

    name: str
    description: str
    source: Tuple
    bound: float
    kind: str = "max"
    unit: str = ""

    def __post_init__(self):
        if self.kind not in ("max", "min"):
            raise ValueError(f"slo kind must be 'max' or 'min', got {self.kind!r}")
        if self.source[0] not in ("sum", "ratio", "quantile"):
            raise ValueError(f"unknown slo source {self.source[0]!r}")


@dataclass
class SloResult:
    """One evaluated objective."""

    slo: Slo
    observed: Optional[float]
    status: str  # "ok" | "violated" | "skipped"

    @property
    def ok(self) -> bool:
        return self.status != "violated"

    def render(self) -> str:
        slo = self.slo
        op = "<=" if slo.kind == "max" else ">="
        if self.observed is None:
            return f"{slo.name}: skipped (series absent)"
        return (
            f"{slo.name}: {self.status} "
            f"(observed {self.observed:.6g} {op} bound {slo.bound:.6g}"
            f"{' ' + slo.unit if slo.unit else ''})"
        )


#: Objectives every full assembly should hold. Bounds are deliberately
#: operational (what the paper's deployment would page on), not
#: aspirational — chaos profiles are expected to violate some.
DEFAULT_SLOS: Tuple[Slo, ...] = (
    Slo(
        name="nic-drop-rate",
        description="Frames dropped at the NIC per frame offered.",
        source=("ratio", "ruru_nic_drops_total", "ruru_packets_offered_total"),
        bound=0.01,
    ),
    Slo(
        name="parse-error-rate",
        description="Frames rejected by the parser per frame offered.",
        source=("ratio", "ruru_parse_errors_total", "ruru_packets_offered_total"),
        bound=0.05,
    ),
    Slo(
        name="mq-loss-rate",
        description="Messages dropped on the PUSH/PULL bus per message sent.",
        source=("ratio", "ruru_mq_push_dropped_total", "ruru_mq_push_sent_total"),
        bound=0.05,
    ),
    # The floor is a quarter of the slowest archived worker stage:
    # benchmarks/e2e/baseline.json has stack.workers.us_per_packet at
    # 12.5 us on handshake-durable, i.e. 80k packets/s.
    Slo(
        name="worker-throughput",
        description="Worker-stage packets per wall second, as the graph times it.",
        source=("sum", "ruru_stage_packets_per_s", {"stage": "workers"}),
        bound=20_000.0,
        kind="min",
        unit="packets/s",
    ),
)


def slos_from_dict(spec: Dict[str, dict]) -> List[Slo]:
    """Build objectives from a JSON-shaped mapping.

    .. code-block:: json

        {"nic-drop-rate": {"ratio": ["ruru_nic_drops_total",
                                     "ruru_packets_offered_total"],
                           "max": 0.01}}

    Exactly one of ``sum``/``ratio``/``quantile`` and one of
    ``max``/``min`` per entry.
    """
    slos: List[Slo] = []
    for name, body in spec.items():
        sources = [key for key in ("sum", "ratio", "quantile") if key in body]
        bounds = [key for key in ("max", "min") if key in body]
        if len(sources) != 1 or len(bounds) != 1:
            raise ValueError(
                f"slo {name!r} needs exactly one source "
                f"(sum/ratio/quantile) and one bound (max/min)"
            )
        source_kind = sources[0]
        raw = body[source_kind]
        if source_kind == "sum":
            if isinstance(raw, str):
                source: Tuple = ("sum", raw)
            else:  # ["metric", {"label": "value"}]
                source = ("sum", str(raw[0]), dict(raw[1]))
        elif source_kind == "ratio":
            source = ("ratio", str(raw[0]), str(raw[1]))
        else:
            source = ("quantile", str(raw[0]), float(raw[1]))
        slos.append(
            Slo(
                name=name,
                description=str(body.get("description", "")),
                source=source,
                bound=float(body[bounds[0]]),
                kind=bounds[0],
                unit=str(body.get("unit", "")),
            )
        )
    return slos


def evaluate_slos(
    registry, slos: Sequence[Slo] = DEFAULT_SLOS
) -> List[SloResult]:
    """Evaluate *slos* against *registry* (collectors run first)."""
    registry.collect()
    results: List[SloResult] = []
    for slo in slos:
        observed = _observe(registry, slo.source)
        if observed is None:
            results.append(SloResult(slo, None, "skipped"))
            continue
        if slo.kind == "max":
            ok = observed <= slo.bound
        else:
            ok = observed >= slo.bound
        results.append(SloResult(slo, observed, "ok" if ok else "violated"))
    return results


def summarize_slos(results: Sequence[SloResult]) -> Dict[str, str]:
    """Flat ``slo.<name>`` keys for ``PipelineStats.summary()``."""
    out: Dict[str, str] = {}
    for result in results:
        if result.observed is None:
            out[f"slo.{result.slo.name}"] = "skipped"
        else:
            out[f"slo.{result.slo.name}"] = (
                f"{result.status} ({result.observed:.6g})"
            )
    return out


# -- registry readers --------------------------------------------------------


def _family(registry, name: str):
    try:
        return registry.family(name)
    except KeyError:
        return None


def _family_sum(registry, name: str, labels: Optional[dict] = None) -> Optional[float]:
    family = _family(registry, name)
    if family is None:
        return None
    total = 0.0
    matched = False
    for label_values, child in family.samples():
        if labels is not None:
            sample_labels = dict(zip(family.label_names, label_values))
            if any(sample_labels.get(k) != str(v) for k, v in labels.items()):
                continue
        matched = True
        total += child.value
    if labels is not None and not matched:
        return None  # the restricted series never appeared: skip, not 0
    return float(total)


def _observe(registry, source: Tuple) -> Optional[float]:
    if source[0] == "sum":
        labels = source[2] if len(source) > 2 else None
        return _family_sum(registry, source[1], labels)
    if source[0] == "ratio":
        numerator = _family_sum(registry, source[1])
        denominator = _family_sum(registry, source[2])
        if numerator is None or denominator is None:
            return None
        if denominator == 0:
            return 0.0
        return numerator / denominator
    # quantile: merge every child histogram's buckets, interpolate.
    family = _family(registry, source[1])
    if family is None or family.kind != "histogram":
        return None
    bounds: Optional[Tuple[float, ...]] = None
    merged: List[int] = []
    total = 0
    for _, child in family.samples():
        if bounds is None:
            bounds = child.bounds
            merged = [0] * (len(bounds) + 1)
        if child.bounds != bounds:
            continue  # mixed bucket layouts never merge
        for index, count in enumerate(child.bucket_counts):
            merged[index] += count
        total += child.count
    if not total or bounds is None:
        return None
    return _bucket_quantile(bounds, merged, total, float(source[2]))


def _bucket_quantile(
    bounds: Tuple[float, ...], counts: List[int], total: int, q: float
) -> float:
    """Linear interpolation inside the bucket holding rank q·total
    (the Prometheus ``histogram_quantile`` estimator)."""
    rank = q * total
    running = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if running + count >= rank:
            upper = bounds[index] if index < len(bounds) else bounds[-1]
            lower = bounds[index - 1] if index > 0 else 0.0
            if index >= len(bounds):
                return float(bounds[-1])
            inside = (rank - running) / count
            return float(lower + (upper - lower) * inside)
        running += count
    return float(bounds[-1])
