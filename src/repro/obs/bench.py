"""Benchmark resultsets: archived, metadata-stamped, comparable.

Modeled on flent's resultset archive (and the reproducible
flow-control benchmarking argument of arXiv 1609.00653): a benchmark
run is only evidence if it survives the run — stamped with the git
revision, platform, seed and configuration that produced it — and can
be *compared* against another run with thresholds that respect
measurement noise.

A resultset is one schema-versioned JSON document:

.. code-block:: json

    {
      "schema": 1,
      "name": "bench",
      "meta": {"git_rev": "…", "platform": "…", "seed": 17, …},
      "metrics": {
        "pipeline.fast_path.packets_per_s":
          {"value": 120000.0, "unit": "packets/s",
           "higher_is_better": true, "noise": 0.15}
      },
      "stage_profile": {"nic": {"wall_ns": …, "ns_per_packet": …}, …}
    }

``ruru perf compare baseline.json current.json`` diffs two of them;
``benchmarks/conftest.py`` emits one per bench session; the committed
``benchmarks/baselines/`` seed turns the bench trajectory into a
tracked series the CI perf-regression gate can hold the line on.

Comparison is noise-aware on two axes: each metric carries its own
tolerated noise fraction (defaulting to the compare threshold), and
absolute metrics are downgraded to advisory when the two resultsets
were recorded on different platforms — cross-machine absolute
packets/s is weather, not signal. Per-stage *share* metrics (each
stage's fraction of total wall cost) stay comparable across machines,
which is what lets the CI gate catch a stage-local regression without
chasing runner hardware.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Dict, List, Optional

__all__ = [
    "RESULTSET_SCHEMA",
    "Resultset",
    "CompareReport",
    "collect_meta",
    "compare",
    "load_resultset",
    "stage_profile_metrics",
    "try_load_resultset",
]

RESULTSET_SCHEMA = 1

#: Default tolerated fraction of change before a delta counts as real.
DEFAULT_THRESHOLD = 0.15


def collect_meta(
    seed: Optional[int] = None, config: Optional[dict] = None
) -> Dict[str, object]:
    """Environment stamp for a resultset: git rev, platform, seed."""
    return {
        "git_rev": _git_rev(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "created_unix": round(time.time(), 3),
        "seed": seed,
        "config": config or {},
    }


def _git_rev() -> str:
    env_rev = os.environ.get("RURU_GIT_REV")
    if env_rev:
        return env_rev
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


class Resultset:
    """One archived benchmark run."""

    def __init__(
        self,
        name: str,
        meta: Optional[Dict[str, object]] = None,
        seed: Optional[int] = None,
        config: Optional[dict] = None,
    ):
        self.name = name
        self.meta = meta if meta is not None else collect_meta(seed, config)
        self.metrics: Dict[str, dict] = {}
        self.stage_profile: Dict[str, dict] = {}
        #: The schema this document was read from (this build's own
        #: number for fresh instances; kept verbatim by lenient loads).
        self.schema = RESULTSET_SCHEMA

    def record(
        self,
        name: str,
        value: float,
        unit: str = "",
        higher_is_better: bool = True,
        noise: Optional[float] = None,
        exact: bool = False,
        portable: bool = False,
    ) -> None:
        """Record one named metric (re-recording overwrites).

        ``exact`` marks a deterministic invariant — event counts,
        conservation ledger entries — which :func:`compare` then gates
        with zero tolerance in *either* direction. ``portable`` keeps
        the metric gating across platforms (the default downgrades
        absolute metrics from a different machine to advisory).
        """
        entry = {
            "value": float(value),
            "unit": unit,
            "higher_is_better": bool(higher_is_better),
        }
        if noise is not None:
            entry["noise"] = float(noise)
        if exact:
            entry["exact"] = True
        if portable:
            entry["portable"] = True
        self.metrics[name] = entry

    def record_stage_profile(self, summary: Dict[str, dict]) -> None:
        """Attach a :meth:`StageProfiler.summary` and derive per-stage
        comparison metrics (cost + machine-portable share)."""
        self.stage_profile = dict(summary)
        for name, entry in stage_profile_metrics(summary).items():
            self.metrics[name] = entry

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": RESULTSET_SCHEMA,
            "name": self.name,
            "meta": self.meta,
            "metrics": self.metrics,
            "stage_profile": self.stage_profile,
        }

    def write(self, path: str) -> str:
        """Serialize to *path* (parent directories created)."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def from_dict(
        cls, data: Dict[str, object], lenient: bool = False
    ) -> "Resultset":
        """Deserialize one archived document.

        Strict mode (the default) rejects any schema other than this
        build's :data:`RESULTSET_SCHEMA`. Lenient mode is for readers
        that scan archives written by *other* revisions — the batch
        runner resuming a grid, ``ruru perf show`` over an old results
        directory: an unknown (older or future) schema, a missing
        ``meta``/``metrics`` key, or a malformed metric entry degrades
        to "whatever was readable", never a KeyError. Metric entries
        without a numeric ``value`` are dropped; the original schema
        number is kept on :attr:`schema` so callers can tell.
        """
        if not isinstance(data, dict):
            if lenient:
                data = {}
            else:
                raise ValueError("resultset document must be a JSON object")
        try:
            schema = int(data.get("schema", 0))
        except (TypeError, ValueError):
            schema = -1
        if schema != RESULTSET_SCHEMA and not lenient:
            raise ValueError(
                f"unsupported resultset schema {schema} "
                f"(this build reads schema {RESULTSET_SCHEMA})"
            )
        meta = data.get("meta")
        out = cls(
            str(data.get("name", "bench")),
            meta=dict(meta) if isinstance(meta, dict) else {},
        )
        out.schema = schema
        metrics = data.get("metrics")
        for key, entry in (metrics.items() if isinstance(metrics, dict) else ()):
            if not isinstance(entry, dict):
                if lenient:
                    continue
                raise ValueError(f"metric {key!r} is not an object")
            try:
                entry = dict(entry)
                entry["value"] = float(entry["value"])
            except (KeyError, TypeError, ValueError):
                if lenient:
                    continue
                raise ValueError(f"metric {key!r} has no numeric value")
            out.metrics[str(key)] = entry
        profile = data.get("stage_profile")
        if isinstance(profile, dict):
            out.stage_profile = {
                str(k): dict(v)
                for k, v in profile.items()
                if isinstance(v, dict)
            }
        return out


def load_resultset(path: str, lenient: bool = False) -> Resultset:
    with open(path, "r", encoding="utf-8") as handle:
        return Resultset.from_dict(json.load(handle), lenient=lenient)


def try_load_resultset(path: str) -> Optional[Resultset]:
    """A resultset if *path* holds a readable one, else None.

    The resumable grid runner's probe: a missing file, torn/non-JSON
    bytes, or an alien schema all mean "this cell is not archived" —
    the caller re-runs the cell rather than crashing the whole grid.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    try:
        return Resultset.from_dict(data, lenient=True)
    except ValueError:  # pragma: no cover - lenient mode swallows these
        return None


def stage_profile_metrics(summary: Dict[str, dict]) -> Dict[str, dict]:
    """Flatten a stage-profile summary into comparable metrics.

    Per stage: ``stage.<name>.ns_per_packet`` (absolute, lower is
    better) and ``stage.<name>.wall_share`` (fraction of total wall
    cost — portable across machines, the CI gate's signal).
    """
    metrics: Dict[str, dict] = {}
    total_wall = sum(float(entry.get("wall_ns", 0)) for entry in summary.values())
    for name, entry in summary.items():
        cost = float(entry.get("ns_per_packet", 0.0))
        if cost > 0:
            metric = {
                "value": cost,
                "unit": "ns/packet",
                "higher_is_better": False,
            }
            if cost < 100:
                # Sub-100ns stages sit at timer granularity; their
                # relative jitter is noise, not signal.
                metric["noise"] = 0.5
            metrics[f"stage.{name}.ns_per_packet"] = metric
        if total_wall > 0:
            share = round(float(entry.get("wall_ns", 0)) / total_wall, 6)
            metric = {
                "value": share,
                "unit": "fraction",
                "higher_is_better": False,
                "portable": True,
            }
            if share > 0:
                # Tolerate ±2 percentage points of share *absolutely*:
                # a stage at 0.02% of wall cost can triple on scheduler
                # jitter alone, while a real stage-local regression
                # moves whole points. (Noise is a relative fraction, so
                # the absolute floor divides by the share.)
                metric["noise"] = round(min(100.0, 0.02 / share), 6)
            metrics[f"stage.{name}.wall_share"] = metric
    return metrics


class CompareReport:
    """The diff of two resultsets, with a pass/fail verdict."""

    def __init__(self, baseline: Resultset, current: Resultset, threshold: float):
        self.baseline = baseline
        self.current = current
        self.threshold = threshold
        self.same_platform = baseline.meta.get("platform") == current.meta.get(
            "platform"
        )
        # (metric, base, cur, delta_frac, status) — status one of
        # "ok", "improved", "regressed", "advisory", "added", "removed".
        self.rows: List[tuple] = []
        self.regressions: List[str] = []
        self.improvements: List[str] = []
        self.advisories: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        base_meta, cur_meta = self.baseline.meta, self.current.meta
        lines = [
            f"baseline: {self.baseline.name} "
            f"@ {str(base_meta.get('git_rev', '?'))[:12]} "
            f"({base_meta.get('platform', '?')})",
            f"current:  {self.current.name} "
            f"@ {str(cur_meta.get('git_rev', '?'))[:12]} "
            f"({cur_meta.get('platform', '?')})",
            f"threshold: {self.threshold:.0%}"
            + (
                ""
                if self.same_platform
                else "  [platforms differ: absolute metrics advisory only]"
            ),
            "",
            f"{'metric':<42} {'baseline':>14} {'current':>14} {'delta':>9}  status",
        ]
        for metric, base, cur, delta, status in self.rows:
            base_text = "-" if base is None else f"{base:,.3f}"
            cur_text = "-" if cur is None else f"{cur:,.3f}"
            delta_text = "-" if delta is None else f"{delta:+.1%}"
            lines.append(
                f"{metric:<42} {base_text:>14} {cur_text:>14} {delta_text:>9}  {status}"
            )
        lines.append("")
        verdict = "OK" if self.ok else "REGRESSED"
        lines.append(
            f"{verdict}: {len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s), "
            f"{len(self.advisories)} advisory"
        )
        return "\n".join(lines)


def compare(
    baseline: Resultset,
    current: Resultset,
    threshold: float = DEFAULT_THRESHOLD,
) -> CompareReport:
    """Diff *current* against *baseline* with noise-aware thresholds.

    A metric regresses when it moves in its *worse* direction by more
    than ``max(threshold, metric noise)``. Absolute metrics from a
    different platform never regress the verdict — they surface as
    advisories instead (share metrics, marked ``portable``, still
    gate). Metrics marked ``exact`` are deterministic invariants: any
    change at all, in either direction, is a regression ("improved"
    does not exist for an anomaly-event count), and so is one the
    current run no longer records (a non-exact ``removed`` metric is
    informational).
    """
    report = CompareReport(baseline, current, threshold)
    names = list(baseline.metrics)
    names += [name for name in current.metrics if name not in baseline.metrics]
    for name in names:
        base_entry = baseline.metrics.get(name)
        cur_entry = current.metrics.get(name)
        if base_entry is None:
            report.rows.append(
                (name, None, cur_entry.get("value"), None, "added")
            )
            continue
        if cur_entry is None:
            # A deterministic invariant the run no longer records is a
            # term gone from the books, not a metric retired.
            if base_entry.get("exact"):
                report.regressions.append(name)
            report.rows.append(
                (name, base_entry.get("value"), None, None, "removed")
            )
            continue
        base = float(base_entry["value"])
        cur = float(cur_entry["value"])
        higher_is_better = bool(base_entry.get("higher_is_better", True))
        tolerance = max(threshold, float(base_entry.get("noise", 0.0)))
        if base == 0:
            delta = 0.0 if cur == 0 else float("inf")
        else:
            delta = (cur - base) / abs(base)
        worse = -delta if higher_is_better else delta
        portable = bool(base_entry.get("portable", False))
        if bool(base_entry.get("exact", False)):
            if cur != base:
                status = "regressed"
                report.regressions.append(name)
            else:
                status = "ok"
            report.rows.append((name, base, cur, delta, status))
            continue
        if worse > tolerance:
            if report.same_platform or portable:
                status = "regressed"
                report.regressions.append(name)
            else:
                status = "advisory"
                report.advisories.append(name)
        elif -worse > tolerance:
            status = "improved"
            report.improvements.append(name)
        else:
            status = "ok"
        report.rows.append((name, base, cur, delta, status))
    return report
