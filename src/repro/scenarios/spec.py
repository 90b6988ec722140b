"""The scenario spec: one operational episode as a document.

A spec composes four orthogonal axes, mirroring how the paper's
deployment stories are told ("flash crowd at the diurnal peak, over a
lossy message bus, with the nightly firewall anomaly"):

* **traffic** — the background workload shape fed to
  :class:`repro.traffic.generator.TrafficGenerator`: duration, rate,
  diurnal or flat load, the virtual time of day the tap starts
  watching, the handshake-only fraction and the exchange depth (the
  generator's other behaviour fractions run at their defaults).
* **faults** — adverse conditions: a registered
  :data:`repro.faults.profiles.PROFILES` name plus optional inline
  rate overrides (``mq_drop_rate = 0.1``) that derive an anonymous
  profile from it.
* **anomalies** — a schedule of timed windows on the virtual clock,
  each building one of the paper-episode injectors (firewall glitch /
  SYN flood / connection surge).
* **stack** — how much of the dataflow to assemble: which of the
  builder's tiers (``stack.tiers``, every tier one entry), queues, ring
  size, frontend buffering; plus the **telemetry**, **durable**,
  **overload** and **shard** sections that configure the tiers and the
  process topology.

Plus a default ``seed``, and ``expect``: the anomaly-event counts the
schedule is supposed to trigger, which the runner gates on. Specs are
plain data — loadable from TOML or JSON, round-trippable through
:meth:`ScenarioSpec.to_dict`, and overridable with dotted paths
(``traffic.rate=100``) for grid sweeps. Every ``ruru`` command that
runs a stack builds one of these from its flags; a key the run would
not honour is a :class:`SpecError`, never a silent no-op.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.profiles import FaultProfile, get_profile

NS_PER_S = 1_000_000_000
NS_PER_HOUR = 3600 * NS_PER_S

#: Anomaly kinds the schedule can place, and the detector-event kinds
#: each one is expected to trigger (see ``ScenarioSpec.expect``).
ANOMALY_KINDS = ("firewall-glitch", "syn-flood", "connection-surge", "ddos-ramp")

#: Detector event kinds (``repro.anomaly``) a spec may expect.
EVENT_KINDS = (
    "latency-spike",
    "syn-flood",
    "connection-surge",
    "path-drift",
)

#: The stack builder's tier calls, each switched on by its entry in
#: ``stack.tiers``.
TIERS = ("analytics", "faults", "durable", "overload", "telemetry", "anomaly", "topk", "frontend")


class SpecError(ValueError):
    """A scenario document failed validation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _changed(section: str, value, skip=()) -> List[str]:
    """The ``section.field`` paths where *value* differs from its
    dataclass's defaults."""
    default = type(value)()
    return [
        f"{section}.{entry.name}"
        for entry in dataclasses.fields(value)
        if entry.name not in skip
        and getattr(value, entry.name) != getattr(default, entry.name)
    ]


@dataclass(frozen=True)
class TrafficSpec:
    """The background workload axis."""

    duration_s: float = 30.0
    rate: float = 40.0
    diurnal: bool = False
    #: Virtual time of day the capture starts (hours since midnight) —
    #: what anchors "nightly" windows without simulating a whole day.
    start_hour: float = 0.0
    handshake_only_fraction: float = 0.02
    max_data_exchanges: int = 3

    def __post_init__(self):
        _require(self.duration_s > 0, "traffic.duration_s must be positive")
        _require(self.rate > 0, "traffic.rate must be positive")
        _require(
            0.0 <= self.start_hour < 24.0,
            "traffic.start_hour must be within [0, 24)",
        )

    @property
    def start_ns(self) -> int:
        return int(self.start_hour * NS_PER_HOUR)

    @property
    def duration_ns(self) -> int:
        return int(self.duration_s * NS_PER_S)


@dataclass(frozen=True)
class FaultSpec:
    """The adverse-conditions axis: named profile + inline overrides."""

    profile: str = "clean"
    overrides: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        try:
            base = get_profile(self.profile)
        except ValueError as exc:  # an unknown name
            raise SpecError(str(exc)) from None
        valid = {spec.name for spec in dataclasses.fields(base)}
        for key in self.overrides:
            _require(
                key in valid and key not in ("name", "description"),
                f"faults.overrides.{key} is not a FaultProfile rate",
            )

    def resolve(self) -> FaultProfile:
        """The effective profile (anonymous derivation if overridden)."""
        base = get_profile(self.profile)
        if not self.overrides:
            return base
        decorated = ", ".join(
            f"{key}={value}" for key, value in sorted(self.overrides.items())
        )
        return dataclasses.replace(
            base,
            name=f"{base.name}+overrides",
            description=f"{base.description} [{decorated}]",
            **self.overrides,
        )

    @property
    def active(self) -> bool:
        """Whether the resolved profile injects anything at all."""
        return bool(self.resolve().active_faults())


@dataclass(frozen=True)
class AnomalyWindowSpec:
    """One timed episode window on the virtual clock.

    ``at_s`` is relative to the start of the capture (so a spec stays
    valid when ``traffic.start_hour`` moves), except for the firewall
    glitch, whose window is anchored to *time of day* via
    ``window_start_hour`` — that is the episode: the update fires at
    the same wall hour every night, not N seconds into a capture.
    Without that parameter the glitch window opens at the time of day
    ``at_s`` into the capture. Seconds become nanoseconds by rounding,
    so a window written from integer nanoseconds lands on them exactly.
    """

    kind: str
    at_s: float = 0.0
    duration_s: float = 10.0
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        _require(
            self.kind in ANOMALY_KINDS,
            f"unknown anomaly kind {self.kind!r}; choose from {ANOMALY_KINDS}",
        )
        _require(self.duration_s > 0, "anomaly duration_s must be positive")
        _require(self.at_s >= 0, "anomaly at_s cannot be negative")

    def build_injector(self, traffic: TrafficSpec):
        """The concrete :class:`repro.traffic.generator.FlowInjector`."""
        # Imported here: repro.traffic.scenarios pulls in the geo
        # catalog, which spec parsing does not need.
        from repro.traffic.scenarios import (
            ConnectionSurgeInjector,
            DdosRampInjector,
            FirewallGlitchInjector,
            SynFloodInjector,
        )

        params = dict(self.params)
        start_ns = traffic.start_ns + round(self.at_s * NS_PER_S)
        duration_ns = round(self.duration_s * NS_PER_S)
        if self.kind == "firewall-glitch":
            if "window_start_hour" in params:
                start_ns = int(float(params.pop("window_start_hour")) * NS_PER_HOUR)
            return FirewallGlitchInjector(
                window_start_offset_ns=start_ns,
                window_ns=duration_ns,
                extra_delay_ms=float(params.pop("extra_delay_ms", 4000.0)),
                **params,
            )
        if self.kind == "ddos-ramp":
            return DdosRampInjector(
                ramp_start_ns=start_ns,
                ramp_duration_ns=duration_ns,
                peak_rate_per_s=float(params.pop("peak_rate_per_s", 400.0)),
                target_city=str(params.pop("target_city", "Auckland")),
                target_port=int(params.pop("target_port", 443)),
                data_exchanges=int(params.pop("data_exchanges", 8)),
                response_bytes=int(params.pop("response_bytes", 1400)),
                **params,
            )
        if self.kind == "syn-flood":
            return SynFloodInjector(
                flood_start_ns=start_ns,
                flood_duration_ns=duration_ns,
                rate_per_s=float(params.pop("rate_per_s", 2000.0)),
                target_city=str(params.pop("target_city", "Auckland")),
                target_port=int(params.pop("target_port", 443)),
                **params,
            )
        return ConnectionSurgeInjector(
            surge_start_ns=start_ns,
            surge_duration_ns=duration_ns,
            rate_per_s=float(params.pop("rate_per_s", 300.0)),
            src_city=str(params.pop("src_city", "Wellington")),
            dst_city=str(params.pop("dst_city", "Los Angeles")),
            **params,
        )


@dataclass(frozen=True)
class StackSpec:
    """How much of the dataflow the run assembles.

    ``tiers`` names the builder tiers to assemble beside the fast path
    (the NIC and the workers, always there), each at its one setting:
    ``overload`` at the controller's defaults, ``topk`` at the builder's
    capacity. ``queue_capacity`` shrinks the rx rings so an overload
    scenario can actually pressure them; ``feed_window_ms`` switches
    feeding from fixed-size batches to virtual-time windows, so a
    traffic ramp translates into growing per-batch burst sizes — the
    load signal watermark sensors react to.
    """

    queues: int = 2
    frontend_hwm: int = 1 << 20
    queue_capacity: Optional[int] = None
    feed_window_ms: Optional[float] = None
    tiers: Tuple[str, ...] = (
        "analytics", "faults", "telemetry", "anomaly", "frontend",
    )

    def __post_init__(self):
        for tier in self.tiers:
            _require(tier in TIERS, f"stack.tiers: unknown tier {tier!r}; choose from {TIERS}")
        # One order, whatever order the document lists them in.
        object.__setattr__(self, "tiers", tuple(t for t in TIERS if t in self.tiers))
        _require(self.queues >= 1, "stack.queues must be at least 1")
        if self.queue_capacity is not None:
            _require(
                self.queue_capacity >= 8,
                "stack.queue_capacity must be at least 8",
            )
        if self.feed_window_ms is not None:
            _require(
                self.feed_window_ms > 0,
                "stack.feed_window_ms must be positive",
            )


@dataclass(frozen=True)
class OverloadSpec:
    """The overload tier's shed-ratio gates, checked by the runner when
    set; a gate needs ``"overload"`` in ``stack.tiers``. The controller
    itself runs at its own defaults (:mod:`repro.overload`)."""

    #: Gate: handshake-class frames shed anywhere must stay under this
    #: fraction of handshake frames offered (None = no gate).
    handshake_shed_max_ratio: Optional[float] = None
    #: Gate: payload-class frames shed must exceed this fraction of
    #: payload frames offered (None = no gate).
    payload_shed_min_ratio: Optional[float] = None

    def __post_init__(self):
        for name in ("handshake_shed_max_ratio", "payload_shed_min_ratio"):
            value = getattr(self, name)
            if value is not None:
                _require(
                    0.0 <= value <= 1.0, f"overload.{name} must be in [0, 1]"
                )


@dataclass(frozen=True)
class TelemetrySpec:
    """The telemetry tier: ``interval_s`` exports self-monitoring
    snapshots into the run's TSDB (a dedicated one on a stack without
    analytics) every that many virtual seconds, None exporting nothing;
    ``sample_every`` attributes calls on every Nth feed batch (0: off)."""

    interval_s: Optional[float] = None
    sample_every: int = 0


@dataclass(frozen=True)
class DurableSpec:
    """The durable tier: the store behind a write-ahead log plus
    periodic checkpoints in ``state_dir`` (None: a fresh temporary
    directory per run)."""

    state_dir: Optional[str] = None
    checkpoint_interval_s: float = 1.0
    keep_checkpoints: int = 2
    retention_s: Optional[float] = None
    fsync_wal: bool = False


@dataclass(frozen=True)
class ShardScenarioSpec:
    """The process-topology axis (``repro.shard``).

    ``shards > 0`` runs the episode through
    :class:`repro.shard.ShardedRuntime` — real worker processes over
    pipe transports — instead of the in-process stack, optionally
    SIGKILLing one shard mid-run to exercise the recovery path. The
    run is deterministic (lockstep dispatch, virtual-round rejoin), so
    its ledger and reconciliation metrics gate byte-exact. A restarted
    shard loads the state of its last checkpoint, asked for every
    ``checkpoint_every_batches`` rounds (None: never), plus the acked
    counts since; all of it is held by the parent, and the shard target
    writes no state dir.
    """

    shards: int = 0
    policy: str = "protect-handshakes"
    batch_size: int = 64
    kill_shard: Optional[int] = None
    kill_at_batch: Optional[int] = None
    restart_delay_batches: int = 2
    checkpoint_every_batches: Optional[int] = None

    def __post_init__(self):
        _require(self.shards >= 0, "shard.shards cannot be negative")
        _require(
            self.policy in ("protect-handshakes", "reroute-all"),
            f"shard.policy {self.policy!r} must be "
            "'protect-handshakes' or 'reroute-all'",
        )
        _require(self.batch_size >= 1, "shard.batch_size must be positive")
        _require(
            (self.kill_shard is None) == (self.kill_at_batch is None),
            "shard.kill_shard and shard.kill_at_batch come together",
        )
        if self.kill_shard is not None:
            _require(
                0 <= self.kill_shard < self.shards,
                "shard.kill_shard must name one of the shards",
            )
            _require(
                self.kill_at_batch >= 0,
                "shard.kill_at_batch cannot be negative",
            )
        _require(
            self.restart_delay_batches >= 1,
            "shard.restart_delay_batches must be at least 1",
        )
        _require(
            self.checkpoint_every_batches is None or self.checkpoint_every_batches >= 1,
            "shard.checkpoint_every_batches must be at least 1",
        )

    @property
    def enabled(self) -> bool:
        return self.shards > 0


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, runnable, comparable operational episode."""

    name: str
    description: str = ""
    seed: int = 7
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    anomalies: Tuple[AnomalyWindowSpec, ...] = ()
    stack: StackSpec = field(default_factory=StackSpec)
    overload: OverloadSpec = field(default_factory=OverloadSpec)
    shard: ShardScenarioSpec = field(default_factory=ShardScenarioSpec)
    #: Expected anomaly-event counts: kind -> {"min": n} and/or
    #: {"max": n}. The runner fails the correctness gate when the
    #: detectors land outside the band.
    expect: Dict[str, Dict[str, int]] = field(default_factory=dict)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    durable: DurableSpec = field(default_factory=DurableSpec)

    def __post_init__(self):
        _require(bool(self.name), "scenario name cannot be empty")
        _require(
            all(ch.isalnum() or ch in "-_." for ch in self.name),
            f"scenario name {self.name!r} must be filesystem-safe "
            "(alphanumerics, '-', '_', '.')",
        )
        for kind, band in self.expect.items():
            _require(
                kind in EVENT_KINDS,
                f"expect.{kind}: unknown event kind; choose from {EVENT_KINDS}",
            )
            _require(
                set(band) <= {"min", "max"},
                f"expect.{kind} keys must be 'min'/'max'",
            )
        # A key the run would not honour is an error, not a silent no-op.
        if self.shard.enabled:
            # The shard target has no fault injector, overload ladder,
            # [stack] tier, telemetry export, durable tier or detector.
            ignored = (
                _changed("faults", self.faults)
                + _changed("stack", self.stack)
                + _changed("overload", self.overload)
                + _changed("telemetry", self.telemetry)
                + _changed("durable", self.durable)
                + [f"expect.{kind}" for kind in sorted(self.expect)]
            )
            _require(
                not ignored,
                f"shard.shards > 0 does not take {', '.join(ignored)}: "
                "the shard target has no such tier or setting",
            )
            return
        unsharded = _changed("shard", self.shard, skip=("shards",))
        _require(
            not unsharded,
            f"shard.shards = 0 does not take {', '.join(unsharded)}: "
            "the run has no shards",
        )
        for tier, keys in (
            ("faults", _changed("faults", self.faults)),
            ("durable", _changed("durable", self.durable)),
            ("overload", _changed("overload", self.overload)),
            ("anomaly", [f"expect.{kind}" for kind in sorted(self.expect)]),
        ):
            _require(
                tier in self.stack.tiers or not keys,
                f"{', '.join(keys)} needs the {tier} tier in stack.tiers",
            )

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """The document form (what ``ruru scenario show`` prints)."""
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            **{name: dataclasses.asdict(getattr(self, name)) for name in SECTIONS},
            "anomalies": [dataclasses.asdict(a) for a in self.anomalies],
            "expect": {k: dict(v) for k, v in self.expect.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        _require(isinstance(data, dict), "scenario document must be a table")
        known = {"name", "description", "seed", "anomalies", "expect", *SECTIONS}
        unknown = set(data) - known
        _require(not unknown, f"unknown scenario keys: {sorted(unknown)}")
        try:
            sections = {
                name: section(**dict(data.get(name, {})))
                for name, section in SECTIONS.items()
            }
            anomalies = tuple(
                AnomalyWindowSpec(**dict(entry))
                for entry in data.get("anomalies", ())
            )
        except TypeError as exc:
            raise SpecError(f"bad scenario field: {exc}") from None
        return cls(
            name=str(data.get("name", "")),
            description=str(data.get("description", "")),
            seed=int(data.get("seed", 7)),
            anomalies=anomalies,
            expect={
                str(kind): {str(k): int(v) for k, v in dict(band).items()}
                for kind, band in dict(data.get("expect", {})).items()
            },
            **sections,
        )


#: The document's tables, each one section dataclass.
SECTIONS = {
    "traffic": TrafficSpec,
    "faults": FaultSpec,
    "stack": StackSpec,
    "overload": OverloadSpec,
    "shard": ShardScenarioSpec,
    "telemetry": TelemetrySpec,
    "durable": DurableSpec,
}


def load_scenario_file(path: str) -> ScenarioSpec:
    """Parse one spec from a ``.toml`` or ``.json`` file."""
    if str(path).endswith(".json"):
        with open(path, "r", encoding="utf-8") as handle:
            return ScenarioSpec.from_dict(json.load(handle))
    import tomllib

    with open(path, "rb") as handle:
        return ScenarioSpec.from_dict(tomllib.load(handle))


def apply_overrides(spec: ScenarioSpec, overrides: Dict[str, object]) -> ScenarioSpec:
    """A new spec with dotted-path *overrides* applied.

    ``{"traffic.rate": 100, "faults.overrides.mq_drop_rate": 0.1}``
    — the grid runner's config axis. Values land in the document form,
    so every override re-validates through :meth:`ScenarioSpec.from_dict`.
    """
    if not overrides:
        return spec
    document = spec.to_dict()
    for path, value in overrides.items():
        parts = str(path).split(".")
        node = document
        for part in parts[:-1]:
            _require(
                isinstance(node, dict),
                f"override path {path!r} walks through a non-table",
            )
            node = node.setdefault(part, {})
        _require(isinstance(node, dict), f"override path {path!r} is invalid")
        node[parts[-1]] = value
    return ScenarioSpec.from_dict(document)


def parse_override_args(pairs: List[str]) -> Dict[str, object]:
    """CLI ``key=value`` pairs into a typed overrides dict.

    Values parse as JSON when possible (numbers, booleans), else stay
    strings — so ``--set traffic.rate=100 --set traffic.diurnal=true``
    works without quoting ceremony.
    """
    overrides: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        _require(bool(sep), f"override {pair!r} must look like key=value")
        try:
            overrides[key.strip()] = json.loads(raw)
        except ValueError:
            overrides[key.strip()] = raw
    return overrides
