"""The Stage protocol and the ordered stage graph.

A :class:`Stage` wraps one tier of the running stack behind a uniform
lifecycle so the composition root can treat the whole pipeline as data:

* ``process(ctx)`` — advance the stage for one feed batch;
* ``drain(ctx)`` — run this stage's part of the drain protocol and
  return the stage labels it performed (what ``DrainReport.stages``
  is built from);
* ``state_dict()`` / ``load_state(state)`` — the stage's checkpoint
  fragment (a dict merged into the envelope, keyed so fragments never
  collide);
* ``bind_telemetry(registry)`` — scrape-time collectors;
* ``fault_points()`` — the crash points this stage owns.

:class:`StageGraph` holds stages in topology order and derives every
cross-cutting traversal — batch processing, drain order, checkpoint
payload, fault surface — from that one ordering.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.stack.topology import StageSpec, stage_names


class StageContext:
    """Per-traversal context handed to every stage hook.

    ``now_ns`` is read lazily so a stage that advances virtual time is
    visible to the stages after it in the same traversal (the
    checkpoint stage must stamp the post-drain clock, not the
    pre-drain one).
    """

    def __init__(
        self,
        batch: Optional[Sequence] = None,
        now_fn: Optional[Callable[[], int]] = None,
        reached: Optional[Callable[[str], None]] = None,
    ):
        self.batch = batch if batch is not None else []
        self._now_fn = now_fn
        self._reached = reached

    @property
    def now_ns(self) -> int:
        return self._now_fn() if self._now_fn is not None else 0

    def reached(self, point: str) -> None:
        """Cross one instrumented boundary (arms SimulatedCrash)."""
        if self._reached is not None:
            self._reached(point)


class Stage:
    """Base stage: every lifecycle hook defaults to a no-op."""

    def __init__(self, spec: StageSpec):
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    def process(self, ctx: StageContext) -> None:
        """Advance this stage for one feed batch."""

    def drain(self, ctx: StageContext) -> List[str]:
        """Run this stage's part of the drain protocol.

        Returns the ordered labels of the drain steps performed, which
        the composition root concatenates into the report's stage
        list. Stages with nothing to drain return ``[]``.
        """
        return []

    def state_dict(self) -> Dict:
        """This stage's checkpoint fragment (empty for stateless)."""
        return {}

    def load_state(self, state: Dict) -> None:
        """Restore from a full checkpoint envelope; each stage picks
        out only the keys it contributed."""

    def bind_telemetry(self, registry) -> None:
        """Register scrape-time collectors for this stage."""

    def fault_points(self) -> Dict[str, str]:
        """Crash points this stage owns, from its topology spec."""
        return dict(self.spec.crash_points)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class StageGraph:
    """The assembled stages, held in topology order.

    The graph refuses stages that are out of topology order or
    duplicated, so a builder bug cannot silently reorder the drain
    protocol or the checkpoint payload.
    """

    def __init__(self, stages: Sequence[Stage]):
        order = {name: index for index, name in enumerate(stage_names())}
        last = -1
        for stage in stages:
            index = order.get(stage.name)
            if index is None:
                raise ValueError(f"stage {stage.name!r} is not in the topology")
            if index <= last:
                raise ValueError(
                    f"stage {stage.name!r} is out of topology order"
                )
            last = index
        self.stages: List[Stage] = list(stages)
        self._profiler = None

    def __iter__(self) -> Iterator[Stage]:
        return iter(self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    def names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def get(self, name: str) -> Optional[Stage]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    # -- derived traversals --------------------------------------------------

    def bind_profiler(self, profiler) -> None:
        """Attach a :class:`~repro.obs.prof.StageProfiler`.

        The graph itself times every stage's ``process`` slice, so the
        profile surface is *derived from the topology*: any stage an
        assembly includes is profiled, with no per-stage hook code.
        """
        self._profiler = profiler

    def process(self, ctx: StageContext) -> None:
        """One feed batch end to end, in dataflow order."""
        profiler = self._profiler
        if profiler is None:
            for stage in self.stages:
                stage.process(ctx)
            return
        items = len(ctx.batch)
        now_fn = ctx._now_fn
        sampled = profiler.batch_begin()
        try:
            for stage in self.stages:
                with profiler.stage(stage.name, items=items, now_fn=now_fn):
                    stage.process(ctx)
        finally:
            profiler.batch_end(sampled)

    def drain(self, ctx: StageContext) -> List[str]:
        """The graceful drain protocol: traverse in dependency order,
        collecting each stage's performed drain labels."""
        labels: List[str] = []
        for stage in self.stages:
            labels.extend(stage.drain(ctx))
        return labels

    def capture_state(self) -> Dict:
        """Checkpoint payload: every stage's fragment, merged in order."""
        state: Dict = {}
        for stage in self.stages:
            fragment = stage.state_dict()
            overlap = set(fragment) & set(state)
            if overlap:
                raise ValueError(
                    f"stage {stage.name!r} checkpoint keys collide: {overlap}"
                )
            state.update(fragment)
        return state

    def load_state(self, state: Dict) -> None:
        for stage in self.stages:
            stage.load_state(state)

    def bind_telemetry(self, registry) -> None:
        for stage in self.stages:
            stage.bind_telemetry(registry)

    def fault_points(self) -> Dict[str, str]:
        """The crash points of every assembled stage, in order."""
        points: Dict[str, str] = {}
        for stage in self.stages:
            points.update(stage.fault_points())
        return points
