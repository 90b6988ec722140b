"""repro.stack — the stage-graph runtime.

The whole Ruru reproduction is one dataflow (the paper's Fig. 2):
DPDK NIC → per-queue latency workers → message bus → enrichment
analytics → TSDB / frontend, with anomaly, top-k and telemetry riding
the enriched stream and the durability tail (WAL + checkpoints)
closing the graph. This package declares that shape **once**
(:mod:`repro.stack.topology`) and derives everything cross-cutting
from it:

* the per-batch processing order, :meth:`RuruStack.process_batch`,
  which :meth:`RuruStack.run` offers to the one feed loop
  (:func:`repro.core.feed.drive`);
* the graceful-drain protocol — :meth:`RuruStack.drain`;
* the checkpoint payload — :meth:`RuruStack.capture_state`;
* the registered crash-point table —
  :func:`repro.stack.topology.crash_points`.

A run's counters are read once, into its books (``count_books``); the
metrics registry renders the books through :mod:`repro.stack.metrics`.

Every assembly in the repo (the CLI commands, the
recovery harness, the scenario runner) is one scenario spec turned into
a :class:`StackBuilder` chain by :class:`repro.scenarios.runner.Episode`
and driven by :meth:`RuruStack.run`; nothing outside this package wires
pipeline-to-analytics plumbing, and nothing outside
:mod:`repro.core.feed` cuts feed batches.
"""

from repro.stack.builder import (
    STATE_FORMAT,
    DrainReport,
    RuruStack,
    StackBuilder,
    build_enrichment_dbs,
    build_live_stack,
    build_measure_stack,
    build_sharded_runtime,
)
from repro.stack.stage import Stage, StageContext, StageGraph
from repro.stack.topology import (
    PROTOCOL_POINTS,
    TOPOLOGY,
    StageSpec,
    crash_points,
    get_spec,
    stage_names,
)

__all__ = [
    "DrainReport",
    "PROTOCOL_POINTS",
    "STATE_FORMAT",
    "RuruStack",
    "Stage",
    "StageContext",
    "StageGraph",
    "StageSpec",
    "StackBuilder",
    "TOPOLOGY",
    "build_enrichment_dbs",
    "build_live_stack",
    "build_measure_stack",
    "build_sharded_runtime",
    "crash_points",
    "get_spec",
    "stage_names",
]
