"""Placement derivation: the topology decides who runs where."""

import pytest

from repro.shard.placement import PlacementError, derive_placement
from repro.stack.topology import stage_names


class TestDerivePlacement:
    def test_parent_keeps_admission_and_router(self):
        plan = derive_placement(4)
        assert plan.parent.stages == ("overload", "nic")

    def test_one_worker_process_per_queue(self):
        plan = derive_placement(4)
        workers = [s for s in plan.shards if "workers" in s.stages]
        assert len(workers) == 4
        assert [w.queue_id for w in workers] == [0, 1, 2, 3]
        assert [w.shard_id for w in workers] == [0, 1, 2, 3]

    def test_mq_is_an_edge_not_a_process(self):
        plan = derive_placement(2)
        for spec in (plan.parent, *plan.shards):
            assert "mq" not in spec.stages
        assert all(edge.stage == "mq" for edge in plan.edges)
        assert len(plan.edges) == 2

    def test_analytics_none_omits_the_tail(self):
        plan = derive_placement(2)
        hosted = set(plan.parent.stages)
        for spec in plan.shards:
            hosted.update(spec.stages)
        assert "analytics" not in hosted
        assert all(spec.stages == ("workers",) for spec in plan.shards)

    def test_every_topology_stage_is_placed_or_an_edge(self):
        """Up to the bus, that is: the tail behind it is not assembled."""
        plan = derive_placement(3)
        placed = set(plan.parent.stages)
        for spec in plan.shards:
            placed.update(spec.stages)
        placed.update(edge.stage for edge in plan.edges)
        names = stage_names()
        assert placed == set(names[: names.index("mq") + 1])

    def test_describe_mentions_every_process(self):
        text = derive_placement(2).describe()
        for name in ("parent", "shard-0", "shard-1"):
            assert name in text

    def test_zero_shards_rejected(self):
        with pytest.raises(PlacementError):
            derive_placement(0)
