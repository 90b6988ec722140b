"""Per-shard checkpoint + WAL namespacing over the PR 3 machinery.

Each shard gets its own corner of the state directory::

    <state_dir>/shards/<shard-name>/ckpt-<seq>-<now>.snap
    <state_dir>/shards/<shard-name>/acks.wal

The parent owns both artifacts (children can die at any instant, the
parent is the durable actor): on a checkpoint cadence it asks the
child for its ``state_dict`` and writes it through the atomic
:class:`~repro.durability.checkpoint.Checkpointer`; between
checkpoints every *acked* batch's counter delta is appended to the
shard's :class:`~repro.durability.wal.WriteAheadLog` (encoded as one
line-protocol point, so the CRC framing, torn-tail tolerance and
batch-id dedup are reused verbatim rather than reimplemented).

Recovery of a crashed shard is two steps: newest valid checkpoint,
then replay of the WAL deltas above its high-water mark (the ack log,
unlike the TSDB's, is truncated at each checkpoint — the worker state
in the envelope *is* the image). The restored shard's self-reported
ledger then matches the parent's per-shard accounting exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.durability.checkpoint import Checkpointer, CheckpointInfo
from repro.durability.wal import WriteAheadLog
from repro.tsdb.point import Point

SHARD_STATE_FORMAT = 1
_ACK_MEASUREMENT = "shard_ack"


@dataclass
class ShardRecovery:
    """What a crashed shard restarts from."""

    state: Optional[dict]  # the checkpointed worker state_dict, if any
    deltas: List[dict] = field(default_factory=list)
    last_acked_seq: int = 0
    torn_tail: bool = False

    @property
    def from_checkpoint(self) -> bool:
        return self.state is not None


class ShardStateStore:
    """One shard's durable corner of the state directory."""

    def __init__(
        self,
        state_dir: str,
        shard_name: str,
        keep: int = 2,
        fsync: bool = False,
    ):
        self.shard_name = shard_name
        self.dir = os.path.join(str(state_dir), "shards", shard_name)
        os.makedirs(self.dir, exist_ok=True)
        self._pending_state: dict = {}
        self.checkpointer = Checkpointer(
            state_dir=self.dir,
            capture=lambda: dict(self._pending_state),
            keep=keep,
            fsync=fsync,
        )
        self.wal = WriteAheadLog(os.path.join(self.dir, "acks.wal"), fsync=fsync)
        self.acks_logged = 0

    # -- writing -------------------------------------------------------------

    def append_ack(
        self, seq: int, processed: int, parse_errors: int, records: int
    ) -> None:
        """Log one acked batch's counter delta (WAL batch id = seq)."""
        point = Point(
            measurement=_ACK_MEASUREMENT,
            timestamp_ns=int(seq),
            fields={
                "processed": int(processed),
                "parse_errors": int(parse_errors),
                "records": int(records),
            },
        )
        self.wal.append(int(seq), [point])
        self.acks_logged += 1

    def checkpoint(
        self, worker_state: dict, now_ns: int, last_acked_seq: int
    ) -> CheckpointInfo:
        """Atomically persist *worker_state*, then truncate the WAL.

        The checkpoint records the ack high-water mark it covers, so a
        crash between the write and the truncation replays only deltas
        above the mark.
        """
        self._pending_state = {
            "format": SHARD_STATE_FORMAT,
            "shard": {
                "name": self.shard_name,
                "last_acked_seq": int(last_acked_seq),
            },
            "worker": worker_state,
        }
        info = self.checkpointer.checkpoint(int(now_ns))
        self.wal.truncate()
        return info

    def close(self) -> None:
        self.wal.close()

    # -- recovery ------------------------------------------------------------

    def load(self) -> ShardRecovery:
        """Newest valid checkpoint plus the WAL deltas above its mark."""
        found = self.checkpointer.latest_valid()
        if found is None:
            worker_state = None
            high_water = 0
        else:
            _, snapshot = found
            if int(snapshot.get("format", 0)) != SHARD_STATE_FORMAT:
                raise ValueError(
                    f"unsupported shard state format "
                    f"{snapshot.get('format')!r} for {self.shard_name}"
                )
            worker_state = snapshot["worker"]
            high_water = int(snapshot["shard"]["last_acked_seq"])
        replay = self.wal.replay()
        deltas: List[dict] = []
        last_acked = high_water
        for batch_id, points in replay.live_batches(high_water):
            if not points or points[0].measurement != _ACK_MEASUREMENT:
                continue
            fields = points[0].fields
            deltas.append(
                {
                    "seq": int(batch_id),
                    "processed": int(fields["processed"]),
                    "parse_errors": int(fields["parse_errors"]),
                    "records": int(fields["records"]),
                }
            )
            last_acked = max(last_acked, int(batch_id))
        deltas.sort(key=lambda delta: delta["seq"])
        return ShardRecovery(
            state=worker_state,
            deltas=deltas,
            last_acked_seq=last_acked,
            torn_tail=replay.torn_tail,
        )
