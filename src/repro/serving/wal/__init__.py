"""Log-structured ingestion: durable WAL, replay, and background compaction.

The write path for the serving stack (see ``docs/SERVING.md``, "Write
path"):

- :class:`DeltaLog` — checksummed, fsync'd, LSN-stamped segment files of
  graph upsert events with torn-tail recovery and replay into a
  :class:`~repro.dynamic.delta.GraphDelta` (``log.py``);
- :class:`IngestPipeline` — durable appends + warm
  :class:`~repro.dynamic.incremental.IncrementalPANE` + publication of
  compacted store versions stamped with ``applied_lsn``, and the
  background fold → publish → activate → retain → checkpoint cycle
  (``compactor.py``).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BASE_GRAPH_FILE",
    "CHECKPOINT_FILE",
    "CHECKPOINT_SCHEMA",
    "DeltaLog",
    "IngestPipeline",
    "LogCorruption",
    "LogFull",
    "LogRecord",
    "LogWriteError",
    "RecoveryError",
    "SegmentInfo",
    "events_from_delta",
    "fold_records",
    "scan_segment",
]

# Resolved on first use: the server imports ``wal.log`` for its error
# types on every boot; only ``compactor`` needs the trainer.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serving.wal.compactor": (
            "BASE_GRAPH_FILE", "CHECKPOINT_FILE", "CHECKPOINT_SCHEMA",
            "IngestPipeline", "RecoveryError",
        ),
        "repro.serving.wal.log": (
            "DeltaLog", "LogCorruption", "LogFull", "LogRecord", "LogWriteError",
            "SegmentInfo", "events_from_delta", "fold_records", "scan_segment",
        ),
    },
)
