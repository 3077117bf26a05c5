"""Durable spill-to-disk runs: segment files, manifests, and the run log.

Long enumerations used to hold every clique in parent memory and die
with the process.  This package makes runs *durable*: as blocks finish,
their :class:`~repro.core.block_analysis.BlockReport` cliques are
appended to fsynced, CRC-checked, length-prefixed segment files (the
only per-block progress record) under a JSON manifest holding the run's
config fingerprint.  A crashed or killed run restarted with
``find_max_cliques(spill_dir=..., resume=True)`` validates the
manifest, skips every block whose record is whole, replays the spilled
reports into the final clique set, and truncates a torn final record
left by a crash mid-write.  See ``docs/durability.md`` for the formats.
"""

from repro.runs.manifest import RunManifest, fingerprint_run, load_manifest
from repro.runs.runlog import RunLog
from repro.runs.segments import (
    SEGMENT_MAGIC,
    SegmentWriter,
    decode_block_record,
    encode_block_record,
    read_segment,
    recover_segment,
)

__all__ = [
    "RunLog",
    "RunManifest",
    "SEGMENT_MAGIC",
    "SegmentWriter",
    "decode_block_record",
    "encode_block_record",
    "fingerprint_run",
    "load_manifest",
    "read_segment",
    "recover_segment",
]
