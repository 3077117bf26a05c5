"""The run log: one object coordinating spill, skip, and replay.

The driver owns a :class:`RunLog` when ``find_max_cliques`` is called
with ``spill_dir=...`` and hands it to whichever execution path runs the
blocks.  The contract every path follows:

* before analysing block ``b`` of level ``l``, ask
  :meth:`RunLog.is_completed`; if true, take the stored report from
  :meth:`RunLog.replay_report` instead of analysing;
* after a block (or a split block's merged fragments — exactly once per
  block either way) finishes, call :meth:`RunLog.record`, which appends
  the report to the segment file (flush + fsync).

That append is the whole durability argument: a block is completed
exactly when its record is whole on disk, so every crash leaves the
directory in one of three states — record absent (block re-analysed on
resume), record torn at the tail (truncated, block re-analysed), or
record whole (block skipped and replayed).  The segments are the only
per-block progress record; the manifest holds what the run *is*
(fingerprint, segment names, status, barrier partition digests) and is
written when the run opens, once per barrier level, and at the end.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.block_analysis import BlockReport
from repro.errors import CorruptSegmentError, ResumeMismatchError
from repro.mce.instrumentation import SegmentFlush
from repro.runs.manifest import (
    RunManifest,
    load_manifest,
    manifest_path,
)
from repro.runs.segments import (
    SegmentWriter,
    decode_block_record,
    encode_block_record,
    maybe_inject_spill_fault,
    recover_segment,
)

SEGMENT_SUFFIX = ".seg"


class RunLog:
    """Durable state of one spill-to-disk enumeration.

    Parameters
    ----------
    spill_dir:
        Directory holding the manifest and segment files; created on a
        fresh run.
    fingerprint:
        The run's config fingerprint
        (:func:`repro.runs.manifest.fingerprint_run`).  A fresh run
        stores it; a resume validates the manifest against it.
    resume:
        ``False`` (fresh) requires the directory to contain no manifest;
        ``True`` requires one, validates it, and recovers every segment
        in the directory — truncating a torn final record — before any
        block is dispatched.

    Raises
    ------
    ResumeMismatchError
        Fresh run into a directory that already holds a manifest, resume
        without one, or a fingerprint mismatch.
    CorruptSegmentError
        Mid-file corruption in a recovered segment.
    """

    def __init__(
        self,
        spill_dir: str | Path,
        fingerprint: dict[str, object],
        resume: bool = False,
    ) -> None:
        self.directory = Path(spill_dir)
        self.resumed = resume
        self._recovered: dict[tuple[int, int], BlockReport] = {}
        self.flushes: list[SegmentFlush] = []
        self._closed = False

        if resume:
            self.manifest = load_manifest(self.directory)
            self.manifest.validate_fingerprint(fingerprint)
            self._recover_segments()
            self.manifest.status = "running"
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            if manifest_path(self.directory).exists():
                raise ResumeMismatchError(
                    f"{self.directory} already contains a run manifest; "
                    "pass resume=True to continue it or choose an empty "
                    "spill directory"
                )
            self.manifest = RunManifest(fingerprint=dict(fingerprint))

        self._segment = self._open_segment()
        self.manifest.save(self.directory)

    # -- resume side -------------------------------------------------------
    def _recover_segments(self) -> None:
        """Replay every segment in the directory, truncating torn tails."""
        for path in sorted(self.directory.glob(f"*{SEGMENT_SUFFIX}")):
            payloads, valid_bytes = recover_segment(path)
            if valid_bytes < path.stat().st_size:
                with open(path, "r+b") as fh:
                    fh.truncate(valid_bytes)
            for payload in payloads:
                level, block_id, report = decode_block_record(payload)
                if (level, block_id) in self._recovered:
                    raise CorruptSegmentError(
                        f"block {level}.{block_id} recorded twice across "
                        f"segments in {self.directory}",
                        path=str(path),
                    )
                report.extra["replayed"] = 1.0
                self._recovered[(level, block_id)] = report

    def _open_segment(self) -> SegmentWriter:
        """Open a fresh segment file with the first unused index."""
        index = 0
        while True:
            candidate = self.directory / f"segment-{index:04d}{SEGMENT_SUFFIX}"
            if not candidate.exists():
                break
            index += 1
        self.manifest.segments.append(candidate.name)
        return SegmentWriter(candidate)

    # -- query side --------------------------------------------------------
    @property
    def segment_path(self) -> str:
        """Path of the segment this run is appending to (for errors)."""
        return str(self._segment.path)

    def is_completed(self, level: int, block_id: int) -> bool:
        """True when the block's report was recovered from a prior run."""
        return (level, block_id) in self._recovered

    def replay_report(self, level: int, block_id: int) -> BlockReport:
        """The stored report of a completed block (byte-identical cliques)."""
        return self._recovered[(level, block_id)]

    @property
    def num_recovered(self) -> int:
        return len(self._recovered)

    # -- record side -------------------------------------------------------
    def check_partition(self, level: int, digest: str) -> None:
        """Store one barrier level's partition digest (one manifest save),
        or raise ``ResumeMismatchError`` if a stored one differs."""
        stored = self.manifest.partitions.get(level)
        if stored is None:
            self.manifest.partitions[level] = digest
            self.manifest.save(self.directory)
        elif stored != digest:
            self._discard_empty_segment()
            raise ResumeMismatchError(
                f"resume partition mismatch at level {level}: the blocks "
                "differ from those the spill directory recorded.  Barrier "
                "mode's dict decomposition depends on PYTHONHASHSEED for "
                "non-int node labels; resume with the original hash seed, "
                "or use pipeline mode, whose CSR decomposition does not"
            )

    def _discard_empty_segment(self) -> None:
        """Undo this session's segment if it never received a record.

        A refused resume must leave the directory as it found it: close
        and delete the segment opened at start-up and drop its name from
        the manifest.  A segment holding records is kept.
        """
        if self.flushes:
            return
        self.close()
        self._segment.path.unlink(missing_ok=True)
        self.manifest.segments.remove(self._segment.path.name)
        self.manifest.save(self.directory)

    def record(self, level: int, block_id: int, report: BlockReport) -> SegmentFlush:
        """Durably persist one finished block.

        The segment append (flush + fsync) is the block's only progress
        record; the fault hooks bracket it so the crash tests can kill
        the parent on either side of the durability boundary.
        """
        start = time.perf_counter()
        maybe_inject_spill_fault("pre", level, block_id)
        payload = encode_block_record(level, block_id, report)
        nbytes = self._segment.append(payload, fault_key=(level, block_id))
        maybe_inject_spill_fault("post", level, block_id)
        flush = SegmentFlush(
            level=level,
            block_id=block_id,
            segment_bytes=nbytes,
            seconds=time.perf_counter() - start,
        )
        self.flushes.append(flush)
        return flush

    # -- lifecycle ---------------------------------------------------------
    def finalize(self) -> None:
        """Mark the run complete (called only after a clean finish)."""
        self.manifest.status = "complete"
        self.manifest.save(self.directory)
        self.close()

    def close(self) -> None:
        """Close the segment file; the manifest keeps its last status."""
        if self._closed:
            return
        self._closed = True
        self._segment.close()
