"""Execution strategies for independent block analyses.

The decomposition's blocks are self-contained, so analysing them is an
embarrassingly parallel map.  Four executors share one interface
(``map_blocks``):

* :class:`SerialExecutor` — the deterministic reference; used by the
  driver and by every test;
* :class:`ProcessExecutor` — real parallelism on the local machine via
  ``concurrent.futures``; blocks and reports are pickled across the
  process boundary;
* :class:`SharedMemoryExecutor` — real parallelism with zero-copy
  dispatch: the level graph is published once as CSR arrays in POSIX
  shared memory, workers attach to it, and each block travels as a
  :class:`~repro.core.block_analysis.BlockDescriptor` of node-id arrays
  instead of a pickled subgraph.  Blocks are dispatched in
  decreasing-estimated-cost order (LPT) through the pool's shared queue
  so the expensive blocks start first and workers self-balance; the
  cheap tail travels in chunks of growing size, one pool task each;
* :class:`SimulatedExecutor` — serial execution plus a replayed cluster
  schedule, reporting what the wall-clock *would be* on a cluster
  (the local stand-in for the paper's OpenMPI deployment).

Both process-based executors raise :class:`repro.errors.ExecutorError`
with the failing block id when a worker raises; the shared-memory
executor can additionally retry blocks in the parent when a worker
*dies* (SIGKILL, OOM), and always reaps its shared-memory segments.

For the fault-tolerance tests, workers honour the
``REPRO_FAULT_INJECT`` environment variable (``kill:<block_id>`` or
``raise:<block_id>``); it only ever triggers inside a pool worker, never
in the parent process.  The same variable carries the parent-side spill
targets (``kill:spill-pre:<level>.<block>`` etc.) interpreted by
:mod:`repro.runs.segments` — one hook, one grammar, two processes.

Every executor accepts an optional :class:`~repro.runs.runlog.RunLog`
(plus the recursion ``level`` the batch belongs to): blocks already
completed by a previous run are *skipped* and their stored reports
replayed, and every freshly finished block is durably recorded the
moment it completes — see ``docs/durability.md``.
"""

from __future__ import annotations

import os
import pickle
import resource
import signal
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import parent_process

from repro.core.block_analysis import (
    BlockBucket,
    BlockDescriptor,
    BlockReport,
    SplitResult,
    SubtaskDescriptor,
    analyze_block,
    analyze_block_csr,
    analyze_block_csr_splittable,
    analyze_bucket_csr,
    analyze_subtask_csr,
    build_subtasks,
    form_buckets,
    merge_fragment_reports,
    padded_size,
)
from repro.graph.csr import BitmapScratch
from repro.core.blocks import Block
from repro.decision.features import adaptive_batch_cutoff, adaptive_split_threshold
from repro.decision.tree import DecisionTree
from repro.distributed.cluster import ClusterSpec
from repro.distributed.scheduler import (
    BatchAccumulator,
    ChunkAccumulator,
    StealDeque,
    StreamingLPTBuffer,
    lpt_order,
)
from repro.distributed.simulation import SimulatedRun, simulate_level
from repro.errors import ExecutorError
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph, SharedCSR, SharedCSRHandle
from repro.mce.instrumentation import (
    BatchDispatch,
    BlockTiming,
    ExecutionTrace,
    LevelDecomposition,
    SplitDecision,
    SubtaskTiming,
)
from repro.mce.registry import Combo
from repro.runs.runlog import RunLog
from repro.runs.segments import FAULT_INJECT_ENV  # shared fault hook (one grammar)


def _maybe_inject_fault(block_id: int) -> None:
    """Test hook: crash or raise on a chosen block, in pool workers only."""
    _inject_if_target(str(block_id), f"block {block_id}")


def _maybe_inject_fault_subtask(block_id: int, subtask_id: int) -> None:
    """Like :func:`_maybe_inject_fault`, targeting ``<block>.<subtask>``.

    The spec ``kill:3.2`` (or ``raise:3.2``) fires only on subtask 2 of
    block 3, so the crash-safety tests can kill a worker mid-subtask and
    assert that *only that subtask* is re-executed — the whole-block
    fragments completed before the crash are kept.
    """
    _inject_if_target(f"{block_id}.{subtask_id}", f"subtask {block_id}.{subtask_id}")


def _inject_if_target(candidate: str, description: str) -> None:
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec or parent_process() is None:
        return
    kind, _, target = spec.partition(":")
    if target != candidate:
        return
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "raise":
        raise RuntimeError(f"injected failure on {description}")


def _segment_path_of(run_log: RunLog | None) -> str | None:
    """Spill-segment context for executor errors (None without spilling)."""
    return run_log.segment_path if run_log is not None else None


def _replayed_timing(block_id: int, report: BlockReport) -> BlockTiming:
    """Trace record of a block replayed from a spill segment (no work)."""
    return BlockTiming(
        block_id=block_id,
        seconds=0.0,
        cliques=len(report.cliques),
        replayed=True,
        combo=report.combo.name,
        features=report.features.vector(),
    )


@dataclass
class SerialExecutor:
    """Analyse blocks one after another in the calling process.

    ``batch_blocks`` (default off) fuses small same-padded-shape blocks
    into multi-block kernel buckets (``analyze_bucket_csr``) instead of
    analysing them one at a time — the serial twin of the shared-memory
    executor's batched dispatch, with identical per-block reports.
    ``batch_cutoff=None`` derives the size cutoff from the batch's own
    block-size distribution
    (:func:`repro.decision.features.adaptive_batch_cutoff`).
    """

    batch_blocks: bool = False
    batch_cutoff: int | None = None
    # Enumeration floor forwarded to block analysis (see the driver's
    # min_clique_size): anchors that cannot reach it are skipped.
    min_clique_size: int = 0
    last_trace: ExecutionTrace | None = field(default=None, init=False, repr=False)

    def map_blocks(
        self,
        blocks: list[Block],
        tree: DecisionTree | None = None,
        combo: Combo | None = None,
        graph: Graph | None = None,
        run_log: RunLog | None = None,
        level: int = 0,
    ) -> list[BlockReport]:
        """Return one :class:`BlockReport` per block, in block order."""
        if self.batch_blocks:
            return self._map_blocks_batched(
                blocks, tree, combo, graph, run_log, level
            )
        reports: list[BlockReport] = []
        for block_id, block in enumerate(blocks):
            if run_log is not None and run_log.is_completed(level, block_id):
                reports.append(run_log.replay_report(level, block_id))
                continue
            report = analyze_block(
                block,
                tree=tree,
                combo=combo,
                min_clique_size=self.min_clique_size,
            )
            if run_log is not None:
                run_log.record(level, block_id, report)
            reports.append(report)
        return reports

    def _map_blocks_batched(
        self,
        blocks: list[Block],
        tree: DecisionTree | None,
        combo: Combo | None,
        graph: Graph | None,
        run_log: RunLog | None,
        level: int,
    ) -> list[BlockReport]:
        """Bucketed analysis: small blocks fused, large ones per-block."""
        if not blocks:
            self.last_trace = ExecutionTrace()
            return []
        csr = CSRGraph(graph if graph is not None else _union_graph(blocks))
        index_of = {node: i for i, node in enumerate(csr.labels)}
        descriptors = [
            BlockDescriptor.from_block(i, block, index_of)
            for i, block in enumerate(blocks)
        ]
        trace = ExecutionTrace()
        self.last_trace = trace
        results: dict[int, BlockReport] = {}
        pending: list[BlockDescriptor] = []
        for block_id, descriptor in enumerate(descriptors):
            if run_log is not None and run_log.is_completed(level, block_id):
                report = run_log.replay_report(level, block_id)
                results[block_id] = report
                trace.record(_replayed_timing(block_id, report))
            else:
                pending.append(descriptor)
        cutoff = (
            self.batch_cutoff
            if self.batch_cutoff is not None
            else adaptive_batch_cutoff([d.size for d in pending])
        )
        buckets, singles = form_buckets(pending, cutoff)
        scratch = BitmapScratch()
        for bucket in buckets:
            stats: dict[str, float] = {}
            reports = analyze_bucket_csr(
                bucket, csr.indptr, csr.indices, csr.labels,
                tree=tree, combo=combo, scratch=scratch, batch_stats=stats,
                min_clique_size=self.min_clique_size,
            )
            trace.record_batch(_batch_dispatch_of(bucket, stats))
            for descriptor, report in zip(bucket.descriptors, reports):
                if run_log is not None:
                    trace.record_flush(
                        run_log.record(level, descriptor.block_id, report)
                    )
                results[descriptor.block_id] = report
                trace.record(_timing_of(descriptor.block_id, report))
        for descriptor in singles:
            report = analyze_block_csr(
                descriptor, csr.indptr, csr.indices, csr.labels,
                tree=tree, combo=combo, scratch=scratch,
                min_clique_size=self.min_clique_size,
            )
            if run_log is not None:
                trace.record_flush(
                    run_log.record(level, descriptor.block_id, report)
                )
            results[descriptor.block_id] = report
            trace.record(_timing_of(descriptor.block_id, report))
        return [results[i] for i in range(len(blocks))]


def _analyze_one(args: tuple[Block, DecisionTree | None, Combo | None]) -> BlockReport:
    """Top-level worker function (must be picklable for process pools)."""
    block, tree, combo = args
    return analyze_block(block, tree=tree, combo=combo)


def _analyze_indexed(
    args: tuple[int, Block, DecisionTree | None, Combo | None, int],
) -> BlockReport:
    """Worker wrapper that tags failures with the offending block id."""
    index, block, tree, combo, min_clique_size = args
    try:
        _maybe_inject_fault(index)
        return analyze_block(
            block, tree=tree, combo=combo, min_clique_size=min_clique_size
        )
    except Exception as exc:
        raise ExecutorError(
            f"block {index} failed in worker {os.getpid()}: "
            f"{type(exc).__name__}: {exc}",
            block_id=index,
        ) from exc


@dataclass
class ProcessExecutor:
    """Analyse blocks in a local process pool.

    ``max_workers=None`` lets the pool size default to the CPU count.
    Submissions are chunked (``chunksize``; by default ``len(blocks)``
    split four ways per worker) so small blocks amortise the per-task
    IPC round-trip.  Results are returned in block order regardless of
    completion order.

    Raises
    ------
    ExecutorError
        When a worker raises (the message names the failing block) or a
        worker process dies.
    """

    max_workers: int | None = None
    chunksize: int | None = None
    # Enumeration floor shipped with each block payload (see the
    # driver's min_clique_size).
    min_clique_size: int = 0

    def map_blocks(
        self,
        blocks: list[Block],
        tree: DecisionTree | None = None,
        combo: Combo | None = None,
        graph: Graph | None = None,
        run_log: RunLog | None = None,
        level: int = 0,
    ) -> list[BlockReport]:
        """Return one :class:`BlockReport` per block, in block order."""
        if not blocks:
            return []
        results: dict[int, BlockReport] = {}
        pending: list[int] = []
        for block_id in range(len(blocks)):
            if run_log is not None and run_log.is_completed(level, block_id):
                results[block_id] = run_log.replay_report(level, block_id)
            else:
                pending.append(block_id)
        if pending:
            workers = self.max_workers or os.cpu_count() or 1
            chunk = self.chunksize or max(1, len(pending) // (workers * 4))
            payloads = [
                (i, blocks[i], tree, combo, self.min_clique_size)
                for i in pending
            ]
            with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                try:
                    for block_id, report in zip(
                        pending,
                        pool.map(_analyze_indexed, payloads, chunksize=chunk),
                    ):
                        if run_log is not None:
                            run_log.record(level, block_id, report)
                        results[block_id] = report
                except BrokenProcessPool as exc:
                    raise ExecutorError(
                        "a worker process died while analysing blocks; "
                        "use SharedMemoryExecutor for in-parent retry",
                        segment_path=_segment_path_of(run_log),
                    ) from exc
        return [results[i] for i in range(len(blocks))]


# ----------------------------------------------------------------------
# Shared-memory executor
# ----------------------------------------------------------------------

# Populated by _shm_worker_init in each pool worker; the attached
# snapshot and the (tree, combo) selection travel once per worker, not
# once per block.
_WORKER_STATE: dict[str, object] = {}


def _shm_worker_init(
    handle: SharedCSRHandle,
    tree: DecisionTree | None,
    combo: Combo | None,
    split_budget: float | None = None,
    min_clique_size: int = 0,
) -> None:
    """Pool initializer: attach to the published CSR snapshot.

    ``split_budget`` (split mode only) is the per-block time budget
    after which a worker stops its kernel sweep and re-splits the rest
    of the block into subtasks; ``None`` disables the mid-run trigger.
    ``min_clique_size`` is the enumeration floor: anchors whose
    candidate neighbourhood cannot reach it are skipped in the workers.
    """
    shared = SharedCSR.attach(handle)
    _WORKER_STATE["shared"] = shared
    _WORKER_STATE["tree"] = tree
    _WORKER_STATE["combo"] = combo
    _WORKER_STATE["scratch"] = BitmapScratch()
    _WORKER_STATE["split_budget"] = split_budget
    _WORKER_STATE["floor"] = min_clique_size


def _worker_floor() -> int:
    """The enumeration floor installed by this worker's initializer."""
    return int(_WORKER_STATE.get("floor", 0) or 0)


def _shm_analyze(
    descriptors: "tuple[BlockDescriptor, ...]",
) -> "list[tuple[int, BlockReport]]":
    """Analyse one chunk of blocks straight from the attached CSR views.

    Each block's backend is materialized from a packed bitmap extracted
    directly out of the shared CSR rows (``analyze_block_csr``) — the
    worker never rebuilds a ``Graph`` or a dict-of-sets adjacency, which
    removes a silent O(edges) reconstruction per block.  The per-worker
    :class:`BitmapScratch` reuses extraction buffers across same-sized
    blocks.
    """
    return _analyze_chunk(_WORKER_STATE["shared"], descriptors)  # type: ignore[arg-type]


def _analyze_chunk(
    shared: SharedCSR, descriptors: "tuple[BlockDescriptor, ...]"
) -> "list[tuple[int, BlockReport]]":
    """One ``(block_id, report)`` per descriptor, in chunk order.

    A chunk is only a transport unit: every block keeps its own fault
    hook, analysis, report stamp and ``ExecutorError(block_id=...)``.
    """
    pairs = []
    for descriptor in descriptors:
        try:
            _maybe_inject_fault(descriptor.block_id)
            report = analyze_block_csr(
                descriptor,
                shared.indptr,
                shared.indices,
                shared.labels,
                tree=_WORKER_STATE["tree"],  # type: ignore[arg-type]
                combo=_WORKER_STATE["combo"],  # type: ignore[arg-type]
                scratch=_WORKER_STATE["scratch"],  # type: ignore[arg-type]
                min_clique_size=_worker_floor(),
            )
        except Exception as exc:
            raise ExecutorError(
                f"block {descriptor.block_id} failed in worker {os.getpid()}: "
                f"{type(exc).__name__}: {exc}",
                block_id=descriptor.block_id,
            ) from exc
        _stamp_report(report, descriptor.nbytes())
        pairs.append((descriptor.block_id, report))
    return pairs


def _stamp_report(report: BlockReport, dispatch_bytes: int) -> None:
    """Attach the per-task worker metrics every report variant carries."""
    report.extra["dispatch_bytes"] = float(dispatch_bytes)
    report.extra["peak_rss_kb"] = float(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )
    report.extra["worker_pid"] = float(os.getpid())


def _batch_dispatch_of(bucket: BlockBucket, stats: dict) -> BatchDispatch:
    """Translate a bucket's kernel stats into its trace record."""
    return BatchDispatch(
        n_pad=bucket.n_pad,
        num_blocks=bucket.num_blocks,
        num_tasks=int(stats.get("num_tasks", 0)),
        padding_waste=float(stats.get("padding_waste", 0.0)),
        sweeps=int(stats.get("sweeps", 0)),
        seconds=float(stats.get("seconds", 0.0)),
        worker_pid=int(stats.get("worker_pid", 0)),
    )


def _shm_analyze_batch(
    bucket: BlockBucket,
) -> "tuple[list[tuple[int, BlockReport]], dict]":
    """Analyse one bucket of small blocks as a single fused kernel run.

    Returns the per-block ``(block_id, report)`` pairs in bucket order
    plus the kernel's batch stats; the parent demuxes the pairs into the
    results map exactly as if each block had been dispatched alone.
    """
    shared: SharedCSR = _WORKER_STATE["shared"]  # type: ignore[assignment]
    try:
        for descriptor in bucket.descriptors:
            _maybe_inject_fault(descriptor.block_id)
        stats: dict[str, float] = {}
        reports = analyze_bucket_csr(
            bucket,
            shared.indptr,
            shared.indices,
            shared.labels,
            tree=_WORKER_STATE["tree"],  # type: ignore[arg-type]
            combo=_WORKER_STATE["combo"],  # type: ignore[arg-type]
            scratch=_WORKER_STATE["scratch"],  # type: ignore[arg-type]
            batch_stats=stats,
            min_clique_size=_worker_floor(),
        )
    except Exception as exc:
        first = bucket.descriptors[0].block_id
        raise ExecutorError(
            f"bucket of {bucket.num_blocks} blocks (first block {first}) "
            f"failed in worker {os.getpid()}: {type(exc).__name__}: {exc}",
            block_id=first,
        ) from exc
    pairs = []
    for descriptor, report in zip(bucket.descriptors, reports):
        _stamp_report(report, descriptor.nbytes())
        pairs.append((descriptor.block_id, report))
    stats["worker_pid"] = float(os.getpid())
    return pairs, stats


def _shm_analyze_split(
    descriptor: BlockDescriptor, probe: bool
) -> "tuple[str, object, object]":
    """Split-mode block worker: returns a report or a split.

    ``("report", block_id, BlockReport)`` when the block ran to
    completion, ``("split", SplitResult, trigger)`` when the worker
    handed the (rest of the) kernel sweep back for subtask dispatch —
    ``trigger`` is ``"cost"`` for a parent-requested probe and
    ``"budget"`` for a mid-run overrun of the time budget.
    """
    shared: SharedCSR = _WORKER_STATE["shared"]  # type: ignore[assignment]
    try:
        _maybe_inject_fault(descriptor.block_id)
        outcome = analyze_block_csr_splittable(
            descriptor,
            shared.indptr,
            shared.indices,
            shared.labels,
            tree=_WORKER_STATE["tree"],  # type: ignore[arg-type]
            combo=_WORKER_STATE["combo"],  # type: ignore[arg-type]
            scratch=_WORKER_STATE["scratch"],  # type: ignore[arg-type]
            probe=probe,
            budget_seconds=_WORKER_STATE.get("split_budget"),  # type: ignore[arg-type]
            min_clique_size=_worker_floor(),
        )
    except Exception as exc:
        raise ExecutorError(
            f"block {descriptor.block_id} failed in worker {os.getpid()}: "
            f"{type(exc).__name__}: {exc}",
            block_id=descriptor.block_id,
        ) from exc
    if isinstance(outcome, SplitResult):
        _stamp_report(outcome.partial, descriptor.nbytes())
        return ("split", outcome, "cost" if probe else "budget")
    _stamp_report(outcome, descriptor.nbytes())
    return ("report", descriptor.block_id, outcome)


def _shm_analyze_subtask(
    subtask: SubtaskDescriptor,
) -> tuple[int, int, BlockReport]:
    """Split-mode subtask worker: one anchor range of a split block."""
    shared: SharedCSR = _WORKER_STATE["shared"]  # type: ignore[assignment]
    try:
        _maybe_inject_fault_subtask(subtask.block_id, subtask.subtask_id)
        report = analyze_subtask_csr(
            subtask,
            shared.indptr,
            shared.indices,
            shared.labels,
            tree=_WORKER_STATE["tree"],  # type: ignore[arg-type]
            combo=_WORKER_STATE["combo"],  # type: ignore[arg-type]
            scratch=_WORKER_STATE["scratch"],  # type: ignore[arg-type]
            min_clique_size=_worker_floor(),
        )
    except Exception as exc:
        raise ExecutorError(
            f"subtask {subtask.block_id}.{subtask.subtask_id} failed in "
            f"worker {os.getpid()}: {type(exc).__name__}: {exc}",
            block_id=subtask.block_id,
        ) from exc
    _stamp_report(report, subtask.nbytes())
    return (subtask.block_id, subtask.subtask_id, report)


def _item_name(item: tuple) -> str:
    """Human-readable name of a steal-deque work item (for errors)."""
    if item[0] == "block":
        return f"block {item[1].block_id}"
    if item[0] == "bucket":
        return f"bucket of {item[1].num_blocks} blocks"
    return f"subtask {item[1].block_id}.{item[1].subtask_id}"


def _item_block_id(item: tuple) -> int:
    if item[0] == "bucket":
        return int(item[1].descriptors[0].block_id)
    return int(item[1].block_id)


@dataclass
class _SplitState:
    """Parent-side accumulator for one split block's fragments."""

    descriptor: BlockDescriptor
    total_positions: int
    pending: set[int]
    fragments: list[tuple[int, int, BlockReport]]
    splitter_pid: int

    def complete(self) -> bool:
        return not self.pending

    def merge(self) -> BlockReport:
        return merge_fragment_reports(
            self.descriptor.block_id,
            len(self.descriptor.kernel_ids),
            self.total_positions,
            self.fragments,
        )


@dataclass
class SharedMemoryExecutor:
    """Zero-copy parallel block analysis over a shared CSR snapshot.

    ``map_blocks`` publishes the level graph once (shared memory),
    derives one :class:`BlockDescriptor` per block, and submits the
    descriptors in decreasing estimated-cost order, so idle workers
    always pull the largest remaining work (dynamic LPT).  A pool task
    carries a chunk of descriptors: the first ``8 × workers - 1`` blocks
    go out alone, later chunks grow with the number of blocks dispatched
    (:class:`~repro.distributed.scheduler.ChunkAccumulator`), so the
    per-task hand-off is paid once per chunk, not once per block.
    Reports stream back as they complete; per-block wall-clock, worker
    peak RSS and dispatched bytes are collected on :attr:`last_trace`.

    ``retry_failed`` (default on) re-runs every block of a lost chunk
    serially in the parent when its worker dies mid-batch — block
    analyses are pure functions, so plain re-execution is exactly
    correct — and raises
    :class:`ExecutorError` only if the retry fails too.  The shared
    segments are always unlinked, including on the failure paths.

    ``split`` (default off) enables anchor-level splitting: blocks whose
    estimated cost exceeds the split threshold are expanded into
    per-anchor-range subtasks dispatched through a work-stealing deque
    alongside whole blocks, so one straggler block no longer pins the
    batch makespan to a single worker (see ``docs/scheduling.md``).
    ``split_threshold=None`` derives the threshold adaptively from the
    batch's cost distribution
    (:func:`repro.decision.features.adaptive_split_threshold`); a float
    forces it (``0.0`` splits every splittable block, ``inf`` none).
    ``split_subtasks`` caps how many subtasks one block expands into
    (default ``4 × workers``); ``resplit_after_seconds`` is the mid-run
    budget after which a worker re-splits the unfinished tail of a block
    the threshold *missed* (``None`` disables the trigger).

    ``batch_blocks`` (default off) is the opposite lever for the
    *small*-block regime: blocks at or below ``batch_cutoff`` nodes are
    grouped by padded shape into :class:`BlockBucket`\\ s and each bucket
    ships to a worker as one task driving a fused multi-block kernel
    (``analyze_bucket_csr``), amortizing dispatch and numpy call
    overhead over the whole bucket.  ``batch_cutoff=None`` adapts the
    cutoff to the batch's block-size distribution; ``batch_bucket_size``
    caps blocks per bucket so one popular shape still spreads over the
    pool.  Combines with ``split``: buckets ride the steal deque next to
    the probe-eligible large blocks (see ``docs/batching.md``).
    """

    max_workers: int | None = None
    retry_failed: bool = True
    # Reorder-buffer depth for pipeline mode; None = max(4, workers).
    pipeline_lookahead: int | None = None
    split: bool = False
    split_threshold: float | None = None
    split_subtasks: int | None = None
    resplit_after_seconds: float | None = 1.0
    batch_blocks: bool = False
    batch_cutoff: int | None = None
    batch_bucket_size: int = 256
    # Enumeration floor installed in every pool worker (see the driver's
    # min_clique_size): anchors that cannot reach it are skipped.
    min_clique_size: int = 0
    last_trace: ExecutionTrace | None = field(default=None, init=False, repr=False)

    def open_pipeline(
        self,
        tree: DecisionTree | None = None,
        combo: Combo | None = None,
        run_log: RunLog | None = None,
    ) -> "PipelineSession":
        """Start a streaming decompose→dispatch session (pipeline mode).

        The returned :class:`PipelineSession` owns one worker pool for
        the whole multi-level run; the pipeline driver publishes each
        level's CSR and streams descriptors into it while later levels
        are still being decomposed.  The session's trace is installed as
        :attr:`last_trace` immediately, so callers can inspect per-level
        decomposition timing as soon as the run ends.  With a
        ``run_log``, already-completed blocks are replayed at submit
        time and every finished block is spilled the moment its report
        lands in the parent.
        """
        session = PipelineSession(
            self.max_workers,
            tree,
            combo,
            retry_failed=self.retry_failed,
            lookahead=self.pipeline_lookahead,
            split=self.split,
            split_threshold=self.split_threshold,
            split_subtasks=self.split_subtasks,
            resplit_after_seconds=self.resplit_after_seconds,
            batch_blocks=self.batch_blocks,
            batch_cutoff=self.batch_cutoff,
            batch_bucket_size=self.batch_bucket_size,
            min_clique_size=self.min_clique_size,
            run_log=run_log,
        )
        self.last_trace = session.trace
        return session

    def map_blocks(
        self,
        blocks: list[Block],
        tree: DecisionTree | None = None,
        combo: Combo | None = None,
        graph: Graph | None = None,
        run_log: RunLog | None = None,
        level: int = 0,
    ) -> list[BlockReport]:
        """Return one :class:`BlockReport` per block, in block order.

        ``graph`` should be the level graph the blocks were cut from;
        when omitted, the union of the block subgraphs is used (the
        union contains every induced edge of every block, so the
        reconstruction is still exact).
        """
        if not blocks:
            self.last_trace = ExecutionTrace()
            return []
        publish_start = time.perf_counter()
        csr = CSRGraph(graph if graph is not None else _union_graph(blocks))
        index_of = {node: i for i, node in enumerate(csr.labels)}
        descriptors = [
            BlockDescriptor.from_block(i, block, index_of)
            for i, block in enumerate(blocks)
        ]
        shared = SharedCSR.publish(csr)
        trace = ExecutionTrace(
            publish_bytes=shared.nbytes(),
            publish_seconds=time.perf_counter() - publish_start,
        )
        self.last_trace = trace
        results: dict[int, BlockReport] = {}
        pending_ids = []
        for block_id in range(len(blocks)):
            if run_log is not None and run_log.is_completed(level, block_id):
                report = run_log.replay_report(level, block_id)
                results[block_id] = report
                trace.record(_replayed_timing(block_id, report))
            else:
                pending_ids.append(block_id)
        try:
            if pending_ids:
                if self.split:
                    self._map_blocks_split(
                        blocks, descriptors, pending_ids, shared, tree, combo,
                        trace, results, run_log, level,
                    )
                elif self.batch_blocks:
                    self._map_blocks_batched(
                        descriptors, pending_ids, shared, tree, combo,
                        trace, results, run_log, level,
                    )
                else:
                    self._map_blocks_whole(
                        blocks, descriptors, pending_ids, shared, tree, combo,
                        trace, results, run_log, level,
                    )
        finally:
            shared.close()
            shared.unlink()
        return [results[i] for i in range(len(blocks))]

    def _map_blocks_whole(
        self,
        blocks: list[Block],
        descriptors: list[BlockDescriptor],
        pending_ids: list[int],
        shared: SharedCSR,
        tree: DecisionTree | None,
        combo: Combo | None,
        trace: ExecutionTrace,
        results: dict[int, BlockReport],
        run_log: RunLog | None,
        level: int,
    ) -> None:
        """The whole-block dispatch loop (``split=False``).

        Blocks leave in LPT order, grouped into chunks of growing size
        (:class:`ChunkAccumulator`): one pool task per chunk.  When a
        worker dies, every block of each lost chunk is retried in the
        parent, one by one.
        """
        order = [
            pending_ids[rank]
            for rank in lpt_order(
                [descriptors[i].estimated_cost for i in pending_ids]
            )
        ]
        chunker = ChunkAccumulator(self.max_workers or os.cpu_count() or 1)
        # Closed chunks, then the partial tail; None marks "no chunk yet".
        chunks = [c for c in (*map(chunker.push, order), chunker.drain()) if c]
        with ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_shm_worker_init,
            initargs=(shared.handle, tree, combo, None, self.min_clique_size),
        ) as pool:
            pending = {}
            for chunk in chunks:
                payload = tuple(descriptors[i] for i in chunk)
                pending[pool.submit(_shm_analyze, payload)] = chunk
                trace.pool_tasks += 1
            # One waiter over every future, not one wait() per completion.
            for future in as_completed(list(pending)):
                chunk = pending.pop(future)
                try:
                    pairs = future.result()
                except BrokenProcessPool:
                    # Lazy, so each retried block is recorded before the
                    # next one runs.
                    pairs = (
                        (block_id, self._retry(
                            blocks[block_id], block_id, tree, combo, run_log
                        ))
                        for block_id in chunk
                    )
                except ExecutorError as exc:
                    exc.segment_path = _segment_path_of(run_log)
                    raise
                for block_id, report in pairs:
                    if run_log is not None:
                        trace.record_flush(
                            run_log.record(level, block_id, report)
                        )
                    results[block_id] = report
                    trace.record(_timing_of(block_id, report))

    def _effective_cutoff(self, pending: "list[BlockDescriptor]") -> int:
        """The batch size cutoff: explicit, or adapted to this batch."""
        if self.batch_cutoff is not None:
            return self.batch_cutoff
        return adaptive_batch_cutoff([d.size for d in pending])

    def _map_blocks_batched(
        self,
        descriptors: list[BlockDescriptor],
        pending_ids: list[int],
        shared: SharedCSR,
        tree: DecisionTree | None,
        combo: Combo | None,
        trace: ExecutionTrace,
        results: dict[int, BlockReport],
        run_log: RunLog | None,
        level: int,
    ) -> None:
        """Bucketed dispatch loop (``batch_blocks=True``, ``split=False``).

        Small blocks travel as whole same-shape buckets — one future per
        bucket, one fused kernel run per future — while blocks above the
        cutoff keep the per-block path.  Work units are submitted in
        decreasing estimated-cost order (a bucket's cost is the sum of
        its members'), so dynamic LPT balancing is preserved at the
        work-unit level.  When the pool breaks, the failed unit is
        re-run in the parent from the still-mapped segments: the whole
        bucket for a bucket unit, the single block otherwise.
        """
        pending = [descriptors[i] for i in pending_ids]
        cutoff = self._effective_cutoff(pending)
        buckets, singles = form_buckets(
            pending, cutoff, max_bucket=self.batch_bucket_size
        )
        units: list[tuple] = [("bucket", bucket) for bucket in buckets]
        units.extend(("block", descriptor) for descriptor in singles)
        # Both payload kinds expose estimated_cost (a bucket's is the sum
        # of its members'), so one LPT ordering covers the mixed units.
        costs = [unit[1].estimated_cost for unit in units]
        scratch = BitmapScratch()

        def finish_block(block_id: int, report: BlockReport) -> None:
            if run_log is not None:
                trace.record_flush(run_log.record(level, block_id, report))
            results[block_id] = report
            trace.record(_timing_of(block_id, report))

        def finish_bucket(
            bucket: BlockBucket,
            pairs: "list[tuple[int, BlockReport]]",
            stats: dict,
        ) -> None:
            trace.record_batch(_batch_dispatch_of(bucket, stats))
            for block_id, report in pairs:
                finish_block(block_id, report)

        def run_in_parent(item: tuple) -> None:
            if not self.retry_failed:
                raise ExecutorError(
                    f"worker process died while analysing {_item_name(item)}",
                    block_id=_item_block_id(item),
                    segment_path=_segment_path_of(run_log),
                )
            if item[0] == "bucket":
                bucket = item[1]
                reports, stats = self._analyze_bucket_in_parent(
                    bucket, shared, tree, combo, scratch, retried=True
                )
                finish_bucket(
                    bucket,
                    [
                        (descriptor.block_id, report)
                        for descriptor, report in zip(bucket.descriptors, reports)
                    ],
                    stats,
                )
            else:
                descriptor = item[1]
                report = self._analyze_in_parent(
                    descriptor, shared, tree, combo, scratch, retried=True
                )
                finish_block(descriptor.block_id, report)

        with ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_shm_worker_init,
            initargs=(shared.handle, tree, combo, None, self.min_clique_size),
        ) as pool:
            futures: dict[object, tuple] = {}
            for rank in lpt_order(costs):
                kind, payload = units[rank]
                if kind == "bucket":
                    future = pool.submit(_shm_analyze_batch, payload)
                else:
                    future = pool.submit(_shm_analyze, (payload,))
                futures[future] = units[rank]
                trace.pool_tasks += 1
            for future in as_completed(list(futures)):
                item = futures.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    run_in_parent(item)
                    continue
                except ExecutorError as exc:
                    exc.segment_path = _segment_path_of(run_log)
                    raise
                if item[0] == "bucket":
                    pairs, stats = outcome
                    finish_bucket(item[1], pairs, stats)
                else:
                    [(block_id, report)] = outcome
                    finish_block(block_id, report)

    def _analyze_bucket_in_parent(
        self,
        bucket: BlockBucket,
        shared: SharedCSR,
        tree: DecisionTree | None,
        combo: Combo | None,
        scratch: BitmapScratch,
        retried: bool,
    ) -> "tuple[list[BlockReport], dict]":
        """Run one whole bucket in the parent from the mapped segments."""
        try:
            stats: dict[str, float] = {}
            reports = analyze_bucket_csr(
                bucket,
                shared.indptr,
                shared.indices,
                shared.labels,
                tree=tree,
                combo=combo,
                scratch=scratch,
                batch_stats=stats,
                min_clique_size=self.min_clique_size,
            )
        except Exception as exc:
            first = bucket.descriptors[0].block_id
            raise ExecutorError(
                f"bucket of {bucket.num_blocks} blocks (first block {first}) "
                f"failed again on in-parent retry: "
                f"{type(exc).__name__}: {exc}",
                block_id=first,
            ) from exc
        for descriptor, report in zip(bucket.descriptors, reports):
            if retried:
                report.extra["retried"] = 1.0
            report.extra["dispatch_bytes"] = float(descriptor.nbytes())
        return reports, stats

    def _map_blocks_split(
        self,
        blocks: list[Block],
        descriptors: list[BlockDescriptor],
        pending_ids: list[int],
        shared: SharedCSR,
        tree: DecisionTree | None,
        combo: Combo | None,
        trace: ExecutionTrace,
        results: dict[int, BlockReport],
        run_log: RunLog | None,
        level: int,
    ) -> None:
        """Work-stealing dispatch loop with anchor-level splitting.

        Tasks live on a parent-side :class:`StealDeque`: whole blocks
        enter at the cold end in LPT order, subtasks spawned by splits
        enter at the hot end and dispatch first.  At most
        ``workers + 2`` futures are in flight, so a freshly split
        straggler's subtasks reach idle workers ahead of the queued
        whole-block tail — the parent-mediated equivalent of idle
        workers stealing from the busy worker's deque.  When the pool
        breaks (a worker died), the failed task — and only it — is
        re-executed in the parent, at subtask granularity for split
        blocks, and the remaining queue drains in the parent.

        A split block is spilled to the run log only when its merged
        report is assembled — fragments are an execution detail; the
        durable unit is the whole block, recorded exactly once.
        """
        workers = self.max_workers or os.cpu_count() or 1
        costs = [descriptors[i].estimated_cost for i in pending_ids]
        threshold = (
            self.split_threshold
            if self.split_threshold is not None
            else adaptive_split_threshold(costs, workers)
        )
        target = self.split_subtasks or max(2, 4 * workers)
        pending = [descriptors[i] for i in pending_ids]
        if self.batch_blocks:
            # Buckets and large blocks share the deque: the cutoff decides
            # which regime a block belongs to, the split threshold (always
            # above the cutoff in practice) which large blocks probe.
            buckets, loose = form_buckets(
                pending,
                self._effective_cutoff(pending),
                max_bucket=self.batch_bucket_size,
            )
        else:
            buckets, loose = [], pending
        units: list[tuple] = [("bucket", bucket) for bucket in buckets]
        for descriptor in loose:
            probe = (
                descriptor.estimated_cost > threshold
                and len(descriptor.kernel_ids) >= 2
            )
            units.append(("block", descriptor, probe))
        queue = StealDeque()
        for rank in lpt_order([unit[1].estimated_cost for unit in units]):
            queue.push_initial(units[rank])
        states: dict[int, _SplitState] = {}
        scratch = BitmapScratch()
        futures: dict[object, tuple] = {}
        in_flight_cap = workers + 2
        pool_broken = False

        def finish_block(block_id: int, report: BlockReport) -> None:
            if run_log is not None:
                trace.record_flush(run_log.record(level, block_id, report))
            results[block_id] = report
            trace.record(_timing_of(block_id, report))

        def finish_bucket(
            bucket: BlockBucket,
            pairs: "list[tuple[int, BlockReport]]",
            stats: dict,
        ) -> None:
            trace.record_batch(_batch_dispatch_of(bucket, stats))
            for block_id, report in pairs:
                finish_block(block_id, report)

        def finish_subtask(
            subtask: SubtaskDescriptor,
            report: BlockReport,
            splitter_pid: int,
            retried: bool,
        ) -> None:
            state = states[subtask.block_id]
            state.fragments.append((subtask.start, subtask.stop, report))
            worker_pid = int(report.extra.get("worker_pid", 0.0))
            trace.record_subtask(
                SubtaskTiming(
                    block_id=subtask.block_id,
                    subtask_id=subtask.subtask_id,
                    start=subtask.start,
                    stop=subtask.stop,
                    seconds=report.seconds,
                    cliques=len(report.cliques),
                    worker_pid=worker_pid,
                    stolen=worker_pid != 0 and worker_pid != splitter_pid,
                    retried=retried,
                )
            )
            state.pending.discard(subtask.subtask_id)
            if state.complete():
                finish_block(subtask.block_id, state.merge())

        def handle_split(
            descriptor: BlockDescriptor, split: SplitResult, trigger: str
        ) -> None:
            splitter_pid = int(split.partial.extra.get("worker_pid", 0.0))
            subtasks = build_subtasks(
                descriptor, split.kernel_order, split.anchor_costs,
                split.done, target,
            )
            state = _SplitState(
                descriptor=descriptor,
                total_positions=len(split.kernel_order),
                pending={subtask.subtask_id for subtask in subtasks},
                fragments=[(0, split.done, split.partial)],
                splitter_pid=splitter_pid,
            )
            states[descriptor.block_id] = state
            trace.record_split(
                SplitDecision(
                    block_id=descriptor.block_id,
                    estimated_cost=descriptor.estimated_cost,
                    threshold=threshold,
                    num_subtasks=len(subtasks),
                    splitter_pid=splitter_pid,
                    trigger=trigger,
                )
            )
            trace.record_subtask(
                SubtaskTiming(
                    block_id=descriptor.block_id,
                    subtask_id=-1,
                    start=0,
                    stop=split.done,
                    seconds=split.partial.seconds,
                    cliques=len(split.partial.cliques),
                    worker_pid=splitter_pid,
                )
            )
            queue.push_spawned(
                ("subtask", subtask, splitter_pid) for subtask in subtasks
            )
            if not subtasks and state.complete():
                finish_block(descriptor.block_id, state.merge())

        def run_in_parent(item: tuple, retried: bool) -> None:
            if retried and not self.retry_failed:
                raise ExecutorError(
                    f"worker process died while analysing "
                    f"{_item_name(item)}",
                    block_id=_item_block_id(item),
                    segment_path=_segment_path_of(run_log),
                )
            if item[0] == "block":
                descriptor = item[1]
                report = self._analyze_in_parent(
                    descriptor, shared, tree, combo, scratch, retried
                )
                finish_block(descriptor.block_id, report)
            elif item[0] == "bucket":
                bucket = item[1]
                reports, stats = self._analyze_bucket_in_parent(
                    bucket, shared, tree, combo, scratch, retried
                )
                finish_bucket(
                    bucket,
                    [
                        (descriptor.block_id, report)
                        for descriptor, report in zip(bucket.descriptors, reports)
                    ],
                    stats,
                )
            else:
                _, subtask, splitter_pid = item
                report = self._analyze_subtask_in_parent(
                    subtask, shared, tree, combo, scratch, retried
                )
                finish_subtask(subtask, report, splitter_pid, retried)

        def dispatch(pool: ProcessPoolExecutor) -> None:
            nonlocal pool_broken
            while queue and (pool_broken or len(futures) < in_flight_cap):
                item = queue.take()
                if pool_broken:
                    run_in_parent(item, retried=True)
                    continue
                try:
                    if item[0] == "block":
                        future = pool.submit(_shm_analyze_split, item[1], item[2])
                    elif item[0] == "bucket":
                        future = pool.submit(_shm_analyze_batch, item[1])
                    else:
                        future = pool.submit(_shm_analyze_subtask, item[1])
                except BrokenProcessPool:
                    pool_broken = True
                    run_in_parent(item, retried=True)
                    continue
                futures[future] = item
                trace.pool_tasks += 1

        with ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_shm_worker_init,
            initargs=(
                shared.handle,
                tree,
                combo,
                self.resplit_after_seconds,
                self.min_clique_size,
            ),
        ) as pool:
            dispatch(pool)
            while futures or queue:
                if not futures:
                    dispatch(pool)
                    continue
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    item = futures.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        run_in_parent(item, retried=True)
                        continue
                    except ExecutorError as exc:
                        exc.segment_path = _segment_path_of(run_log)
                        raise
                    if item[0] == "block":
                        kind = outcome[0]
                        if kind == "split":
                            handle_split(item[1], outcome[1], outcome[2])
                        else:
                            finish_block(outcome[1], outcome[2])
                    elif item[0] == "bucket":
                        pairs, stats = outcome
                        finish_bucket(item[1], pairs, stats)
                    else:
                        _, _, report = outcome
                        finish_subtask(item[1], report, item[2], retried=False)
                dispatch(pool)
        missing = [
            block_id for block_id, state in states.items() if not state.complete()
        ]
        if missing:
            raise ExecutorError(
                f"split blocks {missing} ended with unprocessed subtasks",
                block_id=missing[0],
                segment_path=_segment_path_of(run_log),
            )

    def _analyze_in_parent(
        self,
        descriptor: BlockDescriptor,
        shared: SharedCSR,
        tree: DecisionTree | None,
        combo: Combo | None,
        scratch: BitmapScratch,
        retried: bool,
    ) -> BlockReport:
        """Run one whole block in the parent from the mapped segments."""
        try:
            report = analyze_block_csr(
                descriptor,
                shared.indptr,
                shared.indices,
                shared.labels,
                tree=tree,
                combo=combo,
                scratch=scratch,
                min_clique_size=self.min_clique_size,
            )
        except Exception as exc:
            raise ExecutorError(
                f"block {descriptor.block_id} failed again on in-parent "
                f"retry: {type(exc).__name__}: {exc}",
                block_id=descriptor.block_id,
            ) from exc
        if retried:
            report.extra["retried"] = 1.0
        report.extra["dispatch_bytes"] = float(descriptor.nbytes())
        return report

    def _analyze_subtask_in_parent(
        self,
        subtask: SubtaskDescriptor,
        shared: SharedCSR,
        tree: DecisionTree | None,
        combo: Combo | None,
        scratch: BitmapScratch,
        retried: bool,
    ) -> BlockReport:
        """Run one subtask in the parent from the mapped segments."""
        try:
            report = analyze_subtask_csr(
                subtask,
                shared.indptr,
                shared.indices,
                shared.labels,
                tree=tree,
                combo=combo,
                scratch=scratch,
                min_clique_size=self.min_clique_size,
            )
        except Exception as exc:
            raise ExecutorError(
                f"subtask {subtask.block_id}.{subtask.subtask_id} failed "
                f"again on in-parent retry: {type(exc).__name__}: {exc}",
                block_id=subtask.block_id,
            ) from exc
        if retried:
            report.extra["retried"] = 1.0
        report.extra["dispatch_bytes"] = float(subtask.nbytes())
        return report

    def _retry(
        self,
        block: Block,
        block_id: int,
        tree: DecisionTree | None,
        combo: Combo | None,
        run_log: RunLog | None = None,
    ) -> BlockReport:
        """Re-run a block whose worker died; in the parent, serially."""
        if not self.retry_failed:
            raise ExecutorError(
                f"worker process died while analysing block {block_id}",
                block_id=block_id,
                segment_path=_segment_path_of(run_log),
            )
        try:
            report = analyze_block(
                block,
                tree=tree,
                combo=combo,
                min_clique_size=self.min_clique_size,
            )
        except Exception as exc:
            raise ExecutorError(
                f"block {block_id} failed again on in-parent retry: "
                f"{type(exc).__name__}: {exc}",
                block_id=block_id,
            ) from exc
        report.extra["retried"] = 1.0
        return report


def _pipeline_worker_init(
    tree: DecisionTree | None,
    combo: Combo | None,
    split_budget: float | None = None,
    min_clique_size: int = 0,
) -> None:
    """Pool initializer for pipeline mode: no snapshot yet, just state.

    Unlike :func:`_shm_worker_init`, the worker does not attach to one
    fixed snapshot — the pipeline publishes one CSR per recursion level
    and each task names its level's handle, so workers attach lazily and
    cache the attachment per segment name.
    """
    _WORKER_STATE["tree"] = tree
    _WORKER_STATE["combo"] = combo
    _WORKER_STATE["scratch"] = BitmapScratch()
    _WORKER_STATE["attached"] = {}
    _WORKER_STATE["split_budget"] = split_budget
    _WORKER_STATE["floor"] = min_clique_size


def _pipeline_attach(handle: SharedCSRHandle) -> SharedCSR:
    """Attach (or reuse) this worker's mapping of one level's snapshot."""
    attached: dict[str, SharedCSR] = _WORKER_STATE["attached"]  # type: ignore[assignment]
    shared = attached.get(handle.indptr_name)
    if shared is None:
        shared = SharedCSR.attach(handle)
        attached[handle.indptr_name] = shared
    return shared


def _pipeline_analyze(
    handle: SharedCSRHandle, descriptors: "tuple[BlockDescriptor, ...]"
) -> "list[tuple[int, BlockReport]]":
    """Analyse one chunk of streamed blocks against their level's snapshot."""
    return _analyze_chunk(_pipeline_attach(handle), descriptors)


def _pipeline_analyze_split(
    handle: SharedCSRHandle, descriptor: BlockDescriptor, probe: bool
) -> "tuple[str, object, object]":
    """Split-mode pipeline block worker; see :func:`_shm_analyze_split`."""
    shared = _pipeline_attach(handle)
    try:
        _maybe_inject_fault(descriptor.block_id)
        outcome = analyze_block_csr_splittable(
            descriptor,
            shared.indptr,
            shared.indices,
            shared.labels,
            tree=_WORKER_STATE["tree"],  # type: ignore[arg-type]
            combo=_WORKER_STATE["combo"],  # type: ignore[arg-type]
            scratch=_WORKER_STATE["scratch"],  # type: ignore[arg-type]
            probe=probe,
            budget_seconds=_WORKER_STATE.get("split_budget"),  # type: ignore[arg-type]
            min_clique_size=_worker_floor(),
        )
    except Exception as exc:
        raise ExecutorError(
            f"block {descriptor.block_id} failed in worker {os.getpid()}: "
            f"{type(exc).__name__}: {exc}",
            block_id=descriptor.block_id,
        ) from exc
    if isinstance(outcome, SplitResult):
        _stamp_report(outcome.partial, descriptor.nbytes())
        return ("split", outcome, "cost" if probe else "budget")
    _stamp_report(outcome, descriptor.nbytes())
    return ("report", descriptor.block_id, outcome)


def _pipeline_analyze_subtask(
    handle: SharedCSRHandle, subtask: SubtaskDescriptor
) -> tuple[int, int, BlockReport]:
    """Split-mode pipeline subtask worker; see :func:`_shm_analyze_subtask`."""
    shared = _pipeline_attach(handle)
    try:
        _maybe_inject_fault_subtask(subtask.block_id, subtask.subtask_id)
        report = analyze_subtask_csr(
            subtask,
            shared.indptr,
            shared.indices,
            shared.labels,
            tree=_WORKER_STATE["tree"],  # type: ignore[arg-type]
            combo=_WORKER_STATE["combo"],  # type: ignore[arg-type]
            scratch=_WORKER_STATE["scratch"],  # type: ignore[arg-type]
            min_clique_size=_worker_floor(),
        )
    except Exception as exc:
        raise ExecutorError(
            f"subtask {subtask.block_id}.{subtask.subtask_id} failed in "
            f"worker {os.getpid()}: {type(exc).__name__}: {exc}",
            block_id=subtask.block_id,
        ) from exc
    _stamp_report(report, subtask.nbytes())
    return (subtask.block_id, subtask.subtask_id, report)


def _pipeline_analyze_batch(
    handle: SharedCSRHandle, bucket: BlockBucket
) -> "tuple[list[tuple[int, BlockReport]], dict]":
    """Batched pipeline bucket worker; see :func:`_shm_analyze_batch`."""
    shared = _pipeline_attach(handle)
    try:
        for descriptor in bucket.descriptors:
            _maybe_inject_fault(descriptor.block_id)
        stats: dict[str, float] = {}
        reports = analyze_bucket_csr(
            bucket,
            shared.indptr,
            shared.indices,
            shared.labels,
            tree=_WORKER_STATE["tree"],  # type: ignore[arg-type]
            combo=_WORKER_STATE["combo"],  # type: ignore[arg-type]
            scratch=_WORKER_STATE["scratch"],  # type: ignore[arg-type]
            batch_stats=stats,
            min_clique_size=_worker_floor(),
        )
    except Exception as exc:
        first = bucket.descriptors[0].block_id
        raise ExecutorError(
            f"bucket of {bucket.num_blocks} blocks (first block {first}) "
            f"failed in worker {os.getpid()}: {type(exc).__name__}: {exc}",
            block_id=first,
        ) from exc
    pairs = []
    for descriptor, report in zip(bucket.descriptors, reports):
        _stamp_report(report, descriptor.nbytes())
        pairs.append((descriptor.block_id, report))
    stats["worker_pid"] = float(os.getpid())
    return pairs, stats


class PipelineSession:
    """One streaming decompose→dispatch run over a shared worker pool.

    The producer (the pipeline driver) interleaves three calls per
    recursion level — :meth:`publish_level` (export the level CSR to
    shared memory once), :meth:`submit` (hand over each
    :class:`BlockDescriptor` the moment ``blocks_csr`` yields it), and
    :meth:`end_level` (flush the reorder buffer and record the level's
    decomposition timing) — then a single :meth:`finish` that waits for
    every in-flight block and returns the reports grouped by level.
    Workers start consuming level-0 blocks while later levels are still
    being decomposed; a :class:`~repro.distributed.scheduler.StreamingLPTBuffer`
    gives the dispatch order a bounded-lookahead LPT shape, and the
    released blocks are grouped into pool tasks exactly as
    ``map_blocks`` groups them (a partial chunk is flushed at
    :meth:`end_level` and :meth:`finish`).

    Lifetime rules: every published segment stays mapped in the parent
    (retries read it) and alive for attached workers until
    :meth:`close`, which shuts the pool down *before* unlinking — call
    it from a ``finally`` block, as the pipeline driver does.  When a
    worker dies mid-run every block of the affected chunks is re-analysed
    in the parent from the still-mapped segments (pure function, so plain
    re-execution is exactly correct), matching ``map_blocks`` semantics.
    """

    def __init__(
        self,
        max_workers: int | None,
        tree: DecisionTree | None,
        combo: Combo | None,
        retry_failed: bool = True,
        lookahead: int | None = None,
        split: bool = False,
        split_threshold: float | None = None,
        split_subtasks: int | None = None,
        resplit_after_seconds: float | None = 1.0,
        batch_blocks: bool = False,
        batch_cutoff: int | None = None,
        batch_bucket_size: int = 256,
        min_clique_size: int = 0,
        run_log: RunLog | None = None,
    ) -> None:
        workers = max_workers or os.cpu_count() or 1
        self._workers = workers
        self._tree = tree
        self._combo = combo
        self._retry_failed = retry_failed
        self._run_log = run_log
        self._min_clique_size = min_clique_size
        self._split = split
        self._split_threshold = split_threshold
        self._split_target = split_subtasks or max(2, 4 * workers)
        self._batch = batch_blocks
        # The stream never sees the whole batch, so an adaptive cutoff
        # has nothing to adapt to: default to the one-word floor.
        self._accumulator = BatchAccumulator(
            cutoff=batch_cutoff if batch_cutoff is not None else 64,
            bucket_target=batch_bucket_size,
        )
        self._batch_level: int | None = None
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_pipeline_worker_init,
            initargs=(
                tree,
                combo,
                resplit_after_seconds if split else None,
                min_clique_size,
            ),
        )
        self._buffer = StreamingLPTBuffer(
            lookahead if lookahead is not None else max(4, workers)
        )
        self._published: dict[int, SharedCSR] = {}
        self._publish_stats: dict[int, tuple[float, int]] = {}
        # Non-split blocks leave in chunks of growing size, one level at
        # a time.
        self._chunker = ChunkAccumulator(workers)
        self._chunk_level: int | None = None
        # future -> (level, descriptor | chunk | bucket,
        #            subtask | "chunk" | "bucket" | None, splitter_pid)
        self._futures: dict[object, tuple] = {}
        self._results: dict[tuple[int, int], BlockReport] = {}
        self._split_states: dict[tuple[int, int], _SplitState] = {}
        self._costs_seen: list[float] = []
        self._parent_scratch = BitmapScratch()
        self._closed = False
        self.trace = ExecutionTrace()

    # -- producer side -----------------------------------------------------
    def publish_level(self, level: int, csr: CSRGraph) -> None:
        """Export one level's CSR snapshot to shared memory (once)."""
        start = time.perf_counter()
        shared = SharedCSR.publish(csr)
        self._published[level] = shared
        self._publish_stats[level] = (time.perf_counter() - start, shared.nbytes())
        self.trace.publish_bytes += shared.nbytes()
        self.trace.publish_seconds += self._publish_stats[level][0]

    def submit(self, level: int, descriptor: BlockDescriptor) -> None:
        """Queue one streamed block; may dispatch buffered blocks.

        A block already completed by a previous run never enters the
        dispatch buffer: its stored report is replayed immediately, so a
        resumed run spends zero worker time on it.
        """
        if self._run_log is not None and self._run_log.is_completed(
            level, descriptor.block_id
        ):
            report = self._run_log.replay_report(level, descriptor.block_id)
            self._results[(level, descriptor.block_id)] = report
            self.trace.record(_replayed_timing(descriptor.block_id, report))
            return
        self._costs_seen.append(descriptor.estimated_cost)
        if self._batch and self._accumulator.is_small(descriptor.size):
            # A level's buckets are flushed at end_level, but guard the
            # transition anyway: a bucket must never mix levels (each
            # bucket runs against a single published snapshot).
            if self._batch_level is not None and self._batch_level != level:
                self._flush_buckets(self._batch_level)
            self._batch_level = level
            group = self._accumulator.push(
                descriptor, descriptor.size, padded_size(descriptor.size)
            )
            if group is not None:
                self._dispatch_bucket(
                    level,
                    BlockBucket(
                        n_pad=padded_size(group[0].size),
                        descriptors=tuple(group),
                    ),
                )
            return
        for released in self._buffer.push(
            descriptor.estimated_cost, (level, descriptor)
        ):
            self._dispatch(*released)  # type: ignore[misc]

    def end_level(
        self,
        level: int,
        decompose_seconds: float,
        num_blocks: int,
        num_feasible: int,
        num_hubs: int,
    ) -> None:
        """Flush this level's buffered blocks and record its timing."""
        if self._batch and self._batch_level is not None:
            self._flush_buckets(self._batch_level)
        for released in self._buffer.drain():
            self._dispatch(*released)  # type: ignore[misc]
        self._flush_chunk()
        publish_seconds, publish_bytes = self._publish_stats.get(level, (0.0, 0))
        self.trace.record_level(
            LevelDecomposition(
                level=level,
                decompose_seconds=decompose_seconds,
                publish_seconds=publish_seconds,
                publish_bytes=publish_bytes,
                num_blocks=num_blocks,
                num_feasible=num_feasible,
                num_hubs=num_hubs,
            )
        )

    # -- consumer side -----------------------------------------------------
    def finish(self) -> dict[int, dict[int, BlockReport]]:
        """Wait for every in-flight block; reports by ``[level][block_id]``.

        Raises
        ------
        ExecutorError
            When a worker raised while analysing a block, or a died
            worker's block failed again on the in-parent retry.
        """
        if self._batch and self._batch_level is not None:
            self._flush_buckets(self._batch_level)
        for released in self._buffer.drain():
            self._dispatch(*released)  # type: ignore[misc]
        self._flush_chunk()
        # as_completed over a snapshot installs one waiter per harvest
        # instead of one wait() over every outstanding future per
        # completion; the outer loop picks up subtasks that splits
        # submitted while the snapshot was being harvested.
        while self._futures:
            for future in as_completed(list(self._futures)):
                level, descriptor, subtask, splitter_pid = self._futures.pop(
                    future
                )
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    if subtask == "chunk":
                        self._parent_retry_chunk(level, descriptor)
                    elif subtask == "bucket":
                        pairs, stats = self._parent_retry_bucket(
                            level, descriptor
                        )
                        self._record_bucket(level, descriptor, pairs, stats)
                    elif subtask is not None:
                        report = self._parent_retry_subtask(level, subtask)
                        self._finish_subtask(
                            level, descriptor, subtask, report,
                            splitter_pid, retried=True,
                        )
                    else:
                        report = self._parent_retry(level, descriptor)
                        self._record(level, descriptor, report)
                    continue
                except ExecutorError as exc:
                    exc.segment_path = _segment_path_of(self._run_log)
                    raise
                if subtask == "chunk":
                    for member, (_, report) in zip(descriptor, outcome):
                        self._record(level, member, report)
                elif subtask == "bucket":
                    pairs, stats = outcome
                    self._record_bucket(level, descriptor, pairs, stats)
                elif subtask is not None:
                    _, _, report = outcome
                    self._finish_subtask(
                        level, descriptor, subtask, report,
                        splitter_pid, retried=False,
                    )
                elif outcome[0] == "split":
                    self._handle_split(level, descriptor, outcome[1], outcome[2])
                else:
                    self._record(level, descriptor, outcome[2])
        incomplete = [
            key
            for key, state in self._split_states.items()
            if not state.complete()
        ]
        if incomplete:
            raise ExecutorError(
                f"split blocks {incomplete} ended with unprocessed subtasks",
                block_id=incomplete[0][1],
                segment_path=_segment_path_of(self._run_log),
            )
        grouped: dict[int, dict[int, BlockReport]] = {}
        for (level, block_id), report in self._results.items():
            grouped.setdefault(level, {})[block_id] = report
        return grouped

    def close(self) -> None:
        """Shut the pool down, then unlink every published segment."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)
        for shared in self._published.values():
            shared.close()
            shared.unlink()

    def __enter__(self) -> "PipelineSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ---------------------------------------------------------
    def _current_threshold(self) -> float:
        """Split threshold from the cost stream observed so far.

        An explicit ``split_threshold`` wins; otherwise the adaptive
        heuristic is recomputed at each dispatch from every cost the
        producer has submitted up to now — the streaming analogue of the
        barrier executor's whole-batch distribution.
        """
        if self._split_threshold is not None:
            return self._split_threshold
        return adaptive_split_threshold(self._costs_seen, self._workers)

    def _dispatch(self, level: int, descriptor: BlockDescriptor) -> None:
        handle = self._published[level].handle
        if self._split:
            probe = (
                descriptor.estimated_cost > self._current_threshold()
                and len(descriptor.kernel_ids) >= 2
            )
            try:
                future = self._pool.submit(
                    _pipeline_analyze_split, handle, descriptor, probe
                )
            except BrokenProcessPool:
                report = self._parent_retry(level, descriptor)
                self._record(level, descriptor, report)
                return
            self.trace.pool_tasks += 1
            self._futures[future] = (level, descriptor, None, 0)
            return
        # A chunk runs against one published snapshot, so it must never
        # mix levels.
        if self._chunk_level is not None and self._chunk_level != level:
            self._flush_chunk()
        self._chunk_level = level
        chunk = self._chunker.push(descriptor)
        if chunk is not None:
            self._dispatch_chunk(level, tuple(chunk))

    def _flush_chunk(self) -> None:
        """Dispatch the partial chunk and start counting a new level."""
        chunk = self._chunker.drain()
        if chunk:
            self._dispatch_chunk(self._chunk_level, tuple(chunk))  # type: ignore[arg-type]
        self._chunk_level = None

    def _dispatch_chunk(
        self, level: int, chunk: "tuple[BlockDescriptor, ...]"
    ) -> None:
        try:
            future = self._pool.submit(
                _pipeline_analyze, self._published[level].handle, chunk
            )
        except BrokenProcessPool:
            # The pool died earlier in the run; analyse in the parent so
            # the stream keeps flowing and no block is lost.
            self._parent_retry_chunk(level, chunk)
            return
        self.trace.pool_tasks += 1
        self._futures[future] = (level, chunk, "chunk", 0)

    def _parent_retry_chunk(
        self, level: int, chunk: "tuple[BlockDescriptor, ...]"
    ) -> None:
        """Re-run every block of a lost chunk in the parent, one by one."""
        for descriptor in chunk:
            self._record(level, descriptor, self._parent_retry(level, descriptor))

    def _flush_buckets(self, level: int) -> None:
        """Dispatch every partially filled shape group of ``level``."""
        for group in self._accumulator.drain():
            self._dispatch_bucket(
                level,
                BlockBucket(
                    n_pad=padded_size(group[0].size),
                    descriptors=tuple(group),
                ),
            )
        self._batch_level = None

    def _dispatch_bucket(self, level: int, bucket: BlockBucket) -> None:
        handle = self._published[level].handle
        try:
            future = self._pool.submit(_pipeline_analyze_batch, handle, bucket)
        except BrokenProcessPool:
            pairs, stats = self._parent_retry_bucket(level, bucket)
            self._record_bucket(level, bucket, pairs, stats)
            return
        self.trace.pool_tasks += 1
        # The "bucket" sentinel in the subtask slot routes the future's
        # outcome to _record_bucket in finish().
        self._futures[future] = (level, bucket, "bucket", 0)

    def _parent_retry_bucket(
        self, level: int, bucket: BlockBucket
    ) -> "tuple[list[tuple[int, BlockReport]], dict]":
        """Re-run one whole bucket in the parent after its worker died."""
        first = bucket.descriptors[0].block_id
        if not self._retry_failed:
            raise ExecutorError(
                f"worker process died while analysing a bucket of "
                f"{bucket.num_blocks} blocks (first block {first}) of "
                f"level {level}",
                block_id=first,
                segment_path=_segment_path_of(self._run_log),
            )
        shared = self._published[level]
        try:
            stats: dict[str, float] = {}
            reports = analyze_bucket_csr(
                bucket,
                shared.indptr,
                shared.indices,
                shared.labels,
                tree=self._tree,
                combo=self._combo,
                scratch=self._parent_scratch,
                batch_stats=stats,
                min_clique_size=self._min_clique_size,
            )
        except Exception as exc:
            raise ExecutorError(
                f"bucket of {bucket.num_blocks} blocks (first block {first}) "
                f"of level {level} failed again on in-parent retry: "
                f"{type(exc).__name__}: {exc}",
                block_id=first,
            ) from exc
        pairs = []
        for descriptor, report in zip(bucket.descriptors, reports):
            report.extra["retried"] = 1.0
            report.extra["dispatch_bytes"] = float(descriptor.nbytes())
            pairs.append((descriptor.block_id, report))
        return pairs, stats

    def _record_bucket(
        self,
        level: int,
        bucket: BlockBucket,
        pairs: "list[tuple[int, BlockReport]]",
        stats: dict,
    ) -> None:
        self.trace.record_batch(_batch_dispatch_of(bucket, stats))
        for block_id, report in pairs:
            if self._run_log is not None:
                self.trace.record_flush(
                    self._run_log.record(level, block_id, report)
                )
            self._results[(level, block_id)] = report
            self.trace.record(_timing_of(block_id, report))

    def _handle_split(
        self,
        level: int,
        descriptor: BlockDescriptor,
        split: SplitResult,
        trigger: str,
    ) -> None:
        """Expand a split response into subtask submissions.

        In pipeline mode the pool's shared task queue *is* the steal
        target: every idle worker pulls from it, so subtasks submitted
        here are picked up by whichever workers free up first — ahead of
        blocks still buffered in the :class:`StreamingLPTBuffer`, which
        only release on later ``submit``/``drain`` calls.
        """
        splitter_pid = int(split.partial.extra.get("worker_pid", 0.0))
        subtasks = build_subtasks(
            descriptor,
            split.kernel_order,
            split.anchor_costs,
            split.done,
            self._split_target,
        )
        state = _SplitState(
            descriptor=descriptor,
            total_positions=len(split.kernel_order),
            pending={subtask.subtask_id for subtask in subtasks},
            fragments=[(0, split.done, split.partial)],
            splitter_pid=splitter_pid,
        )
        self._split_states[(level, descriptor.block_id)] = state
        self.trace.record_split(
            SplitDecision(
                block_id=descriptor.block_id,
                estimated_cost=descriptor.estimated_cost,
                threshold=self._current_threshold(),
                num_subtasks=len(subtasks),
                splitter_pid=splitter_pid,
                trigger=trigger,
            )
        )
        self.trace.record_subtask(
            SubtaskTiming(
                block_id=descriptor.block_id,
                subtask_id=-1,
                start=0,
                stop=split.done,
                seconds=split.partial.seconds,
                cliques=len(split.partial.cliques),
                worker_pid=splitter_pid,
            )
        )
        handle = self._published[level].handle
        for subtask in subtasks:
            try:
                future = self._pool.submit(
                    _pipeline_analyze_subtask, handle, subtask
                )
            except BrokenProcessPool:
                report = self._parent_retry_subtask(level, subtask)
                self._finish_subtask(
                    level, descriptor, subtask, report,
                    splitter_pid, retried=True,
                )
                continue
            self.trace.pool_tasks += 1
            self._futures[future] = (level, descriptor, subtask, splitter_pid)
        if state.complete():
            self._record(level, descriptor, state.merge())

    def _finish_subtask(
        self,
        level: int,
        descriptor: BlockDescriptor,
        subtask: SubtaskDescriptor,
        report: BlockReport,
        splitter_pid: int,
        retried: bool,
    ) -> None:
        state = self._split_states[(level, descriptor.block_id)]
        state.fragments.append((subtask.start, subtask.stop, report))
        worker_pid = int(report.extra.get("worker_pid", 0.0))
        self.trace.record_subtask(
            SubtaskTiming(
                block_id=subtask.block_id,
                subtask_id=subtask.subtask_id,
                start=subtask.start,
                stop=subtask.stop,
                seconds=report.seconds,
                cliques=len(report.cliques),
                worker_pid=worker_pid,
                stolen=worker_pid != 0 and worker_pid != splitter_pid,
                retried=retried,
            )
        )
        state.pending.discard(subtask.subtask_id)
        if state.complete():
            self._record(level, descriptor, state.merge())

    def _parent_retry(
        self, level: int, descriptor: BlockDescriptor
    ) -> BlockReport:
        if not self._retry_failed:
            raise ExecutorError(
                f"worker process died while analysing block "
                f"{descriptor.block_id} of level {level}",
                block_id=descriptor.block_id,
                segment_path=_segment_path_of(self._run_log),
            )
        shared = self._published[level]
        try:
            report = analyze_block_csr(
                descriptor,
                shared.indptr,
                shared.indices,
                shared.labels,
                tree=self._tree,
                combo=self._combo,
                scratch=self._parent_scratch,
                min_clique_size=self._min_clique_size,
            )
        except Exception as exc:
            raise ExecutorError(
                f"block {descriptor.block_id} of level {level} failed again "
                f"on in-parent retry: {type(exc).__name__}: {exc}",
                block_id=descriptor.block_id,
            ) from exc
        report.extra["retried"] = 1.0
        report.extra["dispatch_bytes"] = float(descriptor.nbytes())
        return report

    def _parent_retry_subtask(
        self, level: int, subtask: SubtaskDescriptor
    ) -> BlockReport:
        """Re-run one subtask of a split block in the parent.

        Only the failed anchor range is re-executed; the split block's
        other fragments — completed before the worker died — are kept.
        """
        if not self._retry_failed:
            raise ExecutorError(
                f"worker process died while analysing subtask "
                f"{subtask.block_id}.{subtask.subtask_id} of level {level}",
                block_id=subtask.block_id,
                segment_path=_segment_path_of(self._run_log),
            )
        shared = self._published[level]
        try:
            report = analyze_subtask_csr(
                subtask,
                shared.indptr,
                shared.indices,
                shared.labels,
                tree=self._tree,
                combo=self._combo,
                scratch=self._parent_scratch,
                min_clique_size=self._min_clique_size,
            )
        except Exception as exc:
            raise ExecutorError(
                f"subtask {subtask.block_id}.{subtask.subtask_id} of level "
                f"{level} failed again on in-parent retry: "
                f"{type(exc).__name__}: {exc}",
                block_id=subtask.block_id,
            ) from exc
        report.extra["retried"] = 1.0
        report.extra["dispatch_bytes"] = float(subtask.nbytes())
        return report

    def _record(
        self, level: int, descriptor: BlockDescriptor, report: BlockReport
    ) -> None:
        if self._run_log is not None:
            self.trace.record_flush(
                self._run_log.record(level, descriptor.block_id, report)
            )
        self._results[(level, descriptor.block_id)] = report
        self.trace.record(_timing_of(descriptor.block_id, report))


def _union_graph(blocks: list[Block]) -> Graph:
    """Union of the block subgraphs (fallback when no level graph given)."""
    union = Graph()
    for block in blocks:
        for node in block.graph.nodes():
            union.add_node(node)
        for u, v in block.graph.edges():
            union.add_edge(u, v)
    return union


def _timing_of(block_id: int, report: BlockReport) -> BlockTiming:
    """Translate a finished report into its trace record."""
    return BlockTiming(
        block_id=block_id,
        seconds=report.seconds,
        cliques=len(report.cliques),
        dispatch_bytes=int(report.extra.get("dispatch_bytes", 0.0)),
        peak_rss_kb=int(report.extra.get("peak_rss_kb", 0.0)),
        worker_pid=int(report.extra.get("worker_pid", 0.0)),
        retried=bool(report.extra.get("retried", 0.0)),
        combo=report.combo.name,
        features=report.features.vector(),
    )


def pickled_block_bytes(block: Block) -> int:
    """Bytes :class:`ProcessExecutor` ships for one block (benchmarking)."""
    return len(pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL))


# ----------------------------------------------------------------------
# Parallel maximum clique (branch-and-bound with a shared incumbent)
# ----------------------------------------------------------------------

# Populated by _max_clique_worker_init in each pool worker: the packed
# adjacency matrix, the degeneracy root order, and the shared incumbent.
_MAXCLIQUE_STATE: dict[str, object] = {}


def _max_clique_worker_init(matrix, order, shared_bound) -> None:
    """Pool initializer for :func:`parallel_maximum_clique` workers.

    ``shared_bound`` is a ``multiprocessing.Value('q')`` holding the best
    clique size found by *any* worker so far.  It must travel through the
    pool's ``initargs`` (the ``Process`` constructor path) — synchronized
    values cannot cross the task queue.
    """
    _MAXCLIQUE_STATE["matrix"] = matrix
    _MAXCLIQUE_STATE["order"] = order
    _MAXCLIQUE_STATE["bound"] = shared_bound


def _max_clique_worker(root_ranks: "list[int]") -> "tuple[int, list[int]]":
    """Solve the subproblems rooted at ``root_ranks`` of the shared order."""
    from repro.mce.maximum import maximum_clique_packed

    shared_bound = _MAXCLIQUE_STATE["bound"]
    return maximum_clique_packed(
        _MAXCLIQUE_STATE["matrix"],  # type: ignore[arg-type]
        initial_bound=int(shared_bound.value),  # type: ignore[union-attr]
        order=_MAXCLIQUE_STATE["order"],  # type: ignore[arg-type]
        root_ranks=set(root_ranks),
        shared_bound=shared_bound,
    )


def parallel_maximum_clique(
    graph: Graph,
    max_workers: int | None = None,
    lower_bound: int = 0,
) -> frozenset:
    """Find one maximum clique using every core (Rossi-style PMC).

    The parent packs the graph once (:class:`BitMatrixBackend`), computes
    the degeneracy root order, and fans the per-root subproblems of
    :func:`repro.mce.maximum.maximum_clique_packed` across a process
    pool in strided chunks (root ``i`` goes to worker ``i mod w``, so
    the early, expensive roots spread over the pool).  Workers share the
    incumbent size through a ``multiprocessing.Value``: each branch
    reads it before expanding and every improvement publishes under the
    lock, so a clique found by one worker immediately tightens the
    colour-bound pruning in all others.  Stale reads only delay pruning
    — they never affect which clique is optimal — so the result is
    deterministic in *size*; the returned witness is the
    lexicographically-first best over the deterministic per-worker
    results.

    Small graphs (or ``max_workers=1``) solve serially in-process — the
    pool costs more than the search below a few thousand nodes.

    Raises
    ------
    BoundNotMetError
        When ``lower_bound > 0`` and no clique that large exists.
    ValueError
        On a negative ``lower_bound``.
    """
    from multiprocessing import Value

    from repro.errors import BoundNotMetError
    from repro.mce.bitmatrix import BitMatrixBackend, degeneracy_order_packed
    from repro.mce.maximum import maximum_clique_packed

    if lower_bound < 0:
        raise ValueError("lower_bound must be non-negative")
    n = graph.num_nodes
    if n == 0:
        if lower_bound > 0:
            raise BoundNotMetError(lower_bound, 0)
        return frozenset()
    workers = max_workers or os.cpu_count() or 1
    backend = BitMatrixBackend(graph)
    matrix = backend._matrix
    initial = max(0, lower_bound - 1)
    if workers <= 1 or n < 256:
        size, members = maximum_clique_packed(matrix, initial_bound=initial)
    else:
        order = degeneracy_order_packed(matrix)
        shared_bound = Value("q", initial)
        chunks = [list(range(start, n, workers)) for start in range(workers)]
        chunks = [chunk for chunk in chunks if chunk]
        size, members = initial, []
        with ProcessPoolExecutor(
            max_workers=len(chunks),
            initializer=_max_clique_worker_init,
            initargs=(matrix, order, shared_bound),
        ) as pool:
            for found_size, found in pool.map(_max_clique_worker, chunks):
                if found and (
                    found_size > size or (found_size == size and not members)
                ):
                    size, members = found_size, found
    if size < lower_bound or not members:
        raise BoundNotMetError(lower_bound, size)
    return frozenset(backend.label(int(i)) for i in members)


EXECUTOR_NAMES: tuple[str, ...] = ("serial", "process", "shared")


def build_executor(
    name: str, max_workers: int | None = None
) -> "SerialExecutor | ProcessExecutor | SharedMemoryExecutor":
    """Construct a local executor by CLI name.

    Raises
    ------
    ExecutorError
        On an unknown executor name.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(max_workers=max_workers)
    if name == "shared":
        return SharedMemoryExecutor(max_workers=max_workers)
    raise ExecutorError(
        f"unknown executor {name!r}; known: {', '.join(EXECUTOR_NAMES)}"
    )


@dataclass
class SimulatedExecutor:
    """Serial execution instrumented with a simulated cluster schedule.

    After ``map_blocks`` the :attr:`last_run` attribute holds the
    :class:`SimulatedRun` for the most recent batch: the makespan the
    same work would have on :attr:`cluster` under :attr:`policy`.
    """

    cluster: ClusterSpec
    policy: str = "lpt"
    last_run: SimulatedRun | None = field(default=None, init=False)

    def map_blocks(
        self,
        blocks: list[Block],
        tree: DecisionTree | None = None,
        combo: Combo | None = None,
        graph: Graph | None = None,
        run_log: RunLog | None = None,
        level: int = 0,
    ) -> list[BlockReport]:
        """Return one :class:`BlockReport` per block, in block order."""
        reports = SerialExecutor().map_blocks(
            blocks, tree=tree, combo=combo, run_log=run_log, level=level
        )
        self.last_run = simulate_level(
            blocks, reports, self.cluster, policy=self.policy
        )
        return reports
