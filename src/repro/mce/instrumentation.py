"""Instrumentation for the MCE recursion and the parallel executors.

The pivot-rule ablation needs the size of the recursion tree (how many
internal expansion nodes a rule leaves after pruning).  Rather than
each caller hand-rolling a counting closure, :class:`CountingRule`
wraps any pivot rule and tallies its invocations — exactly one per
internal recursion node, since :func:`repro.mce.recursion.expand`
consults the rule once per non-leaf call.

The parallel executors record one :class:`BlockTiming` per analysed
block (wall-clock, worker peak RSS, dispatched payload bytes) into an
:class:`ExecutionTrace`, so benchmarks can attribute time to
serialization versus Bron–Kerbosch work instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.adjacency import Graph, Node
from repro.mce.backends import Backend, NodeSet, build_backend
from repro.mce.recursion import PivotRule, enumerate_all


@dataclass
class CountingRule:
    """A pivot rule that counts how often it is consulted."""

    rule: PivotRule
    calls: int = field(default=0, init=False)

    def __call__(
        self, backend: Backend, candidates: NodeSet, excluded: NodeSet
    ):
        self.calls += 1
        return self.rule(backend, candidates, excluded)

    def reset(self) -> None:
        """Zero the counter (reuse across runs)."""
        self.calls = 0


@dataclass(frozen=True)
class RecursionProfile:
    """Outcome of one instrumented whole-graph enumeration."""

    internal_nodes: int
    cliques: int

    @property
    def nodes_per_clique(self) -> float:
        """Recursion overhead per reported clique (1.0 is optimal-ish)."""
        if self.cliques == 0:
            return float(self.internal_nodes)
        return self.internal_nodes / self.cliques


def profile_rule(
    graph: Graph, rule: PivotRule, backend: str = "bitsets"
) -> RecursionProfile:
    """Enumerate ``graph`` with ``rule`` and return the recursion profile."""
    counting = CountingRule(rule)
    native = build_backend(graph, backend)
    cliques = sum(1 for _ in enumerate_all(native, counting))
    return RecursionProfile(internal_nodes=counting.calls, cliques=cliques)


@dataclass(frozen=True)
class BlockTiming:
    """Measured execution record of one block analysis.

    ``replayed`` marks a block that was *not* analysed in this run at
    all: its report was recovered from a spill segment of an earlier
    (crashed or completed) run and replayed during a resume.  The
    crash-resume tests assert that a resumed run re-analyses zero
    already-completed blocks by checking this flag.

    ``combo`` is the display name of the (algorithm × backend)
    combination that analysed the block and ``features`` its
    five-feature vector in :data:`repro.decision.features.FEATURE_NAMES`
    order — together they make every trace a training corpus for the
    selector autotuner (:mod:`repro.decision.harvest`), no matter which
    dispatch path (whole/split/batched/pipeline) produced the record.
    Both are empty for records predating this field or synthesized
    without a report.
    """

    block_id: int
    seconds: float
    cliques: int
    dispatch_bytes: int = 0
    peak_rss_kb: int = 0
    worker_pid: int = 0
    retried: bool = False
    replayed: bool = False
    combo: str = ""
    features: tuple[float, ...] = ()


@dataclass(frozen=True)
class SegmentFlush:
    """Measured durability cost of spilling one finished block.

    ``seconds`` covers encoding the record and the ``write``/``fsync``
    into the segment file — the full price of making the block's cliques
    crash-proof.  ``segment_bytes`` is the
    record size on disk (header included).
    """

    level: int
    block_id: int
    segment_bytes: int
    seconds: float


@dataclass(frozen=True)
class SubtaskTiming:
    """Measured execution record of one anchor-range subtask.

    When a straggler block splits, each fragment of its kernel sweep is
    timed separately: ``start``/``stop`` delimit the half-open range of
    degeneracy-order anchor positions the fragment covered
    (``subtask_id == -1`` marks the splitter's own inline fragment,
    including the probe that computed the split).  ``stolen`` is true
    when the fragment ran on a different worker than the one that split
    the block — the steal actually happened rather than the splitter
    draining its own spawn.
    """

    block_id: int
    subtask_id: int
    start: int
    stop: int
    seconds: float
    cliques: int
    worker_pid: int = 0
    stolen: bool = False
    retried: bool = False


@dataclass(frozen=True)
class SplitDecision:
    """Record of one block being expanded into anchor subtasks.

    ``trigger`` is ``"cost"`` when the parent's adaptive threshold
    flagged the block before dispatch, or ``"budget"`` when the worker
    re-split its own block mid-run after overrunning the time budget.
    """

    block_id: int
    estimated_cost: float
    threshold: float
    num_subtasks: int
    splitter_pid: int = 0
    trigger: str = "cost"


@dataclass(frozen=True)
class BatchDispatch:
    """Record of one bucket of small blocks dispatched as a single unit.

    Batched dispatch packs same-padded-shape blocks into one multi-block
    kernel run (:func:`repro.mce.bitmatrix.expand_batched_many`);
    ``num_blocks``/``num_tasks`` count the blocks and anchored root
    states fused, ``padding_waste`` is the fraction of padded adjacency
    rows holding no real node, and ``sweeps`` the number of batch
    generations the kernel advanced — the quantity the fusion amortizes
    (one sweep serves every block in the bucket).
    """

    n_pad: int
    num_blocks: int
    num_tasks: int
    padding_waste: float
    sweeps: int
    seconds: float
    worker_pid: int = 0


@dataclass(frozen=True)
class BlockBound:
    """Clique upper bound of one block, priced before dispatch.

    ``bound`` is :func:`repro.mce.maximum.clique_upper_bound_packed`
    over the block's candidate nodes (kernel ∪ border) — the largest
    clique the block can possibly emit.  ``floor`` is the driver's
    ``min_clique_size`` at the time, and ``skipped`` records whether the
    bound fell below it, in which case the block was never analysed.
    """

    level: int
    block_id: int
    bound: int
    floor: int
    skipped: bool


@dataclass(frozen=True)
class LevelDecomposition:
    """Measured decomposition of one recursion level (pipeline mode).

    ``decompose_seconds`` covers ``cut_csr`` plus the streamed
    ``blocks_csr`` growth (including the time spent handing descriptors
    to the executor); ``publish_seconds``/``publish_bytes`` cover the
    one-time shared-memory export of the level's CSR snapshot.
    """

    level: int
    decompose_seconds: float
    publish_seconds: float
    publish_bytes: int
    num_blocks: int
    num_feasible: int
    num_hubs: int


@dataclass
class ExecutionTrace:
    """Per-batch instrumentation collected by a parallel executor.

    ``publish_bytes``/``publish_seconds`` cover the one-time cost of
    exporting the level graph (zero for executors that pickle blocks);
    ``timings`` holds one record per block in completion order.  In
    pipeline mode one trace spans the whole run and ``levels`` holds one
    :class:`LevelDecomposition` per recursion level, so benchmarks can
    attribute wall-clock to decomposition versus enumeration per level.
    ``pool_tasks`` counts worker-pool submissions (a chunk of blocks, a
    bucket or a subtask is one task each).
    """

    timings: list[BlockTiming] = field(default_factory=list)
    publish_bytes: int = 0
    publish_seconds: float = 0.0
    levels: list[LevelDecomposition] = field(default_factory=list)
    subtasks: list[SubtaskTiming] = field(default_factory=list)
    splits: list[SplitDecision] = field(default_factory=list)
    flushes: list[SegmentFlush] = field(default_factory=list)
    batches: list[BatchDispatch] = field(default_factory=list)
    bounds: list[BlockBound] = field(default_factory=list)
    pool_tasks: int = 0

    def record(self, timing: BlockTiming) -> None:
        """Append one per-block record."""
        self.timings.append(timing)

    def record_bound(self, bound: BlockBound) -> None:
        """Append one per-block clique-bound record (pruned runs)."""
        self.bounds.append(bound)

    def record_batch(self, batch: BatchDispatch) -> None:
        """Append one per-bucket record (batched dispatch mode)."""
        self.batches.append(batch)

    def record_flush(self, flush: SegmentFlush) -> None:
        """Append one per-block spill record (durable runs only)."""
        self.flushes.append(flush)

    def record_level(self, level: LevelDecomposition) -> None:
        """Append one per-level decomposition record (pipeline mode)."""
        self.levels.append(level)

    def record_subtask(self, timing: SubtaskTiming) -> None:
        """Append one per-subtask record (split mode)."""
        self.subtasks.append(timing)

    def record_split(self, decision: SplitDecision) -> None:
        """Append one split decision (split mode)."""
        self.splits.append(decision)

    @property
    def total_decompose_seconds(self) -> float:
        """Decomposition wall-clock across all recorded levels."""
        return sum(level.decompose_seconds for level in self.levels)

    @property
    def total_dispatch_bytes(self) -> int:
        """Bytes shipped to workers across all blocks (publish excluded)."""
        return sum(timing.dispatch_bytes for timing in self.timings)

    @property
    def total_block_seconds(self) -> float:
        """Serial-equivalent seconds of block analysis in this batch."""
        return sum(timing.seconds for timing in self.timings)

    @property
    def max_peak_rss_kb(self) -> int:
        """Largest worker peak RSS observed (kilobytes; 0 if unmeasured)."""
        return max((timing.peak_rss_kb for timing in self.timings), default=0)

    @property
    def retried_blocks(self) -> list[int]:
        """Ids of blocks that were re-executed after a worker failure."""
        return [timing.block_id for timing in self.timings if timing.retried]

    @property
    def replayed_blocks(self) -> list[int]:
        """Ids of blocks replayed from spill segments instead of analysed."""
        return [timing.block_id for timing in self.timings if timing.replayed]

    @property
    def analyzed_blocks(self) -> list[int]:
        """Ids of blocks actually analysed in this run (replays excluded)."""
        return [
            timing.block_id for timing in self.timings if not timing.replayed
        ]

    @property
    def batched_block_count(self) -> int:
        """Blocks analysed through bucket dispatch across all batches."""
        return sum(batch.num_blocks for batch in self.batches)

    @property
    def skipped_block_count(self) -> int:
        """Blocks skipped because their clique bound missed the floor."""
        return sum(1 for bound in self.bounds if bound.skipped)

    @property
    def skipped_block_ids(self) -> list[tuple[int, int]]:
        """``(level, block_id)`` of every bound-skipped block."""
        return [(b.level, b.block_id) for b in self.bounds if b.skipped]

    @property
    def total_flush_seconds(self) -> float:
        """Wall-clock spent making finished blocks durable (spill runs)."""
        return sum(flush.seconds for flush in self.flushes)

    @property
    def total_flush_bytes(self) -> int:
        """Record bytes appended to spill segments (spill runs)."""
        return sum(flush.segment_bytes for flush in self.flushes)

    def slowest(self, count: int = 5) -> list[BlockTiming]:
        """The ``count`` most expensive blocks, costliest first."""
        return sorted(self.timings, key=lambda t: -t.seconds)[:count]

    @property
    def split_block_ids(self) -> list[int]:
        """Ids of blocks that were expanded into anchor subtasks."""
        return [decision.block_id for decision in self.splits]

    @property
    def steal_count(self) -> int:
        """Subtask fragments that ran away from their splitter's worker."""
        return sum(1 for timing in self.subtasks if timing.stolen)

    @property
    def retried_subtasks(self) -> list[tuple[int, int]]:
        """``(block_id, subtask_id)`` of subtasks re-run after a failure."""
        return [
            (timing.block_id, timing.subtask_id)
            for timing in self.subtasks
            if timing.retried
        ]

    def worker_busy_seconds(self) -> dict[int, float]:
        """Seconds of analysis each worker pid actually executed.

        Split blocks are accounted through their fragments (the merged
        :class:`BlockTiming` of a split block sums its fragments' time,
        so counting both would double-book the splitter); unsplit blocks
        are accounted through their block timing.  Benchmarks derive the
        worker-idle fraction as
        ``1 - sum(busy) / (workers * makespan)``.
        """
        split_ids = set(self.split_block_ids)
        busy: dict[int, float] = {}
        for timing in self.timings:
            if timing.block_id not in split_ids:
                busy[timing.worker_pid] = (
                    busy.get(timing.worker_pid, 0.0) + timing.seconds
                )
        for subtask in self.subtasks:
            busy[subtask.worker_pid] = (
                busy.get(subtask.worker_pid, 0.0) + subtask.seconds
            )
        return busy


def collect_cliques_with_profile(
    graph: Graph, rule: PivotRule, backend: str = "bitsets"
) -> tuple[list[frozenset[Node]], RecursionProfile]:
    """Like :func:`profile_rule` but also returning the cliques found."""
    counting = CountingRule(rule)
    native = build_backend(graph, backend)
    cliques = [
        frozenset(native.label(i) for i in clique)
        for clique in enumerate_all(native, counting)
    ]
    profile = RecursionProfile(
        internal_nodes=counting.calls, cliques=len(cliques)
    )
    return cliques, profile
