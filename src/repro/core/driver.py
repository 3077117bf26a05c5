"""``FIND-MAX-CLIQUES`` (Alg. 1): the recursive two-level decomposition.

Each round (one "first-level decomposition" iteration):

1. ``CUT`` splits the current graph into feasible nodes and hubs;
2. ``BLOCKS`` partitions the feasible nodes into blocks;
3. ``BLOCK-ANALYSIS`` enumerates, per block, the maximal cliques touching
   that block's kernel — together these are exactly the maximal cliques
   of the current graph containing at least one feasible node;
4. the next round recurses on the subgraph induced by the hubs, whose
   degrees are strongly reduced.

When the recursion bottoms out, levels are merged bottom-up with the
Lemma 1 filter: a deeper (hub-only) clique survives unless some
shallower clique contains it.  Theorem 1 guarantees the recursion
terminates whenever ``m`` exceeds the degeneracy of the input; the
driver enforces this with a convergence guard whose behaviour is chosen
by the ``fallback`` argument.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter

import numpy as np

from repro.core.block_analysis import (
    analyze_block,
    block_clique_bound,
    block_clique_bound_csr,
)
from repro.core.blocks import blocks_csr, build_blocks
from repro.core.cliquestore import (
    CliqueStore,
    GlobalCliqueIndex,
    packed_plane_enabled,
)
from repro.core.feasibility import cut, cut_csr
from repro.core.filtering import contained_mask, filter_contained, filter_min_size
from repro.core.result import CliqueResult, LevelStats
from repro.decision.features import BlockFeatures
from repro.decision.paper_tree import paper_tree, select_combo
from repro.decision.persistence import resolve_tree
from repro.decision.tree import DecisionTree
from repro.errors import ConvergenceError, ExecutorError
from repro.graph.adjacency import Graph, Node
from repro.graph.csr import BitmapScratch, CSRGraph, induced_csr
from repro.graph.views import induced_subgraph
from repro.mce.instrumentation import BlockBound
from repro.mce.registry import Combo
from repro.runs.manifest import fingerprint_run, partition_digest
from repro.runs.runlog import RunLog

FALLBACK_MODES: tuple[str, ...] = ("exact", "raise")


def find_max_cliques(
    graph: Graph,
    m: int,
    tree: "DecisionTree | str | None" = None,
    combo: Combo | None = None,
    fallback: str = "exact",
    min_adjacency: int = 1,
    collect_reports: bool = False,
    executor=None,
    pipeline: bool = False,
    split: bool = False,
    split_threshold: float | None = None,
    batch_blocks: bool = False,
    batch_cutoff: int | None = None,
    min_clique_size: int = 0,
    spill_dir=None,
    resume: bool = False,
) -> CliqueResult:
    """Enumerate every maximal clique of ``graph`` with block size ``m``.

    Parameters
    ----------
    graph:
        The network; it is not modified.
    m:
        Maximum number of nodes per block.  Completeness requires
        ``m > degeneracy(graph)`` (Theorem 1); smaller values trigger the
        ``fallback`` behaviour on the irreducible core.
    tree:
        Decision tree selecting the per-block (algorithm × structure)
        combination; defaults to the paper's published tree.  Also
        accepts a specification string resolved by
        :func:`repro.decision.persistence.resolve_tree`: ``"paper"``,
        ``"extended"``, a path to a saved tree JSON, or ``"auto"`` —
        the tree installed by ``repro tune`` (falling back to the paper
        tree when none is installed).  The resolved tree flows through
        every dispatch path: the serial loop, the shared-memory barrier
        (whole, split, and batched), and the streaming pipeline.
    combo:
        Force a fixed combination for every block instead of the tree.
    fallback:
        ``"exact"`` (default) — if some recursion level has no feasible
        node at all, run the best-fit exact MCE on the residual core and
        warn; ``"raise"`` — raise :class:`ConvergenceError` instead.
    min_adjacency:
        Density threshold for block growth (see
        :func:`repro.core.blocks.build_blocks`).
    collect_reports:
        When true, keep every per-block :class:`BlockReport` (grouped by
        recursion level) on the result; the distributed simulator replays
        those measured costs.
    executor:
        An object with the executors' ``map_blocks`` interface (see
        :mod:`repro.distributed.executor`) used to analyse each level's
        blocks; ``None`` (the default) analyses them serially in-process.
        The clique output is identical for every executor.
    pipeline:
        When true, run the CSR-native streaming decomposition instead of
        the barrier loop: each level's graph lives as a CSR snapshot,
        ``cut_csr``/``blocks_csr`` stream :class:`BlockDescriptor`\\ s
        into the executor's worker pool while later levels are still
        being decomposed, and no dict ``Graph`` is ever built for a
        level or a block.  Requires a
        :class:`~repro.distributed.executor.SharedMemoryExecutor` (one
        is constructed when ``executor`` is ``None``).  The clique
        output is identical to the barrier mode.
    split:
        Enable anchor-level splitting of straggler blocks (see
        ``docs/scheduling.md``): blocks whose estimated cost exceeds the
        split threshold are expanded into independently scheduled
        subtasks.  Requires a shared-memory executor (barrier or
        pipeline mode); the clique output is identical either way.
    split_threshold:
        Override the adaptive split threshold with a fixed cost value
        (only meaningful with ``split=True``).
    batch_blocks:
        Enable multi-block batched dispatch (see ``docs/batching.md``):
        small same-padded-shape blocks are packed into buckets and each
        bucket runs as one fused multi-block kernel, amortizing per-block
        dispatch overhead in the many-small-blocks regime.  Works with
        the serial in-process path, a
        :class:`~repro.distributed.executor.SerialExecutor`, or a
        :class:`~repro.distributed.executor.SharedMemoryExecutor`
        (barrier or pipeline, with or without ``split``); the clique
        output is identical either way.
    batch_cutoff:
        Override the adaptive node-count cutoff below which blocks are
        batched (only meaningful with ``batch_blocks=True``).
    min_clique_size:
        Enumeration floor (see ``docs/maximum.md``): only maximal
        cliques with at least this many members are returned.  Beyond
        filtering the output, the floor *prunes the search*: every block
        is priced with a cheap clique upper bound
        (:func:`repro.core.block_analysis.block_clique_bound`) and
        skipped outright when the bound falls below the floor, and
        inside analysed blocks, anchors whose candidate neighbourhood
        cannot reach the floor are skipped before their Bron–Kerbosch
        sweep.  The returned cliques are exactly the size-``≥ floor``
        subset of an unfloored run; the ``pruning`` digest on the result
        records how much work the bounds avoided.  ``0`` (the default)
        disables the floor entirely.
    spill_dir:
        Directory for a *durable* run (see ``docs/durability.md``): as
        blocks finish, their reports are appended to CRC-checked segment
        files (flush + fsync per block), so a crash loses at most the
        blocks in flight.  The segments are the only per-block progress
        record; the manifest holds the run's fingerprint, segment names,
        status and (barrier mode) per-level partition digests, and is
        written when the run opens, once per barrier level, and at the
        end.  Works with every executor, in barrier and pipeline modes.
    resume:
        Continue a durable run that crashed (or finished) in
        ``spill_dir``: the manifest is validated against the current
        graph/config fingerprint, every block with a whole record in the
        segments is skipped and its spilled report replayed, and a torn
        final record left by a crash mid-write is truncated.  In barrier
        mode a level whose partition differs from the recorded one (the
        dict decomposition depends on ``PYTHONHASHSEED`` for non-int
        labels) raises ``ResumeMismatchError``.  The clique output is
        identical to an uninterrupted run.  Requires ``spill_dir``.

    Returns
    -------
    CliqueResult
        All maximal cliques with per-clique provenance (the recursion
        level that produced each) and per-level statistics.

    Raises
    ------
    ValueError
        On a non-positive ``m`` or unknown ``fallback`` mode.
    ConvergenceError
        With ``fallback="raise"`` when ``m`` is at most the degeneracy of
        the residual graph at some level.
    """
    if m < 1:
        raise ValueError("block size m must be at least 1")
    if fallback not in FALLBACK_MODES:
        raise ValueError(
            f"unknown fallback mode {fallback!r}; known: {', '.join(FALLBACK_MODES)}"
        )
    if resume and spill_dir is None:
        raise ValueError("resume=True requires spill_dir")
    if min_clique_size < 0:
        raise ValueError("min_clique_size must be non-negative")
    resolved_tree = resolve_tree(tree)
    selection_tree = resolved_tree if resolved_tree is not None else paper_tree()
    if split:
        executor = _configure_split(executor, split_threshold, pipeline)
    if batch_blocks:
        executor = _configure_batch(executor, batch_cutoff, pipeline)
    if min_clique_size > 0:
        executor = _configure_prune(executor, min_clique_size)
    run_log: RunLog | None = None
    if spill_dir is not None:
        # The floor changes which blocks are recorded, so it is part of
        # the durable run's identity: resuming a floored run with a
        # different floor must fail the fingerprint check.
        mode = "pipeline" if pipeline else "barrier"
        if min_clique_size > 0:
            mode += f"+floor{min_clique_size}"
        run_log = RunLog(
            spill_dir,
            fingerprint_run(
                graph,
                m,
                min_adjacency,
                mode=mode,
                combo=combo.name if combo is not None else None,
            ),
            resume=resume,
        )
    if pipeline:
        try:
            return _pipeline_enumerate(
                graph,
                m,
                selection_tree,
                combo,
                fallback,
                min_adjacency,
                collect_reports,
                executor,
                run_log,
                min_clique_size,
            )
        finally:
            if run_log is not None:
                run_log.close()

    try:
        return _barrier_enumerate(
            graph,
            m,
            selection_tree,
            combo,
            fallback,
            min_adjacency,
            collect_reports,
            executor,
            run_log,
            min_clique_size,
        )
    finally:
        if run_log is not None:
            run_log.close()


def _barrier_enumerate(
    graph: Graph,
    m: int,
    selection_tree: DecisionTree,
    combo: Combo | None,
    fallback: str,
    min_adjacency: int,
    collect_reports: bool,
    executor,
    run_log: RunLog | None,
    min_clique_size: int = 0,
) -> CliqueResult:
    """The original level-synchronous loop (every non-pipeline mode)."""
    level_cliques: "list[CliqueStore | list[frozenset[Node]]]" = []
    clique_index = GlobalCliqueIndex()
    level_stats: list[LevelStats] = []
    level_reports: list[list] = []
    combo_counter: Counter[str] = Counter()
    fallback_used = False
    blocks_total = 0
    blocks_skipped = 0
    anchors_skipped = 0
    bound_records: list[BlockBound] = []

    current = graph
    level = 0
    while current.num_nodes > 0:
        decomposition_start = time.perf_counter()
        feasible, hubs = cut(current, m)
        if not feasible:
            if fallback == "raise":
                raise ConvergenceError(
                    f"no feasible node at recursion level {level}: block size "
                    f"{m} does not exceed the degeneracy of the residual "
                    f"graph ({current.num_nodes} nodes remain)",
                    core_size=current.num_nodes,
                )
            warnings.warn(
                f"FIND-MAX-CLIQUES did not converge at level {level} "
                f"(m={m} <= degeneracy of the residual core of "
                f"{current.num_nodes} nodes); falling back to exact "
                "enumeration on the core",
                RuntimeWarning,
                stacklevel=2,
            )
            decomposition_seconds = time.perf_counter() - decomposition_start
            cliques, analysis_seconds, used = _exact_core(
                current, selection_tree, combo
            )
            cliques = filter_min_size(cliques, min_clique_size)
            if packed_plane_enabled() and (
                not level_cliques or _packed_levels(level_cliques)
            ):
                # Keep the whole run on one plane: pack the exact-core
                # fallback into the run-wide id space too.
                cliques = clique_index.add(cliques)
            combo_counter[used.name] += 1
            level_cliques.append(cliques)
            level_stats.append(
                LevelStats(
                    level=level,
                    num_nodes=current.num_nodes,
                    num_edges=current.num_edges,
                    num_feasible=0,
                    num_hubs=current.num_nodes,
                    num_blocks=0,
                    decomposition_seconds=decomposition_seconds,
                    analysis_seconds=analysis_seconds,
                    cliques_found=len(cliques),
                    fallback_used=True,
                )
            )
            fallback_used = True
            break

        blocks = build_blocks(current, feasible, m, min_adjacency=min_adjacency)
        blocks_total += len(blocks)
        level_bounds: list[BlockBound] = []
        if min_clique_size > 1:
            # Price every block before dispatch; a block whose bound
            # falls below the floor cannot emit a surviving clique, so
            # it never reaches an executor at all.
            kept = []
            for block_id, block in enumerate(blocks):
                bound = block_clique_bound(block)
                skipped = bound < min_clique_size
                level_bounds.append(
                    BlockBound(
                        level=level,
                        block_id=block_id,
                        bound=bound,
                        floor=min_clique_size,
                        skipped=skipped,
                    )
                )
                if skipped:
                    blocks_skipped += 1
                else:
                    kept.append(block)
            blocks = kept
            bound_records.extend(level_bounds)
        decomposition_seconds = time.perf_counter() - decomposition_start
        if run_log is not None:
            run_log.check_partition(
                level, partition_digest(block.kernel for block in blocks)
            )

        analysis_start = time.perf_counter()
        if executor is None and run_log is None:
            reports = [
                analyze_block(
                    block,
                    tree=selection_tree,
                    combo=combo,
                    min_clique_size=min_clique_size,
                )
                for block in blocks
            ]
        else:
            if executor is None:
                # A durable serial run routes through SerialExecutor,
                # which already speaks the skip/replay/record protocol.
                from repro.distributed.executor import SerialExecutor

                executor = SerialExecutor()
                if min_clique_size > 0:
                    executor = _configure_prune(executor, min_clique_size)
            reports = executor.map_blocks(
                blocks,
                tree=selection_tree,
                combo=combo,
                graph=current,
                run_log=run_log,
                level=level,
            )
        cliques = _level_cliques_of(reports, clique_index)
        analysis_seconds = time.perf_counter() - analysis_start
        cliques = filter_min_size(cliques, min_clique_size)
        for report in reports:
            combo_counter[report.combo.name] += 1
            anchors_skipped += int(report.extra.get("anchors_skipped", 0.0))
        if collect_reports:
            level_reports.append(reports)

        level_cliques.append(cliques)
        level_stats.append(
            LevelStats(
                level=level,
                num_nodes=current.num_nodes,
                num_edges=current.num_edges,
                num_feasible=len(feasible),
                num_hubs=len(hubs),
                num_blocks=len(blocks),
                decomposition_seconds=decomposition_seconds,
                analysis_seconds=analysis_seconds,
                cliques_found=len(cliques),
            )
        )
        if not hubs:
            break
        current = induced_subgraph(current, hubs)
        level += 1

    payload = _result_payload(level_cliques)
    # The executor's trace is reset on every map_blocks call, so the
    # per-level bound records are replayed into the *final* trace here —
    # after the loop — where they describe the whole run.
    trace = getattr(executor, "last_trace", None)
    if trace is not None:
        for record in bound_records:
            trace.record_bound(record)
    run_info = None
    if run_log is not None:
        run_log.finalize()
        run_info = _run_info(run_log)
    return CliqueResult(
        **payload,
        levels=level_stats,
        m=m,
        fallback_used=fallback_used,
        block_combos=dict(combo_counter),
        block_reports=level_reports,
        run_info=run_info,
        pruning=_pruning_info(
            min_clique_size, blocks_total, blocks_skipped, anchors_skipped
        ),
    )


def _pruning_info(
    min_clique_size: int,
    blocks_total: int,
    blocks_skipped: int,
    anchors_skipped: int,
) -> dict | None:
    """Bound-pruning digest for :attr:`CliqueResult.pruning`."""
    if min_clique_size <= 0:
        return None
    return {
        "min_clique_size": min_clique_size,
        "blocks_total": blocks_total,
        "blocks_skipped": blocks_skipped,
        "anchors_skipped": anchors_skipped,
    }


def _run_info(run_log: RunLog) -> dict:
    """Durability digest attached to the result of a spill run."""
    return {
        "spill_dir": str(run_log.directory),
        "resumed": run_log.resumed,
        "blocks_replayed": run_log.num_recovered,
        "blocks_recorded": len(run_log.flushes),
        "flush_seconds": sum(flush.seconds for flush in run_log.flushes),
        "flush_bytes": sum(flush.segment_bytes for flush in run_log.flushes),
        "segments": list(run_log.manifest.segments),
    }


def decompose_only(
    graph: Graph, m: int, min_adjacency: int = 1, fallback: str = "exact"
) -> tuple[list[LevelStats], int]:
    """Run only the two-level decomposition, skipping clique analysis.

    Used by the Figure 7 benchmark, which times decomposition in
    isolation.  Returns the per-level statistics (analysis fields zeroed)
    and the number of first-level iterations performed.

    Raises
    ------
    ConvergenceError
        With ``fallback="raise"`` on a non-convergent ``m``.
    """
    if m < 1:
        raise ValueError("block size m must be at least 1")
    if fallback not in FALLBACK_MODES:
        raise ValueError(
            f"unknown fallback mode {fallback!r}; known: {', '.join(FALLBACK_MODES)}"
        )
    stats: list[LevelStats] = []
    current = graph
    level = 0
    while current.num_nodes > 0:
        start = time.perf_counter()
        feasible, hubs = cut(current, m)
        if not feasible:
            if fallback == "raise":
                raise ConvergenceError(
                    f"no feasible node at recursion level {level}",
                    core_size=current.num_nodes,
                )
            break
        blocks = build_blocks(current, feasible, m, min_adjacency=min_adjacency)
        seconds = time.perf_counter() - start
        stats.append(
            LevelStats(
                level=level,
                num_nodes=current.num_nodes,
                num_edges=current.num_edges,
                num_feasible=len(feasible),
                num_hubs=len(hubs),
                num_blocks=len(blocks),
                decomposition_seconds=seconds,
                analysis_seconds=0.0,
                cliques_found=0,
            )
        )
        if not hubs:
            break
        current = induced_subgraph(current, hubs)
        level += 1
    return stats, len(stats)


def _configure_split(executor, split_threshold: float | None, pipeline: bool):
    """Apply the driver's split settings to the executor.

    Splitting happens inside the shared-memory dispatch loop, so it
    needs a :class:`~repro.distributed.executor.SharedMemoryExecutor`
    (in barrier or pipeline mode); asking for it on the serial or
    process executor is an error rather than a silent no-op.
    """
    from repro.distributed.executor import SharedMemoryExecutor

    if executor is None and pipeline:
        executor = SharedMemoryExecutor()
    if not isinstance(executor, SharedMemoryExecutor):
        raise ExecutorError(
            "anchor-level splitting (split=True) requires a "
            "SharedMemoryExecutor; got "
            f"{type(executor).__name__ if executor is not None else 'the serial in-process path'}"
        )
    executor.split = True
    if split_threshold is not None:
        executor.split_threshold = split_threshold
    return executor


def _configure_batch(executor, batch_cutoff: int | None, pipeline: bool):
    """Apply the driver's batching settings to the executor.

    Batched dispatch is implemented by the serial and shared-memory
    executors (the process executor pickles whole ``Block`` objects and
    has no shared CSR to pack buckets from); asking for it elsewhere is
    an error rather than a silent no-op.  With no executor given, a
    batching :class:`~repro.distributed.executor.SerialExecutor` (or, in
    pipeline mode, a :class:`~repro.distributed.executor.SharedMemoryExecutor`)
    is constructed.
    """
    from repro.distributed.executor import SerialExecutor, SharedMemoryExecutor

    if executor is None:
        executor = SharedMemoryExecutor() if pipeline else SerialExecutor()
    if not isinstance(executor, (SerialExecutor, SharedMemoryExecutor)):
        raise ExecutorError(
            "batched dispatch (batch_blocks=True) requires a SerialExecutor "
            f"or a SharedMemoryExecutor; got {type(executor).__name__}"
        )
    executor.batch_blocks = True
    if batch_cutoff is not None:
        executor.batch_cutoff = batch_cutoff
    return executor


def _configure_prune(executor, min_clique_size: int):
    """Propagate the enumeration floor to the executor's workers.

    Every executor that carries a ``min_clique_size`` field forwards it
    to the block-analysis workers, which then skip anchors whose
    candidate neighbourhood cannot reach the floor.  Executors without
    the field (e.g. the replay simulator) simply analyse every anchor —
    the floor stays *correct* regardless, because the driver prices and
    skips whole blocks itself and floor-filters each level's cliques;
    worker-side anchor skipping is purely an optimisation.
    """
    if executor is not None and hasattr(executor, "min_clique_size"):
        executor.min_clique_size = min_clique_size
    return executor


def _pipeline_enumerate(
    graph: Graph,
    m: int,
    selection_tree: DecisionTree,
    combo: Combo | None,
    fallback: str,
    min_adjacency: int,
    collect_reports: bool,
    executor,
    run_log: RunLog | None = None,
    min_clique_size: int = 0,
) -> CliqueResult:
    """The streaming CSR-native twin of the barrier loop.

    Decomposition (``cut_csr`` → ``blocks_csr`` → ``induced_csr``) runs
    level by level in the parent while the
    :class:`~repro.distributed.executor.PipelineSession` workers consume
    descriptors concurrently; the single synchronization point is
    ``session.finish()`` after the *last* level is decomposed.  Per-level
    ``analysis_seconds`` is therefore the serial-equivalent sum of the
    per-block times, not a wall-clock interval (blocks of different
    levels overlap by design).
    """
    from repro.distributed.executor import SharedMemoryExecutor

    if executor is None:
        executor = SharedMemoryExecutor()
        if min_clique_size > 0:
            executor = _configure_prune(executor, min_clique_size)
    if not isinstance(executor, SharedMemoryExecutor):
        raise ExecutorError(
            "pipeline mode streams BlockDescriptors over shared memory and "
            f"requires a SharedMemoryExecutor, got {type(executor).__name__}"
        )

    level_meta: list[tuple[int, int, int, int, int, list[int], float]] = []
    fallback_level: tuple[int, int, int, float, float, list, Combo] | None = None
    fallback_used = False
    blocks_total = 0
    blocks_skipped = 0
    anchors_skipped = 0
    bound_scratch = BitmapScratch() if min_clique_size > 1 else None

    session = executor.open_pipeline(
        tree=selection_tree, combo=combo, run_log=run_log
    )
    try:
        current = CSRGraph(graph)
        level = 0
        while current.num_nodes > 0:
            decomposition_start = time.perf_counter()
            feasible_ids, hub_ids = cut_csr(current, m)
            if not len(feasible_ids):
                if fallback == "raise":
                    raise ConvergenceError(
                        f"no feasible node at recursion level {level}: block "
                        f"size {m} does not exceed the degeneracy of the "
                        f"residual graph ({current.num_nodes} nodes remain)",
                        core_size=current.num_nodes,
                    )
                warnings.warn(
                    f"FIND-MAX-CLIQUES did not converge at level {level} "
                    f"(m={m} <= degeneracy of the residual core of "
                    f"{current.num_nodes} nodes); falling back to exact "
                    "enumeration on the core",
                    RuntimeWarning,
                    stacklevel=3,
                )
                decomposition_seconds = time.perf_counter() - decomposition_start
                cliques, analysis_seconds, used = _exact_core(
                    current.to_graph(), selection_tree, combo
                )
                fallback_level = (
                    level,
                    current.num_nodes,
                    current.num_edges,
                    decomposition_seconds,
                    analysis_seconds,
                    cliques,
                    used,
                )
                fallback_used = True
                break
            session.publish_level(level, current)
            num_blocks = 0
            submitted: list[int] = []
            for descriptor in blocks_csr(
                current, feasible_ids, m, min_adjacency=min_adjacency
            ):
                block_id = descriptor.block_id
                num_blocks += 1
                blocks_total += 1
                if min_clique_size > 1:
                    # Price the descriptor before it enters the worker
                    # stream; a below-floor block is never submitted.
                    bound = block_clique_bound_csr(
                        descriptor,
                        current.indptr,
                        current.indices,
                        bound_scratch,
                    )
                    skipped = bound < min_clique_size
                    session.trace.record_bound(
                        BlockBound(
                            level=level,
                            block_id=block_id,
                            bound=bound,
                            floor=min_clique_size,
                            skipped=skipped,
                        )
                    )
                    if skipped:
                        blocks_skipped += 1
                        continue
                session.submit(level, descriptor)
                submitted.append(block_id)
            next_csr = induced_csr(current, hub_ids) if len(hub_ids) else None
            decomposition_seconds = time.perf_counter() - decomposition_start
            session.end_level(
                level,
                decomposition_seconds,
                len(submitted),
                len(feasible_ids),
                len(hub_ids),
            )
            level_meta.append(
                (
                    level,
                    current.num_nodes,
                    current.num_edges,
                    len(feasible_ids),
                    len(hub_ids),
                    submitted,
                    decomposition_seconds,
                )
            )
            if next_csr is None:
                break
            current = next_csr
            level += 1
        grouped = session.finish()
    finally:
        session.close()

    level_cliques: "list[CliqueStore | list[frozenset[Node]]]" = []
    level_stats: list[LevelStats] = []
    level_reports: list[list] = []
    combo_counter: Counter[str] = Counter()
    clique_index = GlobalCliqueIndex()
    for level, nodes, edges, feasible, hubs, submitted, seconds in level_meta:
        by_id = grouped.get(level, {})
        reports = [by_id[i] for i in submitted]
        cliques = filter_min_size(
            _level_cliques_of(reports, clique_index), min_clique_size
        )
        for report in reports:
            combo_counter[report.combo.name] += 1
            anchors_skipped += int(report.extra.get("anchors_skipped", 0.0))
        if collect_reports:
            level_reports.append(reports)
        level_cliques.append(cliques)
        level_stats.append(
            LevelStats(
                level=level,
                num_nodes=nodes,
                num_edges=edges,
                num_feasible=feasible,
                num_hubs=hubs,
                num_blocks=len(submitted),
                decomposition_seconds=seconds,
                analysis_seconds=sum(report.seconds for report in reports),
                cliques_found=len(cliques),
            )
        )
    if fallback_level is not None:
        level, nodes, edges, dec_seconds, ana_seconds, cliques, used = fallback_level
        combo_counter[used.name] += 1
        cliques = filter_min_size(cliques, min_clique_size)
        if packed_plane_enabled() and (
            not level_cliques or _packed_levels(level_cliques)
        ):
            cliques = clique_index.add(cliques)
        level_cliques.append(cliques)
        level_stats.append(
            LevelStats(
                level=level,
                num_nodes=nodes,
                num_edges=edges,
                num_feasible=0,
                num_hubs=nodes,
                num_blocks=0,
                decomposition_seconds=dec_seconds,
                analysis_seconds=ana_seconds,
                cliques_found=len(cliques),
                fallback_used=True,
            )
        )

    payload = _result_payload(level_cliques)
    run_info = None
    if run_log is not None:
        run_log.finalize()
        run_info = _run_info(run_log)
    return CliqueResult(
        **payload,
        levels=level_stats,
        m=m,
        fallback_used=fallback_used,
        block_combos=dict(combo_counter),
        block_reports=level_reports,
        run_info=run_info,
        pruning=_pruning_info(
            min_clique_size, blocks_total, blocks_skipped, anchors_skipped
        ),
    )


def decompose_only_csr(
    graph: Graph | CSRGraph,
    m: int,
    min_adjacency: int = 1,
    seed_order: str = "insertion",
    fallback: str = "exact",
) -> tuple[list[LevelStats], int]:
    """CSR-native twin of :func:`decompose_only` (no clique analysis).

    Runs ``cut_csr`` → ``blocks_csr`` → ``induced_csr`` per level,
    consuming the descriptor stream without dispatching it.  Accepts a
    dict ``Graph`` (converted once up front) or an existing
    :class:`CSRGraph`; the per-level statistics mirror
    :func:`decompose_only`, so the decomposition benchmark compares the
    two paths like for like.

    Raises
    ------
    ConvergenceError
        With ``fallback="raise"`` on a non-convergent ``m``.
    """
    if m < 1:
        raise ValueError("block size m must be at least 1")
    if fallback not in FALLBACK_MODES:
        raise ValueError(
            f"unknown fallback mode {fallback!r}; known: {', '.join(FALLBACK_MODES)}"
        )
    current = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
    stats: list[LevelStats] = []
    level = 0
    while current.num_nodes > 0:
        start = time.perf_counter()
        feasible_ids, hub_ids = cut_csr(current, m)
        if not len(feasible_ids):
            if fallback == "raise":
                raise ConvergenceError(
                    f"no feasible node at recursion level {level}",
                    core_size=current.num_nodes,
                )
            break
        num_blocks = sum(
            1
            for _ in blocks_csr(
                current,
                feasible_ids,
                m,
                min_adjacency=min_adjacency,
                seed_order=seed_order,
            )
        )
        next_csr = induced_csr(current, hub_ids) if len(hub_ids) else None
        seconds = time.perf_counter() - start
        stats.append(
            LevelStats(
                level=level,
                num_nodes=current.num_nodes,
                num_edges=current.num_edges,
                num_feasible=len(feasible_ids),
                num_hubs=len(hub_ids),
                num_blocks=num_blocks,
                decomposition_seconds=seconds,
                analysis_seconds=0.0,
                cliques_found=0,
            )
        )
        if next_csr is None:
            break
        current = next_csr
        level += 1
    return stats, len(stats)


def _exact_core(
    graph: Graph, tree: DecisionTree, combo: Combo | None
) -> tuple[list[frozenset[Node]], float, Combo]:
    """Best-fit exact enumeration on a non-convergent residual core."""
    chosen = combo if combo is not None else select_combo(
        tree, BlockFeatures.of(graph)
    )
    start = time.perf_counter()
    cliques = list(chosen.run(graph))
    return cliques, time.perf_counter() - start, chosen


def _level_cliques_of(
    reports: list, clique_index: GlobalCliqueIndex
) -> "CliqueStore | list[frozenset[Node]]":
    """Assemble one level's cliques from its block reports.

    Packed reports (the default plane) are remapped into the run-wide
    vertex-id space — one small Python loop over each block's member
    labels plus one vectorized gather — and concatenated as raw buffers;
    no clique is decoded.  Legacy frozenset reports (the
    ``REPRO_RESULT_PLANE=frozenset`` baseline arm, or replays of
    legacy-format spill segments) keep the list plane end to end.
    """
    if reports and all(
        isinstance(report.cliques, CliqueStore) for report in reports
    ):
        merged = CliqueStore.concat(
            [clique_index.add(report.cliques) for report in reports]
        )
        if merged.labels is None:
            merged = merged.with_labels(clique_index.labels)
        return merged
    return [clique for report in reports for clique in report.cliques]


def _packed_levels(level_cliques: list) -> bool:
    """Whether every per-level payload is a packed :class:`CliqueStore`."""
    return bool(level_cliques) and all(
        isinstance(cliques, CliqueStore) for cliques in level_cliques
    )


def _result_payload(level_cliques: list) -> dict:
    """Merged-clique kwargs for :class:`CliqueResult` — packed or legacy."""
    if _packed_levels(level_cliques):
        return {"store": _merge_levels_packed(level_cliques)}
    merged, provenance = _merge_levels(level_cliques)
    return {"cliques": merged, "provenance": provenance}


def _merge_levels_packed(level_stores: "list[CliqueStore]") -> CliqueStore:
    """Packed twin of :func:`_merge_levels`.

    Same bottom-up Lemma-1 sweep, but containment runs in int space
    (:func:`~repro.core.filtering.contained_mask`) and the provenance is
    the merged store's per-clique ``levels`` array instead of a
    ``dict[frozenset, int]``.  All stores share the driver's run-wide id
    space, so survivors concatenate as raw buffers.
    """
    merged = CliqueStore.empty()
    labels = next(
        (store.labels for store in level_stores if store.labels is not None),
        None,
    )
    for level in range(len(level_stores) - 1, -1, -1):
        feasible_side = level_stores[level]
        feasible_side.levels = np.full(
            len(feasible_side), level, dtype=np.int32
        )
        surviving = merged.select(~contained_mask(merged, feasible_side))
        merged = CliqueStore.concat([feasible_side, surviving])
    if merged.labels is None and labels is not None:
        merged = merged.with_labels(labels)
    if merged.levels is None:
        merged.levels = np.zeros(len(merged), dtype=np.int32)
    return merged


def _merge_levels(
    level_cliques: list[list[frozenset[Node]]],
) -> tuple[list[frozenset[Node]], dict[frozenset[Node], int]]:
    """Merge per-level clique sets bottom-up with the Lemma 1 filter.

    Returns the final clique list and the provenance map (clique → level
    at which it was found).  Deeper levels are filtered against shallower
    ones, so a hub-only clique survives only when no feasible-side clique
    contains it.
    """
    merged: list[frozenset[Node]] = []
    provenance: dict[frozenset[Node], int] = {}
    for level in range(len(level_cliques) - 1, -1, -1):
        feasible_side = level_cliques[level]
        for clique in feasible_side:
            provenance[clique] = level
        surviving = filter_contained(merged, feasible_side)
        merged = list(feasible_side) + surviving
    provenance = {clique: provenance[clique] for clique in merged}
    return merged, provenance
