"""Unit tests for the block executors."""

from __future__ import annotations

import pytest

from repro.core.block_analysis import analyze_blocks
from repro.core.blocks import build_blocks
from repro.core.driver import find_max_cliques
from repro.core.feasibility import cut
from repro.distributed.cluster import ClusterSpec
from repro.distributed.executor import (
    ProcessExecutor,
    SerialExecutor,
    SharedMemoryExecutor,
    SimulatedExecutor,
)
from repro.graph.generators import social_network
from repro.mce.registry import Combo


@pytest.fixture(scope="module")
def blocks():
    g = social_network(90, attachment=3, planted_cliques=(7,), seed=6)
    feasible, _ = cut(g, 18)
    return build_blocks(g, feasible, 18)


def clique_multiset(reports):
    return sorted(
        (sorted(map(str, c)) for r in reports for c in r.cliques)
    )


class TestSerialExecutor:
    def test_matches_reference(self, blocks):
        reference, _ = analyze_blocks(blocks)
        reports = SerialExecutor().map_blocks(blocks)
        assert [c for r in reports for c in r.cliques] == reference

    def test_empty(self):
        assert SerialExecutor().map_blocks([]) == []

    def test_forced_combo(self, blocks):
        combo = Combo("tomita", "matrix")
        reports = SerialExecutor().map_blocks(blocks, combo=combo)
        assert all(report.combo == combo for report in reports)


class TestSimulatedExecutor:
    def test_records_run(self, blocks):
        executor = SimulatedExecutor(cluster=ClusterSpec(machines=2))
        reports = executor.map_blocks(blocks)
        assert executor.last_run is not None
        assert executor.last_run.serial_seconds == pytest.approx(
            sum(report.seconds for report in reports)
        )

    def test_same_cliques_as_serial(self, blocks):
        serial = SerialExecutor().map_blocks(blocks)
        simulated = SimulatedExecutor(cluster=ClusterSpec()).map_blocks(blocks)
        assert clique_multiset(serial) == clique_multiset(simulated)


class TestProcessExecutor:
    def test_same_cliques_as_serial(self, blocks):
        serial = SerialExecutor().map_blocks(blocks)
        parallel = ProcessExecutor(max_workers=2).map_blocks(blocks[:6])
        assert clique_multiset(parallel) == clique_multiset(serial[:6])

    def test_empty(self):
        assert ProcessExecutor(max_workers=2).map_blocks([]) == []


WORKERS = 2
MANY_M = 20


@pytest.fixture(scope="module")
def many_blocks():
    g = social_network(400, seed=7)
    feasible, _ = cut(g, MANY_M)
    blocks = build_blocks(g, feasible, MANY_M)
    assert len(blocks) >= 100, "fixture must produce a level of 100+ blocks"
    return g, blocks


def assert_growing_chunks(chunks: list[list[int]], workers: int) -> None:
    """Chunks close at ``max(1, dispatched // (4 * workers))`` blocks."""
    assert all(len(chunk) == 1 for chunk in chunks[: 4 * workers])
    dispatched = 0
    for index, chunk in enumerate(chunks):
        dispatched += len(chunk)
        limit = max(1, dispatched // (4 * workers))
        if index < len(chunks) - 1:
            assert len(chunk) == limit
        else:  # the level's partial chunk, flushed at the end
            assert 1 <= len(chunk) <= limit


class TestChunkedDispatch:
    """Whole blocks travel to the pool in chunks of growing size."""

    def test_barrier_level_ships_growing_chunks(
        self, many_blocks, pool_submissions
    ):
        graph, blocks = many_blocks
        executor = SharedMemoryExecutor(max_workers=WORKERS)
        reports = executor.map_blocks(blocks, graph=graph)
        assert {name for name, _ in pool_submissions} == {"_shm_analyze"}
        chunks = [list(args[0]) for _, args in pool_submissions]
        trace = executor.last_trace
        assert trace.pool_tasks == len(chunks) < len(blocks)
        assert_growing_chunks(
            [[d.block_id for d in chunk] for chunk in chunks], WORKERS
        )
        # Every block once, in LPT (decreasing estimated cost) order.
        shipped = [d for chunk in chunks for d in chunk]
        assert sorted(d.block_id for d in shipped) == list(range(len(blocks)))
        costs = [d.estimated_cost for d in shipped]
        assert costs == sorted(costs, reverse=True)
        # One report and one timing per block; output in block order.
        assert len(reports) == len(blocks)
        assert sorted(t.block_id for t in trace.timings) == list(
            range(len(blocks))
        )
        reference, _ = analyze_blocks(blocks)
        assert [c for r in reports for c in r.cliques] == reference

    def test_pipeline_levels_ship_growing_chunks(
        self, many_blocks, pool_submissions
    ):
        graph, _ = many_blocks
        executor = SharedMemoryExecutor(max_workers=WORKERS)
        result = find_max_cliques(
            graph, MANY_M, executor=executor, pipeline=True
        )
        assert {name for name, _ in pool_submissions} == {"_pipeline_analyze"}
        trace = executor.last_trace
        assert trace.pool_tasks == len(pool_submissions)
        # Each level publishes its own snapshot; a chunk never mixes levels.
        by_level: dict[str, list[list[int]]] = {}
        for _, (handle, chunk) in pool_submissions:
            by_level.setdefault(handle.indptr_name, []).append(
                [d.block_id for d in chunk]
            )
        levels = [record for record in trace.levels if record.num_blocks]
        assert len(by_level) == len(levels)
        for record, chunks in zip(levels, by_level.values()):
            ids = sorted(block_id for chunk in chunks for block_id in chunk)
            assert ids == list(range(record.num_blocks))
            assert_growing_chunks(chunks, WORKERS)
        assert levels[0].num_blocks >= 100
        total = sum(record.num_blocks for record in levels)
        assert trace.pool_tasks < total
        assert len(trace.timings) == total
        # Same cliques, in the same order, as one pool task per block
        # (split mode with no block over the threshold), and the same
        # set as the serial barrier run.
        per_block = find_max_cliques(
            graph,
            MANY_M,
            executor=SharedMemoryExecutor(
                max_workers=WORKERS, split=True, split_threshold=float("inf")
            ),
            pipeline=True,
        )
        assert list(result.cliques) == list(per_block.cliques)
        assert set(result.cliques) == set(find_max_cliques(graph, MANY_M).cliques)
