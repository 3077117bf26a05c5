"""Robustness tests: awkward inputs the library must handle gracefully.

Mixed label types, very deep recursion, disconnected graphs, huge
planted structures — the inputs a downstream user will eventually feed
in.  Plus crash safety: a shared-memory worker killed mid-batch must
never leak ``/dev/shm`` segments or lose cliques.
"""

from __future__ import annotations

import doctest
import os
import warnings
from pathlib import Path

import pytest

from conftest import nx_cliques
from repro.core.block_analysis import analyze_blocks
from repro.core.blocks import build_blocks
from repro.core.driver import find_max_cliques
from repro.core.feasibility import cut
from repro.distributed.executor import (
    FAULT_INJECT_ENV,
    ProcessExecutor,
    SharedMemoryExecutor,
)
from repro.errors import ExecutorError
from repro.graph.adjacency import Graph
from repro.graph.csr import SHARED_SEGMENT_PREFIX
from repro.graph.generators import (
    disjoint_union,
    erdos_renyi,
    h_n,
    social_network,
)


class TestMixedLabelTypes:
    def test_int_and_str_labels_coexist(self):
        g = Graph(edges=[(1, "a"), ("a", (2, "b")), ((2, "b"), 1)])
        result = find_max_cliques(g, 5)
        assert set(result.cliques) == nx_cliques(g)

    def test_mixed_labels_through_decomposition(self):
        # Blocks sort border/visited nodes by str(), which must not
        # choke on heterogeneous label types.
        g = Graph()
        g.add_clique([1, "one", (1,), 1.5])
        g.add_edge(1, "tail")
        result = find_max_cliques(g, 4)
        assert set(result.cliques) == nx_cliques(g)

    def test_bool_labels(self):
        # True == 1 in Python; the graph treats them as the same node,
        # which is dict semantics, not a crash.
        g = Graph(edges=[(True, "x")])
        g.add_edge(1, "y")
        assert g.num_nodes == 3


class TestDeepRecursion:
    def test_driver_survives_200_levels(self):
        # The level loop is iterative, so the pathological H_n cannot
        # blow Python's recursion limit no matter how many rounds.
        graph = h_n(200, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = find_max_cliques(graph, 4)
        assert result.recursion_depth > 150
        assert set(result.cliques) == nx_cliques(graph)


class TestDisconnectedInputs:
    def test_many_components(self):
        parts = [
            social_network(40, attachment=2, seed=s) for s in range(4)
        ]
        g = disjoint_union(parts)
        result = find_max_cliques(g, 15)
        assert set(result.cliques) == nx_cliques(g)

    def test_only_isolated_nodes(self):
        g = Graph(nodes=range(50))
        result = find_max_cliques(g, 2)
        assert result.num_cliques == 50
        assert all(len(c) == 1 for c in result.cliques)


class TestLargePlantedStructure:
    def test_one_giant_clique_dominates(self):
        g = social_network(
            300, attachment=2, closure_probability=0.1,
            planted_cliques=(40,), seed=9,
        )
        result = find_max_cliques(g, 60)
        assert result.max_clique_size() == 40
        assert set(result.cliques) == nx_cliques(g)


def _leaked_segments() -> list[str]:
    """Shared-memory segments of ours still registered with the OS."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-POSIX platform
        return []
    return [
        entry.name
        for entry in shm_dir.iterdir()
        if entry.name.startswith(SHARED_SEGMENT_PREFIX)
    ]


@pytest.fixture
def crash_blocks():
    g = social_network(110, attachment=3, planted_cliques=(7,), seed=13)
    feasible, _ = cut(g, 20)
    return g, build_blocks(g, feasible, 20)


class TestSharedMemoryCrashSafety:
    """A worker dying mid-batch must not leak segments or cliques."""

    def test_killed_worker_is_retried_and_segments_reaped(
        self, crash_blocks, monkeypatch
    ):
        graph, blocks = crash_blocks
        assert len(blocks) > 4, "fixture must produce a real batch"
        reference, _ = analyze_blocks(blocks)
        monkeypatch.setenv(FAULT_INJECT_ENV, "kill:3")
        executor = SharedMemoryExecutor(max_workers=2)
        reports = executor.map_blocks(blocks, graph=graph)
        assert [c for r in reports for c in r.cliques] == reference
        assert executor.last_trace is not None
        assert 3 in executor.last_trace.retried_blocks
        assert _leaked_segments() == []

    def test_killed_worker_without_retry_raises_cleanly(
        self, crash_blocks, monkeypatch
    ):
        graph, blocks = crash_blocks
        monkeypatch.setenv(FAULT_INJECT_ENV, "kill:0")
        executor = SharedMemoryExecutor(max_workers=2, retry_failed=False)
        with pytest.raises(ExecutorError, match="worker process died"):
            executor.map_blocks(blocks, graph=graph)
        assert _leaked_segments() == []

    def test_worker_exception_names_the_block(self, crash_blocks, monkeypatch):
        graph, blocks = crash_blocks
        monkeypatch.setenv(FAULT_INJECT_ENV, "raise:2")
        executor = SharedMemoryExecutor(max_workers=2)
        with pytest.raises(ExecutorError, match="block 2") as excinfo:
            executor.map_blocks(blocks, graph=graph)
        assert excinfo.value.block_id == 2
        assert _leaked_segments() == []

    def test_fault_injection_never_fires_in_parent(self, monkeypatch):
        # The hook must be inert outside pool workers, or the injected
        # SIGKILL would take down the test process itself (and the
        # in-parent retry of a killed block would re-trigger the fault).
        from repro.distributed.executor import _maybe_inject_fault

        monkeypatch.setenv(FAULT_INJECT_ENV, "kill:0")
        _maybe_inject_fault(0)  # would SIGKILL this process if it fired
        monkeypatch.setenv(FAULT_INJECT_ENV, "raise:0")
        _maybe_inject_fault(0)  # would raise if it fired
        assert os.environ[FAULT_INJECT_ENV] == "raise:0"


class TestChunkCrashSafety:
    """A worker dying inside a multi-block chunk loses the whole chunk.

    Chunks are a transport unit only: every member of the lost chunk is
    retried in the parent, one block at a time, and a raising block is
    still named by its own id, not by its chunk's first block.
    """

    WORKERS = 2
    M = 20

    @pytest.fixture(scope="class")
    def graph(self):
        return social_network(300, seed=7)

    @staticmethod
    def chunks_by_level(submissions) -> list[list[list[int]]]:
        """Block ids of every submitted chunk, grouped by snapshot."""
        levels: dict[str, list[list[int]]] = {}
        for name, args in submissions:
            handle, chunk = (None, args[0]) if name == "_shm_analyze" else args
            key = handle.indptr_name if handle is not None else ""
            levels.setdefault(key, []).append([d.block_id for d in chunk])
        return list(levels.values())

    def barrier_target(self, graph, submissions):
        feasible, _ = cut(graph, self.M)
        blocks = build_blocks(graph, feasible, self.M)
        SharedMemoryExecutor(max_workers=self.WORKERS).map_blocks(
            blocks, graph=graph
        )
        [chunks] = self.chunks_by_level(submissions)
        chunk = next(chunk for chunk in chunks if len(chunk) >= 2)
        submissions.clear()
        return blocks, chunk, chunk[1]

    def pipeline_target(self, graph, submissions):
        clean = find_max_cliques(
            graph,
            self.M,
            executor=SharedMemoryExecutor(max_workers=self.WORKERS),
            pipeline=True,
        )
        first, *rest = self.chunks_by_level(submissions)
        # A block id no later level reuses, so the fault fires only in
        # the chosen level-0 chunk.
        later_ids = {block_id for chunks in rest for c in chunks for block_id in c}
        chunk = next(
            chunk for chunk in first
            if len(chunk) >= 2 and chunk[1] not in later_ids
        )
        submissions.clear()
        return clean, chunk, chunk[1]

    def test_barrier_kill_retries_the_whole_chunk(
        self, graph, pool_submissions, monkeypatch
    ):
        blocks, chunk, target = self.barrier_target(graph, pool_submissions)
        reference, _ = analyze_blocks(blocks)
        monkeypatch.setenv(FAULT_INJECT_ENV, f"kill:{target}")
        executor = SharedMemoryExecutor(max_workers=self.WORKERS)
        reports = executor.map_blocks(blocks, graph=graph)
        assert [c for r in reports for c in r.cliques] == reference
        assert set(chunk) <= set(executor.last_trace.retried_blocks)
        assert _leaked_segments() == []

    def test_barrier_raise_names_the_block_not_the_chunk(
        self, graph, pool_submissions, monkeypatch
    ):
        blocks, _, target = self.barrier_target(graph, pool_submissions)
        monkeypatch.setenv(FAULT_INJECT_ENV, f"raise:{target}")
        executor = SharedMemoryExecutor(max_workers=self.WORKERS)
        with pytest.raises(ExecutorError, match=f"block {target} ") as excinfo:
            executor.map_blocks(blocks, graph=graph)
        assert excinfo.value.block_id == target
        assert _leaked_segments() == []

    def test_pipeline_kill_retries_the_whole_chunk(
        self, graph, pool_submissions, monkeypatch
    ):
        clean, chunk, target = self.pipeline_target(graph, pool_submissions)
        monkeypatch.setenv(FAULT_INJECT_ENV, f"kill:{target}")
        executor = SharedMemoryExecutor(max_workers=self.WORKERS)
        result = find_max_cliques(
            graph, self.M, executor=executor, pipeline=True
        )
        assert list(result.cliques) == list(clean.cliques)
        assert set(result.cliques) == nx_cliques(graph)
        assert set(chunk) <= set(executor.last_trace.retried_blocks)
        assert _leaked_segments() == []

    def test_pipeline_raise_names_the_block_not_the_chunk(
        self, graph, pool_submissions, monkeypatch
    ):
        _, _, target = self.pipeline_target(graph, pool_submissions)
        monkeypatch.setenv(FAULT_INJECT_ENV, f"raise:{target}")
        executor = SharedMemoryExecutor(max_workers=self.WORKERS)
        with pytest.raises(ExecutorError, match=f"block {target} ") as excinfo:
            find_max_cliques(graph, self.M, executor=executor, pipeline=True)
        assert excinfo.value.block_id == target
        assert _leaked_segments() == []


class TestSubtaskCrashSafety:
    """A worker dying mid-subtask retries only that subtask.

    With anchor-level splitting on, the retry unit shrinks from the
    whole block to the anchor range that was actually lost: fragments
    completed before the crash keep their results, and the merged
    report still tiles the block exactly once.
    """

    @pytest.fixture
    def split_batch(self):
        # One dense block, all kernel: the worst case where block-level
        # retry would redo everything from scratch.
        g = erdos_renyi(18, 0.5, seed=5)
        feasible, _ = cut(g, 20)
        blocks = build_blocks(g, feasible, 20)
        assert len(blocks) == 1
        return g, blocks

    @staticmethod
    def _executor(**kwargs):
        return SharedMemoryExecutor(
            max_workers=1, split=True, split_threshold=0.0, split_subtasks=4,
            **kwargs,
        )

    def test_killed_subtask_is_retried_alone(self, split_batch, monkeypatch):
        graph, blocks = split_batch
        reference, _ = analyze_blocks(blocks)
        # Subtask ids are start anchor positions — deterministic for a
        # given graph — so a clean run discovers what to kill.
        clean = self._executor()
        clean.map_blocks(blocks, graph=graph)
        ids = sorted(
            t.subtask_id for t in clean.last_trace.subtasks if t.subtask_id >= 0
        )
        assert len(ids) >= 3, "fixture block must split into several subtasks"
        target = ids[-2]
        monkeypatch.setenv(FAULT_INJECT_ENV, f"kill:0.{target}")
        executor = self._executor()
        reports = executor.map_blocks(blocks, graph=graph)
        assert [c for r in reports for c in r.cliques] == reference
        trace = executor.last_trace
        retried = set(trace.retried_subtasks)
        assert (0, target) in retried
        # Fragments finished before the crash are never recomputed.
        retried_ids = {subtask_id for _, subtask_id in retried}
        assert all(sid not in retried_ids for sid in ids if sid < target)
        assert reports[0].extra.get("retried") == 1.0
        assert _leaked_segments() == []

    def test_killed_subtask_without_retry_raises_cleanly(
        self, split_batch, monkeypatch
    ):
        graph, blocks = split_batch
        monkeypatch.setenv(FAULT_INJECT_ENV, "kill:0.0")
        executor = self._executor(retry_failed=False)
        with pytest.raises(ExecutorError, match="worker process died"):
            executor.map_blocks(blocks, graph=graph)
        assert _leaked_segments() == []


class TestProcessExecutorFailures:
    def test_worker_exception_names_the_block(self, crash_blocks, monkeypatch):
        _, blocks = crash_blocks
        monkeypatch.setenv(FAULT_INJECT_ENV, "raise:4")
        with pytest.raises(ExecutorError, match="block 4") as excinfo:
            ProcessExecutor(max_workers=2).map_blocks(blocks)
        assert excinfo.value.block_id == 4

    def test_killed_worker_raises_executor_error(self, crash_blocks, monkeypatch):
        _, blocks = crash_blocks
        monkeypatch.setenv(FAULT_INJECT_ENV, "kill:1")
        with pytest.raises(ExecutorError, match="worker process died"):
            ProcessExecutor(max_workers=2).map_blocks(blocks)


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graph.adjacency",
            "repro.incremental.maintainer",
        ],
    )
    def test_docstring_examples_run(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        outcome = doctest.testmod(module)
        assert outcome.attempted > 0, f"{module_name} has no doctests"
        assert outcome.failed == 0
