"""Unit tests for the scheduling policies."""

from __future__ import annotations

import pytest

from repro.distributed.cluster import ClusterSpec
from repro.distributed.scheduler import (
    ChunkAccumulator,
    StealDeque,
    Task,
    lpt_order,
    schedule_hash,
    schedule_lpt,
    schedule_round_robin,
)
from repro.errors import SchedulingError


def cluster(workers: int) -> ClusterSpec:
    return ClusterSpec(
        machines=1,
        workers_per_machine=workers,
        latency_seconds=0.0,
        bandwidth_bytes_per_second=1e12,
    )


def tasks(costs: list[float]) -> list[Task]:
    return [Task(task_id=i, cost_seconds=c) for i, c in enumerate(costs)]


class TestTask:
    def test_negative_cost(self):
        with pytest.raises(ValueError):
            Task(task_id=0, cost_seconds=-1.0)

    def test_negative_bytes(self):
        with pytest.raises(ValueError):
            Task(task_id=0, cost_seconds=1.0, data_bytes=-1)


class TestLPT:
    def test_balances_equal_tasks(self):
        schedule = schedule_lpt(tasks([1.0] * 8), cluster(4))
        assert schedule.makespan == pytest.approx(2.0)
        assert schedule.skew == pytest.approx(1.0)

    def test_classic_lpt_instance(self):
        # Jobs 5,4,3,3,3 on 2 workers: greedy LPT yields 10 (5+3+... ->
        # loads 8 and 10) while the optimum is 9 — the textbook instance
        # showing LPT's 4/3 bound is not tight from below.
        schedule = schedule_lpt(tasks([5, 4, 3, 3, 3]), cluster(2))
        assert schedule.makespan == pytest.approx(10.0)

    def test_dominant_task_sets_makespan(self):
        schedule = schedule_lpt(tasks([100, 1, 1, 1]), cluster(4))
        assert schedule.makespan == pytest.approx(100.0)
        assert schedule.speedup() == pytest.approx(103 / 100)

    def test_every_task_assigned(self):
        schedule = schedule_lpt(tasks([1, 2, 3, 4, 5]), cluster(3))
        assert set(schedule.assignment) == set(range(5))
        assert all(0 <= w < 3 for w in schedule.assignment.values())

    def test_total_work_conserved(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0]
        schedule = schedule_lpt(tasks(costs), cluster(2))
        assert schedule.total_work == pytest.approx(sum(costs))

    def test_duplicate_ids_rejected(self):
        bad = [Task(task_id=1, cost_seconds=1.0)] * 2
        with pytest.raises(SchedulingError):
            schedule_lpt(bad, cluster(2))

    def test_empty(self):
        schedule = schedule_lpt([], cluster(2))
        assert schedule.makespan == 0.0
        assert schedule.speedup() == 1.0

    def test_transfer_cost_included(self):
        spec = ClusterSpec(
            machines=1,
            workers_per_machine=1,
            latency_seconds=1.0,
            bandwidth_bytes_per_second=10.0,
        )
        job = [Task(task_id=0, cost_seconds=2.0, data_bytes=30)]
        schedule = schedule_lpt(job, spec)
        assert schedule.makespan == pytest.approx(2.0 + 1.0 + 3.0)


class TestRoundRobin:
    def test_striping(self):
        schedule = schedule_round_robin(tasks([1, 1, 1, 1]), cluster(2))
        assert schedule.assignment == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_skew_on_sorted_input(self):
        # Round robin on skewed costs is worse than LPT.
        costs = [8.0, 8.0, 1.0, 1.0]
        rr = schedule_round_robin(tasks(costs), cluster(2))
        lpt = schedule_lpt(tasks(costs), cluster(2))
        assert lpt.makespan <= rr.makespan


class TestHash:
    def test_deterministic(self):
        a = schedule_hash(tasks([1, 2, 3]), cluster(4))
        b = schedule_hash(tasks([1, 2, 3]), cluster(4))
        assert a.assignment == b.assignment

    def test_never_better_than_lpt_makespan(self):
        costs = [float(c) for c in (9, 7, 5, 5, 3, 2, 1, 1)]
        hashed = schedule_hash(tasks(costs), cluster(4))
        lpt = schedule_lpt(tasks(costs), cluster(4))
        assert lpt.makespan <= hashed.makespan


class TestLPTOrder:
    def test_decreasing_cost(self):
        order = lpt_order([1.0, 5.0, 3.0])
        assert order == [1, 2, 0]

    def test_ties_break_by_submission_index(self):
        # Equal costs must come out in submission order — split and
        # unsplit runs of the same batch dispatch identically only if
        # the tie-break is pinned.
        order = lpt_order([2.0, 7.0, 2.0, 7.0, 2.0])
        assert order == [1, 3, 0, 2, 4]

    def test_all_equal_is_identity(self):
        assert lpt_order([1.0] * 6) == list(range(6))

    def test_empty(self):
        assert lpt_order([]) == []

    def test_matches_schedule_lpt_on_one_worker(self):
        # On a single worker the dynamic-dispatch order and the static
        # placement visit tasks identically (same sort key).
        costs = [3.0, 1.0, 3.0, 5.0, 1.0]
        order = lpt_order(costs)
        static = sorted(
            tasks(costs), key=lambda t: (-t.cost_seconds, t.task_id)
        )
        assert order == [t.task_id for t in static]


class TestStealDeque:
    def test_initial_tasks_fifo(self):
        dq = StealDeque()
        for item in ("a", "b", "c"):
            dq.push_initial(item)
        assert [dq.take() for _ in range(3)] == ["a", "b", "c"]

    def test_spawned_taken_before_initial(self):
        dq = StealDeque()
        dq.push_initial("block0")
        dq.push_initial("block1")
        dq.push_spawned(["sub0", "sub1"])
        assert [dq.take() for _ in range(4)] == [
            "sub0",
            "sub1",
            "block0",
            "block1",
        ]

    def test_spawned_groups_stack_lifo(self):
        # The most recently split block's subtasks run first, but each
        # group keeps its internal order.
        dq = StealDeque()
        dq.push_spawned(["a1", "a2"])
        dq.push_spawned(["b1", "b2"])
        assert [dq.take() for _ in range(4)] == ["b1", "b2", "a1", "a2"]

    def test_len_and_bool(self):
        dq = StealDeque()
        assert not dq and len(dq) == 0
        dq.push_initial("x")
        assert dq and len(dq) == 1
        dq.take()
        assert not dq

    def test_take_empty_raises(self):
        with pytest.raises(SchedulingError):
            StealDeque().take()


class TestChunkAccumulator:
    @staticmethod
    def chunks_of(count: int, workers: int) -> list[list[int]]:
        chunker = ChunkAccumulator(workers)
        chunks = [chunk for chunk in map(chunker.push, range(count)) if chunk]
        tail = chunker.drain()
        return chunks + [tail] if tail else chunks

    def test_singletons_until_eight_per_worker(self):
        # max(1, dispatched // 8) stays 1 up to the 15th block.
        assert self.chunks_of(15, 2) == [[i] for i in range(15)]

    def test_chunks_grow_with_dispatched_count(self):
        chunks = self.chunks_of(401, 2)
        assert [x for chunk in chunks for x in chunk] == list(range(401))
        sizes = [len(chunk) for chunk in chunks]
        assert sizes[:15] == [1] * 15
        assert sizes[15:17] == [2, 2]
        assert sizes[:-1] == sorted(sizes[:-1])
        assert len(chunks) < 401 // 5

    def test_drain_releases_partial_chunk_and_resets_level(self):
        chunker = ChunkAccumulator(1)
        closed = [chunker.push(i) for i in range(9)]
        assert closed[:7] == [[i] for i in range(7)]
        assert closed[7:] == [None, [7, 8]]
        assert chunker.push(9) is None
        assert chunker.drain() == [9]
        assert chunker.drain() == []
        # A new level starts with singletons again.
        assert chunker.push(10) == [10]

    def test_rejects_no_workers(self):
        with pytest.raises(SchedulingError):
            ChunkAccumulator(0)


class TestScheduleMetrics:
    def test_skew_idle_cluster(self):
        schedule = schedule_lpt([], cluster(3))
        assert schedule.skew == 0.0

    def test_speedup_upper_bound(self):
        schedule = schedule_lpt(tasks([1.0] * 16), cluster(4))
        assert schedule.speedup() <= 4.0
