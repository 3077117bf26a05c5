"""Block-to-worker scheduling policies.

Blocks are independent tasks of wildly different cost — reference [38]
of the paper observes that "the analysis of few blocks takes far more
time than the rest" — so placement policy decides how much of the
cluster's parallelism is realised.  Three policies are provided:

* :func:`schedule_lpt` — longest-processing-time-first onto the least
  loaded worker, the classic greedy 4/3-approximation of minimum
  makespan; the default and the stand-in for the paper's TORQUE queue;
* :func:`schedule_round_robin` — oblivious striping;
* :func:`schedule_hash` — random/hash placement, which the paper's
  related-work section calls out as "the worst possible partitioning
  for scale-free networks"; kept as the contrast baseline.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.errors import SchedulingError
from repro.distributed.cluster import ClusterSpec


@dataclass(frozen=True)
class Task:
    """One schedulable unit: a block analysis with known replay cost."""

    task_id: int
    cost_seconds: float
    data_bytes: int = 0

    def __post_init__(self) -> None:
        if self.cost_seconds < 0:
            raise ValueError("cost_seconds must be non-negative")
        if self.data_bytes < 0:
            raise ValueError("data_bytes must be non-negative")


@dataclass
class Schedule:
    """A complete assignment of tasks to worker slots."""

    cluster: ClusterSpec
    assignment: dict[int, int]  # task_id -> worker slot
    worker_loads: list[float]  # seconds of work per worker slot

    @property
    def makespan(self) -> float:
        """Completion time: the heaviest worker's total load."""
        return max(self.worker_loads, default=0.0)

    @property
    def total_work(self) -> float:
        """Sum of all per-worker loads (serial-equivalent seconds)."""
        return sum(self.worker_loads)

    @property
    def skew(self) -> float:
        """Max/mean load ratio; 1.0 is perfectly balanced, 0.0 if idle."""
        busy = [load for load in self.worker_loads if load > 0.0]
        if not busy:
            return 0.0
        return max(busy) * len(busy) / sum(busy)

    def speedup(self) -> float:
        """Serial time over makespan; the parallelism actually realised."""
        if self.makespan == 0.0:
            return 1.0
        return self.total_work / self.makespan


def _task_cost(task: Task, cluster: ClusterSpec) -> float:
    """Replay cost of a task on a worker: compute plus data transfer."""
    return task.cost_seconds + cluster.transfer_seconds(task.data_bytes)


def schedule_lpt(tasks: list[Task], cluster: ClusterSpec) -> Schedule:
    """Greedy longest-processing-time-first scheduling.

    Tasks are sorted by decreasing cost and each is placed on the worker
    with the smallest current load (a heap keeps this ``O(n log w)``).

    Raises
    ------
    SchedulingError
        If two tasks share an id (the assignment map would silently drop
        one).
    """
    _check_unique_ids(tasks)
    loads = [0.0] * cluster.total_workers
    heap: list[tuple[float, int]] = [(0.0, w) for w in range(len(loads))]
    heapq.heapify(heap)
    assignment: dict[int, int] = {}
    for task in sorted(tasks, key=lambda t: (-t.cost_seconds, t.task_id)):
        load, worker = heapq.heappop(heap)
        cost = _task_cost(task, cluster)
        assignment[task.task_id] = worker
        loads[worker] = load + cost
        heapq.heappush(heap, (loads[worker], worker))
    return Schedule(cluster=cluster, assignment=assignment, worker_loads=loads)


def schedule_round_robin(tasks: list[Task], cluster: ClusterSpec) -> Schedule:
    """Stripe tasks over workers in submission order."""
    _check_unique_ids(tasks)
    loads = [0.0] * cluster.total_workers
    assignment: dict[int, int] = {}
    for index, task in enumerate(tasks):
        worker = index % cluster.total_workers
        assignment[task.task_id] = worker
        loads[worker] += _task_cost(task, cluster)
    return Schedule(cluster=cluster, assignment=assignment, worker_loads=loads)


def schedule_hash(tasks: list[Task], cluster: ClusterSpec) -> Schedule:
    """Place each task on ``hash(task_id) mod workers`` (oblivious).

    Deterministic (uses a multiplicative integer hash, not Python's
    salted ``hash``) so experiments are repeatable.
    """
    _check_unique_ids(tasks)
    loads = [0.0] * cluster.total_workers
    assignment: dict[int, int] = {}
    for task in tasks:
        worker = (task.task_id * 2654435761 % 2**32) % cluster.total_workers
        assignment[task.task_id] = worker
        loads[worker] += _task_cost(task, cluster)
    return Schedule(cluster=cluster, assignment=assignment, worker_loads=loads)


def lpt_order(costs: list[float]) -> list[int]:
    """Return task indices in longest-processing-time-first order.

    This is the dispatch side of LPT for *dynamic* executors: when
    workers pull tasks from a shared queue, feeding the queue in
    decreasing-cost order is equivalent to the greedy least-loaded
    placement of :func:`schedule_lpt` — each idle worker takes the next
    (largest remaining) task, so the big blocks start first and the
    small ones fill the tail.

    Equal-cost tasks are ordered by submission index (Python's ``sorted``
    is stable, and the explicit ``(cost, index)`` key pins it even if the
    sort ever changes): split and unsplit runs of the same batch must
    dispatch identically or their traces are not comparable.  The
    tie-break is covered by a regression test in
    ``tests/test_distributed_scheduler.py``.
    """
    return sorted(range(len(costs)), key=lambda index: (-float(costs[index]), index))


class StreamingLPTBuffer:
    """Bounded-lookahead LPT reordering for *streamed* task dispatch.

    :func:`lpt_order` needs the whole batch up front; a pipeline
    producer only has the descriptors generated so far.  This buffer is
    the compromise: hold up to ``lookahead`` tasks, and whenever the
    buffer overflows release the costliest one — so the pool's queue is
    continuously fed in locally-LPT order while growth of the remaining
    blocks is still running.  ``drain()`` releases the tail (costliest
    first) when the producer finishes.  Ties break by arrival order,
    keeping dispatch deterministic.
    """

    def __init__(self, lookahead: int) -> None:
        if lookahead < 0:
            raise SchedulingError("lookahead must be non-negative")
        self.lookahead = lookahead
        self._heap: list[tuple[float, int, object]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, cost: float, item: object) -> list[object]:
        """Buffer one task; return any tasks released by the overflow."""
        heapq.heappush(self._heap, (-cost, self._seq, item))
        self._seq += 1
        released: list[object] = []
        while len(self._heap) > self.lookahead:
            released.append(heapq.heappop(self._heap)[2])
        return released

    def drain(self) -> list[object]:
        """Release every buffered task, costliest first."""
        released = [heapq.heappop(self._heap)[2] for _ in range(len(self._heap))]
        return released


class StealDeque:
    """Double-ended work queue for anchor-level splitting (parent side).

    The shared-memory executor drains this deque to keep its pool fed:
    whole blocks enter at the *cold* end in LPT order
    (:meth:`push_initial`), while subtasks spawned when a straggler
    block splits mid-run enter at the *hot* end (:meth:`push_spawned`)
    and are taken first.  That is the work-first half of classic work
    stealing: the splitter keeps one chunk and publishes the rest where
    idle workers grab them before any queued whole block — the freshly
    split work is by construction the batch's critical path.

    The deque lives in the parent (``multiprocessing`` queues cannot
    cross a ``ProcessPoolExecutor``'s pickling boundary); workers
    "steal" by completing their current task, which hands the parent a
    free slot to fill from the hot end.  All ordering is deterministic:
    spawned groups keep their given order, and successive spawns stack
    LIFO so the most recently split block's subtasks run first.
    """

    def __init__(self) -> None:
        self._items: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def push_initial(self, item: object) -> None:
        """Append one task at the cold end (drained last)."""
        self._items.append(item)

    def push_spawned(self, items: Iterable[object]) -> None:
        """Push a group of spawned subtasks at the hot end (drained next).

        The group keeps its internal order: after
        ``push_spawned([a, b])`` the next two :meth:`take` calls return
        ``a`` then ``b``.
        """
        self._items.extendleft(reversed(list(items)))

    def take(self) -> object:
        """Remove and return the hottest task.

        Raises
        ------
        SchedulingError
            When the deque is empty.
        """
        if not self._items:
            raise SchedulingError("take() from an empty StealDeque")
        return self._items.popleft()


class BatchAccumulator:
    """Group streamed small-block descriptors into same-shape buckets.

    The pipeline producer hands descriptors one at a time; this
    accumulator buffers the ones below the batch cutoff by padded shape
    and releases a full bucket's worth as soon as ``bucket_target``
    blocks of one shape have arrived (descriptors above the cutoff pass
    straight through).  ``drain()`` flushes the partially filled shapes
    when the level's decomposition finishes.  Grouping preserves arrival
    order within each shape, so dispatch stays deterministic.
    """

    def __init__(self, cutoff: int, bucket_target: int = 256) -> None:
        if cutoff < 0:
            raise SchedulingError("batch cutoff must be non-negative")
        if bucket_target < 1:
            raise SchedulingError("bucket target must be positive")
        self.cutoff = cutoff
        self.bucket_target = bucket_target
        self._pending: dict[int, list] = {}

    def push(self, descriptor, size: int, n_pad: int):
        """Buffer one descriptor; return a full shape group or ``None``.

        ``size`` is the block's node count and ``n_pad`` its padded
        shape key.  Returns ``None`` while the descriptor is either
        buffered or too large to batch; callers must treat a ``None``
        for an over-cutoff descriptor as "dispatch it individually"
        (signalled by :meth:`is_small` being false).
        """
        group = self._pending.setdefault(n_pad, [])
        group.append(descriptor)
        if len(group) >= self.bucket_target:
            del self._pending[n_pad]
            return group
        return None

    def is_small(self, size: int) -> bool:
        """Whether a block of ``size`` nodes belongs in a bucket."""
        return size <= self.cutoff

    def drain(self) -> "list[list]":
        """Release every partially filled shape group, smallest first."""
        groups = [group for _, group in sorted(self._pending.items())]
        self._pending.clear()
        return groups

    def __len__(self) -> int:
        return sum(len(group) for group in self._pending.values())


class ChunkAccumulator:
    """Group one level's dispatch stream into pool tasks of growing size.

    Items arrive in dispatch order (LPT, or the streaming buffer's
    release order).  The current chunk closes once it holds
    ``max(1, dispatched // (4 * workers))`` items, ``dispatched``
    counting every item pushed in this level so far: the first and
    costliest items go out alone, which keeps the load balanced, and the
    cheap tail travels in ever larger chunks, which amortizes the pool's
    per-task hand-off.  :meth:`drain` releases the partial chunk and
    starts a new level, so a chunk never mixes levels.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise SchedulingError("workers must be positive")
        self._divisor = 4 * workers
        self._dispatched = 0
        self._chunk: list = []

    def push(self, item) -> "list | None":
        """Add one item; return the chunk it closes, or ``None``."""
        self._chunk.append(item)
        self._dispatched += 1
        if len(self._chunk) >= max(1, self._dispatched // self._divisor):
            chunk, self._chunk = self._chunk, []
            return chunk
        return None

    def drain(self) -> list:
        """Release the partial chunk (maybe empty) and reset the level."""
        chunk, self._chunk = self._chunk, []
        self._dispatched = 0
        return chunk


SCHEDULERS = {
    "lpt": schedule_lpt,
    "round_robin": schedule_round_robin,
    "hash": schedule_hash,
}


def _check_unique_ids(tasks: list[Task]) -> None:
    """Raise :class:`SchedulingError` when task ids collide."""
    seen: set[int] = set()
    for task in tasks:
        if task.task_id in seen:
            raise SchedulingError(f"duplicate task id {task.task_id}")
        seen.add(task.task_id)
