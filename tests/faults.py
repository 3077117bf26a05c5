"""Reusable fault-injection harness for crash-resume testing.

The crash tests all follow one shape:

1. run a *durable* enumeration (``spill_dir=...``) in a forked child
   process with ``REPRO_FAULT_INJECT`` aimed at a parameterized kill
   point — a worker SIGKILLed mid-block, or the parent SIGKILLed
   around the spill boundary (before the flush, halfway through the
   segment write, or after the segment append);
2. observe the child die (the whole point);
3. resume the run in-process with ``resume=True`` and assert the final
   cliques are identical to an uninterrupted golden run — and that no
   block was both replayed and re-analysed.

This module provides the kill-point registry, the child runner and the
resume/compare helpers; the actual matrix lives in
``test_runs_crash_matrix.py``.  The child is forked (not spawned) so it
inherits the graph without re-importing the test session; it sets the
fault hook in its own environment only, so the pytest process is never
at risk of injecting faults into itself.

When ``REPRO_FAULT_ARTIFACT_DIR`` is set (the CI smoke job sets it), a
failed comparison copies the run manifest and a directory listing there
before re-raising, so the uploaded artifact shows the run's fingerprint,
partition digests and segment sizes.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path

from differential import Canonical, canonical_cliques
from repro.core.driver import find_max_cliques
from repro.core.result import CliqueResult
from repro.distributed.executor import SharedMemoryExecutor
from repro.errors import ReproError
from repro.graph.adjacency import Graph
from repro.graph.csr import SHARED_SEGMENT_PREFIX
from repro.graph.generators import erdos_renyi, social_network
from repro.graph.views import relabel
from repro.runs.segments import FAULT_INJECT_ENV

ARTIFACT_ENV = "REPRO_FAULT_ARTIFACT_DIR"

# The durable driver configurations under crash test.  Retry is always
# disabled in the crash child so a killed worker fails the whole run
# (with retry on, the in-parent retry would absorb the fault and the
# run would finish — good for users, useless for a crash test).
CRASH_MODES: tuple[str, ...] = (
    "serial",
    "shared",
    "shared-pipeline",
    "shared-pipeline-split",
)


@dataclass(frozen=True)
class KillPoint:
    """One parameterized place to kill a durable run.

    ``spec`` is the ``REPRO_FAULT_INJECT`` value; ``parent`` says which
    process dies (the enumeration parent at a spill boundary, or a pool
    worker mid-block).  Worker points only apply to modes that have
    workers.
    """

    name: str
    spec: str
    parent: bool

    def applies_to(self, mode: str) -> bool:
        return self.parent or mode != "serial"


# Level-0 block 5 exists in every crash graph below (they all cut 20+
# first-level blocks); the deep point targets level 1 to prove the
# (level, block_id) keying — killing at 1.3 means every level-0 block
# is already durable.
KILL_POINTS: tuple[KillPoint, ...] = (
    KillPoint("pre-flush", "kill:spill-pre:0.5", parent=True),
    KillPoint("mid-segment-write", "kill:spill-mid:0.5", parent=True),
    KillPoint("post-segment-append", "kill:spill-post:0.5", parent=True),
    KillPoint("deep-level-pre-flush", "kill:spill-pre:1.3", parent=True),
    KillPoint("worker-killed", "kill:5", parent=False),
)

# The fast subset exercised on every CI run (and by the non-slow test):
# one torn-segment parent death and one worker death.
SMOKE_KILL_POINTS: tuple[KillPoint, ...] = (
    KILL_POINTS[1],
    KILL_POINTS[4],
)


def crash_graph() -> Graph:
    """The deterministic multi-level graph the crash matrix runs on."""
    # 3 recursion levels, 30/26/1 blocks — enough blocks before and
    # after every kill point, small enough to enumerate in milliseconds.
    return erdos_renyi(60, 0.2, seed=3)


CRASH_M = 12


def string_graph() -> Graph:
    """A string-labelled graph whose barrier (dict) decomposition differs
    between ``PYTHONHASHSEED=0`` and ``=1`` already at level 0."""
    graph = social_network(300, seed=5)
    return relabel(graph, {node: f"n{node}" for node in graph.nodes()})


STRING_M = 20


def golden_cliques(graph: Graph, m: int = CRASH_M) -> Canonical:
    """Canonical cliques of an uninterrupted in-memory serial run."""
    return canonical_cliques(find_max_cliques(graph, m).cliques)


def build_executor(
    mode: str, retry_failed: bool = True
) -> SharedMemoryExecutor | None:
    """The executor a crash mode runs on (None = the serial in-process path)."""
    if mode == "serial":
        return None
    kwargs = dict(max_workers=2, retry_failed=retry_failed)
    if mode.endswith("-split"):
        kwargs.update(split=True, split_threshold=0.0, split_subtasks=3)
    return SharedMemoryExecutor(**kwargs)


def run_durable(
    mode: str,
    graph: Graph,
    m: int,
    spill_dir: str | Path,
    resume: bool = False,
    retry_failed: bool = True,
    executor: SharedMemoryExecutor | None = None,
) -> CliqueResult:
    """One durable enumeration in the named mode, in this process."""
    if executor is None:
        executor = build_executor(mode, retry_failed=retry_failed)
    return find_max_cliques(
        graph,
        m,
        executor=executor,
        pipeline="pipeline" in mode,
        spill_dir=spill_dir,
        resume=resume,
    )


def _crash_child(
    mode: str, graph: Graph, m: int, spill_dir: str, spec: str, resume: bool
) -> None:  # pragma: no cover - runs (and dies) in a forked child
    # Lead a fresh process group so the harness can sweep the pool
    # workers this child forks: after the injected SIGKILL they would
    # otherwise linger as orphans (and hold the child's sentinel pipe
    # open, which would make Process.join block forever).
    try:
        os.setpgrp()
    except OSError:
        pass
    os.environ[FAULT_INJECT_ENV] = spec
    try:
        run_durable(mode, graph, m, spill_dir, resume=resume, retry_failed=False)
    except ReproError:
        # A killed worker without retry surfaces as ExecutorError in the
        # parent: the run "crashed" by failing rather than by dying.
        os._exit(3)
    except BaseException:
        os._exit(4)
    os._exit(0)


def run_crashing(
    mode: str,
    kill: KillPoint,
    graph: Graph,
    m: int,
    spill_dir: str | Path,
    resume: bool = False,
) -> int:
    """Run a durable enumeration to its injected death; return exitcode.

    Exit conventions: negative = died by signal (parent kill points
    SIGKILL themselves, so ``-9``), ``3`` = the run failed with a
    :class:`~repro.errors.ReproError` (a killed worker with retry
    disabled), ``0`` = the fault never fired (the caller should treat
    that as a broken test).
    """
    segments_before = _shared_segments()
    # Make sure the resource tracker the child will inherit is *ours*:
    # its shm registrations then land in this process's tracker, which
    # lets the cleanup below unregister them instead of leaving stale
    # "leaked object" warnings for the interpreter-shutdown sweep.
    resource_tracker.ensure_running()
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_crash_child,
        args=(mode, graph, m, str(spill_dir), kill.spec, resume),
    )
    child.start()
    # Poll with waitpid (is_alive) instead of join: the child's pool
    # workers inherit its sentinel pipe, so after the injected SIGKILL
    # the sentinel stays open in the orphans and join would block until
    # they die.  waitpid sees the zombie immediately.
    deadline = time.monotonic() + 120
    while child.is_alive() and time.monotonic() < deadline:
        time.sleep(0.02)
    hung = child.is_alive()
    if hung:  # pragma: no cover - hung child
        child.kill()
    _sweep_orphans(child.pid)
    child.join()
    # A SIGKILLed run cannot unlink its published CSR segments, so reap
    # anything the dead run left in /dev/shm ourselves — the other
    # suites assert no segments leak, and they mean it.
    for name in _shared_segments() - segments_before:
        try:
            os.unlink(f"/dev/shm/{name}")
        except OSError:  # pragma: no cover - raced with the tracker
            pass
        try:
            resource_tracker.unregister(f"/{name}", "shared_memory")
        except Exception:  # pragma: no cover - tracker already gone
            pass
    if hung:  # pragma: no cover - hung child
        raise AssertionError(f"crash child hung ({mode}, {kill.name})")
    return child.exitcode


def _shared_segments() -> set[str]:
    """Names of our shared-memory segments currently registered in /dev/shm."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-POSIX platform
        return set()
    return {
        entry.name
        for entry in shm_dir.iterdir()
        if entry.name.startswith(SHARED_SEGMENT_PREFIX)
    }


def _sweep_orphans(pgid: int) -> None:
    """SIGKILL the crash child's process group (orphaned pool workers).

    The child made itself a group leader, so its pid doubles as the
    group id; the injected SIGKILL only takes out the child itself, and
    its pool workers would otherwise linger for the rest of the test
    session.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def preserve_artifacts(spill_dir: str | Path, label: str) -> None:
    """Copy the run manifest (and a listing) to the CI artifact dir."""
    target = os.environ.get(ARTIFACT_ENV)
    if not target:
        return
    spill_dir = Path(spill_dir)
    out = Path(target) / label
    out.mkdir(parents=True, exist_ok=True)
    manifest = spill_dir / "manifest.json"
    if manifest.exists():
        shutil.copy(manifest, out / "manifest.json")
    listing = "\n".join(
        f"{entry.name}\t{entry.stat().st_size}"
        for entry in sorted(spill_dir.iterdir())
    )
    (out / "spill-listing.txt").write_text(listing + "\n")


def assert_crash_resume_identical(
    mode: str,
    kill: KillPoint,
    spill_dir: str | Path,
    graph: Graph | None = None,
    m: int = CRASH_M,
) -> CliqueResult:
    """The harness entry: crash once, resume, compare against golden.

    Asserts the injected fault actually fired, that the resumed cliques
    are identical to an uninterrupted run, that the resume replayed at
    least one durable block, and that no block was both replayed and
    re-analysed.  Returns the resumed result for extra assertions.
    """
    graph = graph if graph is not None else crash_graph()
    golden = golden_cliques(graph, m)
    exitcode = run_crashing(mode, kill, graph, m, spill_dir)
    assert exitcode != 0, (
        f"fault {kill.spec} never fired in mode {mode}: the kill point "
        "does not exist in this decomposition"
    )
    if kill.parent:
        assert exitcode == -9, f"parent kill exited {exitcode}, expected SIGKILL"
    else:
        assert exitcode == 3, f"worker kill exited {exitcode}, expected error exit"
    try:
        result = run_durable(mode, graph, m, spill_dir, resume=True)
        assert canonical_cliques(result.cliques) == golden, (
            f"resumed cliques differ from golden ({mode}, {kill.name})"
        )
        info = result.run_info
        assert info is not None and info["resumed"]
        if kill.parent and "pipeline" not in mode:
            # In barrier modes block 0.5 has a deterministic LPT rank,
            # so a parent killed at its spill boundary has by
            # construction spilled earlier blocks first.  The streaming
            # pipeline's bounded-lookahead dispatch can legitimately
            # finish block 5 first, and a killed *worker* may break the
            # pool before any block completes — zero durable progress
            # is possible in both, so only the barrier modes assert it.
            assert info["blocks_replayed"] > 0, (
                "nothing was replayed: the crashed run made no progress durable"
            )
        assert info["blocks_recorded"] > 0, (
            "nothing was re-analysed: the fault fired after the run finished"
        )
    except AssertionError:
        preserve_artifacts(spill_dir, f"{mode}-{kill.name}")
        raise
    return result


def assert_full_replay(
    mode: str,
    spill_dir: str | Path,
    graph: Graph | None = None,
    m: int = CRASH_M,
) -> CliqueResult:
    """Resume a *finished* run and assert zero blocks are re-analysed.

    This is the instrumentation-trace form of the acceptance criterion:
    every block of the resumed run must come back as a ``replayed=True``
    :class:`~repro.mce.instrumentation.BlockTiming`, and the run log
    must record nothing new.
    """
    graph = graph if graph is not None else crash_graph()
    executor = build_executor(mode)
    result = run_durable(
        mode, graph, m, spill_dir, resume=True, executor=executor
    )
    info = result.run_info
    assert info is not None and info["resumed"]
    assert info["blocks_recorded"] == 0, (
        f"resume re-analysed {info['blocks_recorded']} completed blocks"
    )
    assert info["blocks_replayed"] > 0
    if executor is not None and executor.last_trace is not None:
        trace = executor.last_trace
        assert trace.analyzed_blocks == [], (
            f"trace shows re-analysed blocks: {trace.analyzed_blocks}"
        )
        assert all(timing.replayed for timing in trace.timings)
        assert trace.flushes == []
    return result
