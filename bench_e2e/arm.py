"""One arm of the benchmark, served from a process of its own.

``run.py`` starts one of these per arm::

    python3 bench_e2e/arm.py ARM GRAPH_FILE M WORKERS TRACE_DIR

The process reads the triple file, then answers one JSON command per stdin
line with one JSON reply per line on its original stdout; whatever the
program itself prints goes to stderr.  Commands:

* ``{"op": "run", "trace": bool, "spill": path|null, "corrupt": bool}`` —
  run the arm once on the graph read at start-up.  The timed region covers
  building the executor (so pool start-up is paid, as users pay it) and the
  call; the clique-set digest is taken after it.  ``corrupt`` drops one
  clique before the digest: the smoke test's deliberately wrong answer.
* ``{"op": "exit"}`` (or end of input).

Because every arm owns its process, peak RSS and warm state belong to that
arm alone.  Before each run the process resets its peak-RSS mark (Linux
``/proc/self/clear_refs``), so ``VmHWM`` in ``/proc/self/status`` afterwards
is that run's peak.  ``ru_maxrss`` would not do: it also keeps the peak of
the process image before ``exec``, a copy of ``run.py`` holding the graph
and the networkx reference, which ``clear_refs`` does not reset.
``RUSAGE_CHILDREN`` gives the largest peak of any pool worker so far.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import resource
import sys
import time
import traceback

from spans import Tracer, ledger_of

ARMS: tuple[str, ...] = ("serial", "barrier", "pipeline", "exact", "durable", "resume")
EXECUTOR_ARMS: frozenset[str] = frozenset({"barrier", "pipeline", "durable", "resume"})


def clique_digest(cliques) -> str:
    """SHA-256 of a clique set, independent of clique and member order."""
    rows = sorted(tuple(sorted(clique)) for clique in cliques)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _reset_peak_rss() -> None:
    """Lower this process's peak-RSS mark to its current RSS (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then also covers earlier runs of this arm


def _peak_rss_kb() -> int:
    """This process's peak RSS since the last :func:`_reset_peak_rss`, in KiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_arm(arm: str, graph, m: int, workers: int, spill: str | None, collect: bool):
    """Run one arm; returns the program's result object."""
    from repro.baselines import exact
    from repro.core import driver
    from repro.distributed.executor import SharedMemoryExecutor

    if arm == "exact":
        return exact.exact_mce(graph)
    options: dict = {"collect_reports": collect}
    if arm in EXECUTOR_ARMS:
        options["executor"] = SharedMemoryExecutor(max_workers=workers)
        options["pipeline"] = arm != "barrier"
    if arm in ("durable", "resume"):
        options["spill_dir"] = spill
        options["resume"] = arm == "resume"
    return driver.find_max_cliques(graph, m, **options)


def _executor_totals(reports: list) -> dict[str, float]:
    """Busy time and IPC bytes of the blocks the pool analysed (no replays)."""
    analysed = [r for level in reports for r in level if not r.extra.get("replayed")]
    return {
        "executor_busy_s": sum(r.seconds for r in analysed),
        "executor_dispatch_bytes": sum(r.extra.get("dispatch_bytes", 0.0) for r in analysed),
        "executor_result_bytes": float(sum(len(pickle.dumps(r)) for r in analysed)),
    }


class ArmServer:
    def __init__(self, arm: str, graph_file: str, m: int, workers: int, trace_dir: str):
        # Imported here, so that no timed run pays for the imports.
        import repro.baselines.exact  # noqa: F401
        import repro.core.driver  # noqa: F401
        import repro.distributed.executor  # noqa: F401
        from repro.graph.io import read_triples

        self.arm = arm
        self.m = m
        self.workers = workers
        self.tracer = Tracer(trace_dir)
        self.graph = read_triples(graph_file)

    def run(self, trace: bool, spill: str | None, corrupt: bool) -> dict:
        gc.collect()  # no run pays for the previous run's garbage
        _reset_peak_rss()
        if trace:
            self.tracer.install()
        try:
            start = time.perf_counter()
            result = run_arm(self.arm, self.graph, self.m, self.workers, spill, trace)
            seconds = time.perf_counter() - start
        finally:
            if trace:
                self.tracer.uninstall()
        rss_kb = _peak_rss_kb()
        cliques = list(result.cliques)
        if corrupt:
            cliques = cliques[1:]
        reply = {
            "seconds": seconds,
            "digest": clique_digest(cliques),
            "cliques": len(cliques),
            "rss_kb": rss_kb,
            "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        run_info = getattr(result, "run_info", None)
        if run_info is not None:
            reply["blocks_replayed"] = run_info["blocks_replayed"]
        if trace:
            ledger = ledger_of(self.tracer.take(), self.tracer.worker_spans())
            if self.arm in EXECUTOR_ARMS:
                for key, value in _executor_totals(result.block_reports).items():
                    ledger.add("counts", key, value)
            reply["ledger"] = ledger.to_json()
        return reply


def main(argv: list[str]) -> int:
    arm, graph_file, m, workers, trace_dir = argv
    # Replies go to the original stdout; the program's own prints to stderr.
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    server = ArmServer(arm, graph_file, int(m), int(workers), trace_dir)
    replies.write(json.dumps({"ready": True}) + "\n")
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "exit":
            break
        try:
            reply = server.run(command["trace"], command["spill"], command["corrupt"])
        except Exception as exc:  # reported as a failed run, not a crash
            traceback.print_exc()
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        replies.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
