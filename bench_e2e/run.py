"""End-to-end maximal-clique benchmark with a per-layer ledger.

Usage (from the root of a checkout)::

    python3 bench_e2e/run.py --workload social-md0.5 --seed 1 --seconds 30 --trace 0

Set-up (not timed): build the workload's graph for ``--seed``, write it as a
triple file, hash the reference clique set from networkx ``find_cliques``,
and start one process per arm (see ``arm.py``), which reads the file.  Then
the arms run in rounds — serial, barrier, pipeline, exact, durable, resume —
until ``--seconds`` are spent; between rounds this process times reading the
file into a ``Graph`` (``setup_s``, the user's ingest step).
Every timing is scaled to a reference machine speed by a calibration kernel
timed before each batch of runs throughout the run (see ``speed.py``), so the
host's speed drifting from one run to the next does not show.
Every run's clique-set digest must equal the reference; a run that raises,
times out or differs counts as failed, and any failure makes the exit code
non-zero.

``--trace 0`` reports the end-to-end metrics (medians, scaled).
``--trace 1`` alternates an untraced and a traced run of every arm and
reports the per-layer metrics of the traced runs plus the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See README.md for the metric glossary and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_e2e"
# Every run ends well inside the 180 s a run may take, even if an arm hangs.
HARD_LIMIT_S = 165.0
GRAPH_FILE = "graph.triples"
# Parallel arms use one worker per CPU this process may run on.
WORKERS = len(os.sched_getaffinity(0))
# setup_s samples: each times enough back-to-back reads of the file to take
# about INGEST_SAMPLE_S, and reports the time of one read.
INGESTS_FIRST = 5
INGESTS_PER_ROUND = 2
INGEST_SAMPLE_S = 0.1
ARM_SECONDS_PER_ROUND = 0.2
MAX_REPEATS = 32

END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "serial_s": "s",
    "barrier_s": "s",
    "pipeline_s": "s",
    "exact_s": "s",
    "durable_s": "s",
    "resume_s": "s",
    "serial_rss_mb": "MB",
    "barrier_rss_mb": "MB",
    "pipeline_rss_mb": "MB",
    "worker_rss_mb": "MB",
}

# ROADMAP item 3's gates: (name, numerator, denominator, allowed ratio).
ROADMAP_CHECKS = (
    ("pipeline_s <= serial_s", "pipeline_s", "serial_s", 1.0),
    ("barrier_s <= serial_s", "barrier_s", "serial_s", 1.0),
    ("serial_s <= 2 * exact_s", "serial_s", "exact_s", 2.0),
)

# The traced run's design checks: (workload, arm, statement, test(layer, arm wall)).
CONTRASTS = (
    ("social-md0.5", "pipeline",
     "graph.csr.extract_s + decision.features_s + mce.order_s > mce.expand_s",
     lambda L, wall: L["graph.csr.extract_s"] + L["decision.features_s"]
     + L["mce.order_s"] > L["mce.expand_s"]),
    ("dense-communities", "pipeline",
     "mce.expand_s >= 0.9 * core.block_analysis.csr_s",
     lambda L, wall: L["mce.expand_s"] >= 0.9 * L["core.block_analysis.csr_s"]),
    ("social-deep", "serial", "core.filtering.merge_s >= 0.1 * serial_s",
     lambda L, wall: L["core.filtering.merge_s"] >= 0.1 * wall),
    ("social-deep", "serial", "core.blocks.dict_s >= 0.1 * serial_s",
     lambda L, wall: L["core.blocks.dict_s"] >= 0.1 * wall),
    ("social-deep", "durable", "runs.record_s > 0",
     lambda L, wall: L["runs.record_s"] > 0),
)


class ServerProcess:
    """A running JSON-lines server (``arm.py``, ``speed.py``) in its own process group."""

    def __init__(self, argv: list[str], deadline: float) -> None:
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.process.stdout, selectors.EVENT_READ)
        self.alive = True
        self.ready: dict | None = None

    def wait_ready(self) -> None:
        """Wait for the server to have started (an arm: to have read the graph)."""
        self.ready = self.reply()

    def reply(self) -> dict | None:
        """The next reply line, or None (and the process killed) on timeout."""
        remaining = self.deadline - time.monotonic()
        if remaining > 0 and self.selector.select(timeout=remaining):
            line = self.process.stdout.readline()
            if line:
                return json.loads(line)
        self.kill()
        return None

    def send(self, command: dict) -> bool:
        if not self.alive:
            return False
        try:
            self.process.stdin.write((json.dumps(command) + "\n").encode())
            self.process.stdin.flush()
        except BrokenPipeError:
            self.kill()
            return False
        return True

    def request(self, command: dict) -> dict | None:
        return self.reply() if self.send(command) else None

    def kill(self) -> None:
        self.alive = False
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()

    def close(self) -> None:
        """Ask the server to exit, wait for it, and sweep its process group."""
        if self.alive:
            try:
                self.process.stdin.write(b'{"op": "exit"}\n')
                self.process.stdin.flush()
                self.process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except (BrokenPipeError, subprocess.TimeoutExpired):
                pass
        self.kill()
        self.selector.close()
        self.process.stdin.close()
        self.process.stdout.close()


def processes_of(name: str) -> int:
    """CPUs an arm (or ``setup``) keeps busy: the pool's for a parallel arm."""
    return WORKERS if name in ("barrier", "pipeline", "durable") else 1


def start_arm(name: str, graph_file: Path, m: int, run_dir: Path,
              deadline: float) -> ServerProcess:
    trace_dir = run_dir / f"trace-{name}"
    trace_dir.mkdir()
    return ServerProcess([str(HERE / "arm.py"), name, str(graph_file), str(m),
                          str(WORKERS), str(trace_dir)], deadline)


class Session:
    """All arm processes of one benchmark run, and what their runs returned.

    ``clocks`` are ``WORKERS`` calibration servers (``speed.py``).  Each
    batch of a single-process arm (serial, exact, resume) and of ``setup_s``
    reads is preceded by a kernel run on one clock; each batch of a parallel
    arm by a kernel run on every clock at once, so its scale reflects the
    speed of all the CPUs it keeps busy.  The kernel samples thus cover the
    run as the arm samples do, and the median of each kind gives the run's
    scale for the arms of that kind.
    """

    def __init__(self, arms: dict[str, ServerProcess], clocks: list[ServerProcess],
                 reference: str, run_dir: Path, corrupt_arm: str | None) -> None:
        self.arms = arms
        self.clocks = clocks
        self.reference = reference
        self.run_dir = run_dir
        self.corrupt_arm = corrupt_arm
        # Wall times as measured; kernel times by the number of clocks run at once.
        self.times: dict[tuple[str, bool], list[float]] = {}
        self.kernels: dict[int, list[float]] = {}
        self.ledgers: dict[str, list] = {}
        self.rss_kb: dict[str, list[int]] = {}
        self.last: dict[str, dict] = {}
        self.graph_file = run_dir / GRAPH_FILE
        self.ingest: list[float] = []
        self.reads_per_ingest = 0
        self.failures = [f"{name}: did not start" for name, arm in arms.items()
                         if not arm.ready]
        self.attempted = len(self.failures)
        self.spill: Path | None = None
        self.spill_count = 0

    def run_once(self, name: str, traced: bool) -> float | None:
        """One run of one arm; returns its wall time, or None if it failed."""
        arm = self.arms[name]
        spill = None
        if name == "durable":
            spill = self.run_dir / f"spill-{self.spill_count}"
            self.spill_count += 1
        elif name == "resume":
            spill = self.spill
        if not arm.alive or (name == "resume" and spill is None):
            return None
        self.attempted += 1
        reply = arm.request({
            "op": "run",
            "trace": traced,
            "spill": str(spill) if spill is not None else None,
            "corrupt": name == self.corrupt_arm,
        })
        if reply is None:
            self.failures.append(f"{name}: no reply before the time limit")
            return None
        if "error" in reply:
            self.failures.append(f"{name}: {reply['error']}")
            return None
        if reply["digest"] != self.reference:
            self.failures.append(
                f"{name}: clique set differs from the reference "
                f"({reply['cliques']} cliques, sha256 {reply['digest'][:12]})"
            )
            return None
        self.times.setdefault((name, traced), []).append(reply["seconds"])
        if traced:
            self.ledgers.setdefault(name, []).append(reply["ledger"])
        else:
            self.rss_kb.setdefault(name, []).append(reply["rss_kb"])
        self.last[name] = reply
        if name == "durable":
            # Resume runs replay the newest finished spill directory.
            if self.spill is not None:
                shutil.rmtree(self.spill, ignore_errors=True)
            self.spill = spill
        return reply["seconds"]

    def calibrate(self, processes: int) -> None:
        """Time one kernel run on ``processes`` clocks at once (their mean)."""
        clocks = self.clocks[:processes]
        sent = [clock.send({"op": "kernel"}) for clock in clocks]
        replies = [clock.reply() if ok else None for clock, ok in zip(clocks, sent)]
        if not all(replies):
            # The harness, not the program, broke: no result at all.
            raise RuntimeError("a calibration kernel server stopped")
        self.kernels.setdefault(processes, []).append(
            statistics.mean(reply["seconds"] for reply in replies))

    def scale(self, name: str) -> float:
        """The run's factor from wall time to reference speed for arm ``name``."""
        kernels = self.kernels[processes_of(name)]
        return speed.REFERENCE_S / statistics.median(kernels)

    def run_batch(self, name: str, repeats: int, modes: tuple[bool, ...]) -> None:
        """``repeats`` runs of one arm, after a calibration."""
        self.calibrate(processes_of(name))
        for _ in range(repeats):
            for traced in modes:
                self.run_once(name, traced)

    def measure(self, seconds: float, trace: bool) -> int:
        """Run rounds of every arm until ``seconds`` are spent; returns rounds.

        The first round runs every arm once.  From then on an arm faster
        than ``ARM_SECONDS_PER_ROUND`` runs several times per round, so the
        quick arms' medians rest on more than a few short samples.  After
        the first round, the rounds stop at the first batch that would not
        fit in ``seconds`` any more, so the last round may be partial.
        """
        modes = (False, True) if trace else (False,)
        start = time.monotonic()
        longest: dict[str, float] = {}
        rounds = 0
        repeats = dict.fromkeys(self.arms, 1)
        self.time_ingest(INGESTS_FIRST)
        while True:
            for name in self.arms:
                if rounds and time.monotonic() - start + longest[name] > seconds:
                    return rounds
                batch_start = time.monotonic()
                self.run_batch(name, repeats[name], modes)
                longest[name] = max(longest.get(name, 0.0), time.monotonic() - batch_start)
                elapsed = self.times.get((name, False))
                if rounds == 0 and elapsed:
                    repeats[name] = max(1, min(
                        MAX_REPEATS, round(ARM_SECONDS_PER_ROUND / elapsed[0])))
            self.time_ingest(INGESTS_PER_ROUND)
            rounds += 1

    def time_ingest(self, times: int) -> None:
        """Take ``times`` samples of ``setup_s`` (seconds per read)."""
        from repro.graph.io import read_triples

        if not self.reads_per_ingest:
            start = time.perf_counter()
            read_triples(self.graph_file)
            once = time.perf_counter() - start
            self.reads_per_ingest = max(1, min(64, round(INGEST_SAMPLE_S / once)))
        self.calibrate(1)
        for _ in range(times):
            start = time.perf_counter()
            for _ in range(self.reads_per_ingest):
                read_triples(self.graph_file)
            self.ingest.append((time.perf_counter() - start) / self.reads_per_ingest)

    def median(self, name: str, traced: bool = False) -> float | None:
        """Median of the arm's wall times, scaled to reference speed."""
        values = self.times.get((name, traced))
        return statistics.median(values) * self.scale(name) if values else None

    def wall_median(self, name: str, traced: bool = False) -> float | None:
        """Median of the arm's wall times as measured."""
        values = self.times.get((name, traced))
        return statistics.median(values) if values else None

    def samples(self, name: str, traced: bool = False) -> int:
        return len(self.times.get((name, traced), []))


def end_to_end_metrics(session: Session) -> dict[str, float]:
    metrics: dict[str, float] = {}
    if session.ingest:
        metrics["setup_s"] = statistics.median(session.ingest) * session.scale("setup")
    for name in session.arms:
        value = session.median(name)
        if value is not None:
            metrics[f"{name}_s"] = value
    for name in ("serial", "barrier", "pipeline"):
        if session.rss_kb.get(name):
            metrics[f"{name}_rss_mb"] = statistics.median(session.rss_kb[name]) / 1024
    workers = [reply["children_rss_kb"] for name, reply in session.last.items()
               if name not in ("serial", "exact")]
    if workers:
        metrics["worker_rss_mb"] = max(workers) / 1024
    return metrics


def print_end_to_end(session: Session, metrics: dict[str, float]) -> None:
    for processes, kernels in sorted(session.kernels.items()):
        print(f"  calibration kernel on {processes} CPU(s) at once: median "
              f"{statistics.median(kernels) * 1e3:.2f} ms of {len(kernels)} "
              f"(reference {speed.REFERENCE_S * 1e3:.1f} ms): timings scaled by "
              f"{speed.REFERENCE_S / statistics.median(kernels):.4f}")
    for name, unit in END_TO_END_UNITS.items():
        if name.endswith("_s"):
            arm = name.removesuffix("_s")
            wall = (session.ingest if name == "setup_s"
                    else session.times.get((arm, False), []))
            how = (f"wall median {statistics.median(wall):.4f} of {len(wall)}, "
                   f"range {min(wall):.4f}-{max(wall):.4f}" if wall else "no samples")
        else:
            how = "median peak" if name != "worker_rss_mb" else "highest peak"
        shown = f"{metrics[name]:.4f}" if name in metrics else "missing"
        print(f"  {name:<16} {shown:>10} {unit:<3} ({how})")
    for label, top, bottom, allowed in ROADMAP_CHECKS:
        if top not in metrics or bottom not in metrics:
            print(f"  check {label}: not measured")
            continue
        ratio = metrics[top] / metrics[bottom]
        verdict = "pass" if ratio <= allowed else "TRACKED FAILURE (ROADMAP item 3)"
        print(f"  check {label}: ratio {ratio:.3f} ({top} {metrics[top]:.4f} s, "
              f"{bottom} {metrics[bottom]:.4f} s) -> {verdict}")


def layer_report(session: Session, workload: str,
                 workers: int) -> tuple[dict[str, float], list[str]]:
    """Print and return the per-layer metrics, and the layers that fell silent.

    Every layer records spans on every workload.  A layer none of whose
    wrapped targets recorded a span over all traced arms means the wraps no
    longer sit where the program looks the functions up (a rename, a direct
    import), so its metrics would read 0 for the wrong reason.  A single
    silent target is only noted: targets of one layer are alternatives (the
    decision tree picks the packed or the native expansion, for instance).
    """
    from spans import LAYER_UNITS, Ledger, layer_metrics, silent_layers, silent_targets

    total = Ledger()
    per_arm: dict[str, dict[str, float]] = {}
    traced_sum = untraced_sum = 0.0
    print("  tracing overhead per arm (median traced - median untraced wall):")
    for name in session.arms:
        ledgers = session.ledgers.get(name)
        plain, traced = session.median(name), session.median(name, True)
        if not ledgers or plain is None or traced is None:
            continue
        arm_ledger = Ledger()
        for data in ledgers:
            arm_ledger.merge(Ledger.from_json(data))
        arm_ledger = arm_ledger.scaled(1.0 / len(ledgers))
        total.merge(arm_ledger)
        per_arm[name] = layer_metrics(arm_ledger, workers, traced / plain - 1.0)
        traced_sum += traced
        untraced_sum += plain
        print(f"    {name:<9} {traced - plain:+.4f} s ({traced / plain - 1.0:+.1%} of "
              f"{plain:.4f} s, {session.samples(name, True)} pairs)")
    overhead = traced_sum / untraced_sum - 1.0 if untraced_sum else 0.0
    metrics = layer_metrics(total, workers, overhead)
    for name, unit in LAYER_UNITS.items():
        print(f"  {name:<38} {metrics[name]:>14.6g} {unit}")
    for label in silent_targets(total):
        print(f"  note: wrapped target {label} recorded no span")
    silent = silent_layers(total)
    for name in silent:
        print(f"  FAILED layer {name}: none of its wrapped targets recorded a span")
    for target, arm, statement, test in CONTRASTS:
        if target != workload:
            continue
        if arm not in per_arm:
            print(f"  contrast [{arm}] {statement}: not measured")
            continue
        holds = test(per_arm[arm], session.wall_median(arm))
        print(f"  contrast [{arm} arm] {statement}: "
              f"{'holds' if holds else 'DOES NOT HOLD - revise the workload'}")
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"ledger-{workload}.json", "w") as handle:
        json.dump({"total": metrics, "per_arm": per_arm}, handle, indent=1, sort_keys=True)
    return metrics, silent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="node relabelling and edge order of the input file")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the rounds of arm runs go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="graph size as a fraction of the workload's design "
                        "size (default: the workload's benchmark size)")
    parser.add_argument("--structure-seed", type=int, default=None,
                        help="generator seed of the graph structure "
                        "(default: the workload's own)")
    parser.add_argument("--corrupt-arm", default=None,
                        help="drop one clique from this arm's results before "
                        "they are checked (tests the correctness gate)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench_e2e: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)

    from arm import ARMS, clique_digest
    from repro.baselines.networkx_mce import networkx_cliques
    from repro.graph.io import write_triples
    from spans import LAYER_UNITS
    from workloads import WORKLOADS, instance

    graph, m = instance(args.workload, args.seed, args.scale, args.structure_seed)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    arms: dict[str, ServerProcess] = {}
    clocks: list[ServerProcess] = []
    try:
        graph_file = run_dir / GRAPH_FILE
        write_triples(graph, graph_file)
        reference_cliques = networkx_cliques(graph)
        reference = clique_digest(reference_cliques)
        workload = WORKLOADS[args.workload]
        print(f"workload {args.workload} seed {args.seed}: {workload.why}")
        print(f"  {graph.num_nodes} nodes, {graph.num_edges} edges, m={m} "
              f"({workload.rule}), {len(reference_cliques)} maximal cliques "
              f"(networkx sha256 {reference[:12]}), {WORKERS} workers")
        del graph, reference_cliques
        deadline = started + HARD_LIMIT_S
        for name in ARMS:
            arms[name] = start_arm(name, graph_file, m, run_dir, deadline)
        clocks = [ServerProcess([str(HERE / "speed.py")], deadline)
                  for _ in range(WORKERS)]
        for server in [*arms.values(), *clocks]:
            server.wait_ready()
        if not all(clock.ready for clock in clocks):
            raise RuntimeError("a calibration kernel server did not start")
        session = Session(arms, clocks, reference, run_dir, args.corrupt_arm)
        rounds = session.measure(args.seconds, bool(args.trace))
    finally:
        for server in [*arms.values(), *clocks]:
            server.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"  {rounds} rounds in {time.monotonic() - started:.1f} s")
    silent: list[str] = []
    if args.trace:
        metrics, silent = layer_report(session, args.workload, WORKERS)
        units = LAYER_UNITS
    else:
        metrics = end_to_end_metrics(session)
        print_end_to_end(session, metrics)
        units = END_TO_END_UNITS
    failed = len(session.failures)
    for failure in session.failures:
        print(f"  FAILED {failure}")
    print(f"  failed_ratio {failed / max(1, session.attempted):.4f} "
          f"({failed} of {session.attempted} arm runs)")
    correct = failed == 0 and not silent and all(name in metrics for name in units)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
