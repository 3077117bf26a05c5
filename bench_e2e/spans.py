"""Spans around the public calls of each layer, and the ledger built from them.

The benchmark's traced pass wraps the functions listed in :data:`TARGETS`
where the driver, the executor and the block analysis look them up (module
attributes and class attributes), so no file of the program changes.  Each
wrapped call records one span: layer name, start, end, CPU seconds, the
enclosing span, a few counters taken from its arguments or result, and the
target it came from, so a target that records nothing can be told apart
from a layer that costs nothing.

Spans stay in memory.  Pool workers are forked from the traced arm process,
inherit the wraps, start an empty span list of their own and write it to
``spans-<pid>.jsonl`` in the tracer's directory when they exit.  The arm
process adds its own spans and turns them all into a :class:`Ledger`.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

# Span name -> per-layer metric prefix.  ``*_s`` metrics are the spans' self
# time (duration minus enclosed spans), except the two block-analysis names
# and the executor, which report whole-call time (see README.md).
BLOCK_DICT = "core.block_analysis.dict"
BLOCK_CSR = "core.block_analysis.csr"
EXECUTOR = "distributed.executor"
DRIVER = "core.driver"
EXPAND = "mce.expand"
OPEN_PIPELINE = "distributed.executor.open"
POOL_SPANS = (EXECUTOR, OPEN_PIPELINE)


def _cut_counters(result, args, kwargs, before):
    feasible, hubs = result
    return {"hubs": len(hubs), "nodes": len(feasible) + len(hubs)}


def _blocks_counters(result, args, kwargs, before):
    return {
        "blocks": len(result),
        "members": sum(block.size for block in result),
        "kernel": sum(len(block.kernel) for block in result),
        "max_size": max((block.size for block in result), default=0),
    }


def _descriptor_counters(descriptor):
    return {
        "blocks": 1,
        "members": descriptor.size,
        "kernel": len(descriptor.kernel_ids),
        "max_size": descriptor.size,
    }


def _bitmap_counters(result, args, kwargs, before):
    return {"bytes": int(result.nbytes)}


def _sink_length(args, kwargs):
    sink = kwargs.get("sink", args[5] if len(args) > 5 else None)
    return len(sink) if sink is not None else 0


def _sink_counters(result, args, kwargs, before):
    return {"cliques": _sink_length(args, kwargs) - before}


def _list_counters(result, args, kwargs, before):
    return {"cliques": len(result)}


def _store_counters(result, args, kwargs, before):
    return {"bytes": int(result.nbytes)}


def _flush_counters(result, args, kwargs, before):
    return {"segment_bytes": int(result.segment_bytes)}


def _driver_counters(result, args, kwargs, before):
    return {
        "kept": result.num_cliques,
        "emitted": sum(level.cliques_found for level in result.levels),
    }


def _map_counters(result, args, kwargs, before):
    trace = args[0].last_trace
    return {"retried": len(trace.retried_blocks) if trace is not None else 0}


def _finish_counters(result, args, kwargs, before):
    trace = args[0].trace
    return {"retried": len(trace.retried_blocks) + len(trace.retried_subtasks)}


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner`` is a module path, or ``module:Class``."""

    owner: str
    attribute: str
    span: str
    kind: str = "call"  # call | generator | materialize
    counters: object = None
    before: object = None

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attribute}"


TARGETS: tuple[Target, ...] = (
    # The driver's view of the layers below it.
    Target("repro.core.driver", "find_max_cliques", DRIVER, counters=_driver_counters),
    Target("repro.core.driver", "cut", "core.feasibility.cut", counters=_cut_counters),
    Target("repro.core.driver", "cut_csr", "core.feasibility.cut", counters=_cut_counters),
    Target("repro.core.driver", "build_blocks", "core.blocks.dict", counters=_blocks_counters),
    Target("repro.core.driver", "blocks_csr", "core.blocks.csr", kind="generator",
           counters=_descriptor_counters),
    Target("repro.core.driver", "analyze_block", BLOCK_DICT),
    Target("repro.core.driver", "induced_csr", "graph.csr.convert"),
    Target("repro.core.driver", "contained_mask", "core.filtering.merge"),
    Target("repro.core.driver", "filter_contained", "core.filtering.merge"),
    Target("repro.core.driver", "select_combo", "decision.select"),
    Target("repro.graph.csr:CSRGraph", "__init__", "graph.csr.convert"),
    # The executor: parent-side calls, and the analysis its workers run.
    Target("repro.distributed.executor:SharedMemoryExecutor", "map_blocks", EXECUTOR,
           counters=_map_counters),
    Target("repro.distributed.executor:SharedMemoryExecutor", "open_pipeline",
           OPEN_PIPELINE),
    Target("repro.distributed.executor:PipelineSession", "publish_level", EXECUTOR),
    Target("repro.distributed.executor:PipelineSession", "submit", EXECUTOR),
    Target("repro.distributed.executor:PipelineSession", "end_level", EXECUTOR),
    Target("repro.distributed.executor:PipelineSession", "finish", EXECUTOR,
           counters=_finish_counters),
    Target("repro.distributed.executor:PipelineSession", "close", EXECUTOR),
    Target("repro.distributed.executor", "analyze_block_csr", BLOCK_CSR),
    Target("repro.distributed.executor", "analyze_block", BLOCK_DICT),
    # Inside one block.
    Target("repro.core.block_analysis", "extract_block_bitmap", "graph.csr.extract",
           counters=_bitmap_counters),
    Target("repro.core.block_analysis", "features_from_bitmap", "decision.features"),
    Target("repro.decision.features:BlockFeatures", "of", "decision.features"),
    Target("repro.core.block_analysis", "select_combo", "decision.select"),
    Target("repro.core.block_analysis", "degeneracy_order_packed", "mce.order"),
    Target("repro.core.block_analysis", "backend_from_bitmap", "mce.backend"),
    Target("repro.core.block_analysis", "build_backend", "mce.backend"),
    Target("repro.core.block_analysis", "enumerate_anchored_packed", EXPAND,
           counters=_sink_counters, before=_sink_length),
    Target("repro.core.block_analysis", "enumerate_anchored_native", EXPAND,
           kind="materialize", counters=_list_counters),
    Target("repro.mce.registry:Combo", "run", EXPAND, kind="materialize",
           counters=_list_counters),
    # The packed result plane.
    Target("repro.core.cliquestore:CliqueBuffer", "build", "core.cliquestore.build",
           counters=_store_counters),
    Target("repro.core.cliquestore:CliqueStore", "concat", "core.cliquestore.build"),
    Target("repro.core.cliquestore:CliqueStore", "select", "core.cliquestore.build"),
    Target("repro.core.cliquestore:GlobalCliqueIndex", "add", "core.cliquestore.build"),
    # Durable runs.
    Target("repro.runs.runlog:RunLog", "record", "runs.record", counters=_flush_counters),
    Target("repro.runs.runlog:RunLog", "replay_report", "runs.replay"),
    Target("repro.runs.runlog", "recover_segment", "runs.replay"),
    Target("repro.runs.runlog", "decode_block_record", "runs.replay"),
    # The whole-graph baseline (its enumeration is counted by Combo.run).
    Target("repro.baselines.exact", "exact_mce", "baselines.exact"),
)


class Tracer:
    """Installs the wraps and holds the spans of the current process.

    A span is ``(parent, name, start, end, cpu_seconds, counters, target)``,
    ``target`` being the wrapped :attr:`Target.label`; its index in
    :attr:`spans` is its id and ``parent`` is ``-1`` at the root.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.spans: list = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _enter(self) -> int:
        if os.getpid() != self._pid:
            self._adopt_child()
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _exit(self, sid, name, label, start, cpu_start, counters) -> None:
        end = time.perf_counter()
        cpu = time.process_time() - cpu_start
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (parent, name, start, end, cpu, counters, label)

    def _adopt_child(self) -> None:
        """First span in a forked worker: drop the parent's spans, flush at exit."""
        self._pid = os.getpid()
        self.spans = []
        self._stack = []
        multiprocessing.util.Finalize(None, self.write, exitpriority=100)

    def write(self) -> None:
        """Write this process's spans to ``spans-<pid>.jsonl``."""
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        with open(path, "w") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")

    def take(self) -> list:
        """Remove and return this process's spans (ids are list positions)."""
        spans, self.spans = self.spans, []
        return spans

    def worker_spans(self) -> list[list]:
        """Read and delete the span files the exited workers wrote."""
        processes = []
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            with open(path) as handle:
                processes.append([json.loads(line) for line in handle])
            path.unlink()
        return processes

    # -- wrapping --------------------------------------------------------
    def _wrap(self, target: Target, fn):
        name, counters, before = target.span, target.counters, target.before
        label = target.label
        tracer = self

        if target.kind == "generator":

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    sid = tracer._enter()
                    cpu_start, start = time.process_time(), time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        tracer._exit(sid, name, label, start, cpu_start, None)
                        return
                    except BaseException:
                        tracer._exit(sid, name, label, start, cpu_start, {"errors": 1})
                        raise
                    tracer._exit(sid, name, label, start, cpu_start, counters(item))
                    yield item

            return generator

        materialize = target.kind == "materialize"

        @functools.wraps(fn)
        def call(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            sid = tracer._enter()
            cpu_start, start = time.process_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            except BaseException:
                tracer._exit(sid, name, label, start, cpu_start, {"errors": 1})
                raise
            tracer._exit(sid, name, label, start, cpu_start, None)
            if counters is not None:
                *span, _, _ = tracer.spans[sid]
                tracer.spans[sid] = (*span, counters(result, args, kwargs, state), label)
            return result

        return call

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for target in TARGETS:
            module_name, _, class_name = target.owner.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[target.attribute]
            else:
                original = getattr(owner, target.attribute)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(target, original.__func__))
            else:
                wrapped = self._wrap(target, original)
            self._installed.append((owner, target.attribute, original))
            setattr(owner, target.attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []


@dataclass
class Ledger:
    """Additive per-layer sums of one or more traced arm runs."""

    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    maxima: dict[str, float] = field(default_factory=dict)

    def add(self, table: str, key: str, value: float) -> None:
        bucket = getattr(self, table)
        bucket[key] = bucket.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def merge(self, other: "Ledger") -> None:
        for table in ("self_s", "counts"):
            for key, value in getattr(other, table).items():
                self.add(table, key, value)
        for key, value in other.maxima.items():
            self.peak(key, value)

    def scaled(self, factor: float) -> "Ledger":
        """This ledger with every sum multiplied by ``factor`` (maxima kept)."""
        return Ledger(
            {k: v * factor for k, v in self.self_s.items()},
            {k: v * factor for k, v in self.counts.items()},
            dict(self.maxima),
        )

    def to_json(self) -> dict:
        return {"self_s": self.self_s, "counts": self.counts, "maxima": self.maxima}

    @classmethod
    def from_json(cls, data: dict) -> "Ledger":
        return cls(dict(data["self_s"]), dict(data["counts"]), dict(data["maxima"]))


def ledger_of(parent_spans: list, worker_spans: list[list]) -> Ledger:
    """Fold the spans of one traced arm run into a :class:`Ledger`."""
    ledger = Ledger()
    ledger.add("counts", "executor_window_s", _pool_window(parent_spans))
    for spans in (parent_spans, *worker_spans):
        child_time = [0.0] * len(spans)
        child_cpu = [0.0] * len(spans)
        expand_inside = [0.0] * len(spans)
        # Ids follow start order, so a child's id is larger than its
        # parent's: walking ids backwards folds every child in first.
        for sid in range(len(spans) - 1, -1, -1):
            if spans[sid] is None:
                continue
            parent, name, start, end, cpu, counters, label = spans[sid]
            duration = end - start
            ledger.add("counts", f"calls:{label}", 1)
            if parent >= 0:
                child_time[parent] += duration
                child_cpu[parent] += cpu
                expand_inside[parent] += expand_inside[sid] + (
                    duration if name == EXPAND else 0.0
                )
            _account(
                ledger,
                name,
                duration,
                duration - child_time[sid],
                cpu - child_cpu[sid],
                expand_inside[sid],
                counters or {},
                outermost=_outermost(spans, spans[sid]),
            )
    return ledger


def silent_targets(ledger: Ledger) -> list[str]:
    """Labels of the :data:`TARGETS` that recorded no span in ``ledger``."""
    return [t.label for t in TARGETS if not ledger.counts.get(f"calls:{t.label}")]


def silent_layers(ledger: Ledger) -> list[str]:
    """Span names none of whose targets recorded a span in ``ledger``."""
    silent = set(silent_targets(ledger))
    names = dict.fromkeys(t.span for t in TARGETS)
    return [name for name in names
            if all(t.label in silent for t in TARGETS if t.span == name)]


def _pool_window(spans: list) -> float:
    """Wall seconds during which the arm's worker pools existed.

    Barrier mode starts one pool per ``map_blocks`` call; pipeline mode keeps
    one pool from ``open_pipeline`` until ``close``, decomposition included.
    """
    executor = [s for s in spans if s is not None and s[1] in POOL_SPANS]
    opens = [s[2] for s in executor if s[1] == OPEN_PIPELINE]
    if opens:
        return max(s[3] for s in executor) - min(opens)
    return sum(s[3] - s[2] for s in executor if _outermost(spans, s))


def _outermost(spans: list, span) -> bool:
    """Whether ``span`` is an executor call not made from another one."""
    parent = span[0]
    return parent < 0 or spans[parent][1] not in POOL_SPANS


def _account(ledger, name, duration, self_time, self_cpu, expand_inside, counters,
             outermost) -> None:
    """Add one span's contribution to the ledger's sums."""
    ledger.add("counts", f"{name}.calls", 1)
    if name in (BLOCK_DICT, BLOCK_CSR):
        ledger.add("self_s", name, duration)
        ledger.add("counts", "block_total_s", duration)
        ledger.add("counts", "block_expand_s", expand_inside)
        ledger.peak("max_block_s", duration)
        return
    if name in POOL_SPANS:
        if outermost:
            ledger.add("counts", "executor_map_s", duration)
        ledger.add("counts", "executor_parent_cpu_s", self_cpu)
        ledger.add("counts", "errors", counters.get("retried", 0) + counters.get("errors", 0))
        return
    ledger.add("self_s", name, self_time)
    for key, value in counters.items():
        if key == "max_size":
            ledger.peak("block_max_size", value)
        elif key != "errors":
            ledger.add("counts", f"{name}.{key}", value)
    if name == EXPAND and counters.get("cliques", 1) == 0:
        ledger.add("counts", "empty_anchors", 1)


# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS: dict[str, str] = {
    "graph.csr.convert_s": "s",
    "graph.csr.extract_s": "s",
    "graph.csr.extract_calls": "count",
    "graph.csr.bitmap_bytes": "bytes",
    "core.feasibility.cut_s": "s",
    "core.feasibility.hub_share": "ratio",
    "core.blocks.dict_s": "s",
    "core.blocks.csr_s": "s",
    "core.blocks.count": "count",
    "core.blocks.overlap": "ratio",
    "core.blocks.max_size": "nodes",
    "decision.features_s": "s",
    "decision.select_s": "s",
    "mce.order_s": "s",
    "mce.backend_s": "s",
    "mce.expand_s": "s",
    "mce.anchors": "count",
    "mce.cliques_emitted": "count",
    "mce.empty_anchor_ratio": "ratio",
    "core.block_analysis.dict_s": "s",
    "core.block_analysis.csr_s": "s",
    "core.block_analysis.fixed_ratio": "ratio",
    "core.block_analysis.max_block_s": "s",
    "core.cliquestore.build_s": "s",
    "core.cliquestore.bytes": "bytes",
    "core.filtering.merge_s": "s",
    "core.filtering.kept_ratio": "ratio",
    "core.driver.self_s": "s",
    "distributed.executor.map_s": "s",
    "distributed.executor.busy_s": "s",
    "distributed.executor.idle_ratio": "ratio",
    "distributed.executor.parent_s": "s",
    "distributed.executor.dispatch_bytes": "bytes",
    "distributed.executor.result_bytes": "bytes",
    "distributed.executor.errors": "count",
    "runs.record_s": "s",
    "runs.records": "count",
    "runs.segment_bytes": "bytes",
    "runs.replay_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(ledger: Ledger, workers: int, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics of :data:`LAYER_UNITS` from a summed ledger."""
    s, c, peak = ledger.self_s, ledger.counts, ledger.maxima
    window = c.get("executor_window_s", 0.0)
    busy = c.get("executor_busy_s", 0.0)
    anchors = c.get(f"{EXPAND}.calls", 0.0)
    block_total = c.get("block_total_s", 0.0)
    return {
        "graph.csr.convert_s": s.get("graph.csr.convert", 0.0),
        "graph.csr.extract_s": s.get("graph.csr.extract", 0.0),
        "graph.csr.extract_calls": c.get("graph.csr.extract.calls", 0.0),
        "graph.csr.bitmap_bytes": c.get("graph.csr.extract.bytes", 0.0),
        "core.feasibility.cut_s": s.get("core.feasibility.cut", 0.0),
        "core.feasibility.hub_share": _ratio(
            c.get("core.feasibility.cut.hubs", 0.0),
            c.get("core.feasibility.cut.nodes", 0.0),
        ),
        "core.blocks.dict_s": s.get("core.blocks.dict", 0.0),
        "core.blocks.csr_s": s.get("core.blocks.csr", 0.0),
        "core.blocks.count": c.get("core.blocks.dict.blocks", 0.0)
        + c.get("core.blocks.csr.blocks", 0.0),
        "core.blocks.overlap": _ratio(
            c.get("core.blocks.dict.members", 0.0) + c.get("core.blocks.csr.members", 0.0),
            c.get("core.blocks.dict.kernel", 0.0) + c.get("core.blocks.csr.kernel", 0.0),
        ),
        "core.blocks.max_size": peak.get("block_max_size", 0.0),
        "decision.features_s": s.get("decision.features", 0.0),
        "decision.select_s": s.get("decision.select", 0.0),
        "mce.order_s": s.get("mce.order", 0.0),
        "mce.backend_s": s.get("mce.backend", 0.0),
        "mce.expand_s": s.get(EXPAND, 0.0),
        "mce.anchors": anchors,
        "mce.cliques_emitted": c.get(f"{EXPAND}.cliques", 0.0),
        "mce.empty_anchor_ratio": _ratio(c.get("empty_anchors", 0.0), anchors),
        "core.block_analysis.dict_s": s.get(BLOCK_DICT, 0.0),
        "core.block_analysis.csr_s": s.get(BLOCK_CSR, 0.0),
        "core.block_analysis.fixed_ratio": _ratio(
            block_total - c.get("block_expand_s", 0.0), block_total
        ),
        "core.block_analysis.max_block_s": peak.get("max_block_s", 0.0),
        "core.cliquestore.build_s": s.get("core.cliquestore.build", 0.0),
        "core.cliquestore.bytes": c.get("core.cliquestore.build.bytes", 0.0),
        "core.filtering.merge_s": s.get("core.filtering.merge", 0.0),
        "core.filtering.kept_ratio": _ratio(
            c.get(f"{DRIVER}.kept", 0.0), c.get(f"{DRIVER}.emitted", 0.0)
        ),
        "core.driver.self_s": s.get(DRIVER, 0.0),
        "distributed.executor.map_s": c.get("executor_map_s", 0.0),
        "distributed.executor.busy_s": busy,
        "distributed.executor.idle_ratio": (
            1.0 - _ratio(busy, workers * window) if window else 0.0
        ),
        "distributed.executor.parent_s": c.get("executor_parent_cpu_s", 0.0),
        "distributed.executor.dispatch_bytes": c.get("executor_dispatch_bytes", 0.0),
        "distributed.executor.result_bytes": c.get("executor_result_bytes", 0.0),
        "distributed.executor.errors": c.get("errors", 0.0),
        "runs.record_s": s.get("runs.record", 0.0),
        "runs.records": c.get("runs.record.calls", 0.0),
        "runs.segment_bytes": c.get("runs.record.segment_bytes", 0.0),
        "runs.replay_s": s.get("runs.replay", 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
