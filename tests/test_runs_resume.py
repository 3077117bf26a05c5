"""Resume semantics of durable (spill-to-disk) runs.

These tests exercise the in-process side of crash-resume: partial runs
produced with the ``raise:`` flavour of the fault hook (the parent
survives, unlike the ``kill:`` crash matrix), resume validation against
the manifest fingerprint and the barrier partition digests (across
processes with different hash seeds), how often the manifest is
written, damage handling (torn tails truncated, mid-file corruption
refused), and the error context a durable run attaches to executor
failures.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from faults import (
    CRASH_M,
    STRING_M,
    build_executor,
    crash_graph,
    golden_cliques,
    string_graph,
)
from differential import canonical_cliques
from repro.core.driver import find_max_cliques
from repro.distributed.executor import SharedMemoryExecutor
from repro.errors import (
    CorruptSegmentError,
    ExecutorError,
    ResumeMismatchError,
)
from repro.graph.generators import erdos_renyi
from repro.runs.manifest import RunManifest, load_manifest, manifest_path
from repro.runs.segments import FAULT_INJECT_ENV, SEGMENT_MAGIC, _HEADER


@pytest.fixture(scope="module")
def graph():
    return crash_graph()


@pytest.fixture(scope="module")
def golden(graph):
    return golden_cliques(graph, CRASH_M)


def durable(graph, spill_dir, resume=False, executor=None, pipeline=False):
    return find_max_cliques(
        graph,
        CRASH_M,
        spill_dir=spill_dir,
        resume=resume,
        executor=executor,
        pipeline=pipeline,
    )


def partial_run(graph, spill_dir, monkeypatch, target="spill-pre:0.5"):
    """Run durably until the injected *raise* at ``target``; parent survives."""
    monkeypatch.setenv(FAULT_INJECT_ENV, f"raise:{target}")
    with pytest.raises(RuntimeError, match="injected failure"):
        durable(graph, spill_dir)
    monkeypatch.delenv(FAULT_INJECT_ENV)


class TestResumeValidation:
    def test_resume_requires_spill_dir(self, graph):
        with pytest.raises(ValueError, match="spill_dir"):
            find_max_cliques(graph, CRASH_M, resume=True)

    def test_fresh_run_refuses_existing_manifest(self, graph, tmp_path):
        durable(graph, tmp_path)
        with pytest.raises(ResumeMismatchError, match="already contains"):
            durable(graph, tmp_path)

    def test_resume_without_manifest_refused(self, graph, tmp_path):
        with pytest.raises(ResumeMismatchError, match="nothing to resume"):
            durable(graph, tmp_path, resume=True)

    def test_resume_with_other_block_size_refused(self, graph, tmp_path):
        durable(graph, tmp_path)
        with pytest.raises(ResumeMismatchError, match="m:"):
            find_max_cliques(
                graph, CRASH_M + 2, spill_dir=tmp_path, resume=True
            )

    def test_resume_with_other_graph_refused(self, graph, tmp_path):
        durable(graph, tmp_path)
        other = erdos_renyi(60, 0.2, seed=4)
        with pytest.raises(ResumeMismatchError, match="graph_sha256"):
            durable(other, tmp_path, resume=True)

    def test_resume_across_driver_modes_refused(self, graph, tmp_path):
        # Barrier and pipeline runs decompose identically today, but the
        # mode is part of the strict fingerprint: block ids must mean
        # the same thing in the run that wrote them and the run that
        # skips them.
        durable(graph, tmp_path)
        with pytest.raises(ResumeMismatchError, match="mode"):
            durable(
                graph,
                tmp_path,
                resume=True,
                executor=SharedMemoryExecutor(max_workers=2),
                pipeline=True,
            )


class TestPartialResume:
    def test_partial_serial_run_resumes_to_golden(
        self, graph, golden, tmp_path, monkeypatch
    ):
        partial_run(graph, tmp_path, monkeypatch)
        result = durable(graph, tmp_path, resume=True)
        assert canonical_cliques(result.cliques) == golden
        info = result.run_info
        assert info is not None
        assert info["resumed"]
        # Serial analysis records blocks in id order, so exactly blocks
        # 0–4 of level 0 were durable when the fault fired at block 5.
        assert info["blocks_replayed"] == 5
        assert info["blocks_recorded"] > 0
        assert load_manifest(tmp_path).status == "complete"

    def test_resume_opens_a_fresh_segment(self, graph, tmp_path, monkeypatch):
        partial_run(graph, tmp_path, monkeypatch)
        durable(graph, tmp_path, resume=True)
        manifest = load_manifest(tmp_path)
        assert manifest.segments == ["segment-0000.seg", "segment-0001.seg"]
        assert (tmp_path / "segment-0000.seg").exists()
        assert (tmp_path / "segment-0001.seg").exists()

    def test_cross_executor_resume(self, graph, golden, tmp_path, monkeypatch):
        # Spilled by the serial path, resumed on the shared-memory
        # executor: same barrier fingerprint, same block ids, same
        # cliques — durability is executor-independent.
        partial_run(graph, tmp_path, monkeypatch)
        result = durable(
            graph, tmp_path, resume=True, executor=build_executor("shared")
        )
        assert canonical_cliques(result.cliques) == golden
        assert result.run_info["blocks_replayed"] == 5

    def test_resume_of_complete_run_reanalyses_nothing(
        self, graph, golden, tmp_path
    ):
        durable(graph, tmp_path)
        result = durable(graph, tmp_path, resume=True)
        assert canonical_cliques(result.cliques) == golden
        info = result.run_info
        assert info["blocks_recorded"] == 0
        assert info["blocks_replayed"] > 0
        assert info["flush_bytes"] == 0

    def test_fresh_run_info_digest(self, graph, tmp_path):
        result = durable(graph, tmp_path)
        info = result.run_info
        assert info is not None
        assert not info["resumed"]
        assert info["blocks_replayed"] == 0
        assert info["blocks_recorded"] == sum(
            level.num_blocks for level in result.levels
        )
        assert info["flush_bytes"] > 0
        assert info["flush_seconds"] >= 0.0
        assert info["segments"] == ["segment-0000.seg"]
        assert info["spill_dir"] == str(tmp_path)
        assert result.summary()["run_info"] == info

    def test_in_memory_run_has_no_run_info(self, graph):
        assert find_max_cliques(graph, CRASH_M).run_info is None


class TestDamageHandling:
    def test_torn_tail_is_truncated_on_resume(
        self, graph, golden, tmp_path, monkeypatch
    ):
        partial_run(graph, tmp_path, monkeypatch)
        segment = tmp_path / "segment-0000.seg"
        intact = segment.stat().st_size
        # A torn append: a header whose payload never made it to disk.
        with open(segment, "ab") as fh:
            fh.write(_HEADER.pack(10_000, 0) + b"partial")
        result = durable(graph, tmp_path, resume=True)
        assert canonical_cliques(result.cliques) == golden
        assert segment.stat().st_size == intact
        assert result.run_info["blocks_replayed"] == 5

    def test_mid_file_corruption_refuses_resume(
        self, graph, tmp_path, monkeypatch
    ):
        partial_run(graph, tmp_path, monkeypatch)
        segment = tmp_path / "segment-0000.seg"
        data = bytearray(segment.read_bytes())
        data[len(SEGMENT_MAGIC) + _HEADER.size] ^= 0x01  # first payload byte
        segment.write_bytes(bytes(data))
        with pytest.raises(CorruptSegmentError):
            durable(graph, tmp_path, resume=True)

    def test_duplicate_block_across_segments_refused(
        self, graph, tmp_path, monkeypatch
    ):
        partial_run(graph, tmp_path, monkeypatch)
        segment = tmp_path / "segment-0000.seg"
        (tmp_path / "segment-0001.seg").write_bytes(segment.read_bytes())
        with pytest.raises(CorruptSegmentError, match="recorded twice"):
            durable(graph, tmp_path, resume=True)

    def test_orphan_segment_is_still_recovered(
        self, graph, golden, tmp_path, monkeypatch
    ):
        # A crash between segment creation and the manifest save leaves
        # a segment the manifest never heard of; resume globs the
        # directory, so the orphan's records are replayed anyway.
        partial_run(graph, tmp_path, monkeypatch)
        segment = tmp_path / "segment-0000.seg"
        orphan = tmp_path / "segment-0003.seg"
        orphan.write_bytes(segment.read_bytes())
        segment.unlink()
        result = durable(graph, tmp_path, resume=True)
        assert canonical_cliques(result.cliques) == golden
        assert result.run_info["blocks_replayed"] == 5


class TestExecutorErrorContext:
    def test_worker_death_names_block_and_segment(
        self, graph, tmp_path, monkeypatch
    ):
        # The worker-side kill hook only fires in pool workers (it is
        # gated on having a parent process), so setting it here cannot
        # kill the test session.
        monkeypatch.setenv(FAULT_INJECT_ENV, "kill:5")
        executor = build_executor("shared", retry_failed=False)
        with pytest.raises(ExecutorError) as excinfo:
            durable(graph, tmp_path, executor=executor)
        assert excinfo.value.block_id is not None
        assert excinfo.value.segment_path is not None
        assert excinfo.value.segment_path.startswith(str(tmp_path))

    def test_durable_run_survives_worker_death_with_retry(
        self, graph, golden, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_INJECT_ENV, "kill:5")
        executor = build_executor("shared", retry_failed=True)
        result = durable(graph, tmp_path, executor=executor)
        assert canonical_cliques(result.cliques) == golden
        assert load_manifest(tmp_path).status == "complete"


class TestManifestWrites:
    """The segments are the per-block record; the manifest is not."""

    def count_saves(self, monkeypatch):
        calls = []
        save = RunManifest.save

        def counting_save(manifest, directory):
            calls.append(directory)
            save(manifest, directory)

        monkeypatch.setattr(RunManifest, "save", counting_save)
        return calls

    def test_pipeline_run_saves_at_open_and_finalize_only(
        self, graph, tmp_path, monkeypatch
    ):
        calls = self.count_saves(monkeypatch)
        result = durable(
            graph, tmp_path, executor=build_executor("shared"), pipeline=True
        )
        assert result.run_info["blocks_recorded"] >= 50
        assert len(calls) == 2

    def test_barrier_run_saves_once_per_level(
        self, graph, tmp_path, monkeypatch
    ):
        calls = self.count_saves(monkeypatch)
        result = durable(graph, tmp_path)
        assert result.run_info["blocks_recorded"] >= 50
        assert not result.fallback_used
        assert len(calls) == 2 + len(result.levels)
        assert sorted(load_manifest(tmp_path).partitions) == list(
            range(len(result.levels))
        )

    def test_older_manifest_with_completed_map_resumes(
        self, graph, golden, tmp_path, monkeypatch
    ):
        # Earlier versions rewrote the manifest after every block with a
        # ``completed`` map and stored no partition digests.
        partial_run(graph, tmp_path, monkeypatch)
        manifest = load_manifest(tmp_path)
        manifest_path(tmp_path).write_text(
            json.dumps(
                {
                    "version": 1,
                    "status": "running",
                    "fingerprint": manifest.fingerprint,
                    "completed": {"0": [0, 1, 2, 3, 4]},
                    "segments": manifest.segments,
                },
                indent=2,
                sort_keys=True,
            )
        )
        result = durable(graph, tmp_path, resume=True)
        assert canonical_cliques(result.cliques) == golden
        assert result.run_info["blocks_replayed"] == 5
        assert load_manifest(tmp_path).status == "complete"


# Each run is a fresh interpreter, so the hash seed really differs
# between the crash and the resume.
_CHILD = """
import json, sys
from faults import STRING_M, string_graph
from repro.core.driver import find_max_cliques
from repro.distributed.executor import SharedMemoryExecutor

spill_dir, resume, pipeline = sys.argv[1], sys.argv[2] == "1", sys.argv[3] == "1"
try:
    result = find_max_cliques(
        string_graph(), STRING_M, spill_dir=spill_dir, resume=resume,
        pipeline=pipeline,
        executor=SharedMemoryExecutor(max_workers=2) if pipeline else None,
    )
except Exception as exc:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
else:
    print(json.dumps(sorted(sorted(map(repr, c)) for c in result.cliques)))
"""


def run_child(spill_dir, hash_seed, resume, pipeline=False, fault=None):
    """One durable run in a fresh interpreter; returns its JSON reply."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    )
    env.pop(FAULT_INJECT_ENV, None)
    if fault is not None:
        env[FAULT_INJECT_ENV] = fault
    args = [str(spill_dir), "1" if resume else "0", "1" if pipeline else "0"]
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout)


class TestHashSeedGuard:
    @pytest.fixture(scope="class")
    def string_golden(self):
        return canonical_cliques(find_max_cliques(string_graph(), STRING_M).cliques)

    def crash(self, spill_dir, pipeline=False):
        reply = run_child(
            spill_dir, 0, False, pipeline, fault="raise:spill-pre:0.5"
        )
        assert reply["error"] == "RuntimeError"

    def test_barrier_resume_under_other_hash_seed_refused(
        self, string_golden, tmp_path
    ):
        self.crash(tmp_path)
        refused = run_child(tmp_path, 1, resume=True)
        assert refused["error"] == "ResumeMismatchError"
        assert "level 0" in refused["message"]
        assert "PYTHONHASHSEED" in refused["message"]
        assert "pipeline mode" in refused["message"]
        # The refused resume recorded nothing; the original seed still
        # resumes the same directory to the golden set.
        resumed = run_child(tmp_path, 0, resume=True)
        assert tuple(map(tuple, resumed)) == string_golden

    def test_refused_resume_leaves_the_directory_unchanged(self, tmp_path):
        self.crash(tmp_path)

        def snapshot():
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            return files, load_manifest(tmp_path).segments

        before = snapshot()
        refused = run_child(tmp_path, 1, resume=True)
        assert refused["error"] == "ResumeMismatchError"
        assert snapshot() == before

    def test_pipeline_resume_is_hash_seed_independent(
        self, string_golden, tmp_path
    ):
        self.crash(tmp_path, pipeline=True)
        resumed = run_child(tmp_path, 1, resume=True, pipeline=True)
        assert tuple(map(tuple, resumed)) == string_golden
