"""Smoke tests of the benchmark at about 1/50 of the workloads' design sizes.

Run from the repository root::

    python3 -m pytest bench_e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from run import END_TO_END_UNITS, WORKERS, Session  # noqa: E402
from spans import LAYER_UNITS, ledger_of, layer_metrics, silent_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_SCALE = "0.02"


def bench(workload: str, trace: int, *extra: str, script: Path = HERE / "run.py"):
    completed = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--scale", SMOKE_SCALE, *extra],
        capture_output=True,
        text=True,
        timeout=170,
    )
    return completed.returncode, completed.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, stdout = bench(workload, trace)
    result = result_of(stdout)
    # failed == 0: every arm's clique-set digest equals the networkx one.
    assert (code, result["correct"], result["failed"]) == (0, True, 0)
    assert result["attempted"] >= 6
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == units


def test_wrong_clique_set_counts_as_failure():
    code, stdout = bench("social-md0.5", 0, "--corrupt-arm", "serial")
    result = result_of(stdout)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "FAILED serial: clique set differs from the reference" in stdout


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    copy = tmp_path / "bench_e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench("social-md0.5", 0, script=copy / "run.py")
    assert code != 0
    assert stdout == ""


def test_timings_are_scaled_by_the_run_median_kernel_of_their_kind():
    session = Session({}, [], reference="", run_dir=HERE, corrupt_arm=None)
    session.times[("serial", False)] = [1.0, 3.0, 2.0]
    session.times[("barrier", False)] = [4.0]
    session.kernels[1] = [2 * speed.REFERENCE_S, 100.0, 0.0]
    session.kernels[WORKERS] = [4 * speed.REFERENCE_S]
    # A machine at half the reference speed: serial times are halved.
    assert session.median("serial") == pytest.approx(1.0)
    assert session.wall_median("serial") == 2.0
    if WORKERS > 1:
        assert session.median("barrier") == pytest.approx(1.0)


def test_calibration_kernel_checks_its_own_answer():
    assert 0 < speed.kernel_seconds() < 10


def test_ledger_self_time_subtracts_enclosed_spans():
    # (parent, name, start, end, cpu, counters, target); ids are list positions.
    spans = [
        (-1, "core.driver", 0.0, 10.0, 10.0, None, "repro.core.driver.find_max_cliques"),
        (0, "core.feasibility.cut", 1.0, 3.0, 2.0, {"hubs": 1, "nodes": 4},
         "repro.core.driver.cut"),
        (0, "core.block_analysis.dict", 4.0, 8.0, 4.0, None,
         "repro.core.driver.analyze_block"),
        (2, "mce.expand", 5.0, 6.0, 1.0, {"cliques": 0},
         "repro.core.block_analysis.enumerate_anchored_native"),
    ]
    metrics = layer_metrics(ledger_of(spans, []), workers=2, overhead_ratio=0.0)
    assert metrics["core.driver.self_s"] == pytest.approx(4.0)
    assert metrics["core.feasibility.cut_s"] == pytest.approx(2.0)
    assert metrics["core.feasibility.hub_share"] == pytest.approx(0.25)
    # Whole-block time, of which one second was expansion.
    assert metrics["core.block_analysis.dict_s"] == pytest.approx(4.0)
    assert metrics["core.block_analysis.fixed_ratio"] == pytest.approx(0.75)
    assert metrics["mce.anchors"] == 1
    assert metrics["mce.empty_anchor_ratio"] == 1.0


def test_a_layer_whose_targets_all_fall_silent_is_reported():
    spans = [
        (-1, "core.driver", 0.0, 2.0, 2.0, None, "repro.core.driver.find_max_cliques"),
        (0, "mce.expand", 0.5, 1.0, 0.5, {"cliques": 3},
         "repro.mce.registry:Combo.run"),
    ]
    silent = silent_layers(ledger_of(spans, []))
    # One of the expansion targets recorded spans, so the layer is measured.
    assert "core.driver" not in silent and "mce.expand" not in silent
    assert "core.feasibility.cut" in silent and "runs.record" in silent
