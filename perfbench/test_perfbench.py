"""Toy-scale smoke test of the chain benchmark (seconds-long).

Runs every workload untraced and traced at :data:`workloads.TOY` scale
and checks the output contract: every metric of ``BENCHMARK.json``
prints by name with its unit, no op fails on this commit, and a wrong
served answer or an abandoned failed round is counted as a failure, and
no process the benchmark starts outlives it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import harness, run, workloads
from perfbench.harness import END_TO_END, PER_LAYER, SPAN_LAYERS, Bench

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def no_heap_collection(monkeypatch):
    """Timings are not checked here, and collecting the test process's
    whole heap before every calibration would dominate the run time."""
    monkeypatch.setattr(harness, "gc", SimpleNamespace(collect=lambda: 0))


@pytest.fixture
def bench_run(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)

    def go(workload: str, trace: int):
        argv = [
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace),
        ]
        assert run.main(argv, scale=workloads.TOY) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return lines, json.loads(lines[-1])

    return go


def test_benchmark_json_matches_the_metric_specs():
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == (
        END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert all(f"{name}_s" in PER_LAYER for name in SPAN_LAYERS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints_with_its_unit_and_no_op_fails(bench_run, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = bench_run(workload, trace)
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(
                line.split()[:1] == [name] and unit in line.split()[1:]
                for line in lines[:-1]
            ), name
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2  # warm-up + one timed round
        assert any(line.split()[:2] == ["error_rate", "0"] for line in lines)


def test_a_corrupted_reference_answer_counts_as_a_failure(
    bench_run, monkeypatch
):
    honest = workloads.reference_answers

    def corrupted(*args):
        reference = honest(*args)
        cube = reference[0]
        first = np.flatnonzero(~np.isnan(cube))[0]
        cube[first] = np.nextafter(cube[first], np.inf)  # one ulp off
        return reference

    monkeypatch.setattr(workloads, "reference_answers", corrupted)
    _, result = bench_run("serve", 0)
    assert result["failed"] >= 1 and not result["correct"]


def test_a_failed_round_left_by_break_still_counts():
    bench = Bench(
        trace=False, rounds=3, setups=1, calib_rows=1_000, calib_handoffs=0,
        calib_threads=1, reference_calib_s=1.0,
    )
    bench.setup(lambda: None, close=None)
    for rnd in bench.iter_rounds():
        rnd.op(0.0, ok=rnd.index < 0)
        if rnd.index == 0:
            break  # as refresh does once a round raises
    assert (bench.attempted, bench.failed) == (2, 1)


def test_the_resource_tracker_does_not_outlive_the_run():
    """Sharded runs put tables in shared memory, which starts
    multiprocessing's resource tracker; the run stops and reaps it.  A
    fresh interpreter, so the test process's own tracker is untouched."""
    script = (
        "import os\n"
        "from multiprocessing import resource_tracker, shared_memory\n"
        "from perfbench.harness import stop_child_processes\n"
        "segment = shared_memory.SharedMemory(create=True, size=64)\n"
        "segment.close()\n"
        "segment.unlink()\n"
        "pid = resource_tracker._resource_tracker._pid\n"
        "stop_child_processes()\n"
        "try:\n"
        "    os.kill(pid, 0)\n"
        "except ProcessLookupError:\n"
        "    print('stopped')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == ["stopped"]
