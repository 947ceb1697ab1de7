"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
from clock import ReferenceClock  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _invoke(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_names_what_run_py_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_registry_ids_cover_the_registry():
    from repro.characterization import REGISTRY

    assert sorted(REGISTRY) == sorted(run.REGISTRY_IDS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_reduced_run_prints_every_named_metric(workload, trace):
    done = _invoke(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for name in expected:
            assert result["metrics"][name]["value"] > 0, name


def _run_in_process(capsys, workload: str) -> tuple:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--reduced"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_an_experiment_that_raises_fails_the_run(monkeypatch, capsys):
    import repro.characterization as characterization

    real = characterization.run_experiment

    def raising(experiment, *args, **kwargs):
        if experiment == "fig12":
            raise RuntimeError("injected")
        return real(experiment, *args, **kwargs)

    monkeypatch.setattr(characterization, "run_experiment", raising)
    code, result = _run_in_process(capsys, "registry_smoke")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1


def test_a_wrong_runtime_output_fails_the_run(monkeypatch, capsys):
    from repro.system.runtime import PudRuntime

    real = PudRuntime.load

    def flipped(self, handle):
        bits = np.array(real(self, handle), copy=True)
        bits[0] ^= 1
        return bits

    monkeypatch.setattr(PudRuntime, "load", flipped)
    code, result = _run_in_process(capsys, "runtime_mix")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0


def test_the_speed_probe_triggers_no_garbage_collection():
    import gc

    from clock import probe

    probe()  # first call: one-time interpreter allocations
    collections = []

    def record(phase, info):
        collections.append(phase)

    threshold = gc.get_threshold()
    gc.callbacks.append(record)
    gc.set_threshold(1)  # any tracked allocation would start a collection
    try:
        probe()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(record)
    assert collections == []


def test_traced_unit_restores_every_wrapped_function():
    before = tracing.patched_originals()
    for name in workloads.NAMES:
        workload = workloads.make(name, reduced=True)
        context = workload.prepare(0)
        tracer = tracing.Tracer()
        with ReferenceClock() as clock, tracing.instrument(tracer):
            during = tracing.patched_originals()
            workload.run(context, 0, clock, tracer)
        assert all(
            now is not original
            for (_, _, original), (_, _, now) in zip(before, during)
        )
        assert tracer.calls, name
    after = tracing.patched_originals()
    assert all(
        original is now for (_, _, original), (_, _, now) in zip(before, after)
    )


def test_wrapped_functions_are_restored_when_the_block_raises():
    before = tracing.patched_originals()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            raise RuntimeError("boom")
    after = tracing.patched_originals()
    assert all(
        original is now for (_, _, original), (_, _, now) in zip(before, after)
    )


def test_request_stream_is_a_function_of_the_seed():
    a = workloads.make_requests(11, 50, 8)
    b = workloads.make_requests(11, 50, 8)
    c = workloads.make_requests(12, 50, 8)
    assert [r.operands.tobytes() for r in a] == [r.operands.tobytes() for r in b]
    assert [r.operands.tobytes() for r in a] != [r.operands.tobytes() for r in c]
    kinds = {r.kind for r in workloads.make_requests(0, 2000, 8)}
    assert kinds == set(workloads._KINDS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = _invoke(tmp_path, "registry_smoke", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
