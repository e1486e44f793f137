"""Tests of the benchmark itself: output contract, span arithmetic, checks.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 3


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_matches_harness():
    spec = benchmark_spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    done = run_cli(
        "--workload", workload, "--seed", "5", "--seconds", "0",
        "--realizations", str(TINY), "--trace", str(trace),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    # Chunk 0 and its repeat (traced: its traced twin).
    assert result["attempted"] == 2 * TINY
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
        assert any(
            line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines
        )
    if not trace:
        assert f"metric failed_frac = 0.0 {run.INFO['failed_frac']}" in lines
        assert any(line.startswith("metric realizations_per_s = ") for line in lines)
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    else:
        assert any(line.startswith("prediction ") for line in lines)


def test_self_times_on_nested_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(spans.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])


def test_calibrated_seconds_scale_by_the_kernel_around_each_call():
    ref = calibrate.REFERENCE_S
    # Call 0 lies between kernel runs of ref and ref, call 1 between ref and 3 ref.
    got = run.calibrated_seconds([1.0, 2.0], [ref, ref, 3 * ref])
    np.testing.assert_allclose(got, [1.0, 1.0])


def test_recorder_links_nested_calls():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("layer.inner", lambda x: x + 1)
    outer = recorder.wrap("layer.outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    arrays = recorder.arrays()
    names = [recorder.names[i] for i in arrays["name_id"]]
    assert names == ["layer.outer", "layer.inner", "layer.inner"]
    assert list(arrays["parent"]) == [-1, 0, 0]
    self_time = spans.self_times(arrays["parent"], arrays["start"], arrays["end"])
    assert np.all(self_time >= 0.0)
    assert self_time.sum() == pytest.approx(arrays["end"][0] - arrays["start"][0])


def test_install_wraps_every_binding_and_uninstall_restores():
    import multiport
    from multiport import montecarlo, strategies

    originals = (montecarlo.build_bundle, strategies.waterfill, multiport.waterfill)
    recorder = spans.SpanRecorder()
    replaced = spans.install(recorder, "multiport")
    try:
        assert montecarlo.build_bundle is not originals[0]
        assert strategies.waterfill is multiport.waterfill is not originals[1]
        strategies.waterfill(np.array([1.0, 2.0]), 1.0)
        assert [recorder.names[i] for i in recorder.name_id] == ["numerics.waterfill"]
    finally:
        spans.uninstall(replaced)
    assert (montecarlo.build_bundle, strategies.waterfill, multiport.waterfill) == originals


def tampered_runner(tmp_path, monkeypatch, workload: str, tamper):
    """Run chunk 0 of a tiny workload with run_scenario results altered."""
    import multiport as mp
    from multiport import montecarlo

    original = montecarlo.run_scenario

    def run_scenario(*args, **kwargs):
        result = original(*args, **kwargs)
        rates = {s: r.copy() for s, r in result.per_realization_rates.items()}
        tamper(rates)
        ergodic = {s: r.mean(axis=0) for s, r in rates.items()}
        return dataclasses.replace(
            result, per_realization_rates=rates, ergodic_rates=ergodic
        )

    monkeypatch.setattr(montecarlo, "run_scenario", run_scenario)
    w = WORKLOADS[workload]
    with run.Runner(mp, w, 2, TINY, str(tmp_path), None) as runner:
        runner.timed(0)
    return runner


def test_nan_rate_counts_as_failed(tmp_path, monkeypatch):
    def nan_rate(rates):
        rates["cap"][0, 0] = np.nan

    runner = tampered_runner(tmp_path, monkeypatch, "su_miso_n33", nan_rate)
    assert runner.failed == runner.attempted == TINY
    assert any("non-finite" in p for p in runner.problems)


def test_recip_above_cap_counts_as_failed(tmp_path, monkeypatch):
    def recip_wins(rates):
        rates["recip"][1, 2] = rates["cap"][1, 2] + 0.5

    runner = tampered_runner(tmp_path, monkeypatch, "su_miso_n33", recip_wins)
    assert runner.failed / runner.attempted > 0
    assert any("recip > cap" in p for p in runner.problems)


def test_linear_above_capacity_counts_as_failed(tmp_path, monkeypatch):
    def linear_wins(rates):
        rates["cap_lin"][0, -1] = rates["cap"][0, -1] * 1.01

    runner = tampered_runner(tmp_path, monkeypatch, "mu_miso_n33_k2", linear_wins)
    assert runner.failed == TINY
    assert any("cap_lin > cap" in p for p in runner.problems)


def test_generated_coupling_file_reproduces_drawn_realizations(tmp_path):
    import multiport as mp

    w = WORKLOADS["su_mimo_n33_m9_import"]
    drawn = dataclasses.replace(w, imported=False)
    outputs = []
    for workload in (w, drawn):
        work = tmp_path / workload.name / str(workload.imported)
        work.mkdir(parents=True)
        with run.Runner(mp, workload, 7, TINY, str(work), None) as runner:
            runner.timed(1)
        assert runner.problems == []
        outputs.append((work / "out" / "su_mimo_n33_m9_rates.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("--workload", "su_miso_n33", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
