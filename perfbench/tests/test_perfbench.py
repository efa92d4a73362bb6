"""Tests of the benchmark itself: smoke runs, metric names and units, the
layer accounting, an injected delay, and refusal without the program."""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run as bench
import workloads

BENCH = Path(bench.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.2", "--ticks", "1500"]


def invoke(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / BENCH.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.LAYER_UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_emits_every_metric(workload, trace):
    completed = invoke("--workload", workload, "--seed", "3", "--trace", trace, *TINY)
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    assert completed.stdout.startswith("host: ")
    assert "error_rate 0.0" in completed.stdout


def test_same_seed_gives_same_outputs():
    state = workloads.WORKLOADS["stream-batched"].setup(5, 2000)
    first = [o.signature for o in bench.run_round(workloads.WORKLOADS["stream-batched"], state)]
    again = [o.signature for o in bench.run_round(workloads.WORKLOADS["stream-batched"], state)]
    assert first == again


def test_stream_batched_layers_account_for_the_traced_wall_time():
    workload = workloads.WORKLOADS["stream-batched"]
    state = workload.setup(2, 6000)
    metrics = bench.traced_round(workload, state, layers.Tracer())[1]
    parts = (metrics["lanes.self_s"] + metrics["sources.pull_s"]
             + metrics["batches.encode_s"] + metrics["engine.self_s"])
    assert parts == pytest.approx(metrics["trace.wall_s"], rel=0.02)
    assert metrics["lanes.engaged_ratio"] == 1.0
    assert metrics["lanes.calls.prob_chunk_run"] == 2  # PROB and PROBV
    assert metrics["sources.arrivals"] >= 2 * 5 * 6000


def test_injected_lane_delay_shows_in_lane_time_and_throughput():
    workload = workloads.WORKLOADS["stream-batched"]
    state = workload.setup(4, 20_000)
    bench.run_round(workload, state)  # warm-up
    plain_wall = statistics.median(
        sum(o.seconds for o in bench.run_round(workload, state)) for _ in range(3)
    )
    # ~15% of a plain round, spread over its two prob_chunk_run calls.
    delay = 0.15 * plain_wall / 2
    tracer = layers.Tracer()

    def lane_time():
        return bench.traced_round(workload, state, tracer)[1]["lanes.self_s"]

    # Pairs of adjacent measurements, so a change in host speed between
    # pairs cancels out.
    lane_gains, rate_ratios = [], []
    for _ in range(5):
        base_rate = bench.round_rate(bench.run_round(workload, state))
        base_lanes = lane_time()
        with layers.lane_delay(delay):
            slow_rate = bench.round_rate(bench.run_round(workload, state))
            slow_lanes = lane_time()
        lane_gains.append(slow_lanes - base_lanes)
        rate_ratios.append(slow_rate / base_rate)

    # Times are reported at reference host speed, which rescales the sleep
    # too, so only part of it is expected back.
    assert statistics.median(lane_gains) > 0.4 * 2 * delay
    assert statistics.median(rate_ratios) < 1 / 1.07


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = invoke("--workload", "pair-default", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
