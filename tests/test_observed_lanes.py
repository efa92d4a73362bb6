"""Instrumented runs on the count lanes.

Metrics, ``on_tick`` hooks (telemetry heartbeats, checkpoints, fault
injection) and ``resume`` no longer choose the execution path:

* a policy-less time-window run of the asynchronous engine takes the
  count lane (:func:`repro.core.batched.exact_stream_counts`) with all of
  them, and must match the kernel loop — pinned here by
  ``AsyncEngineConfig(validate=True)``, which always runs the kernel
  loop — on output, ledger, metrics (timings aside), heartbeat payloads
  and checkpoints;
* the synchronous engine's unit-rate source input reaches the columnar
  lanes with metrics, matching ``force_general`` on every instrument.
"""

from __future__ import annotations

import functools
import random

import pytest

import repro.api
from repro.api import RunSpec, build_pair
from repro.core.async_engine import AsyncEngineConfig, AsyncJoinEngine
from repro.core.engine import EngineConfig
from repro.obs import MetricsRegistry
from repro.runtime import Fault, FaultPlan
from repro.streams.sources import ZipfSource

WINDOW = 24


def _batches(seed, ticks=400, domain=9, burst=3):
    """Bursty per-tick batches: 0..burst arrivals per side per tick."""
    rng = random.Random(seed)
    r = [[rng.randrange(domain) for _ in range(rng.randrange(burst + 1))]
         for _ in range(ticks)]
    s = [[rng.randrange(domain) for _ in range(rng.randrange(burst + 1))]
         for _ in range(ticks)]
    return r, s


def _config(kernel_loop, **overrides):
    params = dict(window=WINDOW, memory=8 * WINDOW, warmup=2 * WINDOW)
    params.update(overrides)
    return AsyncEngineConfig(validate=kernel_loop, **params)


def _untimed(snapshot):
    """A metrics snapshot without its wall-clock phase timings."""
    if snapshot is None:
        return None
    return {kind: entries for kind, entries in snapshot.items() if kind != "phases"}


def _signature(result):
    return (
        result.output_count,
        result.total_output_count,
        result.ticks,
        result.arrivals,
        result.drop_counts,
        _untimed(result.metrics),
    )


def _spy_lane(monkeypatch):
    """Record every call of the async count lane."""
    import repro.core.batched as batched

    calls = []
    original = batched.exact_stream_counts

    def spy(*args, **kwargs):
        calls.append(kwargs.get("on_tick") is not None)
        return original(*args, **kwargs)

    monkeypatch.setattr(batched, "exact_stream_counts", spy)
    return calls


class TestAsyncLaneMatchesKernelLoop:
    @pytest.mark.parametrize("variable", [False, True])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_metrics_and_ledger(self, monkeypatch, variable, seed):
        batches = _batches(seed)
        results = {}
        for kernel_loop in (True, False):
            calls = _spy_lane(monkeypatch)
            engine = AsyncJoinEngine(
                _config(kernel_loop, variable=variable), metrics=MetricsRegistry()
            )
            results[kernel_loop] = engine.run(*batches)
            assert bool(calls) != kernel_loop
        lane, kernel = results[False], results[True]
        assert _signature(lane) == _signature(kernel)
        histogram = lane.metrics["histograms"][0]
        assert histogram["name"] == "async.batch_size"
        assert histogram["count"] == lane.ticks
        assert histogram["sum"] == lane.arrivals
        points = [
            entry["points"] for entry in lane.metrics["series"]
            if entry["name"] == "engine.occupancy"
        ]
        every = max(1, WINDOW // 8)
        assert [t for t, _ in points[0]] == list(range(0, lane.ticks, every))

    @pytest.mark.parametrize("every", [1, 5, 16])
    def test_hook_grid_and_progress(self, monkeypatch, every):
        batches = _batches(3)
        seen = {}
        for kernel_loop in (True, False):
            calls = _spy_lane(monkeypatch)
            beats = []

            def on_tick(engine, t):
                beats.append(engine.progress())

            result = AsyncJoinEngine(
                _config(kernel_loop), metrics=MetricsRegistry()
            ).run(*batches, on_tick=on_tick, on_tick_every=every)
            assert calls == ([] if kernel_loop else [True])
            seen[kernel_loop] = (beats, _signature(result))
        assert seen[False] == seen[True]
        beats = seen[False][0]
        assert [beat["tick"] for beat in beats] == list(range(0, 400, every))
        assert any(beat["drops"] for beat in beats)

    def test_overflow_raises_on_both_paths(self):
        r = [[1, 2, 3]] * 5
        s = [[]] * 5
        for kernel_loop in (True, False):
            engine = AsyncJoinEngine(
                _config(kernel_loop, memory=4), metrics=MetricsRegistry()
            )
            with pytest.raises(RuntimeError, match="memory overflow at t=0"):
                engine.run(r, s, on_tick=lambda engine, t: None)


class TestLaneCheckpoints:
    @pytest.mark.parametrize("writer", ["lane", "kernel"])
    @pytest.mark.parametrize("reader", ["lane", "kernel"])
    @pytest.mark.parametrize("at", [0, 97, 398])
    def test_resume_is_bit_identical(self, writer, reader, at):
        batches = _batches(4)
        baseline = AsyncJoinEngine(
            _config(True), metrics=MetricsRegistry()
        ).run(*batches)

        saved = {}

        def on_tick(engine, t):
            if t == at:
                saved["state"] = engine.checkpoint()

        AsyncJoinEngine(
            _config(writer == "kernel"), metrics=MetricsRegistry()
        ).run(*batches, on_tick=on_tick)
        resumed = AsyncJoinEngine(
            _config(reader == "kernel"), metrics=MetricsRegistry()
        ).run(*batches, resume=saved["state"])
        assert _signature(resumed) == _signature(baseline)

    def test_lane_checkpoint_is_the_kernel_format(self):
        batches = _batches(5)
        saved = {}

        def capture(side):
            def on_tick(engine, t):
                if t == 200:
                    saved[side] = engine.checkpoint()
            return on_tick

        for kernel_loop, side in ((True, "kernel"), (False, "lane")):
            AsyncJoinEngine(_config(kernel_loop), metrics=MetricsRegistry()).run(
                *batches, on_tick=capture(side)
            )
        lane, kernel = saved["lane"], saved["kernel"]
        assert set(lane) == set(kernel)
        for key in ("tick", "output", "total_output", "arrivals", "sequence",
                    "policies", "schema_version"):
            assert lane[key] == kernel[key]
        assert lane["kernel"]["drops"] == kernel["kernel"]["drops"]
        assert _untimed(lane["metrics"]) == _untimed(kernel["metrics"])
        for side in ("r", "s"):
            ours, theirs = lane["kernel"]["memory"][side], kernel["kernel"]["memory"][side]
            admitted = [ours["slots"][i] for i in ours["order"]]
            assert admitted == [theirs["slots"][i] for i in theirs["order"]]

    def test_policy_states_are_rejected(self):
        batches = _batches(6)
        saved = {}

        def on_tick(engine, t):
            if t == 50:
                saved["state"] = engine.checkpoint()

        AsyncJoinEngine(_config(False)).run(*batches, on_tick=on_tick)
        foreign = dict(saved["state"], policies=[{"rng": None}])
        with pytest.raises(ValueError, match="policy states"):
            AsyncJoinEngine(_config(False)).run(*batches, resume=foreign)


def _async_kernel_loop(monkeypatch):
    """Pin the sharded api path to the async kernel loop."""
    monkeypatch.setattr(
        repro.api, "AsyncEngineConfig",
        functools.partial(AsyncEngineConfig, validate=True),
    )


def _heartbeats(result):
    beats = []
    for event in result.timeline:
        if event.kind != "heartbeat":
            continue
        data = {k: v for k, v in event.data.items() if k != "tuples_per_s"}
        beats.append((event.shard, event.tick, data))
    return sorted(beats, key=lambda beat: (beat[0], beat[1]))


class TestShardedObservedRuns:
    SPEC = dict(window=20, memory=10, length=400, seed=5, shards=2,
                metrics=True, telemetry=True, heartbeat_every=8)

    @pytest.mark.parametrize("algorithm", ["EXACT", "PROB"])
    def test_telemetry_matches_kernel_loop(self, monkeypatch, algorithm):
        spec = RunSpec(algorithm=algorithm, **self.SPEC)
        pair = build_pair(spec)
        lane = repro.api.run(spec, pair=pair, workers=1)
        with monkeypatch.context() as patch:
            _async_kernel_loop(patch)
            kernel = repro.api.run(spec, pair=pair, workers=1)
        assert lane.output_count == kernel.output_count
        assert lane.total_output_count == kernel.total_output_count
        assert lane.drop_counts == kernel.drop_counts
        assert _untimed(lane.metrics) == _untimed(kernel.metrics)
        beats = _heartbeats(lane)
        assert beats == _heartbeats(kernel)
        assert len(beats) == 2 * len(range(0, 400, 8))

    def test_exact_kill_recovers_from_lane_checkpoints(self, monkeypatch):
        spec = RunSpec(algorithm="EXACT", max_retries=2, checkpoint_every=16,
                       **self.SPEC)
        pair = build_pair(spec)
        calls = _spy_lane(monkeypatch)
        baseline = repro.api.run(spec, pair=pair, workers=1)
        plan = FaultPlan((Fault("kill", cell=1, tick=250),))
        recovered = repro.api.run(spec, pair=pair, workers=1, fault_plan=plan)
        # two fault-free shards, then two shards plus the resumed retry
        assert calls == [True] * 5
        assert recovered.attempts == (1, 2)
        for field in ("output_count", "total_output_count", "drop_counts"):
            assert getattr(recovered, field) == getattr(baseline, field)
        assert [
            (shard.output_count, shard.drops) for shard in recovered.per_shard
        ] == [(shard.output_count, shard.drops) for shard in baseline.per_shard]
        kinds = [event.kind for event in recovered.timeline]
        assert "checkpoint_restore" in kinds
        assert _untimed(recovered.metrics)["series"] == _untimed(
            baseline.metrics
        )["series"]


class TestSyncSourceLanesWithMetrics:
    ALGORITHMS = ("EXACT", "RAND", "RANDV", "PROB", "PROBV", "LIFE", "LIFEV")

    @pytest.mark.parametrize("batch_size", [None, 7, 1000])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_metrics_match_kernel_loop(self, monkeypatch, algorithm, batch_size):
        import repro.core.engine as engine_module

        source = ZipfSource(domain_size=12, skew=1.0, seed=9, length=1500)
        memory = 4 * 30 if algorithm == "EXACT" else 24
        spec = RunSpec(algorithm=algorithm, window=30, memory=memory, seed=2,
                       source=source, batch_size=batch_size, metrics=True)
        lane_calls = []
        for name in ("_run_exact_batched", "_run_policy_lanes"):
            original = getattr(engine_module.JoinEngine, name)

            def spy(self, *args, _original=original, **kwargs):
                lane_calls.append(name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(engine_module.JoinEngine, name, spy)
        lane = repro.api.run(spec)
        assert len(lane_calls) == 1
        with monkeypatch.context() as patch:
            patch.setattr(
                repro.api, "EngineConfig",
                functools.partial(EngineConfig, force_general=True),
            )
            kernel = repro.api.run(spec)
        assert len(lane_calls) == 1
        assert lane.output_count == kernel.output_count
        assert lane.drop_counts == kernel.drop_counts
        for kind in ("counters", "gauges", "histograms", "series"):
            assert lane.metrics[kind] == kernel.metrics[kind], kind
        assert lane.metrics["series"]
