"""One tick loop per engine: pair input and source input agree exactly.

The synchronous engine's kernel-driven loop must give the same run on a
materialized pair (``force_general=True``) as on the same traffic pulled
from a ``PairSource`` — output, drop ledger, metrics counters, and the
full trace event list — for every shipped policy.  The asynchronous
engine's ``run`` over per-tick lists must match ``run_stream`` over the
source those lists came from, hooks and metrics included, and a killed
run resumed from its checkpoint must match the uninterrupted one.

The pull-count tests pin that a run bounded by ``until=n`` draws exactly
``n`` ticks from its source on every path.
"""

import pytest

from repro.core.async_engine import AsyncEngineConfig, AsyncJoinEngine
from repro.core.engine import EngineConfig, JoinEngine
from repro.core.policies import make_policy_spec
from repro.experiments.runner import estimators_for, run_algorithm
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.streams import zipf_pair
from repro.streams.sources import PairSource, PoissonSource, ZipfSource

ALGORITHMS = ["EXACT", "RAND", "PROB", "PROBV", "LIFE", "LIFEV", "ARM", "FIFO", "RANDV"]
WINDOW = 25
MEMORY = 14


def _observed(result, metrics):
    snapshot = metrics.snapshot()
    return (
        result.output_count,
        result.total_output_count,
        result.policy_name,
        dict(result.drop_counts),
        snapshot["counters"],
        snapshot["gauges"],
        result.trace,
    )


# ----------------------------------------------------------------------
# JoinEngine: the kernel loop on pair input == on source input
# ----------------------------------------------------------------------

class TestSyncKernelLoop:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_pair_input_matches_source_input(self, algorithm):
        pair = zipf_pair(500, 12, 1.0, seed=17)

        def observed(**kwargs):
            metrics = MetricsRegistry()
            result = run_algorithm(
                algorithm, pair, WINDOW, MEMORY, seed=5, metrics=metrics,
                trace=Tracer(RingBufferSink(1 << 20)), **kwargs,
            )
            assert result.length == len(pair)
            return _observed(result, metrics)

        general = observed(force_general=True)
        streamed = observed(source=PairSource(pair), until=len(pair))
        assert general[-1]  # the trace really was collected
        assert streamed == general

    @pytest.mark.parametrize("algorithm", ["EXACT", "PROB", "LIFEV", "ARM"])
    def test_materialized_pairs_match_emitted_pairs(self, algorithm):
        pair = zipf_pair(400, 10, 1.0, seed=23)
        estimators = estimators_for(pair)

        def engine(**overrides):
            exact = algorithm == "EXACT"
            config = EngineConfig(
                window=WINDOW,
                memory=2 * WINDOW if exact else MEMORY,
                variable=algorithm.endswith("V"),
                **overrides,
            )
            policy = None if exact else make_policy_spec(
                algorithm, estimators=estimators, window=WINDOW, seed=2
            )
            return JoinEngine(config, policy=policy)

        materialized = engine(materialize=True).run(pair)
        emitted = []
        streamed = engine().run_stream(
            PairSource(pair), until=len(pair), emit=emitted.append
        )
        assert streamed.output_count == materialized.output_count
        assert emitted == materialized.pairs


# ----------------------------------------------------------------------
# AsyncJoinEngine: run(lists) == run_stream(source), and resume
# ----------------------------------------------------------------------

def _async_engine(algorithm, metrics=None, trace=None):
    exact = algorithm == "EXACT"
    config = AsyncEngineConfig(
        window=WINDOW,
        # Poisson bursts need headroom for the policy-less run.
        memory=6 * WINDOW if exact else MEMORY,
        variable=algorithm.endswith("V"),
    )
    estimators = estimators_for(zipf_pair(300, 12, 1.0, seed=0))
    policy = None if exact else make_policy_spec(
        algorithm, estimators=estimators, window=WINDOW, seed=3
    )
    return AsyncJoinEngine(config, policy=policy, metrics=metrics, trace=trace)


def _bursty():
    source = PoissonSource(12, 1.0, rate=0.8, seed=9, length=400)
    r_batches, s_batches = [], []
    for r_keys, s_keys in source:
        r_batches.append(list(r_keys))
        s_batches.append(list(s_keys))
    return source, r_batches, s_batches


def _async_observed(result, metrics):
    snapshot = metrics.snapshot()
    return (
        result.output_count,
        result.total_output_count,
        result.ticks,
        result.arrivals,
        result.policy_name,
        dict(result.drop_counts),
        snapshot["counters"],
        snapshot["gauges"],
        snapshot["histograms"],
    )


class TestAsyncTickLoop:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_lists_match_source(self, algorithm):
        source, r_batches, s_batches = _bursty()
        outcomes = []
        for feed in ("lists", "source"):
            metrics = MetricsRegistry()
            engine = _async_engine(algorithm, metrics=metrics)
            progress = []

            def on_tick(running, t):
                progress.append(running.progress())

            if feed == "lists":
                result = engine.run(r_batches, s_batches, on_tick=on_tick,
                                    on_tick_every=7)
            else:
                result = engine.run_stream(source, on_tick=on_tick,
                                           on_tick_every=7)
            outcomes.append((_async_observed(result, metrics), progress))
        assert outcomes[0][1]
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_traced_lists_match_traced_source(self, algorithm):
        source, r_batches, s_batches = _bursty()
        traced = _async_engine(algorithm, trace=Tracer(RingBufferSink(1 << 20)))
        from_lists = traced.run(r_batches, s_batches)
        traced = _async_engine(algorithm, trace=Tracer(RingBufferSink(1 << 20)))
        from_source = traced.run_stream(source)
        assert from_lists.trace
        assert from_source.trace == from_lists.trace
        assert from_source.output_count == from_lists.output_count

    @pytest.mark.parametrize("algorithm", ["EXACT", "RAND", "PROB", "LIFE"])
    def test_killed_run_resumes_identically(self, algorithm):
        _, r_batches, s_batches = _bursty()
        metrics = MetricsRegistry()
        baseline = _async_engine(algorithm, metrics=metrics).run(
            r_batches, s_batches
        )
        expected = _async_observed(baseline, metrics)

        saved = {}

        class Killed(Exception):
            pass

        def on_tick(running, t):
            if t == 173:
                saved["state"] = running.checkpoint()
                raise Killed

        with pytest.raises(Killed):
            _async_engine(algorithm, metrics=MetricsRegistry()).run(
                r_batches, s_batches, on_tick=on_tick
            )

        metrics = MetricsRegistry()
        resumed = _async_engine(algorithm, metrics=metrics).run(
            r_batches, s_batches, resume=saved["state"]
        )
        assert _async_observed(resumed, metrics) == expected


# ----------------------------------------------------------------------
# pull bounds: until=n pulls exactly n ticks, stop() is polled first
# ----------------------------------------------------------------------

class CountingSource:
    """An unbounded source that counts the ticks pulled from it.

    It always yields one arrival per side per tick; ``unit_rate=False``
    only withholds the declaration, which keeps the synchronous engine
    off its chunk lanes.
    """

    length = None

    def __init__(self, unit_rate: bool = True) -> None:
        self.inner = ZipfSource(12, 1.0, seed=31)
        self.unit_rate = unit_rate
        self.pulls = 0

    def __iter__(self):
        for event in self.inner:
            self.pulls += 1
            yield event


#: path -> (engine, algorithm, batch_size, unit_rate, lane function
#: expected to run)
PULL_PATHS = {
    "sync-kernel-loop": ("fast", "PROB", None, False, None),
    "sync-exact-lane": ("fast", "EXACT", None, False, "exact_stream_counts"),
    "sync-exact-chunk-lane": ("fast", "EXACT", 64, True, "exact_chunk_counts"),
    "sync-exact-chunk-lane-default-size": (
        "fast", "EXACT", None, True, "exact_chunk_counts"
    ),
    "sync-policy-lane": ("fast", "PROB", 64, True, "prob_chunk_run"),
    "async-loop": ("async", "PROB", None, True, None),
    "async-exact-lane": ("async", "EXACT", None, True, "exact_stream_counts"),
}


def _pull_run(monkeypatch, path, **bounds):
    import repro.core.batched as batched

    engine_kind, algorithm, batch_size, unit_rate, lane = PULL_PATHS[path]
    lanes = []
    for name in ("exact_stream_counts", "exact_chunk_counts", "prob_chunk_run"):
        def spy(*args, _name=name, _fn=getattr(batched, name), **kwargs):
            lanes.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(batched, name, spy)

    exact = algorithm == "EXACT"
    memory = 2 * WINDOW if exact else MEMORY
    policy = None if exact else make_policy_spec(
        algorithm, estimators=estimators_for(zipf_pair(300, 12, 1.0, seed=0)),
        window=WINDOW, seed=1,
    )
    if engine_kind == "fast":
        config = EngineConfig(window=WINDOW, memory=memory, batch_size=batch_size)
        engine = JoinEngine(config, policy=policy)
    else:
        engine = AsyncJoinEngine(
            AsyncEngineConfig(window=WINDOW, memory=memory), policy=policy
        )
    source = CountingSource(unit_rate)
    result = engine.run_stream(source, **bounds)
    assert lanes == ([lane] if lane else [])
    ticks = result.length if engine_kind == "fast" else result.ticks
    return source.pulls, ticks


class TestPullBounds:
    @pytest.mark.parametrize("path", list(PULL_PATHS))
    @pytest.mark.parametrize("until", [0, 1, 130])
    def test_until_pulls_exactly_n_ticks(self, path, until, monkeypatch):
        assert _pull_run(monkeypatch, path, until=until) == (until, until)

    @pytest.mark.parametrize("path", list(PULL_PATHS))
    def test_stop_is_polled_before_each_pull(self, path, monkeypatch):
        polls = []

        def stop():
            polls.append(None)
            return len(polls) > 90

        assert _pull_run(monkeypatch, path, stop=stop) == (90, 90)
        assert len(polls) == 91
