"""Tests for the columnar micro-batch fast path.

Covers the batch encoder (``repro.streams.batches``), the count-only
EXACT lanes (``repro.core.batched``), the kernel/memory batch
operations, and — most importantly — the identity guarantee: a batched
run must be bit-identical to the per-tuple run (output, drop ledger,
metrics totals) for every policy, batch size, and shard count.
"""

import pytest

from dataclasses import replace

from repro.api import RunSpec, build_pair, run
from repro.core.async_engine import AsyncEngineConfig, AsyncJoinEngine
from repro.core.batched import exact_chunk_counts, exact_tick_counts
from repro.core.engine import CapacityExceededError, EngineConfig, JoinEngine
from repro.core.kernel import JoinKernel
from repro.core.memory import JoinMemory, TupleRecord
from repro.obs import MetricsRegistry
from repro.streams import zipf_pair
from repro.streams.batches import (
    DEFAULT_BATCH_SIZE,
    StreamChunk,
    encode_chunks,
    encode_columns,
    resolve_batch_size,
)
from repro.streams.sources import ZipfSource, take_pair
from repro.streams.tuples import StreamPair

SMALL = dict(window=20, memory=10, length=400, seed=3)


def small_spec(algorithm: str, **overrides) -> RunSpec:
    return RunSpec(algorithm=algorithm, **{**SMALL, **overrides})


def comparable_metrics(snapshot):
    """Metrics snapshot minus wall-clock phases (timing is not identity)."""
    if snapshot is None:
        return None
    return {k: v for k, v in snapshot.items() if k != "phases"}


# ----------------------------------------------------------------------
# encoder
# ----------------------------------------------------------------------

class TestEncoder:
    def test_chunking_covers_stream_with_remainder(self):
        pair = zipf_pair(10, 5, 1.0, seed=1)
        chunks = list(encode_chunks(pair, 4))
        assert [(c.start, c.length) for c in chunks] == [(0, 4), (4, 4), (8, 2)]
        assert [len(c) for c in chunks] == [4, 4, 2]
        r_flat = [k for c in chunks for k in c.r_list()]
        s_flat = [k for c in chunks for k in c.s_list()]
        assert r_flat == list(pair.r)
        assert s_flat == list(pair.s)

    def test_lists_contain_native_ints(self):
        pair = zipf_pair(8, 5, 1.0, seed=1)
        (chunk,) = encode_chunks(pair, 100)
        assert all(type(k) is int for k in chunk.r_list())
        assert all(type(k) is int for k in chunk.s_list())

    def test_default_batch_size(self):
        assert resolve_batch_size(5000) == DEFAULT_BATCH_SIZE
        assert resolve_batch_size(10) == 10  # clamped to stream length

    def test_resolve_clamps_and_validates(self):
        assert resolve_batch_size(10, 64) == 10
        assert resolve_batch_size(10, 3) == 3
        assert resolve_batch_size(0, 7) == 1  # empty stream stays well-formed
        with pytest.raises(ValueError, match="batch_size"):
            resolve_batch_size(10, 0)

    def test_non_integer_keys_fall_back_to_tuple_columns(self):
        pair = StreamPair(r=["a", "b", "a"], s=["b", "b", "c"])
        r_col, s_col = encode_columns(pair)
        assert isinstance(r_col, tuple) and isinstance(s_col, tuple)
        (chunk,) = encode_chunks(pair, 3)
        assert chunk.r_list() == ["a", "b", "a"]
        assert chunk.s_list() == ["b", "b", "c"]

    def test_numpy_and_fallback_lanes_agree(self, monkeypatch):
        import repro.streams.batches as batches

        pair = zipf_pair(50, 5, 1.0, seed=2)
        with_numpy = [c.r_list() for c in encode_chunks(pair, 16)]
        monkeypatch.setattr(batches, "HAVE_NUMPY", False)
        without = [c.r_list() for c in encode_chunks(pair, 16)]
        assert with_numpy == without


# ----------------------------------------------------------------------
# count lanes
# ----------------------------------------------------------------------

class TestExactChunkCounts:
    def test_empty_stream(self):
        assert exact_chunk_counts([], 10, 0) == (0, 0, 0, 0)

    def test_matches_reference_counts(self):
        # Hand-checked tiny example: window 2, R=[1,2,1], S=[1,1,2].
        pair = StreamPair(r=[1, 2, 1], s=[1, 1, 2])
        chunks = encode_chunks(pair, 2)
        output, total, simultaneous, length = exact_chunk_counts(chunks, 2, 0)
        # t=0: simultaneous (1,1) -> 1
        # t=1: r=2 vs s={1}: 0; s=1 vs r={1}: 1 -> 1
        # t=2: expire t=0; r=1 vs s={1}: 1; s=2 vs r={2}: 1 -> 2
        assert (output, total, simultaneous, length) == (4, 4, 1, 3)

    def test_warmup_gates_output_but_not_total(self):
        pair = zipf_pair(60, 5, 1.0, seed=4)
        full = exact_chunk_counts(encode_chunks(pair, 16), 10, 0)
        gated = exact_chunk_counts(encode_chunks(pair, 16), 10, 30)
        assert gated[1] == full[1]  # total unaffected
        assert gated[0] <= full[0]

    def test_chunk_boundaries_are_invisible(self):
        pair = zipf_pair(120, 5, 1.0, seed=5)
        results = {
            exact_chunk_counts(encode_chunks(pair, size), 15, 10)
            for size in (1, 7, 64, 120, 500)
        }
        assert len(results) == 1


class TestExactTickCounts:
    def test_empty_ticks_and_bursts(self):
        r = [[1, 2], [], [2, 2, 3], []]
        s = [[2], [1, 1], [], [3]]
        output, total, arrivals, exp_r, exp_s = exact_tick_counts(
            r, s, 100, 0, capacity=1000, variable=True
        )
        assert arrivals == 9
        # t=0: R 1,2 probe S={} -> 0; S 2 probes R={1,2} -> 1
        # t=1: S 1,1 probe R={1,2} -> 2
        # t=2: R 2 probes S={2,1,1} -> 1 (twice: 2 arrivals of key 2),
        #      R 3 -> 0
        # t=3: S 3 probes R={..3} -> 1
        assert total == output == 1 + 2 + 2 + 1
        assert exp_r == exp_s == 0  # window never advanced past arrivals

    def test_expiry_counts(self):
        r = [[1], [1], [1], [1]]
        s = [[], [], [], []]
        _, _, _, exp_r, exp_s = exact_tick_counts(
            r, s, 2, 0, capacity=1000, variable=True
        )
        # horizon at t=2 is 0 (expires arrival 0), at t=3 is 1.
        assert exp_r == 2
        assert exp_s == 0

    def test_overflow_matches_kernel_message_and_type(self):
        r = [[1, 2, 3]]
        s = [[]]
        with pytest.raises(RuntimeError, match=r"memory overflow at t=0.*capacity 4"):
            exact_tick_counts(r, s, 10, 0, capacity=4, variable=False)

    def test_agrees_with_kernel_path(self):
        # validate=True pins the async engine to its kernel loop; the
        # count lane (metrics or not) must agree with it on every
        # counter and the ledger.
        pair = zipf_pair(90, 5, 1.0, seed=7)
        r_keys, s_keys = list(pair.r), list(pair.s)
        r_batches, s_batches = [], []
        while r_keys or s_keys:
            r_batches.append(r_keys[:3])
            s_batches.append(s_keys[:2])
            del r_keys[:3], s_keys[:2]
        config = AsyncEngineConfig(window=12, memory=200, variable=True, warmup=5)

        lane = AsyncJoinEngine(config, metrics=MetricsRegistry()).run(
            r_batches, s_batches
        )
        kernel = AsyncJoinEngine(
            replace(config, validate=True), metrics=MetricsRegistry()
        ).run(r_batches, s_batches)
        assert lane.output_count == kernel.output_count
        assert lane.total_output_count == kernel.total_output_count
        assert lane.arrivals == kernel.arrivals
        assert lane.ticks == kernel.ticks
        assert lane.drop_counts == kernel.drop_counts

    def test_overflow_parity_with_kernel_path(self):
        r_batches, s_batches = [[1, 2, 3, 4]], [[5]]
        config = AsyncEngineConfig(window=10, memory=4, variable=True, warmup=0)
        with pytest.raises(RuntimeError) as lane_err:
            AsyncJoinEngine(config).run(r_batches, s_batches)
        with pytest.raises(RuntimeError) as kernel_err:
            AsyncJoinEngine(replace(config, validate=True)).run(
                r_batches, s_batches
            )
        assert str(lane_err.value) == str(kernel_err.value)
        assert type(lane_err.value) is type(kernel_err.value)


# ----------------------------------------------------------------------
# expire_until boundaries
# ----------------------------------------------------------------------

class TestExpireUntilBoundaries:
    def _memory_with(self, arrivals):
        memory = JoinMemory(100)
        records = [TupleRecord("R", t, key) for t, key in arrivals]
        for record in records:
            memory.r.add(record)
        return memory, records

    def test_empty_window(self):
        memory = JoinMemory(10)
        assert memory.expire_until(50) == []

    def test_horizon_equals_arrival_expires_it(self):
        memory, records = self._memory_with([(5, 1), (6, 2)])
        expired = memory.r.expire_until(5)
        assert expired == [records[0]]
        assert memory.r.size == 1
        assert not records[0].alive

    def test_horizon_before_first_arrival_is_noop(self):
        memory, _ = self._memory_with([(5, 1), (6, 2)])
        assert memory.r.expire_until(4) == []
        assert memory.r.size == 2

    def test_all_expired_chunk(self):
        memory, records = self._memory_with([(0, 1), (1, 2), (2, 1)])
        expired = memory.r.expire_until(10)
        assert expired == records
        assert memory.r.size == 0
        assert memory.r.match_count(1) == 0


# ----------------------------------------------------------------------
# kernel / memory batch operations
# ----------------------------------------------------------------------

class TestKernelBatchOps:
    def test_match_total_is_sum_of_match_counts(self):
        memory = JoinMemory(100)
        for t, key in enumerate([1, 1, 2, 3]):
            memory.s.add(TupleRecord("S", t, key))
        keys = [1, 2, 2, 4]
        assert memory.s.match_total(keys) == sum(
            memory.s.match_count(k) for k in keys
        )

    def test_probe_batch_equals_sum_of_probes(self):
        memory = JoinMemory(100)
        kernel = JoinKernel(memory, None, None)
        for offered in ([1, 2, 1], [2, 2, 3]):
            kernel.insert_batch("S", offered, 0)
        keys = [1, 2, 9, 2]
        assert kernel.probe_batch("R", keys, 1) == sum(
            kernel.probe("R", k, 1) for k in keys
        )

    def test_insert_batch_bulk_lane(self):
        memory = JoinMemory(10)
        kernel = JoinKernel(memory, None, None)
        outcomes = kernel.insert_batch("R", [1, 2, 3], 5)
        assert outcomes == [(True, None)] * 3
        assert memory.r.size == 3
        assert memory.r.match_count(1) == 1

    def test_insert_batch_overflow_admits_prefix_then_raises(self):
        memory = JoinMemory(4)  # fixed halves: 2 per side
        kernel = JoinKernel(memory, None, None)
        with pytest.raises(
            RuntimeError, match=r"memory overflow at t=7.*capacity 4"
        ):
            kernel.insert_batch("R", [1, 2, 3], 7)
        # The two that fit were admitted before the raise — exactly the
        # state the per-tuple path leaves behind.
        assert memory.r.size == 2

    def test_insert_batch_matches_per_tuple_inserts(self):
        bulk_memory = JoinMemory(20)
        loop_memory = JoinMemory(20)
        bulk = JoinKernel(bulk_memory, None, None)
        loop = JoinKernel(loop_memory, None, None)
        keys = [3, 1, 4, 1, 5]
        bulk.insert_batch("S", keys, 2)
        for key in keys:
            loop.insert(TupleRecord("S", 2, key), 2)
        assert bulk_memory.s.size == loop_memory.s.size
        for key in set(keys):
            assert bulk_memory.s.match_count(key) == loop_memory.s.match_count(key)

    def test_add_batch_rejects_resident_record(self):
        memory = JoinMemory(20)
        record = TupleRecord("R", 0, 1)
        memory.r.add(record)
        with pytest.raises(ValueError, match="already resident"):
            memory.r.add_batch([record])


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

class TestBatchSizeValidation:
    def test_engine_config_rejects_non_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            EngineConfig(window=10, memory=20, batch_size=0)

    def test_run_spec_rejects_non_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            RunSpec(algorithm="EXACT", batch_size=0)

    def test_run_spec_rejects_non_fast_engines(self):
        with pytest.raises(ValueError, match="fast"):
            RunSpec(algorithm="EXACT", engine="async", batch_size=8)


# ----------------------------------------------------------------------
# the identity guarantee
# ----------------------------------------------------------------------

BATCH_SIZES = (1, 7, 64, SMALL["length"])  # whole-stream last
POLICIES = ("EXACT", "RAND", "RANDV", "PROB", "PROBV", "LIFE", "LIFEV", "ARM")
LANE_POLICIES = ("RAND", "RANDV", "PROB", "PROBV", "LIFE", "LIFEV")
#: Correlated streams share one key ranking, so PROB/LIFE priorities tie
#: across sides — including, on a shared pool, this tick's R tuple as
#: the weakest resident of this tick's S contest, the one place where
#: the full later-arrival tie rule differs from ``<=`` (seed 2 reaches
#: it on both PROBV and LIFEV).
CORRELATED = dict(correlation="correlated", seed=2)
#: Without numpy the policy lanes gather priorities per key from the
#: dicts and RAND draws one scalar at a time.
NO_NUMPY = None
#: Odd keys: the default input with the key arriving at tick ``t`` passed
#: through ``convert(key, t)``.  Columns of anything but integers that
#: fit one numpy integer dtype fall back to tuples; bools pack with ints
#: into one int64 column; keys of 2**63 and up alone pack as uint64.
ODD_KEYS = {
    "str-keys": lambda key, t: f"k{key}",
    "float-keys": lambda key, t: key + 0.5,
    "mixed-keys": lambda key, t: (
        (key, str(key), float(key), None, (key, "t"))[(key + t) % 5]
    ),
    "bool-int-keys": lambda key, t: bool(key) if key < 2 and t % 2 else key,
    "uint64-keys": lambda key, t: key + 2**63,
    "beyond-int64-keys": lambda key, t: key + 2**63 if t % 2 else key,
}
IDENTITY_INPUTS = (
    [pytest.param(a, {}, id=a) for a in POLICIES]
    + [pytest.param(a, CORRELATED, id=f"{a}-correlated") for a in POLICIES]
    + [pytest.param(a, NO_NUMPY, id=f"{a}-no-numpy") for a in LANE_POLICIES]
    + [
        pytest.param(a, {"keys": convert}, id=f"{a}-{name}")
        for name, convert in ODD_KEYS.items()
        for a in ("EXACT",) + LANE_POLICIES
    ]
)


def converted_pair(spec: RunSpec, convert) -> StreamPair:
    """The spec's pair with every key passed through ``convert``; no
    generator metadata, so PROB/LIFE tabulate the converted keys."""
    pair = build_pair(spec)
    return StreamPair(
        r=[convert(key, t) for t, key in enumerate(pair.r)],
        s=[convert(key, t) for t, key in enumerate(pair.s)],
    )


class TestBatchedIdentity:
    """The columnar lanes are bit-identical to the kernel loop for every
    policy, batch size, and input."""

    @pytest.mark.parametrize("algorithm, inputs", IDENTITY_INPUTS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_unsharded_identity(
        self, algorithm, inputs, batch_size, monkeypatch, kernel_loop_run
    ):
        if inputs is NO_NUMPY:
            import repro.core.batched_policies as lanes
            import repro.streams.batches as batches

            monkeypatch.setattr(lanes, "HAVE_NUMPY", False)
            monkeypatch.setattr(batches, "HAVE_NUMPY", False)
            assert not lanes._block_draws_equivalent(SMALL["memory"] + 1)
            inputs = {}
        convert = inputs.get("keys")
        if convert is not None:
            inputs = {}
        spec = small_spec(algorithm, metrics=True, **inputs)
        pair = None if convert is None else converted_pair(spec, convert)
        baseline = kernel_loop_run(spec, pair=pair)
        batched = run(replace(spec, batch_size=batch_size), pair=pair)
        assert batched.output_count == baseline.output_count
        assert batched.total_output_count == baseline.total_output_count
        assert batched.drop_counts == baseline.drop_counts
        assert batched.r_departures == baseline.r_departures
        assert batched.s_departures == baseline.s_departures
        assert comparable_metrics(batched.metrics) == comparable_metrics(
            baseline.metrics
        )

    @pytest.mark.parametrize("algorithm", ("EXACT", "PROB", "LIFE"))
    @pytest.mark.parametrize("batch_size", (7, SMALL["length"]))
    def test_sharded_identity(self, algorithm, batch_size):
        baseline = run(small_spec(algorithm, shards=4))
        batched = run(small_spec(algorithm, shards=4, batch_size=batch_size))
        assert batched.output_count == baseline.output_count
        assert batched.drop_counts == baseline.drop_counts

    def test_exact_departures_and_survival_identity(self, kernel_loop_run):
        baseline = kernel_loop_run(small_spec("EXACT"))
        batched = run(small_spec("EXACT", batch_size=32))
        assert batched.r_departures == baseline.r_departures
        assert batched.s_departures == baseline.s_departures

    @pytest.mark.parametrize("seed", (0, 1, 2, 11, 42))
    def test_exact_seed_sweep(self, seed, kernel_loop_run):
        baseline = kernel_loop_run(small_spec("EXACT", seed=seed))
        for batch_size in BATCH_SIZES + (None,):
            batched = run(small_spec("EXACT", seed=seed, batch_size=batch_size))
            assert batched.output_count == baseline.output_count
            assert batched.total_output_count == baseline.total_output_count
            assert batched.drop_counts == baseline.drop_counts


# ----------------------------------------------------------------------
# the EXACT chunk lane on unit-rate source input
# ----------------------------------------------------------------------

SOURCE_WINDOW = 30
SOURCE_TICKS = 5000


def spy_exact_lanes(monkeypatch) -> list:
    """Record which EXACT count lane ran (the engine looks the lane
    functions up in ``repro.core.batched`` at call time)."""
    import repro.core.batched as batched

    calls = []
    for name in ("exact_chunk_counts", "exact_stream_counts"):
        def spy(*args, _name=name, _fn=getattr(batched, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(batched, name, spy)
    return calls


def exact_engine(batch_size=None, memory=2 * SOURCE_WINDOW, **config):
    return JoinEngine(EngineConfig(
        window=SOURCE_WINDOW, memory=memory, batch_size=batch_size, **config
    ))


class TestExactChunkLaneOnSources:
    """EXACT on a unit-rate source runs ``exact_chunk_counts`` over
    re-chunked source events, with or without ``batch_size``, and matches
    the kernel loop on the materialized pair exactly."""

    @pytest.mark.parametrize("batch_size", (1, 7, 4096, SOURCE_TICKS + 1, None))
    @pytest.mark.parametrize("count_simultaneous", (True, False))
    @pytest.mark.parametrize("bounded", (True, False), ids=("length", "until"))
    def test_matches_pair_path(
        self, batch_size, count_simultaneous, bounded, monkeypatch
    ):
        # Correlated streams share hot keys, so same-tick pairs occur.
        source = ZipfSource(
            40, 1.0, correlation="correlated", seed=13,
            length=SOURCE_TICKS if bounded else None,
        )
        expected = exact_engine(
            count_simultaneous=count_simultaneous, force_general=True
        ).run(take_pair(source, SOURCE_TICKS))
        lanes = spy_exact_lanes(monkeypatch)
        streamed = exact_engine(
            batch_size, count_simultaneous=count_simultaneous
        ).run_stream(source, until=None if bounded else SOURCE_TICKS)
        assert lanes == ["exact_chunk_counts"]
        assert (
            streamed.output_count,
            streamed.total_output_count,
            streamed.drop_counts,
            streamed.length,
        ) == (
            expected.output_count,
            expected.total_output_count,
            expected.drop_counts,
            expected.length,
        )
        assert streamed.r_departures is None  # no per-arrival state

    def test_summary_callback_keeps_the_stream_lane(self, monkeypatch):
        lanes = spy_exact_lanes(monkeypatch)
        exact_engine(64).run_stream(
            ZipfSource(40, 1.0, seed=13, length=500), on_summary=lambda s: None
        )
        assert lanes == ["exact_stream_counts"]

    def test_lossy_budget_still_raises(self, monkeypatch):
        # NONE (M < 2w) must overflow exactly as the per-tuple lanes do;
        # the lossless chunk lane has no capacity checks to do it with.
        lanes = spy_exact_lanes(monkeypatch)
        engine = exact_engine(64, memory=2 * SOURCE_WINDOW - 2)
        assert engine.policy_name == "NONE"
        with pytest.raises(CapacityExceededError, match="memory overflow"):
            engine.run_stream(ZipfSource(40, 1.0, seed=13, length=500))
        assert lanes == ["exact_stream_counts"]

    def test_unbounded_source_stays_bounded(self):
        # The lane keeps O(window + batch_size) keys, never the stream:
        # a run 10x longer may not cost 2x the peak memory.
        import tracemalloc

        def peak(duration):
            engine = exact_engine(64)
            tracemalloc.start()
            result = engine.run_stream(ZipfSource(30, 1.0, seed=2), until=duration)
            _, high = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert result.length == duration
            return high

        short, long = peak(4000), peak(40000)
        assert long < 2 * short, (short, long)
