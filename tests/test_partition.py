"""Tests for hash-partitioned sharded execution (repro.core.partition).

The invariants pinned here are the partition layer's contract:

* sharded EXACT equals unsharded EXACT tuple for tuple (per-shard
  outputs match the exact pairs whose key hashes to that shard);
* for a fixed ``shards=N`` every policy's result is bit-identical
  whether the shards run serially or across worker processes;
* the merged totals equal the sums of the per-shard results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec, build_pair, run
from repro.core import run_exact
from repro.core.async_engine import AsyncEngineConfig, AsyncJoinEngine
from repro.core.partition import (
    MIN_SHARD_BUDGET,
    ShardPlan,
    merge_shard_results,
    plan_shards,
    shard_batches,
    shard_exact_output,
    shard_input_counts,
    shard_of,
    shard_seed,
    shard_weights,
)
from repro.streams import exact_join_size, zipf_pair


class TestShardOf:
    def test_int_keys_partition_by_residue(self):
        assert shard_of(17, 4) == 1
        assert all(0 <= shard_of(k, 3) < 3 for k in range(50))

    def test_string_keys_stable_and_in_range(self):
        keys = [f"key-{i}" for i in range(100)]
        first = [shard_of(k, 5) for k in keys]
        assert first == [shard_of(k, 5) for k in keys]
        assert all(0 <= s < 5 for s in first)
        assert len(set(first)) > 1  # crc32 actually spreads

    def test_bool_keys_do_not_use_int_residue(self):
        # bool is an int subclass; it must take the hashed path so True
        # and 1 (distinct dict keys? no — but distinct semantics) still
        # land deterministically.
        assert shard_of(True, 2) == shard_of(True, 2)

    def test_shard_seed_is_injective_enough(self):
        seeds = {shard_seed(seed, shard) for seed in range(3) for shard in range(8)}
        assert len(seeds) == 24


class TestShardBatches:
    def test_shards_partition_every_tick(self):
        pair = zipf_pair(200, 10, 1.0, seed=1)
        shards = 3
        views = [shard_batches(pair, s, shards) for s in range(shards)]
        for t in range(len(pair)):
            r_owners = [s for s, (r, _) in enumerate(views) if r[t]]
            s_owners = [s for s, (_, sb) in enumerate(views) if sb[t]]
            assert len(r_owners) == 1 and len(s_owners) == 1
            assert list(views[r_owners[0]][0][t]) == [pair.r[t]]
            assert list(views[s_owners[0]][1][t]) == [pair.s[t]]

    def test_weights_cover_all_arrivals(self):
        pair = zipf_pair(150, 8, 1.0, seed=2)
        weights = shard_weights(pair, 4)
        assert sum(weights) == 2 * len(pair)
        assert all(w >= 0 for w in weights)


class TestPlanShards:
    def test_even_split_rounds_to_even(self):
        plan = plan_shards(50, 4)
        assert plan.budgets == (12, 12, 12, 12)
        assert not plan.weighted

    def test_minimum_budget_floor(self):
        plan = plan_shards(6, 5)
        assert all(b == MIN_SHARD_BUDGET for b in plan.budgets)

    def test_lossless_budget_ignores_memory(self):
        plan = plan_shards(10, 3, lossless_budget=80)
        assert plan.budgets == (80, 80, 80)

    def test_weighted_split_follows_weights(self):
        plan = plan_shards(40, 2, weights=[30, 10])
        assert plan.weighted
        assert plan.budgets[0] > plan.budgets[1]
        assert all(b >= MIN_SHARD_BUDGET and b % 2 == 0 for b in plan.budgets)

    def test_zero_weights_fall_back_to_even(self):
        plan = plan_shards(20, 2, weights=[0, 0])
        assert plan.budgets == (10, 10)
        assert not plan.weighted

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        with pytest.raises(ValueError):
            plan_shards(10, 2, weights=[1])
        with pytest.raises(ValueError):
            ShardPlan(2, (4,))
        with pytest.raises(ValueError):
            ShardPlan(1, (1,))


class TestRunSpecValidation:
    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="shards"):
            RunSpec(shards=0)

    def test_opt_cannot_shard(self):
        with pytest.raises(ValueError, match="OPT"):
            RunSpec(algorithm="OPT", shards=2)

    def test_only_fast_engine_shards(self):
        with pytest.raises(ValueError, match="fast"):
            RunSpec(engine="slowcpu", shards=2)

    def test_trace_incompatible(self):
        with pytest.raises(ValueError, match="trac"):
            RunSpec(shards=2, trace=True)


def _spec(algorithm, shards=1, **kwargs):
    base = dict(window=25, memory=12, length=500, domain=15, seed=4)
    base.update(kwargs)
    return RunSpec(algorithm=algorithm, shards=shards, **base)


class TestExactIdentity:
    def test_matches_unsharded_engine_and_ledger(self):
        spec = _spec("EXACT")
        pair = build_pair(spec)
        base = run(spec, pair=pair)
        for shards in (2, 5):
            sharded = run(_spec("EXACT", shards=shards), pair=pair)
            assert sharded.output_count == base.output_count
            assert sharded.total_output_count == base.total_output_count
            assert sharded.drop_breakdown() == base.drop_breakdown()

    def test_tuple_for_tuple_per_shard(self):
        """Each shard produces exactly the exact-join pairs of its keys."""
        spec = _spec("EXACT", shards=4)
        pair = build_pair(spec)
        exact = run_exact(pair, spec.window, materialize=True)
        per_shard_expected = [0] * spec.shards
        for out in exact.pairs:
            per_shard_expected[shard_of(out.key, spec.shards)] += 1
        sharded = run(spec, pair=pair)
        assert [s.output_count for s in sharded.per_shard] == per_shard_expected
        assert sharded.output_count == exact.output_count

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 200),
        window=st.integers(2, 15),
        shards=st.integers(2, 5),
    )
    def test_exact_identity_for_any_input(self, seed, window, shards):
        pair = zipf_pair(120, 6, 1.0, seed=seed)
        spec = RunSpec(
            algorithm="EXACT",
            window=window,
            memory=2 * window,
            length=len(pair),
            shards=shards,
        )
        sharded = run(spec, pair=pair)
        assert sharded.output_count == exact_join_size(
            pair, window, count_from=2 * window
        )


class TestWorkerDeterminism:
    POLICIES = ("RAND", "PROB", "LIFE", "PROBV", "FIFO")

    @pytest.mark.parametrize("algorithm", POLICIES)
    def test_bit_identical_across_worker_counts(self, algorithm, monkeypatch):
        spec = _spec(algorithm, shards=3, length=400)
        pair = build_pair(spec)

        monkeypatch.setenv("REPRO_WORKERS", "0")  # kill switch: forced serial
        disabled = run(spec, pair=pair)
        monkeypatch.delenv("REPRO_WORKERS")
        serial = run(spec, pair=pair, workers=1)
        parallel = run(spec, pair=pair, workers=4)

        for other in (serial, parallel):
            assert disabled.output_count == other.output_count
            assert disabled.total_output_count == other.total_output_count
            assert disabled.drop_counts == other.drop_counts
            assert disabled.per_shard == other.per_shard

    def test_changing_shard_count_is_a_different_variant(self):
        # Not an identity — documented approximation semantics: the
        # budget split changes with N, so outputs legitimately differ.
        spec2 = _spec("PROB", shards=2)
        spec4 = _spec("PROB", shards=4)
        pair = build_pair(spec2)
        assert run(spec2, pair=pair).output_count != pytest.approx(0)
        assert run(spec4, pair=pair).output_count >= 0


class TestMergeTotals:
    @pytest.mark.parametrize("algorithm", ("EXACT", "RAND", "PROB"))
    def test_totals_equal_sum_of_shards(self, algorithm):
        spec = _spec(algorithm, shards=4)
        result = run(spec)
        assert result.output_count == sum(
            s.output_count for s in result.per_shard
        )
        merged = result.drop_breakdown()
        assert merged.rejected == sum(s.drops.rejected for s in result.per_shard)
        assert merged.evicted == sum(s.drops.evicted for s in result.per_shard)
        assert merged.expired == sum(s.drops.expired for s in result.per_shard)
        assert result.shards == 4 and len(result.per_shard) == 4

    def test_metrics_snapshots_merge(self):
        spec = _spec("PROB", shards=3, metrics=True)
        result = run(spec)
        assert result.metrics is not None
        output_total = sum(
            c["value"]
            for c in result.metrics["counters"]
            if c["name"] == "engine.output"
        )
        arrivals = sum(
            c["value"]
            for c in result.metrics["counters"]
            if c["name"] == "async.arrivals"
        )
        assert output_total == result.output_count
        assert arrivals == 2 * spec.length

    def test_summary_surface(self):
        result = run(_spec("PROB", shards=2))
        summary = result.summary()
        assert summary.engine == "sharded"
        assert summary.output_count == result.output_count


class TestLostShards:
    """Degraded merges: attributed loss, exact reconciliation."""

    WINDOW = 25
    SHARDS = 3

    @classmethod
    def _shard_results(cls, pair):
        plan = plan_shards(
            4 * cls.WINDOW, cls.SHARDS, lossless_budget=2 * cls.WINDOW
        )
        results = []
        for shard in range(cls.SHARDS):
            r_batches, s_batches = shard_batches(pair, shard, cls.SHARDS)
            config = AsyncEngineConfig(
                window=cls.WINDOW,
                memory=plan.budgets[shard],
                warmup=2 * cls.WINDOW,
            )
            results.append(AsyncJoinEngine(config).run(r_batches, s_batches))
        return plan, results

    def test_input_counts_partition_the_pair(self):
        pair = zipf_pair(300, 12, 1.0, seed=6)
        totals = [shard_input_counts(pair, s, 4) for s in range(4)]
        assert sum(r for r, _ in totals) == len(pair)
        assert sum(s for _, s in totals) == len(pair)

    def test_exact_output_partitions_the_total(self):
        pair = zipf_pair(300, 12, 1.0, seed=6)
        per_shard = [
            shard_exact_output(pair, s, 4, self.WINDOW, count_from=50)
            for s in range(4)
        ]
        assert sum(per_shard) == exact_join_size(
            pair, self.WINDOW, count_from=50
        )

    def test_degraded_merge_attributes_and_reconciles(self):
        pair = zipf_pair(400, 10, 1.0, seed=7)
        plan, results = self._shard_results(pair)
        lost_shard = 1
        warmup = 2 * self.WINDOW
        lost_output = shard_exact_output(
            pair, lost_shard, self.SHARDS, self.WINDOW, count_from=warmup
        )
        merged = merge_shard_results(
            results,
            plan,
            length=len(pair),
            window=self.WINDOW,
            memory=4 * self.WINDOW,
            warmup=warmup,
            lost=(lost_shard,),
            lost_inputs=[shard_input_counts(pair, lost_shard, self.SHARDS)],
            lost_output=lost_output,
        )
        assert merged.lost_shards == (lost_shard,)
        assert merged.per_shard[lost_shard] is None
        survivors = [s for s in range(self.SHARDS) if s != lost_shard]
        assert merged.output_count == sum(
            results[s].output_count for s in survivors
        )
        # the lost shard's inputs are booked, not silently vanished
        lost_r, lost_s = shard_input_counts(pair, lost_shard, self.SHARDS)
        assert merged.drop_breakdown().lost == lost_r + lost_s
        # EXACT reconciliation: merged output + attributed loss = total
        assert merged.output_count + merged.lost_output == exact_join_size(
            pair, self.WINDOW, count_from=warmup
        )

    def test_merge_without_losses_has_empty_ledger_entry(self):
        pair = zipf_pair(200, 10, 1.0, seed=8)
        plan, results = self._shard_results(pair)
        merged = merge_shard_results(
            results,
            plan,
            length=len(pair),
            window=self.WINDOW,
            memory=4 * self.WINDOW,
            warmup=2 * self.WINDOW,
        )
        assert merged.lost_shards == ()
        assert merged.lost_output is None
        assert merged.drop_breakdown().lost == 0

    def test_all_shards_lost_refuses_to_merge(self):
        pair = zipf_pair(200, 10, 1.0, seed=8)
        plan, results = self._shard_results(pair)
        with pytest.raises(ValueError, match="all shards were lost"):
            merge_shard_results(
                results,
                plan,
                length=len(pair),
                window=self.WINDOW,
                memory=4 * self.WINDOW,
                warmup=2 * self.WINDOW,
                lost=tuple(range(self.SHARDS)),
            )

    def test_lost_validation(self):
        pair = zipf_pair(200, 10, 1.0, seed=8)
        plan, results = self._shard_results(pair)
        common = dict(
            length=len(pair),
            window=self.WINDOW,
            memory=4 * self.WINDOW,
            warmup=2 * self.WINDOW,
        )
        with pytest.raises(ValueError, match="out of range"):
            merge_shard_results(results, plan, lost=(9,), **common)
        with pytest.raises(ValueError, match="lost_inputs"):
            merge_shard_results(
                results, plan, lost=(0,), lost_inputs=[(1, 1), (2, 2)],
                **common,
            )
