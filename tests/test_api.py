"""Tests for the unified public run API (repro.api)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api_module
from repro.api import (
    RunSpec,
    build_pair,
    compare,
    optimal_offline,
    run,
)
from repro.core.policies import POLICY_NAMES
from repro.core.results import SCHEMA_VERSION, DropBreakdown, RunSummary
from repro.obs import MetricsRegistry
from repro.runtime import Fault, FaultPlan

SMALL = dict(window=20, memory=10, length=300, seed=3)


def small_spec(algorithm: str, **overrides) -> RunSpec:
    params = {**SMALL, **overrides}
    return RunSpec(algorithm=algorithm, **params)


class TestRunSpec:
    def test_algorithm_upper_cased_and_validated(self):
        assert RunSpec(algorithm="prob").algorithm == "PROB"
        with pytest.raises(ValueError, match="unknown algorithm"):
            RunSpec(algorithm="NOPE")

    def test_variable_inferred_from_suffix(self):
        assert RunSpec(algorithm="PROB").variable is False
        assert RunSpec(algorithm="PROBV").variable is True
        assert RunSpec(algorithm="OPTV").variable is True

    def test_engine_and_workload_validated(self):
        with pytest.raises(ValueError, match="engine"):
            RunSpec(engine="gpu")
        with pytest.raises(ValueError, match="workload"):
            RunSpec(workload="pareto")

    def test_exact_gets_lossless_memory(self):
        spec = RunSpec(algorithm="EXACT", window=50, memory=10)
        assert spec.effective_memory == 100
        assert RunSpec(algorithm="PROB", memory=10).effective_memory == 10


class TestFacadeRoundTrip:
    """Every registered policy runs through the facade, both allocations."""

    @pytest.mark.parametrize("base", POLICY_NAMES)
    @pytest.mark.parametrize("variable", [False, True])
    def test_policy_times_allocation(self, base, variable):
        name = f"{base}V" if variable else base
        result = run(small_spec(name))
        assert result.engine_kind == "fast"
        assert result.policy_name == name
        assert result.output_count >= 0
        summary = result.summary()
        assert summary.engine == "fast"
        assert summary.policy_name == name
        assert summary.drops.total == result.drop_breakdown().total

    def test_exact_matches_run_exact(self):
        spec = small_spec("EXACT")
        result = run(spec)
        assert result.policy_name == "EXACT"
        assert result.drop_breakdown().shed == 0

    def test_opt_delegates_to_offline(self):
        spec = small_spec("OPT")
        via_run = run(spec)
        direct = optimal_offline(spec)
        assert via_run.output_count == direct.output_count
        assert via_run.policy_name == "OPT"

    def test_async_engine(self):
        result = run(small_spec("PROB", engine="async"))
        assert result.engine_kind == "async"
        assert result.output_count >= 0

    def test_slowcpu_engine(self):
        result = run(
            small_spec("PROB", engine="slowcpu", service_per_tick=1,
                       queue_capacity=8)
        )
        assert result.engine_kind == "slowcpu"
        assert result.drop_breakdown().total > 0

    def test_explicit_pair_overrides_workload(self):
        spec = small_spec("RAND")
        pair = build_pair(spec)
        assert run(spec, pair=pair).output_count == run(spec).output_count

    def test_deterministic_given_seed(self):
        spec = small_spec("RAND")
        assert run(spec).output_count == run(spec).output_count


class TestCompare:
    def test_shares_one_workload(self):
        results = compare([small_spec("RAND"), "PROB", "OPT"])
        assert list(results) == ["RAND", "PROB", "OPT"]
        assert results["PROB"].output_count <= results["OPT"].output_count

    def test_duplicate_labels_are_suffixed(self):
        results = compare([small_spec("RAND"), "RAND"])
        assert list(results) == ["RAND", "RAND#2"]
        assert results["RAND"].output_count == results["RAND#2"].output_count

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            compare([])


class TestMetricsAttachment:
    def test_disabled_by_default(self):
        assert run(small_spec("PROB")).metrics is None

    def test_snapshot_attached_when_requested(self):
        result = run(small_spec("PROB", metrics=True))
        snapshot = result.metrics
        assert snapshot is not None
        registry = MetricsRegistry.from_snapshot(snapshot)
        assert registry.counter_value("engine.output") == result.output_count
        assert registry.counter_value("engine.probes") > 0
        series = {s.name for s in registry.all_series()}
        assert "engine.occupancy" in series
        assert any(p.path == "engine/run" for p in registry.phases())

    def test_opt_metrics_cover_the_flow_solver(self):
        result = optimal_offline(small_spec("OPT", metrics=True, memory=8))
        registry = MetricsRegistry.from_snapshot(result.metrics)
        assert registry.counter_total("flow.ssp.augmentations") > 0


class TestUnifiedEntrypoint:
    def test_public_surface_is_explicit(self):
        assert "run" in api_module.__all__
        assert "_run_join_shard" not in api_module.__all__
        assert hasattr(api_module, "_run_join_shard")  # private, but real

    def test_deprecated_aliases_are_removed(self):
        import repro
        import repro.core.async_engine as async_engine

        for name in ("run_join", "run_sharded"):
            assert not hasattr(api_module, name)
            assert not hasattr(repro, name)
        assert not hasattr(async_engine, "batches_from_pair")

    def test_run_itself_never_warns(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run(small_spec("PROB", shards=2))


class TestFaultToleranceValidation:
    @pytest.mark.parametrize(
        "knob",
        [
            dict(max_retries=1),
            dict(timeout_s=5.0),
            dict(checkpoint_every=8),
            dict(degrade=True),
        ],
    )
    def test_knobs_require_sharding(self, knob):
        with pytest.raises(ValueError, match="requires sharded execution"):
            small_spec("PROB", **knob)

    @pytest.mark.parametrize(
        "knob, match",
        [
            (dict(max_retries=-1), "max_retries"),
            (dict(timeout_s=0), "timeout_s"),
            (dict(checkpoint_every=0), "checkpoint_every"),
            (dict(checkpoint_dir="/tmp/x"), "checkpoint_dir"),
        ],
    )
    def test_knob_values_validated(self, knob, match):
        with pytest.raises(ValueError, match=match):
            small_spec("PROB", shards=2, **knob)


class TestResultSchema:
    def test_summary_round_trips(self):
        summary = run(small_spec("PROB")).summary()
        record = summary.to_dict()
        assert record["schema_version"] == SCHEMA_VERSION
        assert RunSummary.from_dict(record) == summary

    def test_drops_round_trip(self):
        drops = DropBreakdown(rejected=3, evicted=2, expired=9, lost=4)
        assert DropBreakdown.from_dict(drops.to_dict()) == drops

    def test_metrics_embedded_only_on_request(self):
        summary = run(small_spec("PROB", metrics=True)).summary()
        assert "metrics" not in summary.to_dict()
        assert summary.to_dict(metrics=True)["metrics"] is not None

    def test_v1_records_still_load(self):
        # pre-lost_shard era: no schema_version, no lost_shard key
        drops = DropBreakdown.from_dict(
            {"rejected": 5, "evicted": 1, "expired": 2}
        )
        assert drops.lost == 0 and drops.total == 8
        summary = RunSummary.from_dict(
            {"engine": "fast", "policy": "PROB", "output_count": 42,
             "drops": {"rejected": 5}}
        )
        assert summary.output_count == 42
        assert summary.drops.rejected == 5

    def test_future_versions_are_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            DropBreakdown.from_dict({"schema_version": SCHEMA_VERSION + 1})
        with pytest.raises(ValueError, match="schema_version"):
            RunSummary.from_dict(
                {"schema_version": SCHEMA_VERSION + 1, "engine": "fast",
                 "policy": "PROB", "output_count": 0}
            )


def _ft_spec(algorithm, **overrides):
    params = dict(
        window=20, memory=10, length=300, seed=3, shards=3,
        max_retries=2, checkpoint_every=16,
    )
    params.update(overrides)
    return RunSpec(algorithm=algorithm, **params)


def _fingerprint(result):
    return (
        result.output_count,
        result.total_output_count,
        result.drop_breakdown(),
        result.per_shard,
    )


class TestFaultRecoveryIdentity:
    """A retried worker-kill run is bit-identical to the fault-free one."""

    @pytest.mark.parametrize("algorithm", ["EXACT", "PROB", "RAND"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mid_run_kill_recovers_identically(self, algorithm, workers):
        spec = _ft_spec(algorithm)
        pair = build_pair(spec)
        baseline = run(spec, pair=pair, workers=workers)
        plan = FaultPlan((Fault("kill", cell=1, tick=150),))
        recovered = run(spec, pair=pair, workers=workers, fault_plan=plan)
        assert _fingerprint(recovered) == _fingerprint(baseline)

    def test_ft_knobs_alone_change_nothing(self):
        plain = RunSpec(algorithm="PROB", window=20, memory=10,
                        length=300, seed=3, shards=3)
        pair = build_pair(plain)
        assert _fingerprint(run(plain, pair=pair)) == _fingerprint(
            run(_ft_spec("PROB"), pair=pair)
        )

    def test_seeded_plan_recovers_identically(self):
        spec = _ft_spec("PROB")
        pair = build_pair(spec)
        baseline = run(spec, pair=pair, workers=2)
        plan = FaultPlan.seeded(11, cells=spec.shards, ticks=spec.length,
                                kills=2)
        recovered = run(spec, pair=pair, workers=2, fault_plan=plan)
        assert _fingerprint(recovered) == _fingerprint(baseline)


class TestGracefulDegradation:
    def test_exact_loss_reconciles_to_the_tuple(self):
        spec = _ft_spec("EXACT", max_retries=0, checkpoint_every=None,
                        degrade=True)
        pair = build_pair(spec)
        fault_free = run(RunSpec(algorithm="EXACT", window=20, memory=10,
                                 length=300, seed=3, shards=3), pair=pair)
        plan = FaultPlan((Fault("kill", cell=2, attempts=10**6),))
        degraded = run(spec, pair=pair, workers=2, fault_plan=plan)
        assert degraded.lost_shards == (2,)
        assert degraded.per_shard[2] is None
        assert degraded.lost_output is not None
        assert (
            degraded.output_count + degraded.lost_output
            == fault_free.output_count
        )
        assert degraded.drop_breakdown().lost > 0

    def test_policy_loss_is_attributed_without_reconciliation(self):
        spec = _ft_spec("PROB", max_retries=0, checkpoint_every=None,
                        degrade=True)
        pair = build_pair(spec)
        plan = FaultPlan((Fault("kill", cell=0, attempts=10**6),))
        degraded = run(spec, pair=pair, workers=2, fault_plan=plan)
        assert degraded.lost_shards == (0,)
        # no exact reconciliation for lossy policies — but the ledger books
        # every input tuple the abandoned shard owned
        assert degraded.lost_output is None
        assert degraded.drop_breakdown().lost > 0

    def test_without_degrade_the_failure_raises(self):
        from repro.runtime import CellError

        spec = _ft_spec("EXACT", max_retries=0, checkpoint_every=None)
        pair = build_pair(spec)
        plan = FaultPlan((Fault("kill", cell=1, attempts=10**6),))
        with pytest.raises(CellError, match="injected kill"):
            run(spec, pair=pair, workers=2, fault_plan=plan)


class TestCounterReconciliation:
    """Counters and the drop breakdown describe the same run."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        memory_slots=st.integers(min_value=2, max_value=20),
        base=st.sampled_from(["RAND", "PROB", "LIFE", "FIFO"]),
        variable=st.booleans(),
    )
    def test_fast_engine_counters_reconcile(self, seed, memory_slots, base, variable):
        name = f"{base}V" if variable else base
        spec = RunSpec(
            algorithm=name,
            window=15,
            memory=2 * memory_slots,
            length=200,
            seed=seed,
            metrics=True,
        )
        result = run(spec)
        registry = MetricsRegistry.from_snapshot(result.metrics)
        drops = result.drop_breakdown()

        assert registry.counter_total("engine.drops") == drops.total
        for reason in ("rejected", "evicted", "expired"):
            total = sum(
                registry.counter_value("engine.drops", side=side, reason=reason)
                for side in ("R", "S")
            )
            assert total == getattr(drops, reason)

        arrivals = registry.counter_total("engine.arrivals")
        admissions = registry.counter_total("engine.admissions")
        assert arrivals == 2 * spec.length
        # Every arrival is either admitted or rejected on arrival.
        assert admissions + drops.rejected == arrivals
        # Admitted tuples eventually leave by eviction or expiry, or are
        # still resident at the end of the run.
        resident = sum(g.value for g in registry.gauges()
                       if g.name == "engine.final_occupancy")
        assert admissions == drops.evicted + drops.expired + resident
        assert registry.counter_value("engine.output") == result.output_count

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_slowcpu_counters_reconcile(self, seed):
        spec = RunSpec(
            algorithm="PROB",
            window=15,
            memory=10,
            length=200,
            seed=seed,
            engine="slowcpu",
            service_per_tick=1,
            queue_capacity=6,
            metrics=True,
        )
        result = run(spec)
        registry = MetricsRegistry.from_snapshot(result.metrics)
        drops = result.drop_breakdown()
        assert registry.counter_total("queue.shed") == result.shed_from_queue
        assert registry.counter_value("queue.expired") == result.expired_in_queue
        assert (
            registry.counter_value("engine.drops", reason="evicted")
            == result.evicted_from_memory
        )
        assert drops.rejected == result.shed_from_queue + result.rejected_from_memory
        assert drops.expired == result.expired_in_queue + result.expired_resident
