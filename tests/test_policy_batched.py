"""Tests for the vectorized policy lanes (``repro.core.batched_policies``).

Three contracts:

* **identity** — a batched RAND/PROB/LIFE run reproduces the per-tuple
  run bit-for-bit (output, total, drop ledger, survival departures,
  metrics totals) across batch sizes and both allocation modes; the
  exhaustive pair-path sweep lives in ``test_batched.py``, this module
  adds the streaming-source side (``run_stream`` chunking) and the
  fallback boundaries;
* **gating** — only static-table, observer-free configurations take a
  lane; ARM, FIFO, estimator-updating policies, and tracers fall back
  to the per-tuple path (and the fallback is itself identical);
* **cache invalidation** — a wholesale
  :meth:`~repro.stats.frequency.StaticFrequencyTable.update` refreshes
  the PROB/LIFE partner-probability caches, so decisions (per-tuple and
  batched alike) track the live table instead of the snapshot taken at
  policy construction.
"""

import pytest

from repro.api import RunSpec, build_pair, run
from repro.core.engine import EngineConfig, JoinEngine
from repro.core.batched import lane_kind_for_policies
from repro.core.policies import (
    ArmAwarePolicy,
    LifePolicy,
    ProbPolicy,
    RandomEvictionPolicy,
    SidePolicies,
)
from repro.stats import EwmaFrequencyEstimator
from repro.stats.frequency import StaticFrequencyTable
from repro.streams.sources import DriftingZipfSource, ZipfSource

SMALL = dict(window=20, memory=10, length=400, seed=3)
LANE_POLICIES = ("RAND", "RANDV", "PROB", "PROBV", "LIFE", "LIFEV")
LANE_FUNCTIONS = {"rand": "rand_chunk_run", "prob": "prob_chunk_run",
                  "life": "life_chunk_run"}


def spy_lanes(monkeypatch) -> list:
    """Record the kind of every policy-lane call (the engine looks the
    lane functions up in ``repro.core.batched`` at call time)."""
    import repro.core.batched as batched

    calls = []
    for kind, name in LANE_FUNCTIONS.items():
        def spy(*args, _kind=kind, _lane=getattr(batched, name), **kwargs):
            calls.append(_kind)
            return _lane(*args, **kwargs)

        monkeypatch.setattr(batched, name, spy)
    return calls


def forbid_lanes(monkeypatch, reason: str) -> None:
    import repro.core.batched as batched

    for name in LANE_FUNCTIONS.values():
        monkeypatch.setattr(
            batched, name, lambda *a, **k: pytest.fail(reason)
        )


def small_spec(algorithm: str, **overrides) -> RunSpec:
    return RunSpec(algorithm=algorithm, **{**SMALL, **overrides})


def fingerprint(result):
    return (
        result.output_count,
        result.total_output_count,
        dict(result.drop_counts),
        result.length,
    )


def tables_for(probs_r: dict, probs_s: dict) -> dict:
    return {
        "R": StaticFrequencyTable(probs_r),
        "S": StaticFrequencyTable(probs_s),
    }


# ----------------------------------------------------------------------
# gating
# ----------------------------------------------------------------------

class TestLaneGating:
    def _kind(self, policy_r, policy_s, variable=False, observers=()):
        return lane_kind_for_policies(
            policy_r, policy_s, variable=variable, observers=tuple(observers)
        )

    def test_static_policies_classify(self):
        est = tables_for({1: 1.0}, {1: 1.0})
        rand = RandomEvictionPolicy(seed=0, include_newcomer=True)
        prob = ProbPolicy(est)
        life = LifePolicy(est, 10)
        assert self._kind(rand, RandomEvictionPolicy(
            seed=1, include_newcomer=True)) == "rand"
        assert self._kind(prob, ProbPolicy(est)) == "prob"
        assert self._kind(life, LifePolicy(est, 10)) == "life"
        assert self._kind(prob, prob, variable=True) == "prob"

    def test_mixed_or_updating_policies_fall_back(self):
        est = tables_for({1: 1.0}, {1: 1.0})
        prob = ProbPolicy(est)
        life = LifePolicy(est, 10)
        assert self._kind(prob, life) is None  # mixed kinds
        assert self._kind(ArmAwarePolicy(est, 10), ArmAwarePolicy(est, 10)) is None
        ewma = {"R": EwmaFrequencyEstimator(0.1), "S": EwmaFrequencyEstimator(0.1)}
        updating = ProbPolicy(ewma, update_estimators=True)
        assert self._kind(updating, updating, variable=True) is None
        # Arrival observers force the per-tuple path outright.
        assert self._kind(prob, ProbPolicy(est), observers=[object()]) is None

    @pytest.mark.parametrize("algorithm", LANE_POLICIES)
    def test_pair_lane_engages(self, algorithm, monkeypatch):
        lanes = spy_lanes(monkeypatch)
        run(small_spec(algorithm, batch_size=64))
        assert lanes == [algorithm.rstrip("V").lower()]

    def test_arm_never_takes_a_lane(self, monkeypatch):
        forbid_lanes(monkeypatch, "ARM must stay per-tuple")
        run(small_spec("ARM", batch_size=64))

    def test_trace_forces_per_tuple(self, monkeypatch):
        forbid_lanes(monkeypatch, "traced runs must stay per-tuple")
        run(small_spec("PROB", batch_size=64, trace=True))


# ----------------------------------------------------------------------
# streaming sources (satellite: run_stream chunking)
# ----------------------------------------------------------------------

class TestStreamingPolicyLanes:
    def _source_spec(self, algorithm, source, **overrides):
        return RunSpec(
            algorithm=algorithm, window=SMALL["window"], memory=SMALL["memory"],
            seed=SMALL["seed"], source=source, **overrides,
        )

    @pytest.mark.parametrize("algorithm", LANE_POLICIES)
    @pytest.mark.parametrize("batch_size", (7, 64))
    def test_zipf_source_matches_incremental(self, algorithm, batch_size):
        source = ZipfSource(30, 1.0, seed=11, length=1200)
        baseline = run(self._source_spec(algorithm, source))
        batched = run(self._source_spec(algorithm, source, batch_size=batch_size))
        assert fingerprint(batched) == fingerprint(baseline)

    @pytest.mark.parametrize("algorithm", ("PROB", "LIFEV"))
    def test_drifting_source_matches_incremental(self, algorithm):
        # The oracle tables come from phase 0 and go stale as the
        # distribution drifts — the lane must reproduce the per-tuple
        # decisions of those same stale tables, not "better" ones.
        source = DriftingZipfSource(30, 1.2, phase_length=300, seed=4, length=1500)
        baseline = run(self._source_spec(algorithm, source))
        batched = run(self._source_spec(algorithm, source, batch_size=64))
        assert fingerprint(batched) == fingerprint(baseline)

    def test_stream_lane_engages(self, monkeypatch):
        lanes = spy_lanes(monkeypatch)
        source = ZipfSource(30, 1.0, seed=11, length=600)
        run(self._source_spec("PROB", source, batch_size=64))
        assert lanes == ["prob"]

    def test_estimator_fed_prob_falls_back_identically(self, monkeypatch):
        # An online estimator updates mid-stream, so no static table
        # exists to vectorize against: batch_size must quietly take the
        # per-tuple incremental path and change nothing.
        forbid_lanes(monkeypatch, "estimator-fed runs must stay per-tuple")
        source = ZipfSource(30, 1.0, seed=11, length=1200)
        baseline = run(self._source_spec("PROB", source, estimator="ewma"))
        batched = run(self._source_spec(
            "PROB", source, estimator="ewma", batch_size=64,
        ))
        assert fingerprint(batched) == fingerprint(baseline)

    def test_unbounded_source_stays_bounded(self):
        # An unbounded generator cannot be materialized at all — the
        # batched stream lane has to chunk it incrementally.  Peak
        # memory must be set by window/domain, not run length: a run 4x
        # longer may not cost 4x the memory (generous 2x bound for
        # allocator noise).
        import tracemalloc

        def peak(duration):
            source = ZipfSource(30, 1.0, seed=2)  # no length: unbounded
            spec = self._source_spec("PROB", source, batch_size=64,
                                     duration=duration)
            tracemalloc.start()
            result = run(spec)
            _, high = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert result.length == duration
            return high

        short, long = peak(3000), peak(12000)
        assert long < 2 * short, (short, long)

    @pytest.mark.parametrize("algorithm", ("RAND", "PROB", "LIFE"))
    def test_bursting_unit_rate_source_is_refused(self, algorithm):
        # A source that declares unit_rate but bursts would lose its
        # extra arrivals in the one-key-per-tick chunk columns; the lane
        # must name the offending tick and side instead.
        class BurstySource(ZipfSource):  # keeps unit_rate and the oracle
            def __iter__(self):
                for t, (r_batch, s_batch) in enumerate(super().__iter__()):
                    yield (r_batch * 2 if t % 5 == 4 else r_batch), s_batch

        source = BurstySource(30, 1.0, seed=11, length=200)
        assert source.unit_rate
        spec = self._source_spec(algorithm, source, batch_size=64)
        with pytest.raises(ValueError, match="tick 4 carries 2 R arrivals"):
            run(spec)

    def test_non_unit_rate_source_stays_per_tuple(self, monkeypatch):
        # Poisson rates produce multi-tuple ticks; the chunk encoding is
        # one arrival per side per tick, so the lane must not engage.
        from repro.streams.sources import PoissonSource

        forbid_lanes(monkeypatch, "rated sources must stay per-tuple")
        source = PoissonSource(30, 1.0, rate=0.7, seed=5, length=500)
        run(self._source_spec("PROB", source, batch_size=64))


# ----------------------------------------------------------------------
# static-table cache invalidation (satellite: update() regression)
# ----------------------------------------------------------------------

class TestTableUpdateInvalidation:
    DIST_A = {k: p for k, p in enumerate([0.4, 0.3, 0.15, 0.1, 0.05])}
    DIST_B = {k: p for k, p in enumerate([0.05, 0.1, 0.15, 0.3, 0.4])}

    def test_update_bumps_version_and_notifies(self):
        table = StaticFrequencyTable(self.DIST_A)
        seen = []
        table.subscribe(lambda: seen.append(table.version))
        assert table.version == 0
        table.update(self.DIST_B)
        assert table.version == 1
        assert seen == [1]
        assert table.probability(4) == pytest.approx(0.4)

    @pytest.mark.parametrize("policy_cls", (ProbPolicy, LifePolicy))
    def test_policy_cache_tracks_update(self, policy_cls):
        est = tables_for(self.DIST_A, self.DIST_A)
        args = (est,) if policy_cls is ProbPolicy else (est, SMALL["window"])

        def probe(policy):
            # ProbPolicy scores a record; LifePolicy scores (stream, key).
            if policy_cls is ProbPolicy:
                from repro.core.memory import TupleRecord
                return policy.partner_probability(TupleRecord("R", 0, 0))
            return policy.partner_probability("R", 0)

        stale = policy_cls(*args)
        before = probe(stale)
        est["S"].update(self.DIST_B)
        fresh = policy_cls(*args)
        assert probe(stale) == probe(fresh)
        assert probe(stale) != before

    @pytest.mark.parametrize("algorithm", ("PROB", "LIFE"))
    def test_engine_decisions_track_update(self, algorithm):
        # A policy built on dist A whose tables are then updated to
        # dist B must shed exactly like a policy built on dist B — per
        # tuple and through the batched lane alike.  (A stale cache
        # would keep shedding by dist A: the sensitivity check below
        # pins that the two distributions actually decide differently.)
        pair = build_pair(small_spec(algorithm))
        window = SMALL["window"]

        def engine_run(est, batch_size=None):
            if algorithm == "PROB":
                policy = SidePolicies(r=ProbPolicy(est), s=ProbPolicy(est))
            else:
                policy = SidePolicies(
                    r=LifePolicy(est, window), s=LifePolicy(est, window)
                )
            config = EngineConfig(
                window=window, memory=SMALL["memory"], batch_size=batch_size,
            )
            return JoinEngine(config, policy=policy).run(pair)

        est = tables_for(self.DIST_A, self.DIST_A)
        stale_before_update = fingerprint(engine_run(est))
        est["R"].update(self.DIST_B)
        est["S"].update(self.DIST_B)
        updated = fingerprint(engine_run(est))
        updated_batched = fingerprint(engine_run(est, batch_size=64))
        rebuilt = fingerprint(engine_run(tables_for(self.DIST_B, self.DIST_B)))

        assert updated == rebuilt
        assert updated_batched == rebuilt
        # Sensitivity: if A- and B-table runs agreed, the asserts above
        # could not catch a stale cache in the first place.
        assert stale_before_update != rebuilt
