"""Hash-partitioned sharded execution of one join run.

An equi-join output pair always has equal keys on both sides, so a
partition of the *key domain* induces a partition of the *output*: hash
every arrival to one of ``N`` key-disjoint shards, run an independent
sliding-window join per shard, and sum the results.  Tick numbering is
global — each shard sees the original arrival times with gaps where the
other shards' tuples arrived — so window expiry and warmup counting are
untouched by the split (the shard runs execute on the asynchronous
engine, which accepts empty ticks natively).

Semantics
---------
* **EXACT** — provably identical to the unsharded run.  Every shard
  gets the full lossless budget of ``2 * window`` tuples (its residents
  are a subset of the global residents, which never exceed that), no
  tuple is ever shed, and each output pair is produced in exactly the
  shard its key hashes to.  Merged counts — output *and* the expiry
  ledger — equal the unsharded engine's, tuple for tuple.
* **RAND / PROB / LIFE / FIFO (and V-variants)** — a documented
  *approximation variant*, not a replay of the unsharded run: the
  memory budget is split across shards (evenly, or frequency-weighted
  via the statistics module), so eviction pressure is local to a shard
  rather than global.  For a fixed ``shards=N`` the result is
  bit-identical regardless of how many worker processes execute the
  shards (each shard derives its policy RNG from ``(seed, shard)`` and
  the merge is deterministic), but changing ``N`` changes the result.

This module is pure planning and merging — it never runs an engine and
has no dependency on :mod:`repro.api` (the api layer composes the two;
:mod:`repro.runtime.cells` ships :class:`ShardCell` tasks to workers).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

from ..streams.tuples import StreamPair
from .results import BaseRunResult, DropBreakdown, empty_side_drop_counts

#: Smallest per-shard budget: one resident per side.
MIN_SHARD_BUDGET = 2


def shard_of(key: Hashable, shards: int) -> int:
    """Deterministic shard of a join key.

    Integer keys partition by residue (cheap, and spreads the dense
    synthetic domains evenly); everything else hashes its string form
    through ``crc32`` — stable across processes and Python runs, unlike
    the builtin ``hash``.  The per-key split loops of this module
    compute the residue of a plain ``int`` (``type(key) is int``)
    inline and call this function for every other key.
    """
    if isinstance(key, int) and not isinstance(key, bool):
        return key % shards
    return zlib.crc32(str(key).encode("utf-8")) % shards


#: Shared batch for a tick with no arrivals on a shard.  Most ticks of a
#: shard's view are empty (a shard sees ~1/N of the arrivals), and the
#: engines only ever read batches, so one immutable tuple serves them
#: all — ``shard_batches`` allocates O(arrivals) instead of O(ticks).
EMPTY_BATCH: tuple = ()


def shard_batches(
    pair: StreamPair, shard: int, shards: int
) -> tuple[list, list]:
    """One shard's view of the workload, as per-tick arrival batches.

    Tick ``t`` holds ``(pair.r[t],)`` when that key belongs to the shard
    and the shared :data:`EMPTY_BATCH` otherwise (likewise for S),
    preserving global time.  This is already the batched execution
    unit: the asynchronous engine consumes per-tick batches natively,
    and its policy-less fast lanes bulk-process each one.

    ``pair`` may also be a :class:`~repro.streams.sources.PairSource`
    (the adapter unwraps to its pair); incremental sources shard through
    :func:`shard_source` instead, which never materializes the ticks.
    """
    from ..streams.sources import PairSource

    if isinstance(pair, PairSource):
        pair = pair.pair
    # Plain ints take shard_of's residue inline (a call per key costs
    # more than the test); every other key type goes through shard_of.
    r_batches = [
        (key,)
        if (key % shards if type(key) is int else shard_of(key, shards)) == shard
        else EMPTY_BATCH
        for key in pair.r
    ]
    s_batches = [
        (key,)
        if (key % shards if type(key) is int else shard_of(key, shards)) == shard
        else EMPTY_BATCH
        for key in pair.s
    ]
    return r_batches, s_batches


@dataclass(frozen=True)
class ShardedSource:
    """One shard's incremental view of a :class:`~repro.streams.sources.Source`.

    Wraps the source without materializing it: iteration re-derives the
    filter per tick, keeping each batch's keys whose hash lands on this
    shard (empty ticks share :data:`EMPTY_BATCH`).  Restartable and
    picklable exactly when the wrapped source is — which the Source
    contract guarantees — so shard cells ship it to worker processes
    and retries simply restart it.
    """

    source: object
    shard: int
    shards: int

    @property
    def length(self) -> Optional[int]:
        return self.source.length

    @property
    def name(self) -> str:
        base = getattr(self.source, "name", "") or "source"
        return f"{base}[shard {self.shard}/{self.shards}]"

    def __iter__(self):
        shard = self.shard
        shards = self.shards
        for r_batch, s_batch in self.source:
            r_mine = (
                tuple(
                    key
                    for key in r_batch
                    if (key % shards if type(key) is int
                        else shard_of(key, shards)) == shard
                )
                if r_batch
                else EMPTY_BATCH
            )
            s_mine = (
                tuple(
                    key
                    for key in s_batch
                    if (key % shards if type(key) is int
                        else shard_of(key, shards)) == shard
                )
                if s_batch
                else EMPTY_BATCH
            )
            yield (r_mine or EMPTY_BATCH, s_mine or EMPTY_BATCH)


def shard_source(source, shard: int, shards: int) -> ShardedSource:
    """One shard's view of a source (see :class:`ShardedSource`)."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if not 0 <= shard < shards:
        raise ValueError(f"shard must be in [0, {shards}), got {shard}")
    return ShardedSource(source, shard, shards)


def shard_weights(pair: StreamPair, shards: int) -> list[int]:
    """Arrival mass per shard (both streams), for weighted budget splits."""
    weights = [0] * shards
    for keys in (pair.r, pair.s):
        for key in keys:
            weights[key % shards if type(key) is int else shard_of(key, shards)] += 1
    return weights


def shard_input_counts(
    pair: StreamPair, shard: int, shards: int
) -> tuple[int, int]:
    """Per-side input tuples belonging to one shard: ``(r_count, s_count)``.

    This is the quantity a lost shard writes into the ``lost_shard``
    drop ledger — every input tuple the abandoned sub-join would have
    seen, attributed as shed by the system.
    """
    r_count, s_count = (
        sum(
            1
            for key in keys
            if (key % shards if type(key) is int else shard_of(key, shards)) == shard
        )
        for keys in (pair.r, pair.s)
    )
    return r_count, s_count


def shard_exact_output(
    pair: StreamPair, shard: int, shards: int, window: int, *, count_from: int = 0
) -> int:
    """Exact join output produced by one shard's key slice.

    An equi-join output pair has one key, so the global exact output
    partitions cleanly by ``shard_of(key)`` — summing this over all
    shards gives :func:`~repro.streams.tuples.exact_join_size`.  Used to
    reconcile a degraded EXACT run: merged output plus the lost shards'
    exact outputs must equal the fault-free total.
    """
    from ..streams.tuples import iterate_exact_join

    return sum(
        1
        for out in iterate_exact_join(pair, window, count_from=count_from)
        if shard_of(out.key, shards) == shard
    )


def _even_budget(amount: int) -> int:
    """Round down to an even number, floored at :data:`MIN_SHARD_BUDGET`.

    Even budgets keep the fixed M/2 + M/2 per-side split exact inside
    every shard.
    """
    return max(MIN_SHARD_BUDGET, amount - (amount % 2))


@dataclass(frozen=True)
class ShardPlan:
    """How one run splits into shards: the count and per-shard budgets."""

    shards: int
    budgets: tuple
    weighted: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if len(self.budgets) != self.shards:
            raise ValueError(
                f"got {len(self.budgets)} budgets for {self.shards} shards"
            )
        if any(budget < MIN_SHARD_BUDGET for budget in self.budgets):
            raise ValueError(
                f"every shard budget must be >= {MIN_SHARD_BUDGET}, "
                f"got {self.budgets}"
            )


def plan_shards(
    memory: int,
    shards: int,
    *,
    lossless_budget: Optional[int] = None,
    weights: Optional[Sequence[int]] = None,
) -> ShardPlan:
    """Build the :class:`ShardPlan` for a total budget of ``memory``.

    ``lossless_budget`` (the EXACT case) gives *every* shard that budget
    — a shard's residents are a subset of the global window, so the
    unsharded lossless budget is lossless per shard too.  Otherwise the
    budget splits evenly, or proportionally to ``weights`` (per-shard
    arrival mass) when given; each share is rounded down to an even
    number and floored at :data:`MIN_SHARD_BUDGET`, so heavily skewed
    weights can make the floors push the aggregate slightly above ``M``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if lossless_budget is not None:
        return ShardPlan(shards, (lossless_budget,) * shards, weighted=False)
    if weights is None:
        return ShardPlan(
            shards, (_even_budget(memory // shards),) * shards, weighted=False
        )
    if len(weights) != shards:
        raise ValueError(f"got {len(weights)} weights for {shards} shards")
    total = sum(weights)
    if total <= 0:
        return plan_shards(memory, shards)
    budgets = tuple(
        _even_budget(memory * weight // total) for weight in weights
    )
    return ShardPlan(shards, budgets, weighted=True)


@dataclass
class ShardedRunResult(BaseRunResult):
    """Deterministic merge of one run's per-shard results.

    ``per_shard`` keeps each shard's engine-agnostic
    :class:`~repro.core.results.RunSummary` (the merged totals are their
    sums); ``metrics`` is the fold of every shard's snapshot through
    :meth:`~repro.obs.MetricsRegistry.merge_snapshot` when the run was
    instrumented.

    A degraded merge (retry exhaustion with ``degrade=True``) lists the
    abandoned shard indices in ``lost_shards`` (their ``per_shard``
    entries are ``None``), attributes their input tuples under the
    ``lost_shard`` ledger reason, and — for EXACT runs, where it is
    computable — reports the forgone output in ``lost_output`` so
    ``output_count + lost_output`` reconciles to the fault-free total.

    A supervised run records ``attempts`` (per-shard attempt counts,
    aligned with ``per_shard``; retries are ``attempt - 1``), and a
    telemetry-instrumented one attaches ``timeline`` — the merged
    supervisor/worker span timeline (see :mod:`repro.obs.spans`).
    """

    output_count: int
    total_output_count: int
    length: int
    window: int
    memory: int
    warmup: int
    policy_name: str
    plan: ShardPlan = None  # type: ignore[assignment]
    per_shard: tuple = ()
    drop_counts: dict = None  # type: ignore[assignment]
    metrics: Optional[dict] = None
    lost_shards: tuple = ()
    lost_output: Optional[int] = None
    attempts: tuple = ()
    timeline: Optional[list] = None

    engine_kind = "sharded"

    @property
    def shards(self) -> int:
        return self.plan.shards

    def drop_breakdown(self) -> DropBreakdown:
        return DropBreakdown.from_side_counts(self.drop_counts)


def merge_shard_results(
    results: Sequence,
    plan: ShardPlan,
    *,
    length: int,
    window: int,
    memory: int,
    warmup: int,
    lost: Sequence[int] = (),
    lost_inputs: Optional[Sequence[tuple]] = None,
    lost_output: Optional[int] = None,
    attempts: Optional[Sequence[int]] = None,
) -> ShardedRunResult:
    """Fold per-shard :class:`~repro.core.async_engine.AsyncRunResult`\\ s.

    Purely additive and order-deterministic: counts and the per-side
    drop ledger sum; metrics snapshots merge shard 0 first.  The merged
    totals therefore equal the sums of ``per_shard`` by construction —
    the invariant the partition tests pin.

    ``lost`` names shard indices abandoned after retry exhaustion; their
    ``results`` entries are ignored (errors or ``None``).  ``lost_inputs``
    aligns with ``lost`` and carries each lost shard's per-side input
    counts (see :func:`shard_input_counts`), booked under the
    ``lost_shard`` ledger reason and the ``engine.drops`` /
    ``runtime.lost_shards`` metrics counters.  At least one shard must
    survive — with nothing to merge there is no degraded result to
    report, only the failure itself.

    ``attempts`` (one count per shard, from
    ``parallel_map(attempts_out=...)``) lands on the result and — when
    the run was instrumented — in the merged snapshot as per-shard
    ``runtime.attempts`` / ``runtime.retries`` counters, so ``--metrics
    json|csv`` reports how hard each shard fought, not just its final
    outcome.
    """
    if len(results) != plan.shards:
        raise ValueError(
            f"got {len(results)} shard results for {plan.shards} shards"
        )
    lost = tuple(sorted(set(lost)))
    if any(shard < 0 or shard >= plan.shards for shard in lost):
        raise ValueError(f"lost shard indices out of range: {lost}")
    if lost_inputs is not None and len(lost_inputs) != len(lost):
        raise ValueError(
            f"got {len(lost_inputs)} lost_inputs for {len(lost)} lost shards"
        )
    if attempts is not None and len(attempts) != plan.shards:
        raise ValueError(
            f"got {len(attempts)} attempt counts for {plan.shards} shards"
        )
    lost_set = set(lost)
    survivors = [
        result for shard, result in enumerate(results) if shard not in lost_set
    ]
    if not survivors:
        raise ValueError("all shards were lost; nothing to merge")

    drop_counts = empty_side_drop_counts()
    for result in survivors:
        for side, reasons in result.drop_counts.items():
            for reason, count in reasons.items():
                drop_counts[side][reason] += count
    if lost:
        from .results import DROP_LOST

        lost_r = lost_s = 0
        if lost_inputs is not None:
            lost_r = sum(entry[0] for entry in lost_inputs)
            lost_s = sum(entry[1] for entry in lost_inputs)
        drop_counts["R"][DROP_LOST] = lost_r
        drop_counts["S"][DROP_LOST] = lost_s

    snapshots = [r.metrics for r in survivors if r.metrics is not None]
    merged_metrics = None
    if snapshots:
        from ..obs import MetricsRegistry

        registry = MetricsRegistry()
        for snapshot in snapshots:
            registry.merge_snapshot(snapshot)
        if lost:
            from .results import DROP_LOST

            registry.counter("runtime.lost_shards").inc(len(lost))
            registry.counter(
                "engine.drops", side="R", reason=DROP_LOST
            ).inc(drop_counts["R"][DROP_LOST])
            registry.counter(
                "engine.drops", side="S", reason=DROP_LOST
            ).inc(drop_counts["S"][DROP_LOST])
        if attempts is not None:
            for shard, count in enumerate(attempts):
                registry.counter(
                    "runtime.attempts", shard=str(shard)
                ).inc(count)
                if count > 1:
                    registry.counter(
                        "runtime.retries", shard=str(shard)
                    ).inc(count - 1)
        merged_metrics = registry.snapshot()

    per_shard = tuple(
        None if shard in lost_set else result.summary()
        for shard, result in enumerate(results)
    )
    return ShardedRunResult(
        output_count=sum(r.output_count for r in survivors),
        total_output_count=sum(r.total_output_count for r in survivors),
        length=length,
        window=window,
        memory=memory,
        warmup=warmup,
        policy_name=survivors[0].policy_name,
        plan=plan,
        per_shard=per_shard,
        drop_counts=drop_counts,
        metrics=merged_metrics,
        lost_shards=lost,
        lost_output=lost_output,
        attempts=tuple(attempts) if attempts is not None else (),
    )


def shard_seed(seed: int, shard: int) -> int:
    """Per-shard RNG seed: deterministic in ``(seed, shard)`` only.

    Shard results must not depend on worker scheduling, so each shard's
    policy randomness derives from the run seed and its own index.
    """
    return seed * 1_000_003 + shard


__all__ = [
    "MIN_SHARD_BUDGET",
    "ShardPlan",
    "ShardedRunResult",
    "ShardedSource",
    "merge_shard_results",
    "plan_shards",
    "shard_batches",
    "shard_exact_output",
    "shard_input_counts",
    "shard_of",
    "shard_seed",
    "shard_source",
    "shard_weights",
]
