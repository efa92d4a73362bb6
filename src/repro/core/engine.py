"""Fast-CPU integrated-model join engine (Section 2.1).

Simulates the paper's processing model: at every time unit one tuple
arrives on each stream, is joined against the resident tuples of the
other stream (plus its simultaneous counterpart), and is then offered to
the join memory, whose eviction policy may shed it or displace a
resident.  The engine produces the output counts the paper's figures
plot, plus the per-tuple survival records the Archive-metric needs and
the memory-share trace of Figure 8.

Timing within one tick ``t``
----------------------------
1. tuples with ``arrival <= t - w`` expire;
2. ``r(t)`` and ``s(t)`` arrive; every policy observes both arrivals;
3. probes: ``r(t)`` matches resident S-tuples, ``s(t)`` matches resident
   R-tuples, and ``(r(t), s(t))`` is emitted if their keys agree (the
   flow graph's "top path" — a new tuple is *always* seen by the join);
4. admissions: first ``r(t)``, then ``s(t)``; a full memory asks the
   policy for a victim (``None`` = drop the newcomer).

Because probes precede admissions, a tuple evicted at time ``t`` has
already produced its matches with the time-``t`` arrivals; its survival
record therefore covers probe events ``arrival + 1 .. t``.

Execution paths
---------------
:meth:`JoinEngine._dispatch` picks one of four implementations of that
tick, for pair input (a plain ``PairSource``) and source input alike:

* :meth:`~JoinEngine._run_exact_batched` and
  :meth:`~JoinEngine._run_policy_lanes` — the columnar lanes, taken by
  default wherever they cover the run, over pair input or a unit-rate
  source re-chunked on the fly (``batch_size`` only sizes the chunks);
* :meth:`~JoinEngine._run_incremental` — the kernel loop, the one
  per-tuple reference loop (tracers, ``emit`` sinks, validation,
  ``force_general``, the pair-only features, and the policies no lane
  covers run here);
* :meth:`~JoinEngine._run_exact_stream` — the per-tick count-only EXACT
  lane for the source input no chunk lane covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..obs import Timer, active_or_none
from ..obs.trace import (
    EVENT_ARRIVE,
    EVENT_JOIN_OUTPUT,
    REASON_SIMULTANEOUS,
    TraceEvent,
    tracing_or_none,
)
from ..streams.batches import (
    DEFAULT_BATCH_SIZE,
    StreamChunk,
    _encode_column,
    encode_chunks,
)
from ..streams.sources import PairSource, Source, as_source, bounded_events
from ..streams.tuples import JoinResultTuple, StreamPair
from .kernel import JoinKernel
from .memory import JoinMemory, TupleRecord
from .policies import SidePolicies, resolve_policy_spec
from .policies.base import EvictionPolicy, arrival_observers
from .results import (
    DROP_EVICTED,
    DROP_EXPIRED,
    DROP_REJECTED,
    BaseRunResult,
    DropBreakdown,
    RunSummary,
)

#: Accepted policy specs: ``None`` / ``EvictionPolicy`` /
#: :class:`~repro.core.policies.SidePolicies` — see
#: :func:`repro.core.policies.resolve_policy_spec`.
PolicySpec = Union[None, EvictionPolicy, SidePolicies]


class CapacityExceededError(RuntimeError):
    """Raised when a policy-less (exact) run overflows its memory."""


@dataclass
class EngineConfig:
    """Configuration of one engine run.

    Attributes
    ----------
    window:
        Window size ``w`` in time units.
    memory:
        Total memory budget ``M`` in tuples (the paper varies it as
        ``0.1w .. 1.5w``; ``2w`` guarantees the exact result).
    variable:
        Variable memory allocation (one shared pool; PROBV/RANDV/OPTV)
        instead of the fixed M/2 + M/2 split.
    warmup:
        Ticks before output counting starts; defaults to ``2 * window``
        (the paper's choice, so startup effects don't pollute counts).
    count_simultaneous:
        Count the always-produced pair ``(r(t), s(t))`` when keys match.
    materialize:
        Collect the actual post-warmup output pairs (costs memory; used
        by metrics and small-scale tests).
    track_shares:
        Record ``(t, resident R-tuples, resident S-tuples)`` each
        ``share_sample_every`` ticks (Figure 8).
    track_survival:
        Record per-tuple departure times (needed by the Archive-metric
        and by OPT cross-validation).
    memory_schedule:
        Optional time-varying budget: a callable ``t -> M(t)`` or a
        sequence indexed by tick.  ``memory`` is the initial budget; when
        the budget shrinks, the policy sheds its weakest residents (the
        paper, Section 3.3: PROB/LIFE "can easily deal with varying
        memory and window sizes").
    window_schedule:
        Optional time-varying window: a callable ``t -> w(t)`` or a
        sequence indexed by tick (the other half of the same Section 3.3
        claim).  ``window`` is the initial size.  At tick ``t`` tuples
        older than ``t - w(t)`` expire, i.e. a pair is in the join iff
        the earlier tuple is within the window *in force when the later
        one arrives*.  Survival tracking is unsupported in this mode
        (per-tuple lifetimes become schedule-dependent); LIFE's
        priorities use the initial window as its lifetime scale.
    profile:
        With a metrics registry attached, collect the *detailed*
        instrumentation: per-phase (expire/probe/admit) wall-clock
        timers and occupancy series at ``share_sample_every`` cadence.
        Off by default — the default metrics mode batches everything
        into end-of-run counter flushes plus occupancy samples every
        ``metrics_sample_every`` ticks, keeping the instrumented run
        within a few percent of the uninstrumented one.
    metrics_sample_every:
        Tick cadence of the occupancy/memory-share series in the
        default (non-``profile``) metrics mode; ``None`` picks
        ``max(1, window // 8)``.
    batch_size:
        Chunk size of the columnar lanes (``None`` picks
        :data:`~repro.streams.batches.DEFAULT_BATCH_SIZE`).  It never
        changes a result and never chooses the path: the lanes run
        whenever they can reproduce the run bit-identically at chunk
        granularity — the EXACT count-only lane (no policy, lossless
        budget) and the vectorized policy lanes for RAND, PROB, and
        LIFE with static probability tables (fixed or variable
        allocation) — on pair input and on unit-rate sources run
        without ``on_summary`` alike, metrics or not.  A tracer,
        schedule, validation hook, rolling-summary callback, arrival
        observer (online estimators), or an uncovered policy (ARM,
        FIFO) takes the per-tick or per-tuple path instead.
    force_general:
        Route the run through the kernel loop (the one per-tuple
        reference loop), on pair and source input alike, even when a
        lane would apply.  Tests and benchmarks use it to name the
        reference side of a lane-vs-per-tuple comparison.
    validate:
        Run per-tick invariant checks (tests only; slow).
    """

    window: int
    memory: int
    variable: bool = False
    warmup: Optional[int] = None
    count_simultaneous: bool = True
    materialize: bool = False
    track_shares: bool = False
    share_sample_every: int = 1
    track_survival: bool = True
    memory_schedule: Optional[object] = None
    window_schedule: Optional[object] = None
    profile: bool = False
    metrics_sample_every: Optional[int] = None
    batch_size: Optional[int] = None
    force_general: bool = False
    validate: bool = False

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.memory <= 0:
            raise ValueError(f"memory must be positive, got {self.memory}")
        if self.warmup is None:
            self.warmup = 2 * self.window
        if self.warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup}")
        if self.share_sample_every <= 0:
            raise ValueError("share_sample_every must be positive")
        if self.metrics_sample_every is not None and self.metrics_sample_every <= 0:
            raise ValueError("metrics_sample_every must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.window_schedule is not None and self.track_survival:
            raise ValueError(
                "track_survival is not supported with a window_schedule "
                "(per-tuple lifetimes become schedule-dependent)"
            )


@dataclass
class RunResult(BaseRunResult):
    """Everything one engine run produces.

    ``output_count`` is the post-warmup output size — the quantity every
    figure of the paper plots.  ``r_departures[i]`` / ``s_departures[i]``
    give the last probe-event time the tuple arriving at ``i`` was present
    for (see module docstring); ``None`` when survival tracking is off.
    ``metrics`` is the attached observability snapshot when the engine
    ran with a :class:`~repro.obs.MetricsRegistry`.
    """

    output_count: int
    total_output_count: int
    length: int
    window: int
    memory: int
    warmup: int
    policy_name: str
    pairs: Optional[list[JoinResultTuple]] = None
    r_departures: Optional[list[int]] = None
    s_departures: Optional[list[int]] = None
    shares: Optional[list[tuple[int, int, int]]] = None
    drop_counts: dict = field(default_factory=dict)
    metrics: Optional[dict] = None
    trace: Optional[list] = None

    engine_kind = "fast"

    def drop_breakdown(self) -> DropBreakdown:
        return DropBreakdown.from_side_counts(self.drop_counts)

    def share_fraction_r(self) -> list[tuple[int, float]]:
        """Fraction of resident tuples belonging to R over time."""
        if self.shares is None:
            raise ValueError("run was not configured with track_shares")
        return [
            (t, (r / (r + s)) if (r + s) else 0.5) for t, r, s in self.shares
        ]


class JoinEngine:
    """Drives one sliding-window join run under a shedding policy.

    Parameters
    ----------
    config:
        Run configuration.
    policy:
        * ``None`` — no shedding; the memory must never overflow (use
          ``memory >= 2 * window`` — the EXACT reference);
        * a single :class:`EvictionPolicy` — governs the shared pool
          (requires ``config.variable``);
        * :class:`~repro.core.policies.SidePolicies` — one independent
          policy per side (requires fixed allocation).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; when given, the
        run records probe/admission/drop counters, per-tick occupancy
        and memory-share series, and hot-loop phase timings, and the
        snapshot is attached to the result.  ``None`` (the default)
        keeps the hot path uninstrumented.
    trace:
        Optional :class:`~repro.obs.trace.Tracer`; when given, the run
        emits the full per-tuple event lifecycle (arrive / admit /
        evict / expire / join_output / drop) into the tracer's sink and
        the buffered events (if the sink retains them) are attached to
        the result.  ``None`` (the default) keeps tracing entirely off
        the hot path.
    """

    def __init__(
        self,
        config: EngineConfig,
        policy: PolicySpec = None,
        *,
        metrics=None,
        trace=None,
    ) -> None:
        self.config = config
        self.memory = JoinMemory(config.memory, variable=config.variable)
        self.metrics = metrics
        self.trace = trace
        self._kernel = None  # live only while the kernel loop executes

        resolved = resolve_policy_spec(policy, self.memory, variable=config.variable)
        self._policy_r = resolved.r
        self._policy_s = resolved.s
        self._policies = resolved.instances
        # Only policies that actually override observe_arrival (and have
        # not declared themselves uninterested via `observes_arrivals`)
        # are called per tick — the no-op broadcast was pure overhead.
        self._observers = arrival_observers(resolved.instances)
        if resolved.name == "NONE":
            self.policy_name = "EXACT" if config.memory >= 2 * config.window else "NONE"
        else:
            self.policy_name = resolved.name

    # ------------------------------------------------------------------
    def run(self, pair: StreamPair) -> RunResult:
        """Process a finite stream pair and return the run's results.

        Implemented as ``run_stream(PairSource(pair))``: the pair is one
        particular source, run as *pair input* (see :meth:`run_stream`).
        """
        return self.run_stream(PairSource(pair))

    # ------------------------------------------------------------------
    def run_stream(
        self,
        source: Union[Source, StreamPair],
        *,
        until: Optional[int] = None,
        emit=None,
        on_summary=None,
        on_summary_every: Optional[int] = None,
        stop=None,
    ) -> RunResult:
        """Consume a pull-based source and return the run's results.

        ``source`` is anything satisfying the
        :class:`~repro.streams.sources.Source` protocol (or a
        :class:`StreamPair`, adapted automatically).  A plain
        :class:`~repro.streams.sources.PairSource` with none of the
        streaming options is *pair input*: it may use the features that
        hold per-arrival state (survival records, ``materialize``,
        ``track_shares``, memory/window schedules, ``profile``).
        Everything else is *source input*, whose working state is
        bounded by the window/memory budget — never by stream length —
        so unbounded sources are safe.  :meth:`_dispatch` picks the path
        for both.

        Parameters
        ----------
        until:
            Process at most this many ticks (required, together with
            ``stop``, for unbounded sources).
        emit:
            Join-result sink: ``emit(JoinResultTuple)`` is called for
            every post-warmup output pair instead of materializing an
            output list.
        on_summary / on_summary_every:
            Rolling progress: ``on_summary(summary)`` receives an
            engine-agnostic :class:`~repro.core.results.RunSummary` of
            the counters so far after every ``on_summary_every`` ticks
            (default 4096 when only the callback is given).
        stop:
            Cooperative shutdown: a ``() -> bool`` callable polled
            before each tick is pulled; a truthy return ends the run
            cleanly (``repro serve`` wires SIGINT here).

        Both inputs keep the synchronous tick semantics, generalized to
        per-tick batches: expiry, then all probes of the tick (against
        resident state, plus the same-tick cross pairs the top path
        contributes), then admissions R-batch-first.
        """
        source = as_source(source)
        if until is not None and until < 0:
            raise ValueError(f"until must be non-negative, got {until}")
        if on_summary_every is not None and on_summary_every <= 0:
            raise ValueError(
                f"on_summary_every must be positive, got {on_summary_every}"
            )
        streaming = (
            until is not None
            or emit is not None
            or on_summary is not None
            or stop is not None
        )
        if isinstance(source, PairSource) and not streaming:
            return self._dispatch(source, source.pair)

        config = self.config
        unsupported = [
            name
            for name, active in (
                ("materialize", config.materialize),
                ("track_shares", config.track_shares),
                ("memory_schedule", config.memory_schedule is not None),
                ("window_schedule", config.window_schedule is not None),
                ("profile", config.profile),
            )
            if active
        ]
        if unsupported:
            raise ValueError(
                f"{', '.join(unsupported)} not supported on the incremental "
                "source path (they hold per-arrival state); run the "
                "materialized pair path instead"
            )
        if source.length is None and until is None and stop is None:
            raise ValueError(
                "unbounded source: pass until= and/or stop= to bound the run"
            )
        return self._dispatch(
            source, None, until, emit, on_summary, on_summary_every or 4096, stop
        )

    # ------------------------------------------------------------------
    def _dispatch(
        self, source, pair, until=None, emit=None, on_summary=None, stride=0,
        stop=None,
    ) -> RunResult:
        """Pick the execution path for pair input (``pair`` given) or
        source input.

        Tracers, ``emit`` sinks, per-tick validation, ``force_general``
        and — on pair input — the pair-only features need tuple
        granularity and run the kernel loop (:meth:`_run_incremental`).
        Otherwise a columnar lane runs whenever one covers the
        configuration (:meth:`_lane_kind`): always on pair input, and on
        source input, with or without metrics, over
        :meth:`_chunks_from_source` when the source is unit-rate and no
        ``on_summary`` is set.  Failing that, uninstrumented policy-less
        source input takes the per-tick count-only EXACT lane
        (:meth:`_run_exact_stream`, which also raises the overflow of a
        ``M < 2w`` run), and everything else the kernel loop.
        ``batch_size`` only sizes the chunks.
        """
        config = self.config
        obs = active_or_none(self.metrics)
        tracer = tracing_or_none(self.trace)
        per_tuple = (
            tracer is not None
            or emit is not None
            or config.validate
            or config.force_general
        )
        if pair is not None:
            tuple_only = (
                per_tuple
                or config.materialize
                or config.track_shares
                or config.memory_schedule is not None
                or config.window_schedule is not None
                or (config.profile and obs is not None)
            )
            kind = None if tuple_only else self._lane_kind()
            if kind is None:
                return self._run_incremental(iter(source), obs, tracer, pair)
            chunks = encode_chunks(pair, config.batch_size)  # lazy
            return self._run_lane(kind, chunks, obs, len(pair))

        events = bounded_events(source, until, stop)
        if not per_tuple:
            chunked = on_summary is None and getattr(source, "unit_rate", False)
            kind = self._lane_kind() if chunked else None
            if kind is not None:
                chunks = self._chunks_from_source(
                    events, config.batch_size or DEFAULT_BATCH_SIZE
                )
                return self._run_lane(kind, chunks, obs, None)
            if obs is None and self._policy_r is None and self._policy_s is None:
                return self._run_exact_stream(events, on_summary, stride)
        return self._run_incremental(
            events, obs, tracer, None, emit, on_summary, stride
        )

    # ------------------------------------------------------------------
    def _run_lane(self, kind: str, chunks, obs, length: Optional[int]) -> RunResult:
        """Run ``chunks`` through the columnar lane :meth:`_lane_kind` named."""
        if kind == "exact":
            return self._run_exact_batched(chunks, obs, length)
        return self._run_policy_lanes(chunks, kind, obs, length)

    # ------------------------------------------------------------------
    def _run_exact_batched(self, chunks, obs, length: Optional[int]) -> RunResult:
        """The columnar EXACT count lane, for pair and source input alike.

        Replaces per-match iteration with dictionary count arithmetic
        over struct-of-arrays chunks (:mod:`repro.core.batched`).  Only
        dispatched when the run is provably lossless (no policy,
        ``capacity >= 2 * window``), which makes every result field
        analytic: drop ledger, survival records, and occupancy series
        are synthesised in closed form and match the per-tuple loop
        bit for bit.

        ``chunks`` come from ``encode_chunks(pair)`` for pair input
        (``length`` is the pair's) or from :meth:`_chunks_from_source`
        for source input (``length`` is ``None``, and neither survival
        arrays nor a metrics sampler exist), mirroring
        :meth:`_run_policy_lanes`.  The lane's key history is bounded
        by the window, so unbounded sources are safe.
        """
        from .batched import exact_chunk_counts

        config = self.config
        window = config.window

        run_timer = None
        if obs is not None:
            run_timer = Timer()
            run_timer.start()

        output, total_output, simultaneous_total, ticks = exact_chunk_counts(
            chunks,
            window,
            config.warmup,
            count_simultaneous=config.count_simultaneous,
        )

        # EXACT never rejects or evicts; each side expires exactly the
        # arrivals older than the final window.
        expired = max(0, ticks - window)
        # Every tuple serves its full window: natural departure at
        # arrival + w - 1, for the expired and the end-resident alike.
        departures = None
        if length is not None and config.track_survival:
            natural = [arrival + window - 1 for arrival in range(ticks)]
            departures = (natural, list(natural))

        if obs is not None:
            # After tick t's admissions each side holds min(t+1, window)
            # residents — the same samples the per-tuple loop records.
            sample = _occupancy_sampler(obs)
            for t in range(0, ticks, self._sample_every()):
                size = min(t + 1, window)
                sample(t, size, size)

        return self._result(
            output, total_output, simultaneous_total, ticks,
            _ledger(0, 0, expired, 0, 0, expired),
            obs=obs, run_timer=run_timer, departures=departures,
            final_occupancy=(min(ticks, window),) * 2,
        )

    # ------------------------------------------------------------------
    def _lane_kind(self) -> Optional[str]:
        """Which columnar lane covers this engine's wiring.

        ``"exact"`` for a policy-less run with a lossless ``2w`` budget;
        ``"rand"``/``"prob"``/``"life"`` for the vectorized policy lanes
        (see :func:`repro.core.batched.lane_kind_for_policies`).
        ``None`` means the per-tick or per-tuple loops must run (a
        ``M < 2w`` policy-less budget that must overflow, an uncovered
        policy type, online estimators, arrival observers, …).
        """
        from .batched import lane_kind_for_policies

        if self._policy_r is None and self._policy_s is None:
            return "exact" if self.memory.capacity >= 2 * self.config.window else None
        return lane_kind_for_policies(
            self._policy_r,
            self._policy_s,
            variable=self.memory.variable,
            observers=self._observers,
        )

    # ------------------------------------------------------------------
    def _run_policy_lanes(
        self, chunks, kind: str, obs, length: Optional[int]
    ) -> RunResult:
        """The columnar policy lanes, for pair and source input alike.

        RAND/PROB/LIFE runs with static probability tables collapse to
        flat per-chunk state (count dicts, key rings, priority heaps,
        per-key aggregate cells) — no :class:`TupleRecord` allocation,
        no policy method dispatch; the lanes of
        :mod:`repro.core.batched_policies` read the policies' own state
        (RAND's generators, PROB/LIFE's partner-probability tables).

        ``chunks`` come from ``encode_chunks(pair)`` for pair input
        (``length`` is the pair's) or from :meth:`_chunks_from_source`
        for source input (``length`` is ``None``).  Survival arrays and
        the metrics sampler exist for pair input only; source input
        keeps ``O(window + batch_size)`` ring buffers, so unbounded
        streams are safe.  Output, drop ledger, survival departures, and
        metrics are bit-identical to the per-tuple loops;
        ``benchmarks/bench_policy_batch.py`` pins the contract.
        """
        from .batched import life_chunk_run, prob_chunk_run, rand_chunk_run

        config = self.config
        memory = self.memory
        window = config.window

        r_departures = s_departures = None
        if length is not None and config.track_survival:
            # Natural departures cover the expired and the end-resident;
            # the lane overwrites only the rejected (t) and the evicted
            # (eviction tick) — same arrays the per-tuple loop builds.
            r_departures = [arrival + window - 1 for arrival in range(length)]
            s_departures = list(r_departures)

        run_timer = None
        sampler = None
        sample_every = 0
        if obs is not None:
            run_timer = Timer()
            run_timer.start()
            sampler = _occupancy_sampler(obs)
            sample_every = self._sample_every()

        common = dict(
            capacity=memory.capacity,
            variable=memory.variable,
            count_simultaneous=config.count_simultaneous,
            r_departures=r_departures,
            s_departures=s_departures,
            sampler=sampler,
            sample_every=sample_every,
        )
        if kind == "rand":
            totals = rand_chunk_run(
                chunks,
                window,
                config.warmup,
                rng_r=self._policy_r._rng,
                rng_s=self._policy_s._rng,
                **common,
            )
        else:
            lane = prob_chunk_run if kind == "prob" else life_chunk_run
            totals = lane(
                chunks,
                window,
                config.warmup,
                probs_r=self._policy_r._partner_probs["R"],
                probs_s=self._policy_s._partner_probs["S"],
                **common,
            )

        return self._result(
            totals.output, totals.total_output, totals.simultaneous_total,
            totals.length,
            _ledger(
                totals.rej_r, totals.ev_r, totals.exp_r,
                totals.rej_s, totals.ev_s, totals.exp_s,
            ),
            obs=obs, run_timer=run_timer, departures=(r_departures, s_departures),
            final_occupancy=(totals.r_size, totals.s_size),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _chunks_from_source(events, batch_size: int):
        """Re-chunk unit-rate source events into :class:`StreamChunk`
        columns: a chunk every ``batch_size`` ticks plus the remainder.
        ``events`` is already bounded (see
        :func:`~repro.streams.sources.bounded_events`), so the chunks
        cover exactly the ticks the kernel loop would process.

        Raises ``ValueError`` on a tick without exactly one arrival per
        side: the source broke its ``unit_rate`` declaration, and a
        chunk column has no room for the extra (or missing) arrival.
        """
        buf_r: list = []
        buf_s: list = []
        start = 0
        t = 0
        for r_batch, s_batch in events:
            try:
                (r_key,) = r_batch
                (s_key,) = s_batch
            except ValueError:
                bad_r = len(r_batch) != 1
                side, batch = ("R", r_batch) if bad_r else ("S", s_batch)
                raise ValueError(
                    f"source declares unit_rate but tick {t} carries "
                    f"{len(batch)} {side} arrivals (expected exactly one "
                    f"per side)"
                ) from None
            buf_r.append(r_key)
            buf_s.append(s_key)
            t += 1
            if len(buf_r) >= batch_size:
                yield StreamChunk(start, _encode_column(buf_r), _encode_column(buf_s))
                start = t
                buf_r = []
                buf_s = []
        if buf_r:
            yield StreamChunk(start, _encode_column(buf_r), _encode_column(buf_s))

    # ------------------------------------------------------------------
    def _run_exact_stream(self, events, on_summary, stride) -> RunResult:
        """The count-only EXACT lane for source input.

        Policy-less, uninstrumented source runs that no chunk lane
        covers (``on_summary``, bursty sources, or a ``M < 2w`` budget
        that must overflow) reduce to the dictionary
        count arithmetic of :func:`repro.core.batched.exact_stream_counts`
        — bounded working state, no record allocation.  ``make soak``
        drives it, and the chunk lane beside it, for millions of ticks.
        """
        from .batched import exact_stream_counts

        config = self.config
        on_progress = None
        if on_summary is not None:
            policy_name = self.policy_name

            def on_progress(t, output, total_output, arrivals, exp_r, exp_s):
                on_summary(RunSummary(
                    engine="fast",
                    policy_name=policy_name,
                    output_count=output,
                    drops=DropBreakdown(expired=exp_r + exp_s),
                ))

        output, total_output, _, expired_r, expired_s, ticks = exact_stream_counts(
            events,
            config.window,
            config.warmup,
            capacity=self.memory.capacity,
            variable=self.memory.variable,
            count_simultaneous=config.count_simultaneous,
            overflow_error=CapacityExceededError,
            on_progress=on_progress,
            progress_every=stride if on_summary is not None else 0,
        )
        return self._result(
            output, total_output, 0, ticks,
            _ledger(0, 0, expired_r, 0, 0, expired_s),
        )

    # ------------------------------------------------------------------
    def _run_incremental(
        self, events, obs, tracer, pair=None, emit=None, on_summary=None, stride=0
    ) -> RunResult:
        """The kernel-driven loop: the one per-tuple reference loop.

        Synchronous tick semantics generalized to arrival batches: per
        tick — expire, observe both batches, probe *both* batches
        against resident state plus the same-tick cross pairs (the top
        path: a new tuple is always seen by the join), then admit the R
        batch and the S batch through the kernel's eviction contests.
        Expiry, probes, admissions, and all their drop/notify/trace
        bookkeeping run through a :class:`~repro.core.kernel.JoinKernel`.

        Pair input (``pair`` given) adds what holds per-arrival state:
        survival records, ``materialize`` (an emit sink into the
        result's ``pairs``), ``track_shares``, the memory and window
        schedules, and — with ``profile`` and metrics — per-phase
        timers and occupancy series at ``share_sample_every``; every
        other instrumented run samples at :meth:`_sample_every`.
        Source input keeps no per-arrival state: output pairs go to
        ``emit``, progress goes to ``on_summary``, and the only growing
        structure is the sampled metrics series of an instrumented run.
        """
        config = self.config
        memory = self.memory
        window = config.window
        warmup = config.warmup
        assert warmup is not None
        count_sim = config.count_simultaneous
        validate = config.validate

        kernel = JoinKernel(
            memory,
            self._policy_r,
            self._policy_s,
            tracer=tracer,
            overflow_error=CapacityExceededError,
        )
        self._kernel = kernel
        expire = kernel.expire
        observe_batch = kernel.observe_batch
        probe_batch = kernel.probe_batch
        insert = kernel.insert
        tracing = tracer is not None
        timed = obs is not None

        departures = pairs = shares = schedule = window_schedule = None
        if pair is not None:
            if config.track_survival:
                departures = {"R": [0] * len(pair), "S": [0] * len(pair)}
            if config.materialize:
                pairs = []
                emit = pairs.append
            if config.track_shares:
                shares = []
            schedule = _as_schedule(config.memory_schedule)
            window_schedule = _as_schedule(config.window_schedule)

        run_timer = None
        timers = {}
        phased = False
        sample_every = 0
        if timed:
            run_timer = Timer()
            run_timer.start()
            sample = _occupancy_sampler(obs)
            # ``profile`` (pair input only) adds the per-phase timers
            # and the ``share_sample_every`` occupancy cadence.
            phased = config.profile
            if phased:
                sample_every = config.share_sample_every
                timers = {
                    "engine/expire": Timer(),
                    "engine/probe": Timer(),
                    "engine/admit": Timer(),
                }
                expire_timer, probe_timer, admit_timer = timers.values()
            else:
                sample_every = self._sample_every()

        output = 0
        total_output = 0
        simultaneous_total = 0
        arrivals_r = 0
        arrivals_s = 0
        mem_r = memory.r
        mem_s = memory.s

        t = -1
        for r_batch, s_batch in events:
            t += 1
            # 0. budget / window change (time-varying resources) --------
            if schedule is not None:
                target = int(schedule(t))
                if target != memory.capacity:
                    memory.resize(target)
                    # Budget victims were last present for the previous
                    # tick's probes, so their record ends at t - 1.
                    for victim in kernel.shed_surplus(t):
                        if departures is not None:
                            departures[victim.stream][victim.arrival] = t - 1
            if window_schedule is not None:
                window = int(window_schedule(t))
                if window <= 0:
                    raise ValueError(f"window schedule produced {window} at t={t}")

            # 1. expiry ------------------------------------------------
            if phased:
                expire_timer.start()
            expired = expire(t - window, t)
            if departures is not None:
                for record in expired:
                    departures[record.stream][record.arrival] = (
                        record.arrival + window - 1
                    )
            if phased:
                expire_timer.stop()

            # 2. statistics hooks --------------------------------------
            arrivals_r += len(r_batch)
            arrivals_s += len(s_batch)
            observe_batch("R", r_batch, t)
            observe_batch("S", s_batch, t)
            if tracing:
                for key in r_batch:
                    tracer.emit(TraceEvent(t, "R", key, EVENT_ARRIVE, t))
                for key in s_batch:
                    tracer.emit(TraceEvent(t, "S", key, EVENT_ARRIVE, t))

            # 3. probes (before any same-tick admission) ---------------
            if phased:
                probe_timer.start()
            matches = probe_batch("R", r_batch, t) + probe_batch("S", s_batch, t)
            cross = 0
            if count_sim and r_batch and s_batch:
                if len(r_batch) == 1 and len(s_batch) == 1:
                    cross = 1 if r_batch[0] == s_batch[0] else 0
                else:
                    tick_counts: dict = {}
                    for key in r_batch:
                        tick_counts[key] = tick_counts.get(key, 0) + 1
                    cross = sum(tick_counts.get(key, 0) for key in s_batch)
                simultaneous_total += cross
            total_output += matches + cross
            if t >= warmup:
                output += matches + cross
                if emit is not None:
                    for key in r_batch:
                        for partner in mem_s.matches(key):
                            emit(JoinResultTuple(t, partner.arrival, key))
                    for key in s_batch:
                        for partner in mem_r.matches(key):
                            emit(JoinResultTuple(partner.arrival, t, key))
                    if cross:
                        for key in s_batch:
                            for r_key in r_batch:
                                if r_key == key:
                                    emit(JoinResultTuple(t, t, key))
            if tracing and cross:
                # probe_batch credited the resident partners; the
                # simultaneous pair has none, so the engine emits it.
                for key in s_batch:
                    for r_key in r_batch:
                        if r_key == key:
                            tracer.emit(TraceEvent(
                                t, "R", key, EVENT_JOIN_OUTPUT, t,
                                None, REASON_SIMULTANEOUS,
                            ))

            # 4. admissions: R batch first, then S ---------------------
            if phased:
                probe_timer.stop()
                admit_timer.start()
            if departures is None:
                for key in r_batch:
                    insert(TupleRecord("R", t, key), t)
                for key in s_batch:
                    insert(TupleRecord("S", t, key), t)
            else:
                for stream, batch in (("R", r_batch), ("S", s_batch)):
                    for key in batch:
                        admitted, victim = insert(TupleRecord(stream, t, key), t)
                        if not admitted:
                            # A rejected tuple was only present for its
                            # own arrival's probes.
                            departures[stream][t] = t
                        elif victim is not None:
                            departures[victim.stream][victim.arrival] = t
            if phased:
                admit_timer.stop()

            if shares is not None and t % config.share_sample_every == 0:
                shares.append((t, mem_r.size, mem_s.size))
            if sample_every and not t % sample_every:
                sample(t, mem_r.size, mem_s.size)
            if validate:
                self._check_invariants(t)
            if on_summary is not None and (t + 1) % stride == 0:
                on_summary(RunSummary(
                    engine="fast",
                    policy_name=self.policy_name,
                    output_count=output,
                    drops=DropBreakdown.from_side_counts(kernel.drop_counts),
                ))

        # Tuples still resident at stream end would have served their
        # full window; record the counterfactual natural departure.
        if departures is not None:
            for side in (mem_r, mem_s):
                for record in side.records():
                    departures[record.stream][record.arrival] = (
                        record.arrival + window - 1
                    )
        self._kernel = None

        return self._result(
            output, total_output, simultaneous_total, t + 1, kernel.drop_counts,
            obs=obs, run_timer=run_timer, arrivals=(arrivals_r, arrivals_s),
            timers=timers, window=window,
            departures=None if departures is None else (departures["R"], departures["S"]),
            pairs=pairs, shares=shares, tracer=tracer,
        )

    # ------------------------------------------------------------------
    def _sample_every(self) -> int:
        """Tick cadence of the sampled occupancy series."""
        config = self.config
        return config.metrics_sample_every or max(1, config.window // 8)

    def _result(
        self,
        output: int,
        total_output: int,
        simultaneous_total: int,
        length: int,
        drop_counts: dict,
        *,
        obs=None,
        run_timer=None,
        arrivals: Optional[tuple[int, int]] = None,
        final_occupancy: Optional[tuple[int, int]] = None,
        timers: Optional[dict] = None,
        window: Optional[int] = None,
        departures: Optional[tuple] = None,
        pairs: Optional[list] = None,
        shares: Optional[list] = None,
        tracer=None,
    ) -> RunResult:
        """Flush the end-of-run metrics (with ``obs``) and build the result.

        ``arrivals`` defaults to one arrival per side per tick;
        ``final_occupancy`` overrides the end-of-run gauge for lanes
        that never populate the join memory; ``timers`` maps phase paths
        to the kernel loop's per-phase timers.
        """
        memory = self.memory
        snapshot = None
        if obs is not None:
            run_timer.stop()
            arrivals_r, arrivals_s = arrivals or (length, length)
            if final_occupancy is None:
                final_occupancy = (memory.r.size, memory.s.size)
            obs.counter("engine.probes").inc(arrivals_r + arrivals_s)
            obs.counter("engine.matches").inc(total_output)
            obs.counter("engine.simultaneous").inc(simultaneous_total)
            obs.counter("engine.output").inc(output)
            for side, arrived, occupancy in (
                ("R", arrivals_r, final_occupancy[0]),
                ("S", arrivals_s, final_occupancy[1]),
            ):
                obs.counter("engine.arrivals", side=side).inc(arrived)
                obs.counter("engine.admissions", side=side).inc(
                    arrived - drop_counts[side][DROP_REJECTED]
                )
                for reason, count in drop_counts[side].items():
                    obs.counter("engine.drops", side=side, reason=reason).inc(count)
                obs.gauge("engine.final_occupancy", side=side).set(occupancy)
            for path, timer in (timers or {}).items():
                timer.flush(obs, path)
            obs.record_phase("engine/run", run_timer.seconds)
            snapshot = obs.snapshot()

        r_departures, s_departures = departures or (None, None)
        return RunResult(
            output_count=output,
            total_output_count=total_output,
            length=length,
            window=self.config.window if window is None else window,
            memory=self.config.memory,
            warmup=self.config.warmup,
            policy_name=self.policy_name,
            pairs=pairs,
            r_departures=r_departures,
            s_departures=s_departures,
            shares=shares,
            drop_counts=drop_counts,
            metrics=snapshot,
            trace=tracer.collect() if tracer is not None else None,
        )

    def _check_invariants(self, now: int) -> None:
        memory = self.memory
        if memory.variable:
            if memory.total_size > memory.capacity:
                raise AssertionError(
                    f"t={now}: pool holds {memory.total_size} > M={memory.capacity}"
                )
        else:
            half = memory.capacity // 2
            if memory.r.size > half or memory.s.size > half:
                raise AssertionError(
                    f"t={now}: sides hold {memory.r.size}/{memory.s.size} > M/2={half}"
                )
        for side in (memory.r, memory.s):
            for record in side.records():
                if not record.alive:
                    raise AssertionError(f"t={now}: dead record in slot array")
                if record.arrival <= now - self.config.window:
                    raise AssertionError(f"t={now}: expired record {record!r} resident")


def _ledger(rej_r, ev_r, exp_r, rej_s, ev_s, exp_s) -> dict:
    """The per-side drop ledger from the six counts a loop or lane keeps."""
    return {
        "R": {DROP_REJECTED: rej_r, DROP_EVICTED: ev_r, DROP_EXPIRED: exp_r},
        "S": {DROP_REJECTED: rej_s, DROP_EVICTED: ev_s, DROP_EXPIRED: exp_s},
    }


def _occupancy_sampler(obs):
    """``sample(t, r_size, s_size)``: one point of the occupancy series
    (per side) and of R's memory share."""
    occupancy_r = obs.series("engine.occupancy", side="R")
    occupancy_s = obs.series("engine.occupancy", side="S")
    share_series = obs.series("engine.memory_share", side="R")

    def sample(t, r_size, s_size):
        occupancy_r.append(t, r_size)
        occupancy_s.append(t, s_size)
        total = r_size + s_size
        share_series.append(t, (r_size / total) if total else 0.5)

    return sample


def _as_schedule(schedule):
    """A ``t -> value`` callable from a schedule callable or sequence."""
    if schedule is None or callable(schedule):
        return schedule
    return schedule.__getitem__
