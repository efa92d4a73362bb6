"""Asynchronous-arrival join engine (paper Section 1's generalisation).

The paper's analysis assumes one tuple per stream per time unit but notes
the techniques "can be generalized to windows defined in terms of the
number of tuples and to asynchronous tuple arrival".  This engine
implements that generalisation for the fast-CPU integrated model: any
number of tuples (including zero) may arrive on each stream per tick.

Semantics
---------
* arrivals of one tick are processed in order — the R batch, then the S
  batch; each tuple probes the opposite memory *when processed*, so a
  same-tick pair is found when the later-processed partner probes (no
  separate "top path" is needed);
* ``window_mode="time"``: the pair ``(r, s)`` requires ``|t_r - t_s| <
  w`` in ticks, exactly as the synchronous engine;
* ``window_mode="count"``: each stream's window is its last ``w``
  tuples — a tuple expires when ``w`` further tuples of its *own* stream
  have arrived.  Priorities that depend on remaining *time* (LIFE, ARM)
  are not meaningful here, so count mode accepts only RAND/PROB-style
  policies (enforced at configuration time);
* ``window_mode="landmark"``: tuples accumulate from the most recent
  landmark (every ``landmark_every`` ticks, e.g. "since the top of the
  hour") and the whole state resets at each landmark — the third window
  style Section 1 lists.  Remaining lifetime is again not meaningful to
  a per-tuple priority, so the same policy restriction applies.

Output is counted per processing tick against the usual warmup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from sys import maxsize
from typing import Optional, Sequence, Union

from ..obs import Histogram, Timer, active_or_none
from ..obs.trace import (
    EVENT_ARRIVE,
    REASON_WINDOW,
    TraceEvent,
    tracing_or_none,
)
from ..streams.sources import Source, as_source, bounded_events
from ..streams.tuples import JoinResultTuple, StreamPair
from .engine import CapacityExceededError, PolicySpec
from .kernel import JoinKernel
from .memory import JoinMemory, TupleRecord
from .policies import resolve_policy_spec
from .policies.life import LifePolicy
from .results import (
    DROP_EXPIRED,
    BaseRunResult,
    DropBreakdown,
    RunSummary,
    empty_side_drop_counts,
)

WINDOW_MODES = ("time", "count", "landmark")


@dataclass
class AsyncEngineConfig:
    """Configuration of an asynchronous-arrival run.

    In ``"landmark"`` mode ``window`` is ignored for expiry and
    ``landmark_every`` sets the reset period (state clears at every tick
    that is a positive multiple of it).
    """

    window: int
    memory: int
    variable: bool = False
    warmup: Optional[int] = None  # in ticks
    window_mode: str = "time"
    landmark_every: Optional[int] = None
    validate: bool = False

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.memory <= 0:
            raise ValueError(f"memory must be positive, got {self.memory}")
        if self.window_mode not in WINDOW_MODES:
            raise ValueError(
                f"window_mode must be one of {WINDOW_MODES}, got {self.window_mode!r}"
            )
        if self.window_mode == "landmark":
            if self.landmark_every is None or self.landmark_every <= 0:
                raise ValueError("landmark mode needs a positive landmark_every")
        elif self.landmark_every is not None:
            raise ValueError("landmark_every only applies to landmark mode")
        if self.warmup is None:
            self.warmup = 2 * self.window
        if self.warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup}")


@dataclass
class AsyncRunResult(BaseRunResult):
    """Counters of one asynchronous run."""

    output_count: int
    total_output_count: int
    ticks: int
    arrivals: int
    policy_name: str
    drop_counts: dict = field(default_factory=dict)
    metrics: Optional[dict] = None
    trace: Optional[list] = None

    engine_kind = "async"

    def drop_breakdown(self) -> DropBreakdown:
        return DropBreakdown.from_side_counts(self.drop_counts)


class AsyncJoinEngine:
    """Fast-CPU integrated model with bursty / idle ticks.

    Policies are wired exactly as for
    :class:`~repro.core.engine.JoinEngine` (``None`` / single instance /
    per-side dict).
    """

    def __init__(
        self,
        config: AsyncEngineConfig,
        policy: PolicySpec = None,
        *,
        metrics=None,
        trace=None,
    ) -> None:
        self.config = config
        self.memory = JoinMemory(config.memory, variable=config.variable)
        self.metrics = metrics
        self.trace = trace

        resolved = resolve_policy_spec(policy, self.memory, variable=config.variable)
        self._policy_r = resolved.r
        self._policy_s = resolved.s
        self._policies = resolved.instances
        self.policy_name = resolved.name
        # Live only while a run executes: the kernel loop's kernel or the
        # count lane's state, the registry, and (inside on_tick) the
        # tick's counters; `_segment` is where this run began.
        self._kernel = None
        self._lane = None
        self._obs = None
        self._tracing = False
        self._tick_state = None
        self._segment = (0, 0)

        if config.window_mode in ("count", "landmark"):
            from .policies.arm import ArmAwarePolicy

            for bound in self._policies:
                if isinstance(bound, (LifePolicy, ArmAwarePolicy)):
                    raise ValueError(
                        f"{config.window_mode}-based windows have no fixed "
                        "per-tuple lifetime; time-based priorities (LIFE, "
                        "ARM) do not apply"
                    )

    # ------------------------------------------------------------------
    def run(
        self,
        r_batches: Sequence[Sequence],
        s_batches: Sequence[Sequence],
        *,
        resume: Optional[dict] = None,
        on_tick=None,
        on_tick_every: int = 1,
    ) -> AsyncRunResult:
        """Process per-tick arrival batches.

        ``r_batches[t]`` is the (possibly empty) sequence of R join keys
        arriving at tick ``t``; likewise for S.  Both sequences must
        cover the same number of ticks.  The run is the tick loop of
        :meth:`run_stream`, fed ``zip(r_batches, s_batches)``.

        ``on_tick(engine, t)`` fires after each tick's batches complete
        (and after its metrics were recorded); inside the callback
        :meth:`checkpoint` captures a resumable snapshot of the run.
        ``on_tick_every=N`` fires it only on ticks where
        ``t % N == 0`` — a hook that samples (telemetry heartbeats)
        costs one int compare on the skipped ticks instead of a Python
        call.  ``resume`` takes such a snapshot and continues from the
        tick after it — the finished run is bit-identical (counts,
        ledger, metrics totals) to one that was never interrupted.
        """
        if len(r_batches) != len(s_batches):
            raise ValueError("batch sequences must cover the same number of ticks")
        return self._run_ticks(
            zip(r_batches, s_batches),
            resume=resume,
            on_tick=on_tick,
            on_tick_every=on_tick_every,
        )

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
        on_tick=None,
        on_tick_every: int = 1,
    ) -> AsyncRunResult:
        """Consume a pull-based source with asynchronous semantics.

        Per-tick ``(r_keys, s_keys)`` events come from any
        :class:`~repro.streams.sources.Source` (a :class:`StreamPair` is
        adapted automatically) instead of materialized batch lists, and
        working state stays bounded by the window/memory budget, so
        unbounded sources are safe.  It is the same tick loop as
        :meth:`run`, so the same traffic gives bit-identical results
        (counts, ledger, metrics totals) either way.

        ``until`` bounds the tick count and ``stop()`` is polled before
        each tick is pulled (either is required for an unbounded
        source); ``emit`` is a per-pair sink for post-warmup output;
        ``on_summary`` receives a rolling
        :class:`~repro.core.results.RunSummary` every
        ``on_summary_every`` ticks (default 4096).  ``on_tick`` works as
        in :meth:`run` (telemetry heartbeats; :meth:`progress` is valid
        inside), but checkpoint/resume stays pair-input-only — an
        interrupted source run is re-run from the start (sources are
        restartable by contract).
        """
        source = as_source(source)
        if until is not None and until < 0:
            raise ValueError(f"until must be non-negative, got {until}")
        if on_summary_every is not None and on_summary_every <= 0:
            raise ValueError(
                f"on_summary_every must be positive, got {on_summary_every}"
            )
        if source.length is None and until is None and stop is None:
            raise ValueError(
                "unbounded source: pass until= and/or stop= to bound the run"
            )
        return self._run_ticks(
            bounded_events(source, until, stop),
            emit=emit,
            on_summary=on_summary,
            stride=on_summary_every or 4096,
            on_tick=on_tick,
            on_tick_every=on_tick_every,
        )

    # ------------------------------------------------------------------
    # the tick loop
    # ------------------------------------------------------------------
    def _run_ticks(
        self,
        events,
        *,
        resume: Optional[dict] = None,
        emit=None,
        on_summary=None,
        stride: int = 0,
        on_tick=None,
        on_tick_every: int = 1,
    ) -> AsyncRunResult:
        """The per-tick loop behind :meth:`run` and :meth:`run_stream`.

        Policy-less time-window runs without a tracer, ``emit`` sink or
        validation take the count-only lane (:meth:`_run_exact`)
        instead — metrics, ``on_tick`` hooks and ``resume`` included.
        It is the hot path of sharded EXACT execution; either path
        resumes from the other's checkpoints.

        With metrics, both paths sample ``engine.occupancy`` every
        ``max(1, window // 8)`` ticks and flush ``async.batch_size``
        (one value per tick: that tick's arrivals) once, from running
        count/sum/min/max.
        """
        if on_tick_every < 1:
            raise ValueError(f"on_tick_every must be >= 1, got {on_tick_every}")
        config = self.config
        obs = active_or_none(self.metrics)
        tracer = tracing_or_none(self.trace)
        tracing = tracer is not None
        self._kernel = None
        self._lane = None
        self._obs = obs
        self._tracing = tracing
        self._tick_state = None

        start_tick = 0
        if resume is not None:
            if tracing:
                raise ValueError(
                    "cannot resume a traced run (pre-failure events are gone)"
                )
            start_tick = resume["tick"] + 1
            events = islice(events, start_tick, None)

        if (
            self._policy_r is None
            and self._policy_s is None
            and config.window_mode == "time"
            and emit is None
            and not config.validate
            and not tracing
        ):
            return self._run_exact(
                events, obs, resume, on_summary, stride, on_tick, on_tick_every
            )

        memory = self.memory
        window = config.window
        warmup = config.warmup
        assert warmup is not None
        count_mode = config.window_mode == "count"
        landmark_mode = config.window_mode == "landmark"
        validate = config.validate

        output = 0
        total_output = 0
        arrivals = 0
        sequence = {"R": 0, "S": 0}  # per-stream tuple counters (count mode)

        kernel = JoinKernel(
            memory,
            self._policy_r,
            self._policy_s,
            tracer=tracer,
            overflow_error=CapacityExceededError,
        )
        drop_counts = kernel.drop_counts
        # Expiry reason names the window style that aged the tuple out.
        expire_reason = (
            REASON_WINDOW if config.window_mode == "time" else config.window_mode
        )
        timed = obs is not None
        self._kernel = kernel

        if resume is not None:
            output = resume["output"]
            total_output = resume["total_output"]
            arrivals = resume["arrivals"]
            sequence = dict(resume["sequence"])
            restored = kernel.restore(resume["kernel"])
            self._restore_policies(resume["policies"], restored)
        self._segment = (start_tick, arrivals)

        # Occupancy samples and the hook fire on absolute tick grids,
        # tracked as next-tick pointers: one int compare per tick
        # instead of a modulo, and -1 (never matches) when off.  The
        # first grid tick at or after start_tick keeps them resume-safe.
        sample_next = -1
        if timed:
            run_timer = self._start_metrics(obs, resume)
            occupancy_r = obs.series("engine.occupancy", side="R")
            occupancy_s = obs.series("engine.occupancy", side="S")
            sample_every = self._sample_every()
            sample_next = start_tick + (-start_tick % sample_every)
            batch_min = maxsize
            batch_max = -1
        hook_next = -1
        if on_tick is not None:
            hook_next = start_tick + (-start_tick % on_tick_every)

        # Untraced sides take the kernel's batch operations (bulk probe
        # over the per-key group index; bulk insert with one capacity
        # check per chunk when no policy is attached, else per-tuple
        # contests inside :meth:`JoinKernel.insert_batch`).  Bulk probes
        # read the *opposite* memory, so hoisting them above the batch's
        # insertions is exact as long as those insertions cannot touch
        # the opposite side: fixed-allocation victims are own-side, but
        # a shared pool (variable) or an arrival-observing estimator
        # would make probe results order-dependent — those stay
        # per-tuple, as do tracers (event order), count-mode windows
        # (expiry interleaves inside the batch), and ``emit`` sinks
        # (per-pair results).
        batch_ops = (
            not tracing
            and not count_mode
            and emit is None
            and (
                (self._policy_r is None and self._policy_s is None)
                or (not memory.variable and not kernel.observers)
            )
        )

        t = start_tick - 1
        for r_event, s_event in events:
            t += 1
            if landmark_mode:
                if t > 0 and t % config.landmark_every == 0:
                    # A new landmark: the whole window state resets.
                    kernel.expire(t, t, reason=expire_reason)
            elif not count_mode:
                kernel.expire(t - window, t, reason=expire_reason)

            for stream, batch in (("R", r_event), ("S", s_event)):
                if batch_ops:
                    if batch:
                        arrivals += len(batch)
                        kernel.observe_batch(stream, batch, t)
                        matches = kernel.probe_batch(stream, batch, t)
                        total_output += matches
                        if t >= warmup:
                            output += matches
                        kernel.insert_batch(stream, batch, t)
                    continue
                for key in batch:
                    arrivals += 1
                    kernel.observe(stream, key, t)
                    if tracing:
                        tracer.emit(TraceEvent(t, stream, key, EVENT_ARRIVE, t))

                    matches = kernel.probe(stream, key, t)
                    total_output += matches
                    if t >= warmup:
                        output += matches
                        if emit is not None and matches:
                            for partner in memory.other_side(stream).matches(key):
                                emit(
                                    JoinResultTuple(t, partner.arrival, key)
                                    if stream == "R"
                                    else JoinResultTuple(partner.arrival, t, key)
                                )

                    if count_mode:
                        # The tuple's own arrival pushes the count window.
                        sequence[stream] += 1
                        kernel.expire(
                            sequence[stream] - window, t,
                            reason=expire_reason, side=stream,
                        )
                        record = TupleRecord(stream, sequence[stream], key)
                    else:
                        record = TupleRecord(stream, t, key)
                    kernel.insert(record, t)

            if timed:
                size = len(r_event) + len(s_event)
                if size < batch_min:
                    batch_min = size
                if size > batch_max:
                    batch_max = size
                if t == sample_next:
                    sample_next = t + sample_every
                    occupancy_r.append(t, memory.r.size)
                    occupancy_s.append(t, memory.s.size)

            if validate:
                self._check_invariants(t)

            if on_summary is not None and (t + 1) % stride == 0:
                on_summary(RunSummary(
                    engine="async",
                    policy_name=self.policy_name,
                    output_count=output,
                    drops=DropBreakdown.from_side_counts(drop_counts),
                ))

            if t == hook_next:
                hook_next = t + on_tick_every
                # `sequence` is stored by reference: the state is only
                # valid inside the hook call, before the next mutation,
                # so checkpoint() copies it lazily on demand.
                self._tick_state = (
                    t, output, total_output, arrivals, sequence,
                    (batch_min, batch_max) if timed else None,
                )
                on_tick(self, t)

        self._tick_state = None
        snapshot = None
        if timed:
            snapshot = self._flush_metrics(
                obs, run_timer, output, total_output, arrivals, drop_counts,
                self._pending_batches(t, arrivals, batch_min, batch_max),
            )

        return AsyncRunResult(
            output_count=output,
            total_output_count=total_output,
            ticks=t + 1,
            arrivals=arrivals,
            policy_name=self.policy_name,
            drop_counts=drop_counts,
            metrics=snapshot,
            trace=tracer.collect() if tracing else None,
        )

    # ------------------------------------------------------------------
    # the count-only EXACT lane
    # ------------------------------------------------------------------
    def _run_exact(
        self, events, obs, resume, on_summary, stride, on_tick, on_tick_every
    ) -> AsyncRunResult:
        """Dictionary count arithmetic for policy-less time-window runs.

        Dispatched from :meth:`_run_ticks` when nothing needs per-tuple
        state: no policy, no tracer, no sink, no validation.  Sharded
        EXACT execution lands here — every shard is a policy-less
        time-mode run over mostly-empty ticks — so the lane removes the
        kernel, record allocation, and memory maintenance from the
        sharding hot path while staying bit-identical to the kernel
        loop: the same output, ledger, metrics, ``on_tick`` grid (with
        :meth:`progress` and :meth:`checkpoint` valid inside) and
        checkpoint format.  ``events`` already starts after a
        ``resume`` tick.  Working state is bounded by the window
        contents, so unbounded sources are safe (see
        :func:`repro.core.batched.exact_stream_counts`).
        """
        from .batched import ExactStreamState, exact_stream_counts

        config = self.config
        state = ExactStreamState() if resume is None else self._lane_state(resume)
        self._lane = state
        self._segment = (state.tick + 1, state.arrivals)

        on_progress = None
        if on_summary is not None:
            policy_name = self.policy_name

            def on_progress(t, output, total_output, arrivals, exp_r, exp_s):
                on_summary(RunSummary(
                    engine="async",
                    policy_name=policy_name,
                    output_count=output,
                    drops=DropBreakdown(expired=exp_r + exp_s),
                ))

        hook = None
        if on_tick is not None:

            def hook(t):
                self._tick_state = (
                    t, state.output, state.total_output, state.arrivals,
                    {"R": 0, "S": 0}, (state.batch_min, state.batch_max),
                )
                on_tick(self, t)

        sample = None
        run_timer = None
        if obs is not None:
            run_timer = self._start_metrics(obs, resume)
            occupancy_r = obs.series("engine.occupancy", side="R")
            occupancy_s = obs.series("engine.occupancy", side="S")

            def sample(t, r_size, s_size):
                occupancy_r.append(t, r_size)
                occupancy_s.append(t, s_size)

        output, total_output, arrivals, expired_r, expired_s, ticks = (
            exact_stream_counts(
                events,
                config.window,
                config.warmup,
                capacity=self.memory.capacity,
                variable=self.memory.variable,
                overflow_error=CapacityExceededError,
                on_progress=on_progress,
                progress_every=stride if on_summary is not None else 0,
                state=state,
                on_tick=hook,
                on_tick_every=on_tick_every,
                sample=sample,
                sample_every=self._sample_every(),
            )
        )
        self._tick_state = None
        drop_counts = empty_side_drop_counts()
        drop_counts["R"][DROP_EXPIRED] = expired_r
        drop_counts["S"][DROP_EXPIRED] = expired_s
        snapshot = None
        if obs is not None:
            snapshot = self._flush_metrics(
                obs, run_timer, output, total_output, arrivals, drop_counts,
                self._pending_batches(
                    ticks - 1, arrivals, state.batch_min, state.batch_max
                ),
            )
        return AsyncRunResult(
            output_count=output,
            total_output_count=total_output,
            ticks=ticks,
            arrivals=arrivals,
            policy_name=self.policy_name,
            drop_counts=drop_counts,
            metrics=snapshot,
            trace=None,
        )

    def _lane_state(self, resume: dict):
        """The count lane's state from a checkpoint of either path.

        The kernel snapshot restores through a scratch
        :class:`JoinKernel`, so both paths validate it alike; a
        policy-less run's checkpoint carries no policy states.
        """
        from .batched import ExactStreamState

        self._restore_policies(resume["policies"], [])
        kernel = JoinKernel(
            JoinMemory(self.memory.capacity, variable=self.memory.variable),
            None,
            None,
        )
        state = ExactStreamState()
        for record in kernel.restore(resume["kernel"]):
            queue = state.r_queue if record.stream == "R" else state.s_queue
            queue.append((record.arrival, record.key))
        state.tick = resume["tick"]
        state.output = resume["output"]
        state.total_output = resume["total_output"]
        state.arrivals = resume["arrivals"]
        state.expired_r = kernel.drop_counts["R"][DROP_EXPIRED]
        state.expired_s = kernel.drop_counts["S"][DROP_EXPIRED]
        return state

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _sample_every(self) -> int:
        """Tick cadence of the ``engine.occupancy`` series."""
        return max(1, self.config.window // 8)

    @staticmethod
    def _start_metrics(obs, resume: Optional[dict]) -> Timer:
        """Merge a checkpoint's metrics and start the run timer.

        The merge comes *before* any instrument handle is taken:
        ``merge_snapshot`` get-or-creates the same objects the handles
        extend.  ``async.batch_size`` is created here so every snapshot
        (checkpoints included) carries it.
        """
        if resume is not None and resume.get("metrics"):
            obs.merge_snapshot(resume["metrics"])
        obs.histogram("async.batch_size")
        run_timer = Timer()
        run_timer.start()
        return run_timer

    def _pending_batches(self, t: int, arrivals: int, low, high) -> tuple:
        """``async.batch_size`` of this run up to tick ``t``, as
        ``(count, sum, min, max)``: one value per tick, summing to the
        arrivals since the run (or its resume) began."""
        start_tick, start_arrivals = self._segment
        count = t + 1 - start_tick
        if count <= 0:
            return 0, 0, None, None
        return count, arrivals - start_arrivals, low, high

    def _flush_metrics(
        self, obs, run_timer, output, total_output, arrivals, drop_counts,
        batches,
    ) -> dict:
        """The end-of-run flush both paths share; returns the snapshot."""
        run_timer.stop()
        obs.histogram("async.batch_size").merge(*batches)
        obs.counter("engine.matches").inc(total_output)
        obs.counter("engine.output").inc(output)
        obs.counter("async.arrivals").inc(arrivals)
        for side in ("R", "S"):
            for reason, count in drop_counts[side].items():
                obs.counter("engine.drops", side=side, reason=reason).inc(count)
        obs.record_phase("engine/run", run_timer.seconds)
        return obs.snapshot()

    # ------------------------------------------------------------------
    # live progress
    # ------------------------------------------------------------------
    def progress(self) -> dict:
        """Live run counters, valid inside an ``on_tick`` callback.

        The telemetry heartbeat payload: current tick, produced output
        (counted and total), arrivals so far, resident-tuple occupancy,
        and the cumulative drop total.  Cheap by design — a handful of
        attribute reads, no snapshotting.
        """
        if self._tick_state is None:
            raise RuntimeError(
                "progress() is only valid inside an on_tick callback"
            )
        t, output, total_output, arrivals = self._tick_state[:4]
        lane = self._lane
        if lane is not None:
            occupancy = len(lane.r_queue) + len(lane.s_queue)
            drops = lane.expired_r + lane.expired_s
        else:
            occupancy = self.memory.r.size + self.memory.s.size
            drops = 0
            for reasons in self._kernel.drop_counts.values():
                drops += sum(reasons.values())
        return {
            "tick": t,
            "output": output,
            "total_output": total_output,
            "arrivals": arrivals,
            "occupancy": occupancy,
            "drops": drops,
        }

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Resumable snapshot of the run, valid inside an ``on_tick`` hook.

        Only time-based windows checkpoint: count/landmark modes stamp
        per-stream sequence numbers as arrivals, which breaks the
        cross-side admission-order merge the restore path relies on, and
        sharded runs (the checkpoint consumers) are always time-mode.
        Traced runs refuse too — the events emitted before a failure
        would be lost or duplicated on resume.  The count lane writes
        the kernel loop's format (its residents in admission order), so
        either path resumes from either's checkpoint.
        """
        if self.config.window_mode != "time":
            raise ValueError(
                "checkpointing requires time-based windows, got "
                f"window_mode={self.config.window_mode!r}"
            )
        if self._tracing:
            raise ValueError("cannot checkpoint a traced run")
        if self._tick_state is None:
            raise RuntimeError(
                "checkpoint() is only valid inside an on_tick callback"
            )
        from .results import SCHEMA_VERSION

        t, output, total_output, arrivals, sequence, extremes = self._tick_state
        lane = self._lane
        kernel_state = (
            self._kernel.snapshot() if lane is None else self._lane_snapshot(lane)
        )
        metrics = None
        if self._obs is not None:
            metrics = self._obs.snapshot()
            # The batch-size summary is flushed at run end; fold in the
            # part this run has accumulated so far.
            pending = self._pending_batches(t, arrivals, *extremes)
            for entry in metrics["histograms"]:
                if entry["name"] == "async.batch_size" and not entry["labels"]:
                    summary = Histogram(entry["name"], {})
                    summary.merge(
                        entry["count"], entry["sum"], entry["min"], entry["max"]
                    )
                    summary.merge(*pending)
                    entry.update(
                        count=summary.count, sum=summary.sum,
                        min=summary.min, max=summary.max,
                    )
        return {
            "schema_version": SCHEMA_VERSION,
            "tick": t,
            "output": output,
            "total_output": total_output,
            "arrivals": arrivals,
            "sequence": dict(sequence),
            "kernel": kernel_state,
            "policies": [p.snapshot_state() for p in self._policies],
            "metrics": metrics,
        }

    def _lane_snapshot(self, lane) -> dict:
        """The count lane's state in :meth:`JoinKernel.snapshot`'s format.

        Residents go in admission order, which is also their slot order
        (the kernel's slots only diverge from it through swap-removes,
        and slot order matters only to RAND's victim draw).
        """
        memory = self.memory

        def side(stream, queue):
            return {
                "stream": stream,
                "slots": [(arrival, key, 0.0, None) for arrival, key in queue],
                "order": list(range(len(queue))),
            }

        drops = empty_side_drop_counts()
        drops["R"][DROP_EXPIRED] = lane.expired_r
        drops["S"][DROP_EXPIRED] = lane.expired_s
        return {
            "memory": {
                "capacity": memory.capacity,
                "variable": memory.variable,
                "r": side("R", lane.r_queue),
                "s": side("S", lane.s_queue),
            },
            "drops": drops,
        }

    def _restore_policies(self, states, records) -> None:
        """Hand each policy its snapshot plus the residents it governs."""
        if len(states) != len(self._policies):
            raise ValueError(
                f"checkpoint has {len(states)} policy states for "
                f"{len(self._policies)} policies"
            )
        for policy, state in zip(self._policies, states):
            if policy is self._policy_r and policy is self._policy_s:
                governed = records  # shared pool: both sides, merged order
            elif policy is self._policy_r:
                governed = [r for r in records if r.stream == "R"]
            else:
                governed = [r for r in records if r.stream == "S"]
            policy.restore_state(state, governed)

    # ------------------------------------------------------------------
    def _check_invariants(self, now: int) -> None:
        memory = self.memory
        if memory.variable:
            if memory.total_size > memory.capacity:
                raise AssertionError(f"tick {now}: pool exceeds budget")
        else:
            half = memory.capacity // 2
            if memory.r.size > half or memory.s.size > half:
                raise AssertionError(f"tick {now}: a side exceeds its budget")

