"""Count-only EXACT execution lanes for the batched fast path.

Under the EXACT configuration (no shedding policy, lossless budget
``M >= 2w``) the sliding-window join needs none of the per-tuple
machinery the engines carry for policies: no :class:`TupleRecord`
allocation, no slot arrays, no per-key deques, no eviction contests.
Everything the result reports is reachable with dictionary count
arithmetic:

* probes — ``matches(t) = s_counts[r(t)] + r_counts[s(t)]`` (plus the
  simultaneous pair), where the count dicts track *resident tuples per
  key*;
* expiry — the synchronous model admits exactly one tuple per side per
  tick, so the tuple expiring at tick ``t`` is exactly the key that
  arrived at ``t - w``: one dict decrement per side, no arrival deque;
* the drop ledger — EXACT never rejects or evicts, and each side
  expires exactly ``max(0, length - w)`` tuples;
* survival — every tuple departs at its natural ``arrival + w - 1``
  (both the tuples that expire mid-run and the ones still resident at
  stream end);
* occupancy — after tick ``t``'s admissions each side holds exactly
  ``min(t + 1, w)`` residents.

The lanes here are *gated*, not general: callers must verify the
configuration cannot overflow (``capacity >= 2 * window`` for
:func:`exact_chunk_counts`, which serves the synchronous engine's pair
input and its unit-rate source input by default, keeping a key history
bounded by the window) or must pass capacity bounds for
the lane to check (:func:`exact_stream_counts`, which serves the
remaining source input — rolling summaries, bursty sources, lossy
budgets — and the asynchronous engine, where bursts can overflow).  A
regression gate (``benchmarks/bench_batch.py``) pins the lane output
bit-identical to the per-tuple engines.

The shedding policies have chunk lanes too: :mod:`.batched_policies`
(re-exported here) carries ``rand_chunk_run`` / ``prob_chunk_run`` /
``life_chunk_run``, which keep the same per-key count arithmetic for
probes and add flat, allocation-free replicas of the eviction contests.
Their regression gate is ``benchmarks/bench_policy_batch.py``.
"""

from __future__ import annotations

from collections import deque
from sys import maxsize
from typing import Callable, Iterable, Optional, Sequence

from ..streams.batches import StreamChunk
from ..streams.sources import bounded_events
from .batched_policies import (
    LaneTotals,
    lane_kind_for_policies,
    life_chunk_run,
    prob_chunk_run,
    rand_chunk_run,
)

__all__ = [
    "ExactStreamState",
    "LaneTotals",
    "exact_chunk_counts",
    "exact_stream_counts",
    "exact_tick_counts",
    "lane_kind_for_policies",
    "life_chunk_run",
    "prob_chunk_run",
    "rand_chunk_run",
]


def exact_chunk_counts(
    chunks: Iterable[StreamChunk],
    window: int,
    warmup: int,
    *,
    count_simultaneous: bool = True,
) -> tuple[int, int, int, int]:
    """Run the synchronous EXACT join over columnar chunks.

    Returns ``(output, total_output, simultaneous_total, length)`` with
    exactly the semantics of the engine's kernel loop under a ``None``
    policy: per tick — expire the two ``t - window`` arrivals, probe
    both newcomers against the opposite counts (before either same-tick
    insert), count the simultaneous pair, then insert both.

    ``chunks`` may come from a materialized pair or from a unit-rate
    source re-chunked on the fly, and may be unbounded: working state
    is two count dicts plus a key history of at most ``2 * window``
    keys and one chunk per side — ``O(window + batch_size)``, never
    the stream length.

    The caller guarantees the lossless budget (``capacity >= 2 *
    window``), so no capacity checks appear in the loop.
    """
    r_counts: dict = {}
    s_counts: dict = {}
    # Key history of ticks hist_base .., extended chunk-wise *before*
    # the chunk's ticks run: expiry at tick t reads tick t - window,
    # which is always behind the loop cursor, and probes never read the
    # history.  Ticks no later chunk can expire (before base - window)
    # are trimmed once they make up a window's worth, so the history
    # holds at most 2 * window + one chunk of keys, whatever the
    # stream length.
    r_hist: list = []
    s_hist: list = []
    hist_base = 0

    output = 0
    total_output = 0
    simultaneous_total = 0
    length = 0

    r_get = r_counts.get
    s_get = s_counts.get

    for chunk in chunks:
        r_keys = chunk.r_list()
        s_keys = chunk.s_list()
        base = chunk.start
        stale = base - window - hist_base
        if stale >= window:
            del r_hist[:stale]
            del s_hist[:stale]
            hist_base += stale
        r_hist.extend(r_keys)
        s_hist.extend(s_keys)
        # Tick t's history index is t - hist_base, so the key expiring
        # at t sits at t - lag; it is negative exactly when t < window.
        lag = window + hist_base
        for i in range(chunk.length):
            t = base + i
            # 1. expiry: the synchronous model retires exactly the
            #    arrival at t - window on each side.
            old = t - lag
            if old >= 0:
                key = r_hist[old]
                remaining = r_counts[key] - 1
                if remaining:
                    r_counts[key] = remaining
                else:
                    del r_counts[key]
                key = s_hist[old]
                remaining = s_counts[key] - 1
                if remaining:
                    s_counts[key] = remaining
                else:
                    del s_counts[key]

            r_key = r_keys[i]
            s_key = s_keys[i]

            # 2. probes (before either same-tick insert).
            matched = s_get(r_key, 0) + r_get(s_key, 0)
            if count_simultaneous and r_key == s_key:
                matched += 1
                simultaneous_total += 1
            total_output += matched
            if t >= warmup:
                output += matched

            # 3. admissions (no contest possible at lossless budget).
            r_counts[r_key] = r_get(r_key, 0) + 1
            s_counts[s_key] = s_get(s_key, 0) + 1
        length = base + chunk.length

    return output, total_output, simultaneous_total, length


def exact_tick_counts(
    r_batches: Sequence[Sequence],
    s_batches: Sequence[Sequence],
    window: int,
    warmup: int,
    *,
    capacity: int,
    variable: bool,
    overflow_error: type = RuntimeError,
) -> tuple[int, int, int, int, int]:
    """Run the asynchronous EXACT join over per-tick arrival batches.

    :func:`exact_stream_counts` over ``zip(r_batches, s_batches)``.
    Returns ``(output, total_output, arrivals, expired_r, expired_s)``.
    """
    return exact_stream_counts(
        zip(r_batches, s_batches),
        window,
        warmup,
        capacity=capacity,
        variable=variable,
        overflow_error=overflow_error,
    )[:5]


class ExactStreamState:
    """The resumable state of one :func:`exact_stream_counts` run.

    A caller that passes ``state=`` reads it inside ``on_tick`` (the
    lane writes its counters back before each call) and after the run;
    a state rebuilt from a checkpoint resumes the run at ``tick + 1``.
    ``r_queue``/``s_queue`` hold each side's residents as ``(arrival,
    key)`` in admission order.  ``batch_min``/``batch_max`` are the
    extremes of the per-tick arrival count over the ticks this state
    has run, kept only by sampled runs (``None`` before the first
    such tick).
    """

    __slots__ = (
        "tick",
        "output",
        "total_output",
        "arrivals",
        "expired_r",
        "expired_s",
        "r_queue",
        "s_queue",
        "batch_min",
        "batch_max",
    )

    def __init__(self) -> None:
        self.tick = -1
        self.output = 0
        self.total_output = 0
        self.arrivals = 0
        self.expired_r = 0
        self.expired_s = 0
        self.r_queue: deque = deque()
        self.s_queue: deque = deque()
        self.batch_min: Optional[int] = None
        self.batch_max: Optional[int] = None


def exact_stream_counts(
    events: Iterable,
    window: int,
    warmup: int,
    *,
    capacity: int,
    variable: bool,
    count_simultaneous: bool = True,
    overflow_error: type = RuntimeError,
    until: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
    on_progress: Optional[Callable] = None,
    progress_every: int = 0,
    state: Optional[ExactStreamState] = None,
    on_tick: Optional[Callable[[int], None]] = None,
    on_tick_every: int = 1,
    sample: Optional[Callable] = None,
    sample_every: int = 0,
) -> tuple[int, int, int, int, int, int]:
    """Run the EXACT join incrementally over per-tick arrival batches.

    ``events`` yields per-tick ``(r_keys, s_keys)`` arrival batches (a
    :class:`repro.streams.sources.Source` iterator, or zipped per-tick
    lists), which may be unbounded — working state is two count dicts
    plus two expiry queues, all bounded by the window contents, never by
    stream length.  This is the lane ``make soak`` exercises.

    Per tick: expire ``arrival <= t - window`` on both sides, then
    process the R batch and then the S batch, each tuple probing the
    opposite counts when processed.  That order is exact for both
    engines' EXACT semantics: a same-tick pair is counted once, by the
    later-processed partner — the asynchronous per-tuple order, and the
    synchronous engine's probes-plus-top-path total.
    ``count_simultaneous=False`` (a synchronous-engine knob) subtracts
    the same-tick pairs.  Bursts can overflow the budget, so inserts
    check capacity exactly where :meth:`JoinKernel.insert` would and
    raise ``overflow_error`` with the kernel's message.

    ``until`` bounds the tick count and ``stop()`` is polled before each
    pull (see :func:`~repro.streams.sources.bounded_events`);
    ``on_progress(t, output, total_output, arrivals, expired_r,
    expired_s)`` fires after every ``progress_every`` ticks — the
    rolling-summary hook.

    The asynchronous engine's hooks ride on ``state`` (see
    :class:`ExactStreamState`; a fresh one when ``None``, else the run
    continues from it — ``events`` must then start at ``state.tick +
    1``).  ``on_tick(t)`` fires after tick ``t`` completes wherever ``t
    % on_tick_every == 0``, with ``state`` current.  ``sample(t,
    r_size, s_size)`` records occupancy wherever ``t % sample_every ==
    0``, and a sampled run also keeps ``state.batch_min``/``batch_max``
    (the metrics the engine flushes).  Tick grids are absolute, so a
    resumed run fires on the same ticks.

    Returns ``(output, total_output, arrivals, expired_r, expired_s,
    ticks)``.
    """
    if state is None:
        state = ExactStreamState()
    r_queue = state.r_queue
    s_queue = state.s_queue
    r_counts: dict = {}
    s_counts: dict = {}
    for counts, queue in ((r_counts, r_queue), (s_counts, s_queue)):
        for _, key in queue:
            counts[key] = counts.get(key, 0) + 1

    output = state.output
    total_output = state.total_output
    arrivals = state.arrivals
    expired_r = state.expired_r
    expired_s = state.expired_s
    r_size = len(r_queue)
    s_size = len(s_queue)

    r_get = r_counts.get
    s_get = s_counts.get
    half = capacity // 2
    uncount = not count_simultaneous
    if on_progress is None:
        progress_every = 0

    t = state.tick
    # Hook and sample ticks are tracked as next-tick pointers (one int
    # compare per tick; -1 never matches), starting at the first grid
    # tick at or after this run's first tick.
    first = t + 1
    hook_next = first + (-first % on_tick_every) if on_tick is not None else -1
    sampled = sample is not None
    sample_next = first + (-first % sample_every) if sampled else -1
    # Batch-size extremes; the sentinels leave the state's None alone
    # when no tick was tracked.
    batch_min = state.batch_min if state.batch_min is not None else maxsize
    batch_max = state.batch_max if state.batch_max is not None else -1

    for r_batch, s_batch in bounded_events(events, until, stop):
        t += 1
        horizon = t - window
        if horizon >= 0:
            while r_queue and r_queue[0][0] <= horizon:
                _, key = r_queue.popleft()
                remaining = r_counts[key] - 1
                if remaining:
                    r_counts[key] = remaining
                else:
                    del r_counts[key]
                expired_r += 1
                r_size -= 1
            while s_queue and s_queue[0][0] <= horizon:
                _, key = s_queue.popleft()
                remaining = s_counts[key] - 1
                if remaining:
                    s_counts[key] = remaining
                else:
                    del s_counts[key]
                expired_s += 1
                s_size -= 1

        if r_batch:
            for key in r_batch:
                arrivals += 1
                matches = s_get(key, 0)
                total_output += matches
                if t >= warmup:
                    output += matches
                if (r_size + s_size >= capacity) if variable else (r_size >= half):
                    raise overflow_error(
                        f"memory overflow at t={t} with no shedding policy "
                        f"(capacity {capacity})"
                    )
                r_counts[key] = r_get(key, 0) + 1
                r_queue.append((t, key))
                r_size += 1
        if s_batch:
            for key in s_batch:
                arrivals += 1
                matches = r_get(key, 0)
                total_output += matches
                if t >= warmup:
                    output += matches
                if (r_size + s_size >= capacity) if variable else (s_size >= half):
                    raise overflow_error(
                        f"memory overflow at t={t} with no shedding policy "
                        f"(capacity {capacity})"
                    )
                s_counts[key] = s_get(key, 0) + 1
                s_queue.append((t, key))
                s_size += 1
        if uncount and r_batch and s_batch:
            # The synchronous engine's top path is optional; the insert
            # order above already counted every same-tick pair, so take
            # them back out.
            tick_counts: dict = {}
            for key in r_batch:
                tick_counts[key] = tick_counts.get(key, 0) + 1
            cross = sum(tick_counts.get(key, 0) for key in s_batch)
            total_output -= cross
            if t >= warmup:
                output -= cross
        if sampled:
            size = len(r_batch) + len(s_batch)
            if size < batch_min:
                batch_min = size
            if size > batch_max:
                batch_max = size
        if t == sample_next:
            sample_next = t + sample_every
            sample(t, r_size, s_size)
        if progress_every and (t + 1) % progress_every == 0:
            on_progress(t, output, total_output, arrivals, expired_r, expired_s)
        if t == hook_next:
            hook_next = t + on_tick_every
            _write_back(
                state, t, output, total_output, arrivals, expired_r, expired_s,
                batch_min, batch_max,
            )
            on_tick(t)

    _write_back(
        state, t, output, total_output, arrivals, expired_r, expired_s,
        batch_min, batch_max,
    )
    return output, total_output, arrivals, expired_r, expired_s, t + 1


def _write_back(
    state, t, output, total_output, arrivals, expired_r, expired_s,
    batch_min, batch_max,
) -> None:
    """Store :func:`exact_stream_counts`' loop locals into ``state``
    (a ``batch_max`` below zero means no tick tracked batch sizes)."""
    state.tick = t
    state.output = output
    state.total_output = total_output
    state.arrivals = arrivals
    state.expired_r = expired_r
    state.expired_s = expired_s
    if batch_max >= 0:
        state.batch_min = batch_min
        state.batch_max = batch_max
