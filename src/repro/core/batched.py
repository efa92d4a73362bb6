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

    Returns ``(output, total_output, arrivals, expired_r, expired_s,
    ticks)``.
    """
    r_counts: dict = {}
    s_counts: dict = {}
    r_queue: deque = deque()
    s_queue: deque = deque()

    output = 0
    total_output = 0
    arrivals = 0
    expired_r = 0
    expired_s = 0
    r_size = 0
    s_size = 0

    r_get = r_counts.get
    s_get = s_counts.get
    half = capacity // 2
    uncount = not count_simultaneous
    if on_progress is None:
        progress_every = 0

    t = -1
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
        if progress_every and (t + 1) % progress_every == 0:
            on_progress(t, output, total_output, arrivals, expired_r, expired_s)

    return output, total_output, arrivals, expired_r, expired_s, t + 1
