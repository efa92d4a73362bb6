"""Vectorized policy lanes for the columnar micro-batch fast path.

The EXACT count lanes of :mod:`repro.core.batched` prove that the
synchronous join collapses to dictionary count arithmetic when nothing
is ever shed.  The lanes here extend that collapse to the paper's
shedding policies — RAND, PROB, and LIFE, fixed and variable allocation
— by replacing the engine's record-object machinery with flat state the
hot loop can drive per :class:`~repro.streams.batches.StreamChunk`:

* **probes** stay per-key count arithmetic (two dict lookups per tick);
* **candidate priorities** (PROB's partner probability, LIFE's
  ``window * p``) are gathered once per chunk from a dense numpy view of
  the PR-3 static probability tables (``dense[key_column]``), with a
  per-key ``dict.get`` fallback when numpy is absent or keys are not
  small non-negative integers;
* **RAND draws** come from a pre-drawn block of the policy's own
  generator: once contests begin the draw bound is a run constant
  (contests only fire on a full side/pool), so one
  ``Generator.integers(bound, size=N)`` call replaces N scalar calls.
  A one-time probe verifies block draws reproduce the scalar-draw
  sequence bit-for-bit; if the installed numpy disagrees the lane falls
  back to scalar draws (identical decisions, smaller win);
* **PROB's weakest resident** is a lazy min-heap of bare
  ``(priority, arrival, side)`` tuples — the same total order as
  :class:`~repro.core.policies.prob.ProbPolicy`'s record heap, because
  per-side arrival times are unique and R is admitted before S;
* **LIFE's weakest-victim scan** walks a per-key aggregate view —
  ``key -> (arrival deque, partner probability)`` — so each distinct
  resident key costs one deque peek and one multiply, instead of the
  per-tuple path's record resolution through the memory's per-key FIFOs.

Identity contract
-----------------
Every lane reproduces the engine's per-tuple kernel loop
(``JoinEngine._run_incremental``) bit-for-bit, in both allocation modes — fixed (``M/2`` per side) and variable (one shared
pool: RANDV/PROBV/LIFEV): output and total-output counts, the drop
ledger, survival departures, and the sampled occupancy/share series.
The engine drives all three lanes through one driver,
``JoinEngine._run_policy_lanes``, fed by ``encode_chunks(pair)`` or by
source events re-chunked on the fly.  The load-bearing structural facts
(all asserted by ``tests/test_policy_batched.py`` and
``tests/test_batched.py`` across policies × batch sizes × allocation
modes):

* the synchronous model admits one tuple per side per tick, so per-side
  arrival times are unique — ``(priority, arrival)`` is a total order
  and the record-identity tie-breaks of the per-tuple structures can
  never fire;
* a resident's arrival lies in ``(t - window, t]``, so a ring buffer of
  ``window`` entries resolves arrival -> key (and arrival -> slot for
  RAND's swap-remove slot array) without per-record objects;
* RAND victims are drawn *by slot index*, so the lane maintains the
  side's slot array with exactly the engine's append/swap-remove
  discipline — slot order is replicated, not just membership;
* LIFE only ever removes a key's oldest resident (evictions pick it,
  expiry removes the globally oldest, which is also its key's oldest),
  so a per-key arrival deque popped from the left mirrors the memory's
  per-key FIFO exactly.

Each policy has one lane body for both modes, because the allocation
mode changes exactly three things, and each body branches on exactly
these:

* **room** — a newcomer is admitted free while ``len(own) < M // 2``
  (fixed) or ``len(r) + len(s) < M`` (pool);
* **who competes** — the own side's residents (fixed) or the pool's, R
  then S, in ``JoinMemory.eviction_candidates`` order: PROB keeps one
  side-tagged heap per side or one shared heap, LIFE scans the own
  cells or the R cells then the S cells, and RAND draws ``M // 2 + 1``
  slots from the side's own generator or ``M + 1`` slots over R's then
  S's from the one policy's generator;
* **tie rule** — the full ``later_arrival_wins`` test (``wp < cp or
  (wp == cp and wa < t)``) is exact in both modes.  On a pool the
  weakest may be this tick's R tuple during the S contest (``wa ==
  t``); on a fixed half the weakest always arrived before ``t``, so
  the test reduces to ``wp <= cp``.

Lanes are *gated*, not general: :func:`lane_kind_for_policies` accepts
only exact policy types in their static configuration (RAND with the
default newcomer-inclusive draw, PROB/LIFE with frozen
:class:`~repro.stats.frequency.StaticFrequencyTable` estimators).
Online estimators, ARM/FIFO, tracers, and schedules keep the per-tuple
paths.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional

from ..streams.batches import HAVE_NUMPY, StreamChunk

if HAVE_NUMPY:  # pragma: no branch - import guard
    import numpy as _np

__all__ = [
    "LaneTotals",
    "lane_kind_for_policies",
    "life_chunk_run",
    "prob_chunk_run",
    "rand_chunk_run",
]

#: Pre-drawn RAND block size: large enough to amortise the generator
#: call, small enough that an abandoned tail at stream end is cheap.
_DRAW_BLOCK = 512

#: bound -> whether `integers(bound, size=n)` reproduces n scalar draws.
_BLOCK_DRAW_OK: dict[int, bool] = {}


class LaneTotals(NamedTuple):
    """Everything a policy lane reports back to the engine."""

    output: int
    total_output: int
    simultaneous_total: int
    length: int
    rej_r: int
    rej_s: int
    ev_r: int
    ev_s: int
    exp_r: int
    exp_s: int
    r_size: int
    s_size: int


# ----------------------------------------------------------------------
# gating
# ----------------------------------------------------------------------

def lane_kind_for_policies(
    policy_r, policy_s, *, variable: bool, observers
) -> Optional[str]:
    """Which lane (``"rand"``/``"prob"``/``"life"``) covers this policy
    wiring, or ``None`` for the per-tuple fallback.

    Exact-type checks on purpose: a subclass may override decision
    methods the lane inlines.  PROB/LIFE qualify only with their static
    partner-probability cache materialised (frozen
    ``StaticFrequencyTable`` estimators, no online updates); RAND only
    with the default newcomer-inclusive draw.  Arrival observers mean
    online statistics are flowing — per-tuple path.
    """
    from .policies.life import LifePolicy
    from .policies.prob import ProbPolicy
    from .policies.random_policy import RandomEvictionPolicy

    if observers:
        return None

    def kind(policy):
        tp = type(policy)
        if tp is RandomEvictionPolicy:
            return "rand" if policy._include_newcomer else None
        if tp is ProbPolicy:
            return "prob" if policy._partner_probs is not None else None
        if tp is LifePolicy:
            return "life" if policy._partner_probs is not None else None
        return None

    if variable:
        if policy_r is None or policy_r is not policy_s:
            return None
        return kind(policy_r)
    if policy_r is None or policy_s is None:
        return None
    kind_r = kind(policy_r)
    return kind_r if kind_r is not None and kind_r == kind(policy_s) else None


# ----------------------------------------------------------------------
# probability columns
# ----------------------------------------------------------------------

def _dense_from_dict(probs: dict):
    """Dense ``key -> probability`` array for small non-negative int keys.

    Returns ``None`` (dict-lookup fallback) without numpy, for
    non-integer keys, or when the key range is too sparse to densify.
    """
    if not HAVE_NUMPY or not probs:
        return None
    max_key = -1
    for key in probs:
        if type(key) is not int or key < 0:
            return None
        if key > max_key:
            max_key = key
    if max_key >= 1 << 22:  # don't allocate a huge, mostly-empty table
        return None
    dense = _np.zeros(max_key + 1, dtype=_np.float64)
    for key, p in probs.items():
        dense[key] = p
    return dense


def _prob_column(column, keys: list, dense, probs: dict) -> list:
    """Per-chunk candidate-priority column: ``[table[k] for k in keys]``.

    ``column`` is the chunk's raw key column (numpy when available);
    ``keys`` the expanded list the hot loop indexes.  The dense gather
    produces exactly the dict's float values (one float64 copy), so the
    two paths are bit-identical.
    """
    if (
        dense is not None
        and isinstance(column, _np.ndarray)
        and column.size
        and column.min() >= 0
        and column.max() < dense.shape[0]
    ):
        return dense[column].tolist()
    get = probs.get
    return [get(key, 0.0) for key in keys]


# ----------------------------------------------------------------------
# RAND
# ----------------------------------------------------------------------

def _block_draws_equivalent(bound: int) -> bool:
    """Does ``integers(bound, size=n)`` equal n scalar draws, bit-for-bit?

    Empirically probed once per bound with throwaway generators (values
    *and* end state must agree), because the lane's pre-drawn blocks are
    only sound if they consume the generator exactly as the per-tuple
    policy's scalar draws would.
    """
    if not HAVE_NUMPY:
        return False
    cached = _BLOCK_DRAW_OK.get(bound)
    if cached is None:
        probe_block = _np.random.default_rng(987654321)
        probe_scalar = _np.random.default_rng(987654321)
        block = probe_block.integers(bound, size=64).tolist()
        scalars = [int(probe_scalar.integers(bound)) for _ in range(64)]
        cached = (
            block == scalars
            and probe_block.bit_generator.state == probe_scalar.bit_generator.state
        )
        _BLOCK_DRAW_OK[bound] = cached
    return cached


def _draws(rng, bound: int) -> Callable[[], int]:
    """``next`` of an endless ``rng.integers(bound)`` draw sequence,
    fetched in pre-drawn blocks when those are bit-equal to scalar
    draws (one draw per fetch otherwise)."""
    block = _DRAW_BLOCK if _block_draws_equivalent(bound) else 1
    fetch = iter(lambda: rng.integers(bound, size=block).tolist(), None)
    return chain.from_iterable(fetch).__next__


def rand_chunk_run(
    chunks: Iterable[StreamChunk],
    window: int,
    warmup: int,
    *,
    capacity: int,
    variable: bool,
    count_simultaneous: bool,
    rng_r,
    rng_s=None,
    r_departures: Optional[list] = None,
    s_departures: Optional[list] = None,
    sampler: Optional[Callable] = None,
    sample_every: int = 0,
) -> LaneTotals:
    """RAND over columnar chunks, bit-identical to the per-tuple run.

    ``rng_r``/``rng_s`` are the *policy instances'* own generators.  A
    shared pool has one policy, so both sides draw from ``rng_r`` (and
    ``rng_s`` is ignored) — the draw sequence the per-tuple contests
    consume.  Victim selection replicates slot-index draws against a
    swap-remove slot array of arrival times; keys resolve through a
    ``window``-sized ring.
    """
    half = capacity // 2
    # A contest draws over the full residents — always `half` per side,
    # or `capacity` on the pool, R's slots then S's — plus the newcomer.
    newcomer = capacity if variable else half
    draw_r = _draws(rng_r, newcomer + 1)
    draw_s = draw_r if variable else _draws(rng_s, newcomer + 1)

    r_counts: dict = {}
    s_counts: dict = {}
    r_ring: list = [None] * window  # arrival % window -> key
    s_ring: list = [None] * window
    r_pos: list = [-1] * window  # arrival % window -> slot index (-1 = gone)
    s_pos: list = [-1] * window
    r_slots: list = []  # slot index -> arrival, engine's swap-remove order
    s_slots: list = []

    output = total_output = simultaneous_total = 0
    rej_r = rej_s = ev_r = ev_s = exp_r = exp_s = 0
    length = 0
    track = r_departures is not None

    r_get = r_counts.get
    s_get = s_counts.get

    for chunk in chunks:
        r_keys = chunk.r_list()
        s_keys = chunk.s_list()
        base = chunk.start
        for i in range(chunk.length):
            t = base + i
            idx = t % window
            # 1. expiry: the arrival at t - window, if still resident.
            if t >= window:
                slot = r_pos[idx]
                if slot >= 0:
                    key = r_ring[idx]
                    last = r_slots[-1]
                    r_slots[slot] = last
                    r_pos[last % window] = slot
                    r_slots.pop()
                    r_pos[idx] = -1
                    remaining = r_counts[key] - 1
                    if remaining:
                        r_counts[key] = remaining
                    else:
                        del r_counts[key]
                    exp_r += 1
                slot = s_pos[idx]
                if slot >= 0:
                    key = s_ring[idx]
                    last = s_slots[-1]
                    s_slots[slot] = last
                    s_pos[last % window] = slot
                    s_slots.pop()
                    s_pos[idx] = -1
                    remaining = s_counts[key] - 1
                    if remaining:
                        s_counts[key] = remaining
                    else:
                        del s_counts[key]
                    exp_s += 1

            r_key = r_keys[i]
            s_key = s_keys[i]
            r_ring[idx] = r_key
            s_ring[idx] = s_key

            # 2. probes (before either same-tick admission).
            matched = s_get(r_key, 0) + r_get(s_key, 0)
            if count_simultaneous and r_key == s_key:
                matched += 1
                simultaneous_total += 1
            total_output += matched
            if t >= warmup:
                output += matched

            # 3. admissions: R first, then S.
            if (
                len(r_slots) + len(s_slots) < capacity if variable
                else len(r_slots) < half
            ):
                r_pos[idx] = len(r_slots)
                r_slots.append(t)
                r_counts[r_key] = r_get(r_key, 0) + 1
            else:
                victim = draw_r()
                if victim == newcomer:  # the newcomer itself was drawn
                    rej_r += 1
                    if track:
                        r_departures[t] = t
                else:
                    # Always an R slot on a fixed half (victim < half).
                    if victim < len(r_slots):
                        arrival = r_slots[victim]
                        vidx = arrival % window
                        key = r_ring[vidx]
                        last = r_slots[-1]
                        r_slots[victim] = last
                        r_pos[last % window] = victim
                        r_slots.pop()
                        r_pos[vidx] = -1
                        remaining = r_counts[key] - 1
                        if remaining:
                            r_counts[key] = remaining
                        else:
                            del r_counts[key]
                        ev_r += 1
                        if track:
                            r_departures[arrival] = t
                    else:
                        victim -= len(r_slots)
                        arrival = s_slots[victim]
                        vidx = arrival % window
                        key = s_ring[vidx]
                        last = s_slots[-1]
                        s_slots[victim] = last
                        s_pos[last % window] = victim
                        s_slots.pop()
                        s_pos[vidx] = -1
                        remaining = s_counts[key] - 1
                        if remaining:
                            s_counts[key] = remaining
                        else:
                            del s_counts[key]
                        ev_s += 1
                        if track:
                            s_departures[arrival] = t
                    r_pos[idx] = len(r_slots)
                    r_slots.append(t)
                    r_counts[r_key] = r_get(r_key, 0) + 1

            if (
                len(r_slots) + len(s_slots) < capacity if variable
                else len(s_slots) < half
            ):
                s_pos[idx] = len(s_slots)
                s_slots.append(t)
                s_counts[s_key] = s_get(s_key, 0) + 1
            else:
                victim = draw_s()
                if victim == newcomer:
                    rej_s += 1
                    if track:
                        s_departures[t] = t
                else:
                    # On the pool the draw walks R's slots, then S's.
                    r_span = len(r_slots) if variable else 0
                    if victim < r_span:
                        arrival = r_slots[victim]
                        vidx = arrival % window
                        key = r_ring[vidx]
                        last = r_slots[-1]
                        r_slots[victim] = last
                        r_pos[last % window] = victim
                        r_slots.pop()
                        r_pos[vidx] = -1
                        remaining = r_counts[key] - 1
                        if remaining:
                            r_counts[key] = remaining
                        else:
                            del r_counts[key]
                        ev_r += 1
                        if track:
                            r_departures[arrival] = t
                    else:
                        victim -= r_span
                        arrival = s_slots[victim]
                        vidx = arrival % window
                        key = s_ring[vidx]
                        last = s_slots[-1]
                        s_slots[victim] = last
                        s_pos[last % window] = victim
                        s_slots.pop()
                        s_pos[vidx] = -1
                        remaining = s_counts[key] - 1
                        if remaining:
                            s_counts[key] = remaining
                        else:
                            del s_counts[key]
                        ev_s += 1
                        if track:
                            s_departures[arrival] = t
                    s_pos[idx] = len(s_slots)
                    s_slots.append(t)
                    s_counts[s_key] = s_get(s_key, 0) + 1

            if sample_every and not t % sample_every:
                sampler(t, len(r_slots), len(s_slots))
        length = base + chunk.length

    return LaneTotals(
        output, total_output, simultaneous_total, length,
        rej_r, rej_s, ev_r, ev_s, exp_r, exp_s, len(r_slots), len(s_slots),
    )


# ----------------------------------------------------------------------
# PROB
# ----------------------------------------------------------------------

def _compact(heap: list, r_alive: set, s_alive: set) -> None:
    """Drop a lazy PROB heap's stale entries, in place (a shared pool's
    two sides alias one heap).  Live entries keep their total order, so
    no later pop — and no decision — changes; this only bounds memory on
    long streams."""
    heap[:] = [e for e in heap if e[1] in (s_alive if e[2] else r_alive)]
    heapq.heapify(heap)


def prob_chunk_run(
    chunks: Iterable[StreamChunk],
    window: int,
    warmup: int,
    *,
    capacity: int,
    variable: bool,
    count_simultaneous: bool,
    probs_r: dict,
    probs_s: dict,
    r_departures: Optional[list] = None,
    s_departures: Optional[list] = None,
    sampler: Optional[Callable] = None,
    sample_every: int = 0,
) -> LaneTotals:
    """PROB over columnar chunks, bit-identical to the per-tuple run.

    ``probs_r``/``probs_s`` map a key to the *partner* probability of an
    R-side / S-side tuple carrying it (``p_S`` / ``p_R`` — the policies'
    static caches).  Candidate priorities are gathered per chunk; the
    weakest resident comes from a lazy ``(priority, arrival, side)``
    min-heap (R = 0, S = 1), one per side or one for the shared pool.
    It orders exactly like ``ProbPolicy``'s record heap: per-side
    arrivals are unique, and an equal ``(priority, arrival)`` pair on
    the pool can only be one tick's R and S admissions, with R admitted
    first — the order of the policy's sequence numbers.
    """
    half = capacity // 2
    dense_r = _dense_from_dict(probs_r)
    dense_s = _dense_from_dict(probs_s)

    r_counts: dict = {}
    s_counts: dict = {}
    r_ring: list = [None] * window
    s_ring: list = [None] * window
    r_alive: set = set()  # resident arrival times
    s_alive: set = set()
    r_heap: list = []  # (partner probability, arrival, side); lazy deletions
    s_heap: list = r_heap if variable else []
    # Stale entries come only from expiry; compacting past twice the
    # live bound keeps that amortised O(1) per expiry.
    heap_limit = 2 * (capacity if variable else half) + 128

    output = total_output = simultaneous_total = 0
    rej_r = rej_s = ev_r = ev_s = exp_r = exp_s = 0
    length = 0
    track = r_departures is not None

    r_get = r_counts.get
    s_get = s_counts.get
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace

    for chunk in chunks:
        r_keys = chunk.r_list()
        s_keys = chunk.s_list()
        cp_r = _prob_column(chunk.r_keys, r_keys, dense_r, probs_r)
        cp_s = _prob_column(chunk.s_keys, s_keys, dense_s, probs_s)
        base = chunk.start
        for i in range(chunk.length):
            t = base + i
            idx = t % window
            if t >= window:
                old = t - window
                if old in r_alive:
                    r_alive.remove(old)
                    key = r_ring[idx]
                    remaining = r_counts[key] - 1
                    if remaining:
                        r_counts[key] = remaining
                    else:
                        del r_counts[key]
                    exp_r += 1
                    if len(r_heap) > heap_limit:
                        _compact(r_heap, r_alive, s_alive)
                if old in s_alive:
                    s_alive.remove(old)
                    key = s_ring[idx]
                    remaining = s_counts[key] - 1
                    if remaining:
                        s_counts[key] = remaining
                    else:
                        del s_counts[key]
                    exp_s += 1
                    if len(s_heap) > heap_limit:
                        _compact(s_heap, r_alive, s_alive)

            r_key = r_keys[i]
            s_key = s_keys[i]
            r_ring[idx] = r_key
            s_ring[idx] = s_key

            matched = s_get(r_key, 0) + r_get(s_key, 0)
            if count_simultaneous and r_key == s_key:
                matched += 1
                simultaneous_total += 1
            total_output += matched
            if t >= warmup:
                output += matched

            # R admission.
            cp = cp_r[i]
            if (
                len(r_alive) + len(s_alive) < capacity if variable
                else len(r_alive) < half
            ):
                r_alive.add(t)
                heappush(r_heap, (cp, t, 0))
                r_counts[r_key] = r_get(r_key, 0) + 1
            else:
                while True:
                    wp, wa, ws = r_heap[0]
                    if wa in (s_alive if ws else r_alive):
                        break
                    heappop(r_heap)
                # later_arrival_wins; wa < t always on a fixed half.
                if wp < cp or (wp == cp and wa < t):
                    heapreplace(r_heap, (cp, t, 0))
                    if ws:
                        s_alive.remove(wa)
                        key = s_ring[wa % window]
                        remaining = s_counts[key] - 1
                        if remaining:
                            s_counts[key] = remaining
                        else:
                            del s_counts[key]
                        ev_s += 1
                        if track:
                            s_departures[wa] = t
                    else:
                        r_alive.remove(wa)
                        key = r_ring[wa % window]
                        remaining = r_counts[key] - 1
                        if remaining:
                            r_counts[key] = remaining
                        else:
                            del r_counts[key]
                        ev_r += 1
                        if track:
                            r_departures[wa] = t
                    r_alive.add(t)
                    r_counts[r_key] = r_get(r_key, 0) + 1
                else:
                    rej_r += 1
                    if track:
                        r_departures[t] = t

            # S admission.
            cp = cp_s[i]
            if (
                len(r_alive) + len(s_alive) < capacity if variable
                else len(s_alive) < half
            ):
                s_alive.add(t)
                heappush(s_heap, (cp, t, 1))
                s_counts[s_key] = s_get(s_key, 0) + 1
            else:
                while True:
                    wp, wa, ws = s_heap[0]
                    if wa in (s_alive if ws else r_alive):
                        break
                    heappop(s_heap)
                # On the pool the weakest may be this tick's R (wa == t).
                if wp < cp or (wp == cp and wa < t):
                    heapreplace(s_heap, (cp, t, 1))
                    if ws:
                        s_alive.remove(wa)
                        key = s_ring[wa % window]
                        remaining = s_counts[key] - 1
                        if remaining:
                            s_counts[key] = remaining
                        else:
                            del s_counts[key]
                        ev_s += 1
                        if track:
                            s_departures[wa] = t
                    else:
                        r_alive.remove(wa)
                        key = r_ring[wa % window]
                        remaining = r_counts[key] - 1
                        if remaining:
                            r_counts[key] = remaining
                        else:
                            del r_counts[key]
                        ev_r += 1
                        if track:
                            r_departures[wa] = t
                    s_alive.add(t)
                    s_counts[s_key] = s_get(s_key, 0) + 1
                else:
                    rej_s += 1
                    if track:
                        s_departures[t] = t

            if sample_every and not t % sample_every:
                sampler(t, len(r_alive), len(s_alive))
        length = base + chunk.length

    return LaneTotals(
        output, total_output, simultaneous_total, length,
        rej_r, rej_s, ev_r, ev_s, exp_r, exp_s, len(r_alive), len(s_alive),
    )


# ----------------------------------------------------------------------
# LIFE
# ----------------------------------------------------------------------

def life_chunk_run(
    chunks: Iterable[StreamChunk],
    window: int,
    warmup: int,
    *,
    capacity: int,
    variable: bool,
    count_simultaneous: bool,
    probs_r: dict,
    probs_s: dict,
    r_departures: Optional[list] = None,
    s_departures: Optional[list] = None,
    sampler: Optional[Callable] = None,
    sample_every: int = 0,
) -> LaneTotals:
    """LIFE over columnar chunks, bit-identical to the per-tuple run.

    The weakest-victim scan walks per-key aggregate cells —
    ``key -> (arrival deque, partner probability)`` — so each distinct
    resident key costs one deque peek and one float multiply.  The
    arithmetic is exactly ``LifePolicy._weakest_on``'s
    ``(oldest_arrival + window - now) * p`` (IEEE-identical), and the
    per-chunk candidate column is ``window * p`` gathered from the same
    tables, so every contest decides exactly as the per-tuple policy.
    """
    half = capacity // 2
    inf = float("inf")
    dense_r = _dense_from_dict(probs_r)
    dense_s = _dense_from_dict(probs_s)
    cand_dense_r = dense_r * window if dense_r is not None else None
    cand_dense_s = dense_s * window if dense_s is not None else None
    cand_probs_r = {key: window * p for key, p in probs_r.items()}
    cand_probs_s = {key: window * p for key, p in probs_s.items()}

    # key -> (deque of resident arrivals, partner probability).  All
    # removals take the key's oldest arrival (see module docstring), so
    # popleft keeps the deque equal to the memory's per-key FIFO.
    r_cells: dict = {}
    s_cells: dict = {}
    r_ring: list = [None] * window
    s_ring: list = [None] * window
    r_len = s_len = 0

    output = total_output = simultaneous_total = 0
    rej_r = rej_s = ev_r = ev_s = exp_r = exp_s = 0
    length = 0
    track = r_departures is not None

    for chunk in chunks:
        r_keys = chunk.r_list()
        s_keys = chunk.s_list()
        p_r = _prob_column(chunk.r_keys, r_keys, dense_r, probs_r)
        p_s = _prob_column(chunk.s_keys, s_keys, dense_s, probs_s)
        candp_r = _prob_column(chunk.r_keys, r_keys, cand_dense_r, cand_probs_r)
        candp_s = _prob_column(chunk.s_keys, s_keys, cand_dense_s, cand_probs_s)
        base = chunk.start
        for i in range(chunk.length):
            t = base + i
            idx = t % window
            if t >= window:
                old = t - window
                key = r_ring[idx]
                cell = r_cells.get(key)
                if cell is not None and cell[0][0] == old:
                    dq = cell[0]
                    dq.popleft()
                    if not dq:
                        del r_cells[key]
                    exp_r += 1
                    r_len -= 1
                key = s_ring[idx]
                cell = s_cells.get(key)
                if cell is not None and cell[0][0] == old:
                    dq = cell[0]
                    dq.popleft()
                    if not dq:
                        del s_cells[key]
                    exp_s += 1
                    s_len -= 1

            r_key = r_keys[i]
            s_key = s_keys[i]
            r_ring[idx] = r_key
            s_ring[idx] = s_key

            cell = s_cells.get(r_key)
            matched = len(cell[0]) if cell is not None else 0
            cell = r_cells.get(s_key)
            if cell is not None:
                matched += len(cell[0])
            if count_simultaneous and r_key == s_key:
                matched += 1
                simultaneous_total += 1
            total_output += matched
            if t >= warmup:
                output += matched

            # R admission.
            if r_len + s_len < capacity if variable else r_len < half:
                cell = r_cells.get(r_key)
                if cell is None:
                    r_cells[r_key] = (deque((t,)), p_r[i])
                else:
                    cell[0].append(t)
                r_len += 1
            else:
                # Weakest-victim scan: once per contest, one deque peek
                # and one multiply per distinct resident key.  The R
                # cells come first, then (on a pool) the S cells — the
                # fold order of LifePolicy._weakest over
                # eviction_candidates, so a cross-side (priority,
                # arrival) tie keeps the R contender.
                offset = window - t
                best_side = 0
                best_key = None
                best_a = -1
                best_pri = inf  # any resident's finite priority beats it
                for key, cell in r_cells.items():
                    a0 = cell[0][0]
                    pri = (a0 + offset) * cell[1]
                    if pri < best_pri or (pri == best_pri and a0 < best_a):
                        best_key = key
                        best_a = a0
                        best_pri = pri
                if variable:
                    for key, cell in s_cells.items():
                        a0 = cell[0][0]
                        pri = (a0 + offset) * cell[1]
                        if pri < best_pri or (pri == best_pri and a0 < best_a):
                            best_side = 1
                            best_key = key
                            best_a = a0
                            best_pri = pri
                cand = candp_r[i]
                # later_arrival_wins; best_a < t always on a fixed half.
                if best_pri < cand or (best_pri == cand and best_a < t):
                    if best_side:
                        dq = s_cells[best_key][0]
                        dq.popleft()
                        if not dq:
                            del s_cells[best_key]
                        ev_s += 1
                        s_len -= 1
                        r_len += 1
                        if track:
                            s_departures[best_a] = t
                    else:
                        dq = r_cells[best_key][0]
                        dq.popleft()
                        if not dq:
                            del r_cells[best_key]
                        ev_r += 1
                        if track:
                            r_departures[best_a] = t
                    cell = r_cells.get(r_key)
                    if cell is None:
                        r_cells[r_key] = (deque((t,)), p_r[i])
                    else:
                        cell[0].append(t)
                else:
                    rej_r += 1
                    if track:
                        r_departures[t] = t

            # S admission.
            if r_len + s_len < capacity if variable else s_len < half:
                cell = s_cells.get(s_key)
                if cell is None:
                    s_cells[s_key] = (deque((t,)), p_s[i])
                else:
                    cell[0].append(t)
                s_len += 1
            else:
                offset = window - t
                best_side = 0
                best_key = None
                best_a = -1
                best_pri = inf  # any resident's finite priority beats it
                if variable:
                    for key, cell in r_cells.items():
                        a0 = cell[0][0]
                        pri = (a0 + offset) * cell[1]
                        if pri < best_pri or (pri == best_pri and a0 < best_a):
                            best_key = key
                            best_a = a0
                            best_pri = pri
                for key, cell in s_cells.items():
                    a0 = cell[0][0]
                    pri = (a0 + offset) * cell[1]
                    if pri < best_pri or (pri == best_pri and a0 < best_a):
                        best_side = 1
                        best_key = key
                        best_a = a0
                        best_pri = pri
                cand = candp_s[i]
                # On the pool the weakest may be this tick's R (best_a == t).
                if best_pri < cand or (best_pri == cand and best_a < t):
                    if best_side:
                        dq = s_cells[best_key][0]
                        dq.popleft()
                        if not dq:
                            del s_cells[best_key]
                        ev_s += 1
                        if track:
                            s_departures[best_a] = t
                    else:
                        dq = r_cells[best_key][0]
                        dq.popleft()
                        if not dq:
                            del r_cells[best_key]
                        ev_r += 1
                        r_len -= 1
                        s_len += 1
                        if track:
                            r_departures[best_a] = t
                    cell = s_cells.get(s_key)
                    if cell is None:
                        s_cells[s_key] = (deque((t,)), p_s[i])
                    else:
                        cell[0].append(t)
                else:
                    rej_s += 1
                    if track:
                        s_departures[t] = t

            if sample_every and not t % sample_every:
                sampler(t, r_len, s_len)
        length = base + chunk.length

    return LaneTotals(
        output, total_output, simultaneous_total, length,
        rej_r, rej_s, ev_r, ev_s, exp_r, exp_s, r_len, s_len,
    )
