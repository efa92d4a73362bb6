"""Write BENCH_soak.json: bounded-memory soak of the incremental path.

The source refactor's claim is that the engine stack can consume an
*unbounded* stream in memory bounded by the window/budget — never by
stream length.  This soak drives millions of ticks from an unbounded
generator source through the incremental lanes and asserts, with
``tracemalloc`` telling the truth, that live memory is **flat**:

* the streaming EXACT lane (``repro.core.batched.exact_stream_counts``
  — two count dicts plus two expiry deques) over ``--ticks`` ticks
  (default 2,000,000);
* the batched EXACT chunk lane (``JoinEngine.run_stream`` with
  ``batch_size`` — ``exact_chunk_counts`` over the source re-chunked on
  the fly, with a window-bounded key history) over the same ``--ticks``
  of the same source, which must also reproduce the streaming lane's
  output exactly;
* the full policy engine path (``JoinEngine.run_stream`` running PROB
  with a live EWMA estimator) over ``--policy-ticks`` ticks (default
  200,000) — the per-tuple kernel, policy heap, and online statistics
  must all hold window/domain-bounded state too.

Live memory is sampled at evenly spaced checkpoints; the first
checkpoint is warmup (dicts and deques reach their steady-state
footprint inside one window), and every later sample must stay within
``--slack-pct`` (default 5%) plus ``--slack-kib`` (default 64 KiB) of
it.  A leak that scales with ticks — a forgotten per-arrival list, a
materialized output, an unbounded queue — blows through that band
within one checkpoint interval.

Output counts are recorded too: the soak is deterministic, so the
regression gate (``benchmarks/regression.py``) re-runs it and fails on
*any* drift, memory or semantics.

Run:  python benchmarks/bench_soak.py [--ticks 2000000] [--out BENCH_soak.json]
Or:   make soak
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `make install`
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import RunSpec, run
from repro.core.batched import exact_stream_counts
from repro.core.engine import EngineConfig, JoinEngine
from repro.streams.batches import DEFAULT_BATCH_SIZE
from repro.streams.sources import ZipfSource

SEED = 0
DOMAIN = 50
SKEW = 1.0
WINDOW = 100
CHECKPOINTS = 8


def _flatness(samples: list[tuple[int, int]], *, slack_pct: float,
              slack_kib: float) -> tuple[bool, str]:
    """Whether post-warmup live memory stayed inside the band."""
    if len(samples) < 3:
        return False, f"only {len(samples)} checkpoints; need >= 3"
    baseline = samples[1][1]  # samples[0] is warmup
    ceiling = baseline * (1 + slack_pct / 100) + slack_kib * 1024
    worst_tick, worst = max(samples[1:], key=lambda s: s[1])
    if worst > ceiling:
        return False, (
            f"live memory grew from {baseline / 1024:.1f} KiB to "
            f"{worst / 1024:.1f} KiB at tick {worst_tick} "
            f"(ceiling {ceiling / 1024:.1f} KiB) — the incremental path "
            "is accumulating per-tick state"
        )
    return True, ""


def soak_exact_lane(ticks: int, *, slack_pct: float, slack_kib: float) -> dict:
    """Millions of ticks through the streaming EXACT count lane."""
    source = ZipfSource(DOMAIN, SKEW, seed=SEED)  # unbounded
    every = max(1, ticks // CHECKPOINTS)
    samples: list[tuple[int, int]] = []

    def on_progress(t, output, total, arrivals, expired_r, expired_s):
        samples.append((t, tracemalloc.get_traced_memory()[0]))

    tracemalloc.start()
    start = time.perf_counter()
    output, total, arrivals, _, _, seen = exact_stream_counts(
        iter(source), WINDOW, 2 * WINDOW,
        capacity=2 * WINDOW, variable=False,
        until=ticks, on_progress=on_progress, progress_every=every,
    )
    seconds = time.perf_counter() - start
    tracemalloc.stop()

    flat, why = _flatness(samples, slack_pct=slack_pct, slack_kib=slack_kib)
    return {
        "ticks": seen,
        "output": output,
        "total_output": total,
        "arrivals": arrivals,
        "seconds": round(seconds, 3),
        "ktuples_per_second": round(seen / seconds / 1000, 2),
        "memory_kib": [round(b / 1024, 1) for _, b in samples],
        "flat": flat,
        "mismatch": why,
    }


class _SampledSource:
    """An unbounded unit-rate source that samples live memory every
    ``every`` ticks as they are pulled — the chunk lane takes no
    progress callback (``on_summary`` would send it back to the
    per-tick lane)."""

    unit_rate = True
    length = None

    def __init__(self, source, every: int, samples: list) -> None:
        self.source = source
        self.every = every
        self.samples = samples

    def __iter__(self):
        every, samples = self.every, self.samples
        for t, event in enumerate(self.source, 1):
            if t % every == 0:
                samples.append((t, tracemalloc.get_traced_memory()[0]))
            yield event


def soak_chunk_lane(ticks: int, *, slack_pct: float, slack_kib: float) -> dict:
    """The same ticks through the batched EXACT chunk lane."""
    every = max(1, ticks // CHECKPOINTS)
    samples: list[tuple[int, int]] = []
    source = _SampledSource(ZipfSource(DOMAIN, SKEW, seed=SEED), every, samples)
    engine = JoinEngine(EngineConfig(
        window=WINDOW, memory=2 * WINDOW, batch_size=DEFAULT_BATCH_SIZE,
    ))

    tracemalloc.start()
    start = time.perf_counter()
    result = engine.run_stream(source, until=ticks)
    seconds = time.perf_counter() - start
    tracemalloc.stop()

    flat, why = _flatness(samples, slack_pct=slack_pct, slack_kib=slack_kib)
    return {
        "ticks": result.length,
        "batch_size": DEFAULT_BATCH_SIZE,
        "output": result.output_count,
        "total_output": result.total_output_count,
        "seconds": round(seconds, 3),
        "ktuples_per_second": round(result.length / seconds / 1000, 2),
        "memory_kib": [round(b / 1024, 1) for _, b in samples],
        "flat": flat,
        "mismatch": why,
    }


def soak_policy_path(ticks: int, *, slack_pct: float, slack_kib: float) -> dict:
    """The full engine path: PROB + live EWMA over an unbounded source."""
    spec = RunSpec(
        algorithm="PROB", window=WINDOW, memory=WINDOW // 2, seed=SEED,
        source=ZipfSource(DOMAIN, SKEW, seed=SEED), duration=ticks,
        estimator="ewma",
    )
    every = max(1, ticks // CHECKPOINTS)
    samples: list[tuple[int, int]] = []
    seen = {"t": 0}

    def on_summary(summary):
        seen["t"] += every
        samples.append((seen["t"], tracemalloc.get_traced_memory()[0]))

    tracemalloc.start()
    start = time.perf_counter()
    result = run(spec, on_summary=on_summary, on_summary_every=every)
    seconds = time.perf_counter() - start
    tracemalloc.stop()

    flat, why = _flatness(samples, slack_pct=slack_pct, slack_kib=slack_kib)
    return {
        "ticks": result.length,
        "output": result.output_count,
        "seconds": round(seconds, 3),
        "ktuples_per_second": round(result.length / seconds / 1000, 2),
        "memory_kib": [round(b / 1024, 1) for _, b in samples],
        "flat": flat,
        "mismatch": why,
    }


def build_soak_snapshot(ticks: int, policy_ticks: int, *,
                        slack_pct: float = 5.0,
                        slack_kib: float = 64.0) -> dict:
    exact = soak_exact_lane(ticks, slack_pct=slack_pct, slack_kib=slack_kib)
    chunk = soak_chunk_lane(ticks, slack_pct=slack_pct, slack_kib=slack_kib)
    policy = soak_policy_path(policy_ticks, slack_pct=slack_pct,
                              slack_kib=slack_kib)
    mismatches = [
        f"{lane}: {leg['mismatch']}"
        for lane, leg in (("exact", exact), ("chunk", chunk), ("policy", policy))
        if not leg["flat"]
    ]
    for name in ("output", "total_output"):
        if chunk[name] != exact[name]:
            mismatches.append(
                f"chunk: {name} {chunk[name]} != streaming lane's {exact[name]}"
            )
    return {
        "benchmark": "soak",
        "parameters": {
            "ticks": ticks,
            "policy_ticks": policy_ticks,
            "window": WINDOW,
            "domain": DOMAIN,
            "skew": SKEW,
            "seed": SEED,
            "checkpoints": CHECKPOINTS,
            "slack_pct": slack_pct,
            "slack_kib": slack_kib,
        },
        "exact": exact,
        "chunk": chunk,
        "policy": policy,
        "counts": {
            "exact_output": exact["output"],
            "exact_total_output": exact["total_output"],
            "policy_output": policy["output"],
        },
        "flat_memory": not mismatches,
        "mismatches": mismatches,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ticks", type=int, default=2_000_000,
                        help="EXACT-lane soak length (default 2,000,000)")
    parser.add_argument("--policy-ticks", type=int, default=200_000,
                        dest="policy_ticks",
                        help="policy-path soak length (default 200,000)")
    parser.add_argument("--slack-pct", type=float, default=5.0,
                        dest="slack_pct",
                        help="allowed post-warmup memory growth in percent")
    parser.add_argument("--slack-kib", type=float, default=64.0,
                        dest="slack_kib",
                        help="allowed absolute growth in KiB")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_soak.json"))
    args = parser.parse_args()

    if args.ticks < 3 * CHECKPOINTS:
        print(f"--ticks must be at least {3 * CHECKPOINTS}", file=sys.stderr)
        return 2

    print(f"soak: EXACT lane, {args.ticks:,} ticks from an unbounded "
          f"zipf source (tracemalloc on) ...")
    snapshot = build_soak_snapshot(
        args.ticks, args.policy_ticks,
        slack_pct=args.slack_pct, slack_kib=args.slack_kib,
    )
    for lane in ("exact", "chunk", "policy"):
        leg = snapshot[lane]
        print(f"  {lane:<6}: {leg['ticks']:,} ticks in {leg['seconds']:.1f}s "
              f"({leg['ktuples_per_second']:.0f}k ticks/s), "
              f"memory {leg['memory_kib'][0]:.1f} -> "
              f"{leg['memory_kib'][-1]:.1f} KiB, flat={leg['flat']}")

    Path(args.out).write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not snapshot["flat_memory"]:
        for line in snapshot["mismatches"]:
            print(f"  FAIL {line}", file=sys.stderr)
        return 1
    print("soak OK: live memory flat on every lane")
    return 0


if __name__ == "__main__":
    sys.exit(main())
