"""Write BENCH_obs.json: telemetry-plane overhead and identity gate.

The telemetry plane (see docs/architecture.md) must be effectively
free when armed and invisible when not: ``telemetry=True`` streams
spans and heartbeats through JSONL spools without changing any run
result, and the wall-clock cost on a ci-scale EXACT sharded run must
stay within a small budget.  This benchmark measures both:

* **identity** — the telemetry-on run must produce exactly the same
  output count, total output, and drop ledger as the telemetry-off run
  of the same spec (strict, no tolerance);
* **determinism** — the merged timeline's heartbeat count is a pure
  function of the spec (ticks / heartbeat_every per shard), so it is
  recorded and gated exactly;
* **overhead** — telemetry-on vs. telemetry-off CPU time, measured
  serially (workers=1) with interleaved rounds and min-over-rounds on
  each side, so pool startup, scheduler noise, and co-tenant load stay
  out of the ratio (the only telemetry cost CPU time misses is the
  fsync wait, microseconds per heartbeat batch).  The default budget
  is 5%; a pass over budget re-times up to two fresh passes (each with
  its own minima, so one lucky off-round cannot poison the ratio for
  good) and the best pass is reported.

A pooled, fault-injected leg (kill + retry + checkpoint restore at
``--shards`` / ``--workers``) also runs to exercise the full plane and
writes its merged timeline to ``benchmarks/results/timeline.json`` as
Chrome trace-event JSON — the artifact CI uploads.  Its wall-clock is
advisory; the timeline must contain the killed attempt, the retry, and
the checkpoint-restore span.

Run:  python benchmarks/bench_telemetry.py [--scale ci] [--shards 4]
          [--workers 2] [--rounds 5] [--limit 5.0] [--out BENCH_obs.json]
Or:   make bench-obs
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `make install`
    sys.path.insert(0, str(REPO_ROOT / "src"))

from dataclasses import replace

from repro.api import RunSpec, build_pair, run
from repro.experiments.config import DEFAULT_DOMAIN, SCALES, even_memory
from repro.obs import span_summary, to_chrome_trace
from repro.runtime import Fault, FaultPlan

SEED = 0
#: Overhead-leg heartbeat cadence.  At ci scale a tick is ~10 us of
#: engine work and a heartbeat ~30 us of emit work, so the cadence —
#: not the plane — sets the cost; 2048 models "sampled, not saturated"
#: (even at this stride the run emits ~200 beats/s of wall time, far
#: denser than a real fleet poll).
HEARTBEAT_EVERY = 2048
#: The faulted demo leg beats densely so the timeline artifact is rich.
DEMO_HEARTBEAT_EVERY = 16
CHECKPOINT_EVERY = 32
DEFAULT_LIMIT_PCT = 5.0
#: Re-time this many extra passes before declaring the budget blown.
MAX_TIMING_PASSES = 3


def _fingerprint(result) -> dict:
    """The identity-gated view of one run."""
    return {
        "output": result.output_count,
        "total_output": result.total_output_count,
        "drops": result.drop_breakdown().as_dict(),
    }


def build_obs_snapshot(
    scale_name: str,
    shards: int,
    workers: int,
    rounds: int,
    limit_pct: float,
    timeline_out: Path,
) -> dict:
    scale = SCALES[scale_name]
    # The overhead ratio needs per-tick costs to dominate both the fixed
    # plumbing (tempdir, spool files, fsync, timeline merge — ~5 ms per
    # run) and the timer's per-round noise (a loaded shared runner
    # jitters CPU time by ~10 ms per sample), so the timing leg runs
    # much longer streams than the scale's default: at ~600 ms per run
    # the ~2% true overhead separates cleanly from the jitter.
    length = max(32 * scale.stream_length, 64000)
    window = max(scale.window, 100)
    memory = even_memory(window, 0.5)

    spec_off = RunSpec(
        algorithm="EXACT", window=window, memory=memory,
        length=length, domain=DEFAULT_DOMAIN, seed=SEED, shards=shards,
    )
    spec_on = replace(
        spec_off, telemetry=True, heartbeat_every=HEARTBEAT_EVERY,
    )
    pair = build_pair(spec_off)
    mismatches = []

    # -- identity + heartbeat determinism (one pass each) --------------
    result_off = run(spec_off, pair=pair, workers=1)
    result_on = run(spec_on, pair=pair, workers=1)
    if _fingerprint(result_on) != _fingerprint(result_off):
        mismatches.append(
            f"telemetry-on run differs from telemetry-off: "
            f"{_fingerprint(result_on)} != {_fingerprint(result_off)}"
        )
    summary = span_summary(result_on.timeline or [])
    heartbeats = summary.get("kinds", {}).get("heartbeat", 0)

    # -- overhead: interleaved rounds, min CPU time per side -----------
    # The off/on pairs alternate so thermal and cache drift hit both
    # sides alike; min-over-rounds discards load spikes, and CPU time
    # ignores the co-tenant scheduler noise a shared runner carries.
    # GC is off during the rounds (as timeit does): telemetry's higher
    # allocation rate would otherwise trigger collections that scan
    # whatever unrelated heap the process carries — under the full
    # regression gate that scan alone read as a +5% "overhead".
    # Each retry pass keeps its own pair of minima and the best pass
    # wins: a cumulative min would let one lucky fast off-round poison
    # every subsequent pass with an inflated ratio.
    # Both timing legs carry a metrics registry.  Neither metrics nor
    # the heartbeat hook chooses the path any more — an EXACT shard
    # runs the count lane either way — so the two legs differ only by
    # the telemetry plane, measured on an instrumented run.
    timing_off = replace(spec_off, metrics=True)
    timing_on = replace(spec_on, metrics=True)
    best_off = best_on = None
    overhead_pct = None
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(MAX_TIMING_PASSES):
            pass_off = pass_on = None
            for _ in range(rounds):
                for name, spec in (("off", timing_off), ("on", timing_on)):
                    start = time.process_time()
                    run(spec, pair=pair, workers=1)
                    elapsed = time.process_time() - start
                    if name == "off":
                        pass_off = elapsed if pass_off is None else min(pass_off, elapsed)
                    else:
                        pass_on = elapsed if pass_on is None else min(pass_on, elapsed)
            pass_pct = 100.0 * (pass_on / pass_off - 1.0)
            if overhead_pct is None or pass_pct < overhead_pct:
                overhead_pct = pass_pct
                best_off, best_on = pass_off, pass_on
            if overhead_pct <= limit_pct:
                break
    finally:
        if gc_was_enabled:
            gc.enable()
    overhead_ok = overhead_pct <= limit_pct
    if not overhead_ok:
        mismatches.append(
            f"telemetry overhead {overhead_pct:+.2f}% exceeds the "
            f"{limit_pct:.1f}% budget (off {best_off:.4f}s, on {best_on:.4f}s)"
        )

    # -- faulted pooled leg: full plane + the CI timeline artifact -----
    kill_tick = length // 3
    plan = FaultPlan(
        (Fault("kill", cell=shards - 1, tick=kill_tick, attempts=1),)
    )
    faulted_spec = replace(
        spec_on, max_retries=2, checkpoint_every=CHECKPOINT_EVERY,
        heartbeat_every=DEMO_HEARTBEAT_EVERY,
    )
    faulted = run(faulted_spec, pair=pair, workers=workers, fault_plan=plan)
    if _fingerprint(faulted) != _fingerprint(result_off):
        mismatches.append(
            f"faulted telemetry run differs from fault-free: "
            f"{_fingerprint(faulted)} != {_fingerprint(result_off)}"
        )
    faulted_summary = span_summary(faulted.timeline or [])
    faulted_kinds = faulted_summary.get("kinds", {})
    for kind in ("fault", "retry", "checkpoint_restore"):
        if not faulted_kinds.get(kind):
            mismatches.append(
                f"faulted timeline is missing its {kind!r} span "
                f"(kinds: {sorted(faulted_kinds)})"
            )

    timeline_out.parent.mkdir(parents=True, exist_ok=True)
    timeline_out.write_text(
        json.dumps(to_chrome_trace(faulted.timeline or [])) + "\n"
    )

    return {
        "benchmark": "telemetry_overhead",
        "scale": scale_name,
        "workload": {
            "generator": "zipf",
            "length": length,
            "domain": DEFAULT_DOMAIN,
            "skew": 1.0,
            "seed": SEED,
        },
        "parameters": {
            "window": window,
            "memory": memory,
            "shards": shards,
            "workers": workers,
            "rounds": rounds,
            "heartbeat_every": HEARTBEAT_EVERY,
            "demo_heartbeat_every": DEMO_HEARTBEAT_EVERY,
            "checkpoint_every": CHECKPOINT_EVERY,
            "killed_cell": shards - 1,
            "killed_tick": kill_tick,
            "limit_pct": limit_pct,
            "cpu_count": os.cpu_count(),
        },
        "python": sys.version.split()[0],
        "cpu_seconds": {
            "off_min": round(best_off, 4),
            "on_min": round(best_on, 4),
        },
        "overhead_pct": round(overhead_pct, 2),
        "overhead_ok": overhead_ok,
        "telemetry_identical": not mismatches,
        "mismatches": mismatches,
        "counts": {
            "exact_output": result_off.output_count,
            "exact_total_output": result_off.total_output_count,
            "heartbeats": heartbeats,
            "span_events": summary.get("events", 0),
            "faulted_retries": faulted_summary.get("retries", 0),
        },
        "timeline_artifact": str(timeline_out.relative_to(REPO_ROOT))
        if timeline_out.is_relative_to(REPO_ROOT) else str(timeline_out),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=sorted(SCALES))
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="interleaved off/on timing rounds (min is kept)",
    )
    parser.add_argument(
        "--limit", type=float, default=DEFAULT_LIMIT_PCT,
        help="max telemetry overhead in percent (default 5.0)",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_obs.json"),
        help="where to write the snapshot",
    )
    parser.add_argument(
        "--timeline-out",
        default=str(REPO_ROOT / "benchmarks" / "results" / "timeline.json"),
        dest="timeline_out",
        help="where to write the faulted run's Chrome trace JSON",
    )
    args = parser.parse_args()

    snapshot = build_obs_snapshot(
        args.scale, args.shards, args.workers, args.rounds, args.limit,
        Path(args.timeline_out),
    )
    path = Path(args.out)
    path.write_text(json.dumps(snapshot, indent=2) + "\n")

    seconds = snapshot["cpu_seconds"]
    print(f"telemetry overhead @ scale={args.scale} "
          f"(shards={args.shards}, rounds={args.rounds})")
    print(f"  off  {seconds['off_min']:>8.4f}s cpu (min over rounds)")
    print(f"  on   {seconds['on_min']:>8.4f}s cpu "
          f"({snapshot['overhead_pct']:+.2f}%, budget {args.limit:.1f}%)")
    print(f"  heartbeats {snapshot['counts']['heartbeats']}, "
          f"span events {snapshot['counts']['span_events']}, "
          f"faulted retries {snapshot['counts']['faulted_retries']}")
    if snapshot["telemetry_identical"]:
        print("  identity: telemetry-on == telemetry-off; faulted run "
              "recovers bit-identically with fault/retry/restore spans")
    else:
        print(f"  TELEMETRY VIOLATION ({len(snapshot['mismatches'])} issue(s)):")
        for line in snapshot["mismatches"]:
            print(f"    - {line}")
    print(f"timeline artifact: {snapshot['timeline_artifact']}")
    print(f"written to {path}")
    return 0 if snapshot["telemetry_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
