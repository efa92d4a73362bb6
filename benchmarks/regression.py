"""Perf-regression gate: fresh snapshot vs. the committed baseline.

Rebuilds the engine-throughput snapshot (``benchmarks/snapshot.py``)
at the baseline's own scale/seed and compares per policy:

* ``output_count`` must match **exactly** — the engines are
  deterministic, so any drift is a semantics change, not noise;
* ``ktuples_per_second`` may not fall more than ``--tolerance``
  (default 20%) below the baseline;
* ``metrics_overhead_pct`` / ``trace_overhead_pct`` may not grow more
  than ``--overhead-slack`` percentage points (default 20) over the
  baseline, widened to the baseline's own value for already-large
  overheads — i.e. the gate trips when instrumentation cost roughly
  doubles, since the ratio of two noisy timings spreads with its
  magnitude and a tighter band would flake.

Timings are taken with instrumentation *disabled* (the overhead columns
time it separately), so the gate measures the null path the paper's
throughput claims depend on.  Throughput gains and overhead drops never
fail the gate; only regressions do.

When a committed ``BENCH_runtime.json`` exists (written by
``make bench-parallel`` / ``benchmarks/bench_runtime.py``), the gate
also rebuilds the parallel-runtime snapshot and checks the
:mod:`repro.runtime` determinism contract: parallel output counts must
equal serial ones and match the committed baseline exactly, and the
parallel wall-clock may not exceed ``--max-slowdown`` (default 5x) times
the serial one.  Speedup itself is advisory — CI runners may have a
single core.

Likewise, when a committed ``BENCH_shard.json`` exists (written by
``make bench-shard`` / ``benchmarks/bench_shard.py``), the gate rebuilds
the sharded-execution snapshot and checks the partition layer's
contract: sharded EXACT must reproduce unsharded EXACT identically
(output, total, drop ledger), the snapshot's deterministic counts must
match the committed baseline exactly, and the sharded wall-clock may
not exceed ``--max-shard-slowdown`` (default 25x) times the unsharded
one.

And when a committed ``BENCH_chaos.json`` exists (written by
``make bench-chaos`` / ``benchmarks/bench_chaos.py``), the gate rebuilds
the chaos-recovery snapshot and checks the fault-tolerance contract: a
sharded run that loses a worker to a seeded kill and retries from its
last checkpoint must reproduce the fault-free result bit-identically,
and a degraded run (retries exhausted, ``degrade=True``) must report a
``lost_output`` that exactly reconciles the output deficit.

When a committed ``BENCH_batch.json`` exists (written by
``make bench-batch`` / ``benchmarks/bench_batch.py``), the gate rebuilds
the columnar-batch snapshot and checks the batched lane's contract:
every batched run must be bit-identical to its per-tuple twin (output,
ledger, metrics totals, survival — across policies, chunk sizes, and
shards), the deterministic counts must match the committed baseline
exactly, and batched EXACT throughput must stay at least
``--min-batch-speedup`` (default 1.5) times the per-tuple throughput
measured in the same interleaved rounds.

When a committed ``BENCH_policy.json`` exists (written by
``make bench-policy`` / ``benchmarks/bench_policy_batch.py``), the gate
rebuilds the policy-lane snapshot and checks the vectorized policy
lanes' contract: every batched RAND/PROB/LIFE run (both allocation
modes, all chunk sizes, sharded included) must be bit-identical to its
per-tuple twin — output, ledger, survival, metrics totals — the
deterministic counts must match the committed baseline exactly, and
batched PROB and LIFE throughput must stay at least
``--min-policy-speedup`` (default 2.0) times the per-tuple throughput
measured in the same interleaved rounds.

When a committed ``BENCH_soak.json`` exists (written by ``make soak``
/ ``benchmarks/bench_soak.py``), the gate re-runs the bounded-memory
soak — an unbounded zipf source through the per-tick and the batched
EXACT lanes and the full PROB+EWMA engine path with ``tracemalloc``
on — and checks
the incremental path's contract: live memory must stay flat
(window-bounded, never stream-length-bounded), and the deterministic
output counts must match the committed baseline exactly when the
rebuild runs at the baseline's own tick budget (``--soak-ticks`` can
shorten the rebuild, which then gates flatness only).

Finally, when a committed ``BENCH_obs.json`` exists (written by
``make bench-obs`` / ``benchmarks/bench_telemetry.py``), the gate
rebuilds the telemetry-plane snapshot and checks its contract:
telemetry-on must reproduce telemetry-off bit-identically, the merged
timeline's heartbeat count must match the committed baseline exactly
(it is a pure function of the spec), the faulted leg must carry its
fault / retry / checkpoint-restore spans, and the measured CPU
overhead must stay within the snapshot's budget.  Exit status: 0 pass,
1 fail, 2 bad invocation.

Run:  python benchmarks/regression.py [--baseline BENCH_engine.json]
                                      [--tolerance 0.2] [--repeats N]
                                      [--skip-runtime] [--skip-shard]
                                      [--skip-chaos] [--skip-obs]
                                      [--skip-batch] [--skip-policy]
                                      [--skip-soak]
Or:   make bench-gate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `make install`
    sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_batch import build_batch_snapshot  # noqa: E402 - sibling module
from bench_chaos import build_chaos_snapshot  # noqa: E402 - sibling module
from bench_policy_batch import build_policy_snapshot  # noqa: E402 - sibling module
from bench_runtime import build_runtime_snapshot  # noqa: E402 - sibling module
from bench_soak import build_soak_snapshot  # noqa: E402 - sibling module
from bench_telemetry import build_obs_snapshot  # noqa: E402 - sibling module
from bench_shard import build_shard_snapshot  # noqa: E402 - sibling module
from snapshot import build_snapshot  # noqa: E402 - sibling module

#: throughput may drop at most this fraction below baseline
DEFAULT_TOLERANCE = 0.20
#: overhead columns may grow at most this many percentage points
DEFAULT_OVERHEAD_SLACK = 20.0
#: parallel wall-clock may be at most this many times the serial one
DEFAULT_MAX_SLOWDOWN = 5.0
#: sharded wall-clock may be at most this many times the unsharded one
#: (per-shard async-engine ticks + pool tax make sharding legitimately
#: slower on small workloads; this catches pathologies only)
DEFAULT_MAX_SHARD_SLOWDOWN = 25.0

#: batched EXACT must stay at least this many times the per-tuple rate
DEFAULT_MIN_BATCH_SPEEDUP = 1.5

#: batched PROB/LIFE must stay at least this many times the per-tuple rate
DEFAULT_MIN_POLICY_SPEEDUP = 2.0

OVERHEAD_FIELDS = ("metrics_overhead_pct", "trace_overhead_pct")


def compare_snapshots(
    baseline: dict,
    fresh: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    overhead_slack: float = DEFAULT_OVERHEAD_SLACK,
) -> list[str]:
    """Failure messages (empty list == gate passes).

    Policies present only on one side fail loudly — a silently dropped
    policy is exactly the kind of regression a gate exists to catch.
    Overhead fields missing from the *baseline* are skipped (older
    snapshots predate ``trace_overhead_pct``), not treated as growth.
    """
    failures: list[str] = []
    base_policies = {entry["policy"]: entry for entry in baseline.get("policies", [])}
    fresh_policies = {entry["policy"]: entry for entry in fresh.get("policies", [])}

    for name in base_policies:
        if name not in fresh_policies:
            failures.append(f"{name}: missing from fresh snapshot")
    for name in fresh_policies:
        if name not in base_policies:
            failures.append(f"{name}: missing from baseline (regenerate it)")

    for name, base in base_policies.items():
        current = fresh_policies.get(name)
        if current is None:
            continue
        if current["output_count"] != base["output_count"]:
            failures.append(
                f"{name}: output_count changed "
                f"{base['output_count']} -> {current['output_count']} "
                "(engines are deterministic; this is a semantics change)"
            )
        floor = base["ktuples_per_second"] * (1.0 - tolerance)
        if current["ktuples_per_second"] < floor:
            drop = 100 * (
                1 - current["ktuples_per_second"] / base["ktuples_per_second"]
            )
            failures.append(
                f"{name}: throughput {current['ktuples_per_second']:.2f} "
                f"k-tuples/s is {drop:.1f}% below baseline "
                f"{base['ktuples_per_second']:.2f} "
                f"(tolerance {100 * tolerance:.0f}%)"
            )
        for field in OVERHEAD_FIELDS:
            if field not in base or field not in current:
                continue
            # Overhead is a ratio of two noisy timings, so its run-to-run
            # spread grows with its magnitude; flag only when overhead
            # roughly doubles (plus the flat slack for small baselines) —
            # the gate is for pathologies, not timer jitter.
            slack = max(overhead_slack, abs(base[field]))
            ceiling = base[field] + slack
            if current[field] > ceiling:
                failures.append(
                    f"{name}: {field} grew {base[field]:+.1f}% -> "
                    f"{current[field]:+.1f}% "
                    f"(slack {slack:.0f} points)"
                )
    return failures


def check_runtime(
    baseline: dict,
    fresh: dict,
    *,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
) -> list[str]:
    """Failure messages for the parallel-runtime snapshot.

    Two hard conditions and one loose one:

    * fresh parallel outputs must equal fresh serial outputs (the
      determinism contract of :mod:`repro.runtime`);
    * per-cell output counts must match the committed baseline exactly
      (same determinism argument as the engine gate);
    * the parallel wall-clock may not exceed ``max_slowdown`` times the
      serial one.  Speedup is *not* asserted — a single-core runner makes
      ``workers=2`` legitimately slower than serial — but a runaway
      pickling or pool-startup pathology still trips the gate.
    """
    failures: list[str] = []
    if not fresh.get("outputs_match", False):
        for line in fresh.get("mismatches", []):
            failures.append(f"runtime: parallel != serial: {line}")

    base_counts = {
        entry["seed"]: entry for entry in baseline.get("counts", [])
    }
    for entry in fresh.get("counts", []):
        base = base_counts.get(entry["seed"])
        if base is None:
            continue
        for name, count in entry.items():
            if name == "seed":
                continue
            if name in base and base[name] != count:
                failures.append(
                    f"runtime: {name}(seed={entry['seed']}) output_count "
                    f"changed {base[name]} -> {count} "
                    "(engines are deterministic; this is a semantics change)"
                )

    serial = fresh.get("serial_seconds", 0.0)
    parallel = fresh.get("parallel_seconds", 0.0)
    if serial > 0 and parallel > serial * max_slowdown:
        failures.append(
            f"runtime: parallel wall-clock {parallel:.3f}s is "
            f"{parallel / serial:.1f}x the serial {serial:.3f}s "
            f"(max slowdown {max_slowdown:.0f}x)"
        )
    return failures


def check_shard(
    baseline: dict,
    fresh: dict,
    *,
    max_slowdown: float = DEFAULT_MAX_SHARD_SLOWDOWN,
) -> list[str]:
    """Failure messages for the sharded-execution snapshot.

    * the fresh run must be EXACT-identical (sharded output, total, and
      drop ledger equal to unsharded) — the partition layer's hard
      guarantee, checked strictly;
    * the EXACT and sharded-PROB output counts must match the committed
      baseline exactly (determinism: same spec, same result);
    * the sharded parallel wall-clock may not exceed ``max_slowdown``
      times the unsharded one — generous, because per-shard async ticks
      and pool startup make sharding legitimately slower at CI scale.
    """
    failures: list[str] = []
    if not fresh.get("exact_identical", False):
        for line in fresh.get("mismatches", []):
            failures.append(f"shard: {line}")

    base_counts = baseline.get("counts", {})
    fresh_counts = fresh.get("counts", {})
    for name in ("exact_output", "exact_total_output", "prob_sharded_output"):
        if name in base_counts and name in fresh_counts:
            if base_counts[name] != fresh_counts[name]:
                failures.append(
                    f"shard: {name} changed {base_counts[name]} -> "
                    f"{fresh_counts[name]} (deterministic; this is a "
                    "semantics change)"
                )

    unsharded = fresh.get("unsharded_seconds", 0.0)
    parallel = fresh.get("parallel_seconds", 0.0)
    if unsharded > 0 and parallel > unsharded * max_slowdown:
        failures.append(
            f"shard: sharded wall-clock {parallel:.3f}s is "
            f"{parallel / unsharded:.1f}x the unsharded {unsharded:.3f}s "
            f"(max slowdown {max_slowdown:.0f}x)"
        )
    return failures


def check_chaos(baseline: dict, fresh: dict) -> list[str]:
    """Failure messages for the chaos-recovery snapshot.

    * the fresh run must be recovery-identical (every recovered run ==
      its fault-free twin, and the degraded run reconciles) — the
      fault-tolerance layer's hard guarantee, checked strictly;
    * the deterministic counts must match the committed baseline
      exactly (same spec + same fault plan must give the same result).

    No wall-clock gate: retries legitimately replay work, and the
    identity checks are what the contract is about.
    """
    failures: list[str] = []
    if not fresh.get("recovery_identical", False):
        for line in fresh.get("mismatches", []):
            failures.append(f"chaos: {line}")

    base_counts = baseline.get("counts", {})
    fresh_counts = fresh.get("counts", {})
    for name in ("exact_output", "prob_sharded_output",
                 "degraded_output", "lost_output"):
        if name in base_counts and name in fresh_counts:
            if base_counts[name] != fresh_counts[name]:
                failures.append(
                    f"chaos: {name} changed {base_counts[name]} -> "
                    f"{fresh_counts[name]} (deterministic; this is a "
                    "semantics change)"
                )
    return failures


def check_batch(
    baseline: dict,
    fresh: dict,
    *,
    min_speedup: float = DEFAULT_MIN_BATCH_SPEEDUP,
) -> list[str]:
    """Failure messages for the columnar-batch snapshot.

    * the fresh run must be batch-identical (every batched run == its
      per-tuple twin across policies, chunk sizes, and shards) — the
      batched lane's hard guarantee, checked strictly;
    * the deterministic counts must match the committed baseline
      exactly (same spec, same result);
    * batched EXACT throughput must be at least ``min_speedup`` times
      the per-tuple throughput from the *same* interleaved rounds —
      both sides of the ratio share each round's machine conditions, so
      the floor is noise-robust in a way a cross-run comparison against
      the committed baseline would not be.
    """
    failures: list[str] = []
    if not fresh.get("batched_identical", False):
        for line in fresh.get("mismatches", []):
            failures.append(f"batch: {line}")

    base_counts = baseline.get("counts", {})
    fresh_counts = fresh.get("counts", {})
    for name in ("exact_output", "exact_total_output"):
        if name in base_counts and name in fresh_counts:
            if base_counts[name] != fresh_counts[name]:
                failures.append(
                    f"batch: {name} changed {base_counts[name]} -> "
                    f"{fresh_counts[name]} (deterministic; this is a "
                    "semantics change)"
                )

    speedup = fresh.get("speedup", 0.0)
    if speedup < min_speedup:
        failures.append(
            f"batch: batched EXACT speedup {speedup:.2f}x is below the "
            f"{min_speedup:.1f}x floor "
            f"(batched {fresh.get('batched_ktuples_per_second', 0):.2f} vs "
            f"per-tuple {fresh.get('serial_ktuples_per_second', 0):.2f} "
            "k-tuples/s)"
        )
    return failures


def check_policy(
    baseline: dict,
    fresh: dict,
    *,
    min_speedup: float = DEFAULT_MIN_POLICY_SPEEDUP,
) -> list[str]:
    """Failure messages for the policy-lane snapshot.

    * the fresh run must be batch-identical (every batched RAND, PROB,
      and LIFE run — both allocation modes, all chunk sizes, sharded
      included — equal to its per-tuple twin on output, ledger,
      survival, and metrics totals) — the policy lanes' hard guarantee,
      checked strictly;
    * the deterministic per-policy counts must match the committed
      baseline exactly (shedding decisions are seeded and reproducible;
      drift is a semantics change);
    * batched PROB and LIFE throughput must be at least ``min_speedup``
      times per-tuple throughput from the *same* interleaved rounds
      (RAND is advisory: the floor is about the semantic policies the
      paper is about).
    """
    failures: list[str] = []
    if not fresh.get("batched_identical", False):
        for line in fresh.get("mismatches", []):
            failures.append(f"policy-batch: {line}")

    base_counts = baseline.get("counts", {})
    fresh_counts = fresh.get("counts", {})
    for name in sorted(base_counts):
        if name in fresh_counts and base_counts[name] != fresh_counts[name]:
            failures.append(
                f"policy-batch: {name} changed {base_counts[name]} -> "
                f"{fresh_counts[name]} (deterministic; this is a "
                "semantics change)"
            )

    for entry in fresh.get("policies", []):
        if not entry.get("floor_enforced", False):
            continue
        speedup = entry.get("speedup", 0.0)
        if speedup < min_speedup:
            failures.append(
                f"policy-batch: {entry['policy']} batched speedup "
                f"{speedup:.2f}x is below the {min_speedup:.1f}x floor "
                f"(batched {entry.get('batched_ktuples_per_second', 0):.2f} "
                f"vs per-tuple "
                f"{entry.get('serial_ktuples_per_second', 0):.2f} k-tuples/s)"
            )
    return failures


def check_obs(baseline: dict, fresh: dict) -> list[str]:
    """Failure messages for the telemetry-plane snapshot.

    * the fresh run must be telemetry-identical (on == off, faulted leg
      recovered with its fault/retry/restore spans) and within its CPU
      overhead budget — both folded into ``telemetry_identical`` /
      ``mismatches`` by the builder;
    * the deterministic counts — output and the merged timeline's
      heartbeat count — must match the committed baseline exactly.

    Wall-clock is never gated here; the overhead budget inside the
    snapshot is CPU-time-based and already noise-hardened.
    """
    failures: list[str] = []
    if not fresh.get("telemetry_identical", False):
        for line in fresh.get("mismatches", []):
            failures.append(f"obs: {line}")

    base_counts = baseline.get("counts", {})
    fresh_counts = fresh.get("counts", {})
    for name in ("exact_output", "exact_total_output", "heartbeats"):
        if name in base_counts and name in fresh_counts:
            if base_counts[name] != fresh_counts[name]:
                failures.append(
                    f"obs: {name} changed {base_counts[name]} -> "
                    f"{fresh_counts[name]} (deterministic; this is a "
                    "semantics change)"
                )
    return failures


def check_soak(baseline: dict, fresh: dict) -> list[str]:
    """Failure messages for the bounded-memory soak snapshot.

    * the fresh run must be memory-flat on every incremental lane
      (per-tick and batched EXACT counts, the PROB+EWMA engine path,
      with the two EXACT lanes agreeing on output) — the
      source refactor's hard guarantee that live memory is bounded by
      the window/budget, never by stream length, checked strictly;
    * the deterministic counts must match the committed baseline
      exactly — but only when the fresh soak ran at the baseline's own
      tick budget (counts are a function of the tick count, so a
      ``--soak-ticks`` shortened rebuild checks flatness only).
    """
    failures: list[str] = []
    if not fresh.get("flat_memory", False):
        for line in fresh.get("mismatches", []):
            failures.append(f"soak: {line}")

    base_params = baseline.get("parameters", {})
    fresh_params = fresh.get("parameters", {})
    same_scale = all(
        base_params.get(name) == fresh_params.get(name)
        for name in ("ticks", "policy_ticks", "window", "domain", "skew", "seed")
    )
    if same_scale:
        base_counts = baseline.get("counts", {})
        fresh_counts = fresh.get("counts", {})
        for name in ("exact_output", "exact_total_output", "policy_output"):
            if name in base_counts and name in fresh_counts:
                if base_counts[name] != fresh_counts[name]:
                    failures.append(
                        f"soak: {name} changed {base_counts[name]} -> "
                        f"{fresh_counts[name]} (deterministic; this is a "
                        "semantics change)"
                    )
    return failures


def format_comparison(baseline: dict, fresh: dict) -> str:
    """Side-by-side table of the gated quantities."""
    lines = [
        f"{'policy':<7} {'base kt/s':>10} {'fresh kt/s':>11} {'delta':>8} "
        f"{'base out':>9} {'fresh out':>10}",
        "-" * 60,
    ]
    fresh_policies = {entry["policy"]: entry for entry in fresh.get("policies", [])}
    for base in baseline.get("policies", []):
        current = fresh_policies.get(base["policy"])
        if current is None:
            lines.append(f"{base['policy']:<7} {'(missing from fresh snapshot)':>50}")
            continue
        delta = 100 * (
            current["ktuples_per_second"] / base["ktuples_per_second"] - 1
        )
        lines.append(
            f"{base['policy']:<7} {base['ktuples_per_second']:>10.2f} "
            f"{current['ktuples_per_second']:>11.2f} {delta:>+7.1f}% "
            f"{base['output_count']:>9} {current['output_count']:>10}"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline", default=str(REPO_ROOT / "BENCH_engine.json"),
        help="committed snapshot to gate against",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="max fractional throughput drop (default 0.20)",
    )
    parser.add_argument(
        "--overhead-slack", type=float, default=DEFAULT_OVERHEAD_SLACK,
        dest="overhead_slack",
        help="max overhead growth in percentage points (default 20)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats (default: the baseline's own setting)",
    )
    parser.add_argument(
        "--runtime-baseline", default=str(REPO_ROOT / "BENCH_runtime.json"),
        dest="runtime_baseline",
        help="committed parallel-runtime snapshot (skipped if absent)",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=DEFAULT_MAX_SLOWDOWN,
        dest="max_slowdown",
        help="max parallel/serial wall-clock ratio (default 5.0)",
    )
    parser.add_argument(
        "--skip-runtime", action="store_true",
        help="gate the engine snapshot only",
    )
    parser.add_argument(
        "--shard-baseline", default=str(REPO_ROOT / "BENCH_shard.json"),
        dest="shard_baseline",
        help="committed sharded-execution snapshot (skipped if absent)",
    )
    parser.add_argument(
        "--max-shard-slowdown", type=float, default=DEFAULT_MAX_SHARD_SLOWDOWN,
        dest="max_shard_slowdown",
        help="max sharded/unsharded wall-clock ratio (default 25.0)",
    )
    parser.add_argument(
        "--skip-shard", action="store_true",
        help="skip the sharded-execution identity gate",
    )
    parser.add_argument(
        "--chaos-baseline", default=str(REPO_ROOT / "BENCH_chaos.json"),
        dest="chaos_baseline",
        help="committed chaos-recovery snapshot (skipped if absent)",
    )
    parser.add_argument(
        "--skip-chaos", action="store_true",
        help="skip the fault-injected recovery identity gate",
    )
    parser.add_argument(
        "--batch-baseline", default=str(REPO_ROOT / "BENCH_batch.json"),
        dest="batch_baseline",
        help="committed columnar-batch snapshot (skipped if absent)",
    )
    parser.add_argument(
        "--min-batch-speedup", type=float, default=DEFAULT_MIN_BATCH_SPEEDUP,
        dest="min_batch_speedup",
        help="min batched/per-tuple EXACT throughput ratio (default 1.5)",
    )
    parser.add_argument(
        "--skip-batch", action="store_true",
        help="skip the columnar-batch identity/speedup gate",
    )
    parser.add_argument(
        "--policy-baseline", default=str(REPO_ROOT / "BENCH_policy.json"),
        dest="policy_baseline",
        help="committed policy-lane snapshot (skipped if absent)",
    )
    parser.add_argument(
        "--min-policy-speedup", type=float,
        default=DEFAULT_MIN_POLICY_SPEEDUP, dest="min_policy_speedup",
        help="min batched/per-tuple PROB and LIFE throughput ratio "
             "(default 2.0)",
    )
    parser.add_argument(
        "--skip-policy", action="store_true",
        help="skip the policy-lane identity/speedup gate",
    )
    parser.add_argument(
        "--obs-baseline", default=str(REPO_ROOT / "BENCH_obs.json"),
        dest="obs_baseline",
        help="committed telemetry-plane snapshot (skipped if absent)",
    )
    parser.add_argument(
        "--skip-obs", action="store_true",
        help="skip the telemetry-plane identity/overhead gate",
    )
    parser.add_argument(
        "--soak-baseline", default=str(REPO_ROOT / "BENCH_soak.json"),
        dest="soak_baseline",
        help="committed bounded-memory soak snapshot (skipped if absent)",
    )
    parser.add_argument(
        "--soak-ticks", type=int, default=None, dest="soak_ticks",
        help="EXACT-lane soak rebuild length (default: the baseline's "
             "own; a shorter rebuild checks memory flatness only)",
    )
    parser.add_argument(
        "--soak-policy-ticks", type=int, default=None,
        dest="soak_policy_ticks",
        help="policy-path soak rebuild length (default: the baseline's own)",
    )
    parser.add_argument(
        "--skip-soak", action="store_true",
        help="skip the bounded-memory soak gate",
    )
    args = parser.parse_args()

    baseline_path = Path(args.baseline)
    try:
        baseline = json.loads(baseline_path.read_text())
    except OSError as error:
        print(f"cannot read baseline {baseline_path}: {error}", file=sys.stderr)
        print("generate one with `make bench-smoke` first", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"baseline {baseline_path} is not valid JSON: {error}", file=sys.stderr)
        return 2

    scale = baseline.get("scale", "ci")
    seed = baseline.get("workload", {}).get("seed", 0)
    repeats = (
        args.repeats
        if args.repeats is not None
        else baseline.get("parameters", {}).get("repeats", 3)
    )
    print(f"bench-gate: rebuilding snapshot (scale={scale}, repeats={repeats}) ...")
    fresh = build_snapshot(scale, repeats, seed)

    print(format_comparison(baseline, fresh))
    failures = compare_snapshots(
        baseline, fresh,
        tolerance=args.tolerance, overhead_slack=args.overhead_slack,
    )

    runtime_path = Path(args.runtime_baseline)
    if not args.skip_runtime and runtime_path.exists():
        try:
            runtime_baseline = json.loads(runtime_path.read_text())
        except json.JSONDecodeError as error:
            print(f"runtime baseline {runtime_path} is not valid JSON: "
                  f"{error}", file=sys.stderr)
            return 2
        workers = runtime_baseline.get("parameters", {}).get("workers", 2)
        runtime_scale = runtime_baseline.get("scale", "ci")
        print(f"\nbench-gate: rebuilding runtime snapshot "
              f"(scale={runtime_scale}, workers={workers}) ...")
        runtime_fresh = build_runtime_snapshot(runtime_scale, workers)
        print(f"  serial {runtime_fresh['serial_seconds']:.3f}s, "
              f"parallel {runtime_fresh['parallel_seconds']:.3f}s "
              f"(speedup {runtime_fresh['speedup']:.2f}x), "
              f"outputs_match={runtime_fresh['outputs_match']}")
        failures.extend(check_runtime(
            runtime_baseline, runtime_fresh, max_slowdown=args.max_slowdown
        ))

    shard_path = Path(args.shard_baseline)
    if not args.skip_shard and shard_path.exists():
        try:
            shard_baseline = json.loads(shard_path.read_text())
        except json.JSONDecodeError as error:
            print(f"shard baseline {shard_path} is not valid JSON: "
                  f"{error}", file=sys.stderr)
            return 2
        shard_params = shard_baseline.get("parameters", {})
        shards = shard_params.get("shards", 4)
        shard_workers = shard_params.get("workers", 2)
        shard_scale = shard_baseline.get("scale", "ci")
        print(f"\nbench-gate: rebuilding shard snapshot "
              f"(scale={shard_scale}, shards={shards}, "
              f"workers={shard_workers}) ...")
        shard_fresh = build_shard_snapshot(shard_scale, shards, shard_workers)
        print(f"  unsharded {shard_fresh['unsharded_seconds']:.3f}s, "
              f"sharded {shard_fresh['parallel_seconds']:.3f}s "
              f"({shard_fresh['speedup_vs_unsharded']:.2f}x), "
              f"exact_identical={shard_fresh['exact_identical']}")
        failures.extend(check_shard(
            shard_baseline, shard_fresh,
            max_slowdown=args.max_shard_slowdown,
        ))

    chaos_path = Path(args.chaos_baseline)
    if not args.skip_chaos and chaos_path.exists():
        try:
            chaos_baseline = json.loads(chaos_path.read_text())
        except json.JSONDecodeError as error:
            print(f"chaos baseline {chaos_path} is not valid JSON: "
                  f"{error}", file=sys.stderr)
            return 2
        chaos_params = chaos_baseline.get("parameters", {})
        chaos_shards = chaos_params.get("shards", 3)
        chaos_workers = chaos_params.get("workers", 2)
        chaos_scale = chaos_baseline.get("scale", "ci")
        print(f"\nbench-gate: rebuilding chaos snapshot "
              f"(scale={chaos_scale}, shards={chaos_shards}, "
              f"workers={chaos_workers}) ...")
        chaos_fresh = build_chaos_snapshot(
            chaos_scale, chaos_shards, chaos_workers
        )
        print(f"  recovery_identical={chaos_fresh['recovery_identical']}, "
              f"degraded {chaos_fresh['counts']['degraded_output']} + "
              f"lost {chaos_fresh['counts']['lost_output']} vs exact "
              f"{chaos_fresh['counts']['exact_output']}")
        failures.extend(check_chaos(chaos_baseline, chaos_fresh))

    batch_path = Path(args.batch_baseline)
    if not args.skip_batch and batch_path.exists():
        try:
            batch_baseline = json.loads(batch_path.read_text())
        except json.JSONDecodeError as error:
            print(f"batch baseline {batch_path} is not valid JSON: "
                  f"{error}", file=sys.stderr)
            return 2
        batch_params = batch_baseline.get("parameters", {})
        batch_repeats = (
            args.repeats
            if args.repeats is not None
            else batch_params.get("repeats", 3)
        )
        batch_scale = batch_baseline.get("scale", "ci")
        batch_seed = batch_baseline.get("workload", {}).get("seed", 0)
        print(f"\nbench-gate: rebuilding batch snapshot "
              f"(scale={batch_scale}, repeats={batch_repeats}) ...")
        batch_fresh = build_batch_snapshot(
            batch_scale, batch_repeats, batch_seed
        )
        print(f"  per-tuple {batch_fresh['serial_ktuples_per_second']:.2f} "
              f"k-tuples/s, batched "
              f"{batch_fresh['batched_ktuples_per_second']:.2f} k-tuples/s "
              f"({batch_fresh['speedup']:.2f}x), "
              f"batched_identical={batch_fresh['batched_identical']}")
        failures.extend(check_batch(
            batch_baseline, batch_fresh,
            min_speedup=args.min_batch_speedup,
        ))

    policy_path = Path(args.policy_baseline)
    if not args.skip_policy and policy_path.exists():
        try:
            policy_baseline = json.loads(policy_path.read_text())
        except json.JSONDecodeError as error:
            print(f"policy baseline {policy_path} is not valid JSON: "
                  f"{error}", file=sys.stderr)
            return 2
        policy_params = policy_baseline.get("parameters", {})
        policy_repeats = (
            args.repeats
            if args.repeats is not None
            else policy_params.get("repeats", 3)
        )
        policy_scale = policy_baseline.get("scale", "ci")
        policy_seed = policy_baseline.get("workload", {}).get("seed", 0)
        print(f"\nbench-gate: rebuilding policy snapshot "
              f"(scale={policy_scale}, repeats={policy_repeats}) ...")
        policy_fresh = build_policy_snapshot(
            policy_scale, policy_repeats, policy_seed
        )
        for entry in policy_fresh["policies"]:
            print(f"  {entry['policy']:<5} per-tuple "
                  f"{entry['serial_ktuples_per_second']:.2f} k-tuples/s, "
                  f"batched {entry['batched_ktuples_per_second']:.2f} "
                  f"k-tuples/s ({entry['speedup']:.2f}x)")
        print(f"  batched_identical={policy_fresh['batched_identical']}")
        failures.extend(check_policy(
            policy_baseline, policy_fresh,
            min_speedup=args.min_policy_speedup,
        ))

    obs_path = Path(args.obs_baseline)
    if not args.skip_obs and obs_path.exists():
        try:
            obs_baseline = json.loads(obs_path.read_text())
        except json.JSONDecodeError as error:
            print(f"obs baseline {obs_path} is not valid JSON: "
                  f"{error}", file=sys.stderr)
            return 2
        obs_params = obs_baseline.get("parameters", {})
        obs_shards = obs_params.get("shards", 4)
        obs_workers = obs_params.get("workers", 2)
        obs_rounds = obs_params.get("rounds", 5)
        obs_limit = obs_params.get("limit_pct", 5.0)
        obs_scale = obs_baseline.get("scale", "ci")
        print(f"\nbench-gate: rebuilding obs snapshot "
              f"(scale={obs_scale}, shards={obs_shards}, "
              f"rounds={obs_rounds}) ...")
        obs_fresh = build_obs_snapshot(
            obs_scale, obs_shards, obs_workers, obs_rounds, obs_limit,
            REPO_ROOT / "benchmarks" / "results" / "timeline.json",
        )
        print(f"  overhead {obs_fresh['overhead_pct']:+.2f}% "
              f"(budget {obs_limit:.1f}%), "
              f"heartbeats {obs_fresh['counts']['heartbeats']}, "
              f"telemetry_identical={obs_fresh['telemetry_identical']}")
        failures.extend(check_obs(obs_baseline, obs_fresh))

    soak_path = Path(args.soak_baseline)
    if not args.skip_soak and soak_path.exists():
        try:
            soak_baseline = json.loads(soak_path.read_text())
        except json.JSONDecodeError as error:
            print(f"soak baseline {soak_path} is not valid JSON: "
                  f"{error}", file=sys.stderr)
            return 2
        soak_params = soak_baseline.get("parameters", {})
        soak_ticks = (
            args.soak_ticks
            if args.soak_ticks is not None
            else soak_params.get("ticks", 2_000_000)
        )
        soak_policy_ticks = (
            args.soak_policy_ticks
            if args.soak_policy_ticks is not None
            else soak_params.get("policy_ticks", 200_000)
        )
        print(f"\nbench-gate: rebuilding soak snapshot "
              f"(ticks={soak_ticks:,}, policy_ticks={soak_policy_ticks:,}, "
              "tracemalloc on) ...")
        soak_fresh = build_soak_snapshot(
            soak_ticks, soak_policy_ticks,
            slack_pct=soak_params.get("slack_pct", 5.0),
            slack_kib=soak_params.get("slack_kib", 64.0),
        )
        print(f"  exact {soak_fresh['exact']['memory_kib'][0]:.1f} -> "
              f"{soak_fresh['exact']['memory_kib'][-1]:.1f} KiB, "
              f"policy {soak_fresh['policy']['memory_kib'][0]:.1f} -> "
              f"{soak_fresh['policy']['memory_kib'][-1]:.1f} KiB, "
              f"flat_memory={soak_fresh['flat_memory']}")
        if soak_ticks != soak_params.get("ticks"):
            print("  (shortened rebuild: checking memory flatness only, "
                  "not baseline counts)")
        failures.extend(check_soak(soak_baseline, soak_fresh))

    if failures:
        print(f"\nbench-gate FAILED ({len(failures)} issue(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nbench-gate OK (tolerance {100 * args.tolerance:.0f}%, "
          f"overhead slack {args.overhead_slack:.0f} points)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
