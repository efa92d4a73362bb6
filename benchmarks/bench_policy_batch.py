"""Write BENCH_policy.json: policy-lane throughput + strict identity.

The columnar micro-batch path now covers the shedding policies: RAND,
PROB, and LIFE runs with static probability tables take vectorized
chunk lanes (``repro.core.batched_policies``), the default path, instead
of the per-tuple kernel loop.  This benchmark times the three policies
both ways — the per-tuple side pinned to the kernel loop with
``bench_batch.per_tuple_run`` (``force_general``) — on the
``ci``-scale workload of ``BENCH_engine.json`` (n=2000, w=100), with
the timings interleaved per round (see ``snapshot._interleaved_best``),
and records:

* per-policy per-tuple and batched throughputs plus their ratio — the
  regression gate holds PROB and LIFE to the ``>= 2.0x`` floor the
  policy lanes exist to clear (RAND clears far more; its ratio is
  recorded but not gated, the fixed floor keeps the gate independent
  of how silly-fast the trivial policy gets);
* the part that gates strictly: whether every batched run reproduced
  the per-tuple result **bit-identically** — output count, total
  output, drop ledger, survival departures, and metrics totals —
  across RAND/PROB/LIFE, both allocation modes (PROBV/LIFEV/RANDV),
  batch sizes {1, 7, 64, whole}, and sharded runs (shards don't take
  the pair lanes, so ``batch_size`` must be invisible there).

The committed ``BENCH_policy.json`` at the repository root is the
reference point; ``make bench-gate`` rebuilds the snapshot and fails on
identity drift, deterministic-count drift, or a speedup below the
floor.

Run:  python benchmarks/bench_policy_batch.py [--scale ci] [--repeats 7]
                                              [--out BENCH_policy.json]
Or:   make bench-policy
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

from bench_batch import _check_identity, per_tuple_run  # noqa: E402 - sibling module
from snapshot import _interleaved_best  # noqa: E402 - sibling module

from repro.api import RunSpec, build_pair, run  # noqa: E402
from repro.experiments.config import DEFAULT_DOMAIN, SCALES, even_memory  # noqa: E402
from repro.streams.batches import DEFAULT_BATCH_SIZE, HAVE_NUMPY  # noqa: E402

SEED = 0
#: Batched PROB/LIFE must beat their per-tuple twins by this factor.
MIN_POLICY_SPEEDUP = 2.0
#: Policies the floor is enforced for (RAND is advisory).
ENFORCED_POLICIES = ("PROB", "LIFE")
#: Policies timed head-to-head.
TIMED_POLICIES = ("RAND", "PROB", "LIFE")
#: Every lane-covered policy spec, both allocation modes.
IDENTITY_POLICIES = ("RAND", "RANDV", "PROB", "PROBV", "LIFE", "LIFEV")
#: Chunk sizes the identity sweep crosses (plus the whole stream).
IDENTITY_BATCH_SIZES = (1, 7, 64, DEFAULT_BATCH_SIZE)


def build_policy_snapshot(scale_name: str, repeats: int, seed: int) -> dict:
    scale = SCALES[scale_name]
    length = max(scale.stream_length, 2000)
    window = max(scale.window, 100)
    memory = even_memory(window, 0.5)

    def spec(algorithm, **overrides):
        return RunSpec(
            algorithm=algorithm, window=window, memory=memory,
            length=length, domain=DEFAULT_DOMAIN, seed=seed, **overrides,
        )

    pair = build_pair(spec("EXACT"))

    mismatches: list[str] = []
    counts: dict = {}
    policies = []
    floor_failures: list[str] = []

    # -- throughput: per-tuple vs batched, interleaved per policy ------
    for name in TIMED_POLICIES:
        per_tuple_run(spec(name), pair)  # warm up outside the timed rounds
        run(spec(name, batch_size=DEFAULT_BATCH_SIZE), pair=pair)
        best, results = _interleaved_best(repeats, {
            "serial": lambda: per_tuple_run(spec(name), pair),
            "batched": lambda: run(
                spec(name, batch_size=DEFAULT_BATCH_SIZE), pair=pair
            ),
        })
        serial_seconds, batched_seconds = best["serial"], best["batched"]
        speedup = serial_seconds / batched_seconds
        enforced = name in ENFORCED_POLICIES
        if enforced and speedup < MIN_POLICY_SPEEDUP:
            floor_failures.append(
                f"{name}: batched speedup {speedup:.2f}x is below the "
                f"{MIN_POLICY_SPEEDUP:.1f}x floor"
            )
        baseline = results["serial"]
        _check_identity(
            mismatches, f"{name} batch={DEFAULT_BATCH_SIZE}",
            results["batched"], baseline,
        )
        counts[f"{name.lower()}_output"] = baseline.output_count
        counts[f"{name.lower()}_total_output"] = baseline.total_output_count
        policies.append({
            "policy": name,
            "serial_ktuples_per_second": round(length / serial_seconds / 1000, 2),
            "batched_ktuples_per_second": round(length / batched_seconds / 1000, 2),
            "serial_seconds": round(serial_seconds, 4),
            "batched_seconds": round(batched_seconds, 4),
            "speedup": round(speedup, 2),
            "floor_enforced": enforced,
        })

    # -- identity sweep: all lanes x chunk sizes, metrics + survival ---
    for name in IDENTITY_POLICIES:
        baseline = per_tuple_run(spec(name, metrics=True), pair)
        for batch_size in IDENTITY_BATCH_SIZES:
            batched = run(spec(name, metrics=True, batch_size=batch_size), pair=pair)
            label = f"{name} batch={batch_size}"
            _check_identity(mismatches, label, batched, baseline, metrics=True)
            if (
                batched.r_departures != baseline.r_departures
                or batched.s_departures != baseline.s_departures
            ):
                mismatches.append(f"{label}: survival departures differ")

    # -- sharded identity: batch_size must be invisible under shards ---
    for name in ("PROB", "LIFE"):
        sharded_baseline = run(spec(name, shards=4), pair=pair)
        sharded_batched = run(spec(name, shards=4, batch_size=64), pair=pair)
        _check_identity(
            mismatches, f"{name} shards=4 batch=64",
            sharded_batched, sharded_baseline,
        )

    return {
        "benchmark": "policy_batch_throughput",
        "scale": scale_name,
        "workload": {
            "generator": "zipf",
            "length": length,
            "domain": DEFAULT_DOMAIN,
            "skew": 1.0,
            "seed": seed,
        },
        "parameters": {
            "window": window,
            "memory": memory,
            "repeats": repeats,
            "batch_size": DEFAULT_BATCH_SIZE,
            "min_policy_speedup": MIN_POLICY_SPEEDUP,
        },
        "python": sys.version.split()[0],
        "numpy": HAVE_NUMPY,
        "policies": policies,
        "batched_identical": not mismatches,
        "mismatches": mismatches,
        "floor_failures": floor_failures,
        "counts": counts,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=sorted(SCALES))
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_policy.json"),
        help="where to write the snapshot",
    )
    args = parser.parse_args()

    snapshot = build_policy_snapshot(args.scale, args.repeats, args.seed)
    path = Path(args.out)
    path.write_text(json.dumps(snapshot, indent=2) + "\n")

    print(f"batched policy lanes @ scale={args.scale} "
          f"(n={snapshot['workload']['length']}, "
          f"w={snapshot['parameters']['window']}, "
          f"batch={snapshot['parameters']['batch_size']})")
    for entry in snapshot["policies"]:
        floor = (f">= {snapshot['parameters']['min_policy_speedup']:.1f}x floor"
                 if entry["floor_enforced"] else "advisory")
        print(f"  {entry['policy']:<5} per-tuple "
              f"{entry['serial_ktuples_per_second']:>8.2f} k-tuples/s  "
              f"batched {entry['batched_ktuples_per_second']:>8.2f} k-tuples/s  "
              f"({entry['speedup']:.2f}x, {floor})")
    print(f"  batched_identical={snapshot['batched_identical']}")
    for line in snapshot["mismatches"]:
        print(f"  MISMATCH: {line}")
    for line in snapshot["floor_failures"]:
        print(f"  FLOOR: {line}")
    print(f"written to {path}")
    ok = snapshot["batched_identical"] and not snapshot["floor_failures"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
