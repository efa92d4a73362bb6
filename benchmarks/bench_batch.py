"""Write BENCH_batch.json: columnar-batch throughput + identity check.

Runs the EXACT workload of ``BENCH_engine.json`` (``ci`` scale: n=2000,
w=100) two ways on the fast-CPU engine — per-tuple, on the kernel loop
(:func:`per_tuple_run`, ``force_general``), and through the columnar
micro-batch lane, which ``run`` takes by default — with the timings
interleaved per round (see ``snapshot._interleaved_best``), and records:

* the per-tuple and batched throughputs plus their ratio (``speedup``),
  the number the regression gate holds to the ``>= 1.5x`` floor the
  batched lane exists to clear;
* the part that gates strictly: whether every batched run reproduced
  the per-tuple result **bit-identically** — output count, total
  output, drop ledger, survival departures, and metrics totals for
  EXACT across batch sizes; output/ledger for each shedding policy
  (RAND/PROB/LIFE take the vectorized lanes of
  ``repro.core.batched_policies`` — gated separately by
  ``bench_policy_batch.py`` — while ARM has no lane and runs the kernel
  loop on both sides); sharded EXACT with ``batch_size`` set.

The committed ``BENCH_batch.json`` at the repository root is the
reference point; ``make bench-gate`` rebuilds the snapshot and fails on
identity drift, deterministic-count drift, or a speedup below the
floor.

Run:  python benchmarks/bench_batch.py [--scale ci] [--repeats 7]
                                       [--out BENCH_batch.json]
Or:   make bench-batch
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

from snapshot import _interleaved_best  # noqa: E402 - sibling module

from repro.api import RunSpec, build_pair, run  # noqa: E402
from repro.experiments.config import DEFAULT_DOMAIN, SCALES, even_memory  # noqa: E402
from repro.experiments.runner import run_algorithm  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.streams.batches import DEFAULT_BATCH_SIZE, HAVE_NUMPY  # noqa: E402

SEED = 0
#: Batched EXACT must beat per-tuple EXACT by at least this factor.
MIN_SPEEDUP = 1.5
#: Chunk sizes the identity sweep crosses (plus the whole stream).
IDENTITY_BATCH_SIZES = (1, 7, 64, DEFAULT_BATCH_SIZE)
#: Shedding policies whose lanes must reproduce the kernel loop: the
#: static-table ones take the vectorized policy lanes (timed and floor-
#: gated by ``bench_policy_batch.py``); ARM has no lane.
SHEDDING_POLICIES = ("RAND", "PROB", "PROBV", "LIFE", "ARM")


def per_tuple_run(spec: RunSpec, pair):
    """``spec`` on ``pair`` through the engine's per-tuple kernel loop
    (``force_general``): the side the lanes are timed and checked
    against, since ``run(spec)`` takes a lane wherever one applies."""
    return run_algorithm(
        spec.algorithm, pair, spec.window, spec.memory, seed=spec.seed,
        track_survival=True, force_general=True,
        metrics=MetricsRegistry() if spec.metrics else None,
    )


def _comparable_metrics(snapshot):
    """Metrics snapshot minus wall-clock phases (timing is not identity)."""
    if snapshot is None:
        return None
    return {k: v for k, v in snapshot.items() if k != "phases"}


def _check_identity(mismatches, label, batched, baseline, *, metrics=False):
    if batched.output_count != baseline.output_count:
        mismatches.append(
            f"{label}: output {batched.output_count} "
            f"!= per-tuple {baseline.output_count}"
        )
    if batched.total_output_count != baseline.total_output_count:
        mismatches.append(
            f"{label}: total output {batched.total_output_count} "
            f"!= per-tuple {baseline.total_output_count}"
        )
    if batched.drop_counts != baseline.drop_counts:
        mismatches.append(
            f"{label}: drop ledger {batched.drop_counts} "
            f"!= per-tuple {baseline.drop_counts}"
        )
    if metrics and _comparable_metrics(batched.metrics) != _comparable_metrics(
        baseline.metrics
    ):
        mismatches.append(f"{label}: metrics totals differ from per-tuple")


def build_batch_snapshot(scale_name: str, repeats: int, seed: int) -> dict:
    scale = SCALES[scale_name]
    length = max(scale.stream_length, 2000)
    window = max(scale.window, 100)
    memory = even_memory(window, 0.5)

    def spec(algorithm="EXACT", **overrides):
        return RunSpec(
            algorithm=algorithm, window=window, memory=memory,
            length=length, domain=DEFAULT_DOMAIN, seed=seed, **overrides,
        )

    pair = build_pair(spec())

    # -- throughput: per-tuple vs batched EXACT, interleaved ------------
    per_tuple_run(spec(), pair)  # warm up allocator/caches outside timing
    run(spec(batch_size=DEFAULT_BATCH_SIZE), pair=pair)
    best, results = _interleaved_best(repeats, {
        "serial": lambda: per_tuple_run(spec(), pair),
        "batched": lambda: run(
            spec(batch_size=DEFAULT_BATCH_SIZE), pair=pair
        ),
    })
    serial_seconds, batched_seconds = best["serial"], best["batched"]
    serial_ktps = length / serial_seconds / 1000
    batched_ktps = length / batched_seconds / 1000
    speedup = serial_seconds / batched_seconds

    mismatches: list[str] = []
    baseline = results["serial"]
    _check_identity(
        mismatches, f"EXACT batch={DEFAULT_BATCH_SIZE}",
        results["batched"], baseline,
    )
    if results["batched"].r_departures != baseline.r_departures or (
        results["batched"].s_departures != baseline.s_departures
    ):
        mismatches.append(
            f"EXACT batch={DEFAULT_BATCH_SIZE}: survival departures differ"
        )

    # -- identity sweep: EXACT across chunk sizes, with metrics --------
    exact_metrics = per_tuple_run(spec(metrics=True), pair)
    for batch_size in IDENTITY_BATCH_SIZES:
        batched = run(spec(metrics=True, batch_size=batch_size), pair=pair)
        _check_identity(
            mismatches, f"EXACT batch={batch_size}",
            batched, exact_metrics, metrics=True,
        )

    # -- policy identity: every shedding policy, two chunk sizes -------
    for name in SHEDDING_POLICIES:
        policy_baseline = per_tuple_run(spec(name), pair)
        for batch_size in (7, DEFAULT_BATCH_SIZE):
            batched = run(spec(name, batch_size=batch_size), pair=pair)
            _check_identity(
                mismatches, f"{name} batch={batch_size}",
                batched, policy_baseline,
            )

    # -- sharded identity: batch_size must be invisible under shards ---
    sharded_baseline = run(spec(shards=4), pair=pair)
    sharded_batched = run(spec(shards=4, batch_size=64), pair=pair)
    _check_identity(
        mismatches, "EXACT shards=4 batch=64",
        sharded_batched, sharded_baseline,
    )
    if sharded_baseline.output_count != baseline.output_count:
        mismatches.append(
            f"EXACT shards=4: output {sharded_baseline.output_count} "
            f"!= unsharded {baseline.output_count}"
        )

    return {
        "benchmark": "batch_throughput",
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
            "min_speedup": MIN_SPEEDUP,
        },
        "python": sys.version.split()[0],
        "numpy": HAVE_NUMPY,
        "serial_ktuples_per_second": round(serial_ktps, 2),
        "batched_ktuples_per_second": round(batched_ktps, 2),
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(speedup, 2),
        "batched_identical": not mismatches,
        "mismatches": mismatches,
        "counts": {
            "exact_output": baseline.output_count,
            "exact_total_output": baseline.total_output_count,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci", choices=sorted(SCALES))
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_batch.json"),
        help="where to write the snapshot",
    )
    args = parser.parse_args()

    snapshot = build_batch_snapshot(args.scale, args.repeats, args.seed)
    path = Path(args.out)
    path.write_text(json.dumps(snapshot, indent=2) + "\n")

    print(f"batched EXACT @ scale={args.scale} "
          f"(n={snapshot['workload']['length']}, "
          f"w={snapshot['parameters']['window']}, "
          f"batch={snapshot['parameters']['batch_size']})")
    print(f"  per-tuple {snapshot['serial_ktuples_per_second']:>8.2f} k-tuples/s")
    print(f"  batched   {snapshot['batched_ktuples_per_second']:>8.2f} k-tuples/s "
          f"({snapshot['speedup']:.2f}x)")
    print(f"  batched_identical={snapshot['batched_identical']}")
    for line in snapshot["mismatches"]:
        print(f"  MISMATCH: {line}")
    print(f"written to {path}")
    return 0 if snapshot["batched_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
