#!/usr/bin/env python3
"""Benchmark of the stream-join program, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pair-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced rounds with rounds in which every
layer's public functions are wrapped (see ``layers.py``) and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Timed rounds per run at the least, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: The reference loop's length, and its time on the reference host (the
#: host the benchmark was sized on, when uncontended).  Timings are
#: reported at that host's speed; see README.md, "Host and noise".
REFERENCE_ITERATIONS = 50_000
REFERENCE_LOOP_S = 0.0068

END_TO_END_UNITS = {
    "arrivals_per_s": "arrivals/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "recall": "ratio",
    "emit_p50_us": "us",
    "emit_p99_us": "us",
}

LAYER_UNITS = {
    "trace.overhead_pct": "%",
    "trace.wall_s": "s",
    "engine.self_s": "s",
    "engine.state_peak_kib": "KiB",
    "sources.pull_s": "s",
    "sources.ticks": "count",
    "sources.arrivals": "count",
    "batches.encode_s": "s",
    "batches.chunks": "count",
    "lanes.self_s": "s",
    "lanes.engaged_ratio": "ratio",
    **{f"lanes.calls.{fn}": "count" for fn in layers.LANE_FUNCTIONS},
    "kernel.probe_s": "s",
    "kernel.insert_s": "s",
    "kernel.expire_s": "s",
    "kernel.probe_calls": "count",
    "kernel.insert_calls": "count",
    "policies.victim_s": "s",
    "policies.victim_calls": "count",
    "policies.hook_s": "s",
    "policies.shed_ratio": "ratio",
    "stats.observe_s": "s",
    "stats.observe_calls": "count",
    "serve.emit_calls": "count",
    "serve.summary_calls": "count",
    "serve.sink_s": "s",
    "partition.split_s": "s",
    "partition.merge_s": "s",
    "partition.skew": "ratio",
    "runtime.map_s": "s",
    "runtime.worker_busy_s": "s",
    "runtime.wait_s": "s",
    "runtime.attempts": "count",
    "runtime.retries": "count",
    "obs.timeline_events": "count",
    "obs.heartbeats": "count",
    "obs.heartbeat_s": "s",
    "obs.spool_bytes": "bytes",
    "obs.merge_snapshot_s": "s",
}


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def bootstrap() -> None:
    """Put the checkout's program source first on ``sys.path``."""
    src = ROOT / "src"
    for required in (src / "repro" / "__init__.py", ROOT / "tests" / "reference_engine.py"):
        if not required.is_file():
            raise SystemExit(
                f"perfbench: {required.relative_to(ROOT)} not found; run from "
                "the root of a checkout of the repository"
            )
    sys.path[:0] = [str(src), str(ROOT)]


def host_fingerprint() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def purge_program_modules() -> None:
    for name in list(sys.modules):
        if name.split(".")[0] in ("repro", "tests"):
            del sys.modules[name]


def join_children() -> None:
    """Wait for every child process to end.  Shard pools shut down
    without waiting, so their workers may still be exiting."""
    for child in multiprocessing.active_children():
        child.join()


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

def reference_loop() -> float:
    """Seconds taken by a fixed loop of dict updates and list stores, the
    operations the engine's per-tuple paths are made of."""
    start = time.perf_counter()
    counts: dict = {}
    get = counts.get
    ring = [0] * 512
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 7919) % 50
        counts[key] = get(key, 0) + 1
        ring[i & 511] = key
    return time.perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two reference loops into
    the time on the reference host (``REFERENCE_LOOP_S`` per loop)."""
    return REFERENCE_LOOP_S / ((before + after) / 2.0)


class Outcome:
    """One checked ``api.run`` call."""

    __slots__ = ("call", "seconds", "scale", "signature", "problems", "latency")

    def __init__(self, call, seconds, signature, problems, latency):
        self.call = call
        self.seconds = seconds  # as measured
        self.scale = 1.0  # host_scale around the call
        self.signature = signature
        self.problems = problems
        self.latency = latency  # (p50, p99) seconds of streamed outputs

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.scale


def run_round(workload, state, *, around=None, on_result=None) -> list:
    """Run every call of one round; return their :class:`Outcome`\\ s.

    A reference loop runs before the first call and after each call, so
    every call is timed between two readings of the host's speed.  The
    reading after a call waits until the call's worker processes have
    ended, so they do not share the host with the loop.
    ``around(call)`` runs the call in place of ``call.run()`` (to trace
    or measure it); ``on_result(call, result)`` sees each result.
    """
    import numpy

    from workloads import signature

    outcomes = []
    gc.collect()
    before = reference_loop()
    for call in workload.calls(state):
        start = time.perf_counter()
        try:
            result = call.run() if around is None else around(call)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            seconds = time.perf_counter() - start
            problem = f"{call.label}: raised {type(exc).__name__}: {exc}"
            outcome = Outcome(call, seconds, None, [problem], None)
        else:
            seconds = time.perf_counter() - start
            if on_result is not None:
                on_result(call, result)
            latency = None
            samples = workload.emit_latencies(state)
            if samples is not None and len(samples):
                latency = tuple(float(v) for v in numpy.percentile(
                    numpy.frombuffer(samples), [50, 99]))
            outcome = Outcome(
                call, seconds, signature(result),
                workload.inspect(call.label, result, state), latency,
            )
            result = None  # let the collection below free it
        gc.collect()
        join_children()
        after = reference_loop()
        outcome.scale = host_scale(before, after)
        before = after
        outcomes.append(outcome)
    return outcomes


def round_rate(outcomes) -> float:
    """Arrivals per second of a round, at reference host speed."""
    return sum(o.call.arrivals for o in outcomes) / round_wall(outcomes)


def round_wall(outcomes) -> float:
    """Wall time of a round's calls, at reference host speed."""
    return sum(o.reference_seconds for o in outcomes)


def median_round(rounds) -> list:
    """The round whose wall time is the (lower) median."""
    return sorted(rounds, key=round_wall)[(len(rounds) - 1) // 2]


def timed_rounds(workload, state, seconds: float, *, interleave=None):
    """Warm up once, then run rounds for ``seconds`` (``MIN_ROUNDS`` at
    least); return the warm-up round and the timed rounds.  With
    ``interleave``, ``interleave()`` runs after each timed round (the
    traced run's traced rounds)."""
    warmup = run_round(workload, state)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, state))
        if interleave is not None:
            interleave()
    return warmup, rounds


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def check_all(outcomes, refs) -> tuple[int, int, list]:
    """``(attempted, failed, problems)`` over every call and the naive
    prefix replays."""
    from workloads import mismatches

    attempted = failed = 0
    problems: list = []
    for outcome in outcomes:
        attempted += 1
        found = list(outcome.problems)
        if outcome.signature is not None:
            found += mismatches(outcome.call.label, outcome.signature, refs)
        if found:
            failed += 1
            problems.extend(found)
    for label, engine_out, naive_out in refs.get("naive", ()):
        attempted += 1
        if engine_out != naive_out:
            failed += 1
            problems.append(
                f"{label}: {engine_out} on the naive prefix, reference engine "
                f"gives {naive_out}"
            )
    return attempted, failed, problems


def recall(outcomes, refs) -> float:
    """Mean over shedding calls of output / EXACT output on the same ticks."""
    exact = refs["exact_output"]
    ratios = {
        o.call.label: o.signature[0] / exact
        for o in outcomes
        if o.call.shedding and o.signature is not None
    }
    return statistics.fmean(ratios.values())


# ----------------------------------------------------------------------
# per-layer metrics of one traced round
# ----------------------------------------------------------------------

class LayerRound:
    """Collects what a traced round needs besides the tracer's spans."""

    def __init__(self, workload, state, tracer) -> None:
        self.workload = workload
        self.state = state
        self.tracer = tracer
        self.asked = 0
        self.engaged = 0
        self.shed = 0
        self.shed_arrivals = 0
        self.emits = 0
        self.summaries = 0
        self.busy = 0.0
        self.wait = 0.0
        self.attempts = 0
        self.retries = 0
        self.timeline_events = 0
        self.heartbeats = 0
        self.spool_bytes = 0
        self._lanes_before = 0

    def lane_calls(self) -> int:
        return sum(
            count for name, count in self.tracer.span_calls.items()
            if name.startswith("lanes.")
        )

    def before(self) -> None:
        self._lanes_before = self.lane_calls()
        self._map_before = self.tracer.inclusive_s.get("runtime.map", 0.0)

    def after(self, call, result) -> None:
        if call.batched:
            self.asked += 1
            self.engaged += self.lane_calls() > self._lanes_before
        if call.shedding:
            drops = result.drop_breakdown()
            self.shed += drops.rejected + drops.evicted
            self.shed_arrivals += call.arrivals
        sinks = self.state.get("sinks")
        if sinks is not None:
            self.emits += len(sinks.latencies)
            self.summaries += sinks.summaries
        timeline = getattr(result, "timeline", None)
        if timeline:
            self._runtime(result, timeline)
        telemetry_dir = self.state.get("telemetry_dir")
        if telemetry_dir is not None:
            for path in Path(telemetry_dir).iterdir():
                self.spool_bytes += path.stat().st_size
                path.unlink()

    def _runtime(self, result, timeline) -> None:
        starts = {}
        busiest = 0.0
        for event in timeline:
            if event.kind == "start":
                starts[(event.cell, event.attempt)] = event.ts
            elif event.kind == "finish" and (event.cell, event.attempt) in starts:
                busy = event.ts - starts[(event.cell, event.attempt)]
                self.busy += busy
                busiest = max(busiest, busy)
            elif event.kind == "heartbeat":
                self.heartbeats += 1
        self.timeline_events += len(timeline)
        map_s = self.tracer.inclusive_s.get("runtime.map", 0.0) - self._map_before
        self.wait += map_s - busiest
        self.attempts += sum(result.attempts)
        self.retries += sum(a - 1 for a in result.attempts)

    def metrics(self, wall: float, children: dict) -> dict:
        tracer = self.tracer
        self_s = dict(tracer.self_s)
        for layer, seconds in children["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        layer_calls = tracer.layer_calls + children["layer_calls"]
        span_calls = tracer.span_calls + children["span_calls"]
        counts = tracer.counts + children["counts"]
        out = {
            "trace.wall_s": wall,
            "engine.self_s": self_s.get("engine", 0.0),
            "sources.pull_s": self_s.get("sources", 0.0),
            "sources.ticks": counts["sources.ticks"],
            "sources.arrivals": counts["sources.arrivals"],
            "batches.encode_s": self_s.get("batches", 0.0),
            "batches.chunks": counts["batches.chunks"],
            "lanes.self_s": self_s.get("lanes", 0.0),
            "lanes.engaged_ratio": self.engaged / self.asked if self.asked else 0.0,
            "kernel.probe_s": self_s.get("kernel.probe", 0.0),
            "kernel.insert_s": self_s.get("kernel.insert", 0.0),
            "kernel.expire_s": self_s.get("kernel.expire", 0.0),
            "kernel.probe_calls": layer_calls["kernel.probe"],
            "kernel.insert_calls": layer_calls["kernel.insert"],
            "policies.victim_s": self_s.get("policies.victim", 0.0),
            "policies.victim_calls": layer_calls["policies.victim"],
            "policies.hook_s": self_s.get("policies.hooks", 0.0),
            "policies.shed_ratio": (
                self.shed / self.shed_arrivals if self.shed_arrivals else 0.0
            ),
            "stats.observe_s": self_s.get("stats.observe", 0.0),
            "stats.observe_calls": layer_calls["stats.observe"],
            "serve.emit_calls": self.emits,
            "serve.summary_calls": self.summaries,
            "serve.sink_s": self_s.get("serve", 0.0),
            "partition.split_s": self_s.get("partition.split", 0.0),
            "partition.merge_s": self_s.get("partition.merge", 0.0),
            "partition.skew": self.workload.shard_skew(self.state),
            "runtime.map_s": tracer.inclusive_s.get("runtime.map", 0.0),
            "runtime.worker_busy_s": self.busy,
            "runtime.wait_s": self.wait,
            "runtime.attempts": self.attempts,
            "runtime.retries": self.retries,
            "obs.timeline_events": self.timeline_events,
            "obs.heartbeats": self.heartbeats,
            "obs.heartbeat_s": self_s.get("obs.heartbeat", 0.0),
            "obs.spool_bytes": self.spool_bytes,
            "obs.merge_snapshot_s": self_s.get("obs.merge_snapshot", 0.0),
        }
        for fn in layers.LANE_FUNCTIONS:
            out[f"lanes.calls.{fn}"] = span_calls[f"lanes.{fn}"]
        return out


def traced_round(workload, state, tracer):
    """One round with every layer wrapped; returns (outcomes, metrics)."""
    from workloads import DriftSource, ServeSinks

    tracer.reset()
    collector = LayerRound(workload, state, tracer)

    def around(call):
        collector.before()
        with tracer.span(f"api.run[{call.label}]", "engine"):
            return call.run()

    harness = [(DriftSource, "__iter__"), (ServeSinks, "emit"),
               (ServeSinks, "on_summary"), (ServeSinks, "stop")]
    with layers.installed(tracer, harness=harness):
        outcomes = run_round(workload, state, around=around,
                             on_result=collector.after)
    children = tracer.absorb_children()
    measured = sum(o.seconds for o in outcomes)
    metrics = collector.metrics(measured, children)
    # Report times at reference host speed, like the end-to-end numbers;
    # one factor for the round keeps the layer times adding up.
    scale = round_wall(outcomes) / measured
    for name, unit in LAYER_UNITS.items():
        if unit == "s":
            metrics[name] *= scale
    return outcomes, metrics


def state_peak_kib(workload, state):
    """Largest tracemalloc peak of one call above its starting level, in
    KiB, from one extra round; returns (KiB, outcomes)."""
    import tracemalloc

    peaks = []

    def around(call):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call.run()
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return result

    # Streamed latencies are the benchmark's own allocation; count only.
    state["record_latencies"] = False
    tracemalloc.start()
    try:
        outcomes = run_round(workload, state, around=around)
    finally:
        tracemalloc.stop()
        state["record_latencies"] = True
    return max(peaks) / 1024.0, outcomes


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def timed_setups(workload, seed: int, ticks: int):
    """Set the workload up ``SETUP_REPEATS`` times, importing the program
    afresh each time; return the last state and each time taken, at
    reference host speed."""
    import numpy  # noqa: F401 - a dependency, warmed so it is not timed

    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        purge_program_modules()
        state = None
        gc.collect()
        before = reference_loop()
        start = time.perf_counter()
        state = workload.setup(seed, ticks)
        seconds = time.perf_counter() - start
        times.append(seconds * host_scale(before, reference_loop()))
    return state, times


def end_to_end(state, rounds, setup_times, rss_kib, refs) -> dict:
    """Metric values and the sample notes printed beside them."""
    import numpy

    timed = [o for r in rounds for o in r if o.signature is not None]
    rates = [round_rate(r) for r in rounds]
    raw = statistics.median(
        sum(o.call.arrivals for o in r) / sum(o.seconds for o in r) for r in rounds
    )
    values = {
        "arrivals_per_s": (
            statistics.median(rates),
            f"median of {len(rates)} rounds; {raw:.6g} as measured; "
            f"{state['ticks']} ticks per call, {len(rounds[0])} calls per round",
        ),
        "setup_s": (statistics.median(setup_times),
                    f"median of {len(setup_times)} set-ups"),
        "peak_rss_mb": (rss_kib / 1024.0, "ru_maxrss after the timed rounds"),
        "recall": (recall(timed, refs),
                   f"mean over {sum(1 for o in rounds[0] if o.call.shedding)} "
                   "shedding runs"),
    }
    streamed = [(o.latency, o.scale) for o in timed if o.latency is not None]
    if streamed:
        p50 = statistics.median(lat[0] * scale for lat, scale in streamed)
        p99 = statistics.median(lat[1] * scale for lat, scale in streamed)
        note = (f"median over {len(streamed)} calls of the call's percentile "
                "over its streamed outputs")
    else:
        per_label: dict = {}
        for o in timed:
            per_label.setdefault(o.call.label, []).append(o.reference_seconds)
        typical = [statistics.median(v) for v in per_label.values()]
        p50, p99 = numpy.percentile(typical, [50, 99])
        note = (f"over the {len(typical)} calls of a round (each its median "
                f"over {len(rounds)} rounds); a call delivers its result on return")
    values["emit_p50_us"] = (float(p50) * 1e6, note)
    values["emit_p99_us"] = (float(p99) * 1e6, note)
    return values


def layer_metrics(workload, state, seconds: float):
    """Alternate plain and traced rounds; return per-layer values and
    every outcome."""
    child_dir = Path(tempfile.mkdtemp(prefix="trace-"))
    tracer = layers.Tracer(child_dir)
    telemetry_dir = Path(tempfile.mkdtemp(prefix="telemetry-"))
    state["telemetry_dir"] = str(telemetry_dir)
    traced = []

    def interleave():
        traced.append(traced_round(workload, state, tracer))

    warmup, plain = timed_rounds(workload, state, seconds, interleave=interleave)
    peak_kib, peak_outcomes = state_peak_kib(workload, state)
    state["telemetry_dir"] = None
    shutil.rmtree(child_dir, ignore_errors=True)
    shutil.rmtree(telemetry_dir, ignore_errors=True)

    # The layer times of one traced round add up to its wall time, so
    # they all come from one round: the median one.
    typical = median_round([o for o, _ in traced])
    values = dict(next(m for o, m in traced if o is typical))
    plain_wall = statistics.median(round_wall(r) for r in plain)
    traced_wall = statistics.median(round_wall(o) for o, _ in traced)
    values["trace.overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
    values["engine.state_peak_kib"] = peak_kib
    outcomes = warmup + [o for r in plain for o in r]
    outcomes += [o for r, _ in traced for o in r] + peak_outcomes
    note = f"the median one of {len(traced)} traced rounds ({len(plain)} plain rounds)"
    return values, outcomes, note


def run_workload(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ticks = args.ticks or workload.ticks
    print("host: " + json.dumps(host_fingerprint()), flush=True)
    state, setup_times = timed_setups(workload, args.seed, ticks)

    if args.trace:
        values, outcomes, note = layer_metrics(workload, state, args.seconds)
        units = LAYER_UNITS
        notes = {name: note for name in values}
        notes["engine.state_peak_kib"] = "one extra round under tracemalloc"
    else:
        warmup, rounds = timed_rounds(workload, state, args.seconds)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        outcomes = warmup + [o for r in rounds for o in r]
        units = END_TO_END_UNITS
        refs = workload.references(state)
        measured = end_to_end(state, rounds, setup_times, rss_kib, refs)
        values = {name: value for name, (value, _) in measured.items()}
        notes = {name: note for name, (_, note) in measured.items()}

    if args.trace:
        refs = workload.references(state)
    attempted, failed, problems = check_all(outcomes, refs)
    for problem in problems[:20]:
        print(f"MISMATCH {problem}", flush=True)

    print(f"workload {workload.name}: seed {args.seed}, {ticks} ticks, "
          f"error_rate {failed / attempted} ({failed} of {attempted} checked "
          "calls failed)")
    for name, unit in units.items():
        print(f"  {name} = {values[name]!r} {unit}  ({notes[name]})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }), flush=True)
    return 0


# ----------------------------------------------------------------------
# every workload
# ----------------------------------------------------------------------

def run_all(args) -> int:
    """Run each workload in its own process (so peak RSS is its own)."""
    import workloads

    attempted = failed = 0
    correct = True
    metrics = {}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ticks:
            command += ["--ticks", str(args.ticks)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if completed.returncode != 0 or not lines:
            print(f"workload {name} exited with {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}/{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="one of: pair-default, stream-batched, "
                        "serve-drift, sharded-observed")
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced rounds")
    parser.add_argument("--ticks", type=int, default=None,
                        help="ticks per call (default: the workload's own)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.all:
        return run_all(args)
    # Temporary files (telemetry spools, trace hand-offs) stay inside
    # the checkout and go when the run ends.
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        return run_workload(args)
    finally:
        join_children()
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
