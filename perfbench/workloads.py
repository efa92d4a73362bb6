"""The benchmark's four workloads and the references their outputs are
checked against.

Every workload is a closed loop with one client: the engine pulls tick
t+1 only after it has finished tick t, so there is no input queue and
throughput at the stated input size is the system's capacity.  All four
join Zipf(z=1) keys over a domain of 50 with window w=400 and memory
M=200 (half of the lossless 2w), and drive the public ``repro.api.run``.

R and S always share one frequency ranking (``correlation="correlated"``).
With independent rankings the seed decides how the hot keys of the two
streams line up, and the join size on 40k ticks ranged from 0.42M to
1.84M over ten seeds; the run-to-run spread would measure the seed, not
the code.  With a shared ranking it stays within 1%.

A workload is built in two steps.  :meth:`Workload.setup` imports the
program and builds inputs and specs (timed as ``setup_s``);
:meth:`Workload.calls` lists the ``api.run`` calls of one round.
References come from :meth:`Workload.references`, through code paths
other than the one under test, once per seed and outside the timed
region.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, NamedTuple

WINDOW = 400
MEMORY = 200
DOMAIN = 50
SKEW = 1.0
BATCH_SIZE = 4096
DRIFT_PHASE = 10_000
SUMMARY_EVERY = 5000
SHARDS = 2
WORKERS = 2

ALGORITHMS = ("EXACT", "RAND", "PROB", "PROBV", "LIFE")
SHARDED_ALGORITHMS = ("EXACT", "PROB")

#: Prefix length on which PROB/PROBV/LIFE are replayed through the naive
#: reference engine (O(ticks * (w + M)), ~9 s per 50k ticks at full length).
NAIVE_TICKS = 3000

#: Pull stamps kept by :class:`DriftSource`; a tick's stamp must
#: outlive every output of that tick, so this exceeds any batch size.
STAMP_RING = 1 << 16


def _base() -> dict:
    return dict(window=WINDOW, memory=MEMORY, domain=DOMAIN, skew=SKEW,
                correlation="correlated")


def signature(result) -> tuple:
    """What two runs of one configuration must agree on."""
    drops = result.drop_breakdown()
    return (
        result.output_count,
        result.total_output_count,
        drops.rejected,
        drops.evicted,
        drops.expired,
    )


class Call(NamedTuple):
    """One timed ``api.run`` call of a round."""

    label: str
    run: Callable
    arrivals: int
    shedding: bool
    batched: bool  # asked for batch_size, so a lane may serve it


class Workload:
    name = ""
    ticks = 0

    def setup(self, seed: int, ticks: int):
        raise NotImplementedError

    def calls(self, state) -> list:
        raise NotImplementedError

    def references(self, state) -> dict:
        """``label -> [(kind, expected, reference name)]``, where ``kind``
        is ``"signature"`` (compare :func:`signature`) or ``"output"``
        (the output count only); plus ``"exact_output"``, the EXACT
        output on the same ticks (for recall), and ``"naive"``, prefix
        checks as ``(label, engine_output, naive_output)`` triples."""
        raise NotImplementedError

    def inspect(self, label: str, result, state) -> list:
        """Problems visible right after a call, before references exist."""
        return []

    def emit_latencies(self, state):
        """Per-output latencies (s) of the last call, if it streams them."""
        return None

    def shard_skew(self, state) -> float:
        """Largest shard's arrivals over the mean (0 when unsharded)."""
        return 0.0


def mismatches(label: str, observed: tuple, refs: dict) -> list:
    """Where one call's :func:`signature` disagrees with its references."""
    problems = []
    for kind, expected, reference in refs[label]:
        got = observed if kind == "signature" else observed[0]
        if got != expected:
            problems.append(f"{label}: got {got}, {reference} gives {expected}")
    return problems


def _naive_prefix_checks(api, pair, algorithms, ticks):
    """Replay a prefix through the engine and the naive reference engine."""
    from tests.reference_engine import naive_run

    from repro.experiments.runner import estimators_for
    from repro.streams.tuples import StreamPair

    prefix = StreamPair(r=list(pair.r[:ticks]), s=list(pair.s[:ticks]))
    estimators = estimators_for(prefix)
    checks = []
    for algorithm in algorithms:
        variable = algorithm.endswith("V")
        kind = algorithm.rstrip("V")
        engine_out = api.run(
            api.RunSpec(algorithm=algorithm, length=ticks, **_base()),
            pair=prefix, estimators=estimators,
        ).output_count
        naive_out = naive_run(
            prefix, WINDOW, MEMORY, kind, estimators, variable=variable
        )
        checks.append((algorithm, engine_out, naive_out))
    return checks


def _source_estimators(source) -> dict:
    """The oracle tables ``api.run`` builds for a generator source."""
    from repro.stats.frequency import StaticFrequencyTable

    dist_r, dist_s = source.distributions()
    return {
        "R": StaticFrequencyTable.from_array(dist_r.probabilities()),
        "S": StaticFrequencyTable.from_array(dist_s.probabilities()),
    }


# ----------------------------------------------------------------------

class PairDefault(Workload):
    name = "pair-default"
    ticks = 40_000

    def setup(self, seed, ticks):
        from repro import api

        pair = api.build_pair(api.RunSpec(length=ticks, seed=seed, **_base()))
        specs = {
            algorithm: api.RunSpec(
                algorithm=algorithm, length=ticks, seed=seed, **_base()
            )
            for algorithm in ALGORITHMS
        }
        return {"api": api, "pair": pair, "specs": specs, "ticks": ticks}

    def calls(self, state):
        run, pair = state["api"].run, state["pair"]
        arrivals = 2 * state["ticks"]
        return [
            Call(algorithm, lambda spec=spec: run(spec, pair=pair), arrivals,
                 shedding=algorithm != "EXACT", batched=False)
            for algorithm, spec in state["specs"].items()
        ]

    def references(self, state):
        from dataclasses import replace

        from repro.streams.tuples import exact_join_size

        api, pair = state["api"], state["pair"]
        exact = exact_join_size(pair, WINDOW, count_from=2 * WINDOW)
        refs = {"EXACT": [("output", exact, "exact_join_size")],
                "exact_output": exact}
        # Shedding runs: the columnar lane on the same pair, a different
        # implementation of the same decisions (bit-identical by contract).
        for algorithm, spec in state["specs"].items():
            if algorithm != "EXACT":
                lane = api.run(replace(spec, batch_size=BATCH_SIZE), pair=pair)
                refs[algorithm] = [("signature", signature(lane), "batched lane")]
        refs["naive"] = _naive_prefix_checks(
            api, pair, ("PROB", "PROBV", "LIFE"), min(NAIVE_TICKS, state["ticks"])
        )
        return refs


class StreamBatched(Workload):
    name = "stream-batched"
    ticks = 40_000

    def setup(self, seed, ticks):
        from repro import api
        from repro.streams.sources import ZipfSource

        specs = {
            algorithm: api.RunSpec(
                algorithm=algorithm,
                seed=seed,
                source=ZipfSource(DOMAIN, SKEW, correlation="correlated",
                                  seed=seed),
                duration=ticks,
                batch_size=BATCH_SIZE,
                **_base(),
            )
            for algorithm in ALGORITHMS
        }
        return {"api": api, "specs": specs, "ticks": ticks, "seed": seed}

    def calls(self, state):
        run = state["api"].run
        arrivals = 2 * state["ticks"]
        return [
            Call(algorithm, lambda spec=spec: run(spec), arrivals,
                 shedding=algorithm != "EXACT", batched=True)
            for algorithm, spec in state["specs"].items()
        ]

    def references(self, state):
        from dataclasses import replace

        from repro.streams.sources import ZipfSource, take_pair
        from repro.streams.tuples import exact_join_size

        api, ticks = state["api"], state["ticks"]
        pair = take_pair(
            ZipfSource(DOMAIN, SKEW, correlation="correlated", seed=state["seed"]),
            ticks,
        )
        exact = exact_join_size(pair, WINDOW, count_from=2 * WINDOW)
        refs = {"exact_output": exact}
        # The same spec on the materialized pair: the per-tuple pair path.
        for algorithm, spec in state["specs"].items():
            pair_spec = replace(spec, source=None, duration=None,
                                batch_size=None, length=ticks)
            ref = api.run(pair_spec, pair=pair,
                          estimators=_source_estimators(spec.source))
            refs[algorithm] = [("signature", signature(ref), "pair path")]
        refs["EXACT"].append(("output", exact, "exact_join_size"))
        return refs


class DriftSource:
    """Zipf arrivals whose frequent values change every ``DRIFT_PHASE``
    ticks, with R and S sharing one ranking in every phase.

    Each phase is a bounded, correlated ``repro`` :class:`ZipfSource`
    with a seed of its own.  ``DriftingZipfSource`` would draw an
    independent ranking per side and phase, which makes the join size of
    a 40k-tick run vary by 29% (quartile spread) between seeds.  The pull
    time of every tick is stamped for the emit-latency measurement.
    """

    unit_rate = True

    def __init__(self, seed: int, length: int) -> None:
        self.seed = seed
        self.length = length
        self.name = f"drift(d={DOMAIN}, z={SKEW}, phase={DRIFT_PHASE}, seed={seed})"
        self.stamps = array("d", bytes(8 * STAMP_RING))

    def phases(self):
        from repro.streams.sources import ZipfSource

        for phase, start in enumerate(range(0, self.length, DRIFT_PHASE)):
            yield ZipfSource(
                DOMAIN, SKEW, correlation="correlated",
                seed=self.seed * 1_000_003 + phase,
                length=min(DRIFT_PHASE, self.length - start),
            )

    def __iter__(self):
        stamps = self.stamps
        clock = time.perf_counter
        mask = STAMP_RING - 1
        t = 0
        for phase in self.phases():
            for event in phase:
                stamps[t & mask] = clock()
                t += 1
                yield event


class ServeSinks:
    """``emit`` / ``on_summary`` / ``stop`` wired as ``repro serve`` wires
    them, recording each output's latency from the pull of its later tick."""

    def __init__(self, source: DriftSource, *, record: bool = True) -> None:
        self.source = source
        self.latencies = array("d")
        self.emitted = 0
        self.summaries = 0
        self.stopping = False
        self.record = record

    def emit(self, result) -> None:
        if not self.record:
            self.emitted += 1
            return
        tick = result.r_arrival if result.r_arrival > result.s_arrival else result.s_arrival
        self.latencies.append(
            time.perf_counter() - self.source.stamps[tick & (STAMP_RING - 1)]
        )

    def on_summary(self, summary) -> None:
        self.summaries += 1

    def stop(self) -> bool:
        return self.stopping


class ServeDrift(Workload):
    name = "serve-drift"
    ticks = 20_000

    def setup(self, seed, ticks):
        from repro import api

        source = DriftSource(seed, ticks)
        spec = api.RunSpec(
            algorithm="PROB",
            seed=seed,
            source=source,
            duration=ticks,
            estimator="ewma",
            batch_size=BATCH_SIZE,
            **_base(),
        )
        return {"api": api, "spec": spec, "source": source, "ticks": ticks,
                "seed": seed, "sinks": None, "record_latencies": True}

    def calls(self, state):
        run, spec = state["api"].run, state["spec"]

        def serve():
            sinks = state["sinks"] = ServeSinks(
                state["source"], record=state["record_latencies"]
            )
            return run(
                spec,
                emit=sinks.emit,
                on_summary=sinks.on_summary,
                on_summary_every=SUMMARY_EVERY,
                stop=sinks.stop,
            )

        return [Call("PROB", serve, 2 * state["ticks"], shedding=True,
                     batched=True)]

    def references(self, state):
        from dataclasses import replace

        from repro.streams.sources import take_pair
        from repro.streams.tuples import exact_join_size

        api, ticks = state["api"], state["ticks"]
        pair = take_pair(DriftSource(state["seed"], ticks), ticks)
        # The same spec on the materialized pair: the per-tuple pair path
        # with the online estimator fed as an arrival observer.
        ref = api.run(
            replace(state["spec"], source=None, duration=None,
                    batch_size=None, length=ticks),
            pair=pair,
        )
        return {
            "PROB": [("signature", signature(ref), "pair path")],
            "exact_output": exact_join_size(pair, WINDOW, count_from=2 * WINDOW),
        }

    def emit_latencies(self, state):
        sinks = state["sinks"]
        return sinks.latencies if sinks.record else None

    def inspect(self, label, result, state):
        sinks = state["sinks"]
        emits = len(sinks.latencies) if sinks.record else sinks.emitted
        if emits != result.output_count:
            return [f"{label}: emitted {emits} outputs, result reports "
                    f"{result.output_count}"]
        return []


def ranked_pair(seed: int, ticks: int):
    """A correlated Zipf pair whose value of rank k is k for every seed.

    Shards split keys by residue, so under a seed-drawn ranking the seed
    would decide which shard gets the hottest key (about a fifth of all
    arrivals) and with it the slowest shard.  A fixed ranking keeps the
    shard skew, and so the sharded wall time, the same for every seed.
    """
    import numpy as np

    from repro.streams.tuples import StreamPair
    from repro.streams.zipf import ZipfDistribution

    dist = ZipfDistribution(DOMAIN, SKEW)
    rng = np.random.default_rng(seed)
    return StreamPair(
        r=dist.sample(ticks, rng).tolist(),
        s=dist.sample(ticks, rng).tolist(),
        name=f"ranked-zipf(d={DOMAIN}, z={SKEW}, seed={seed})",
        metadata={"r_distribution": dist, "s_distribution": dist},
    )


class ShardedObserved(Workload):
    name = "sharded-observed"
    # A round's time varies more here than on the one-process workloads
    # (the two workers run on every core), so calls are kept short enough
    # for a run to hold about a dozen rounds.
    ticks = 25_000

    def setup(self, seed, ticks):
        from repro import api

        pair = ranked_pair(seed, ticks)
        specs = {
            algorithm: api.RunSpec(
                algorithm=algorithm, length=ticks, seed=seed, shards=SHARDS,
                metrics=True, telemetry=True, **_base(),
            )
            for algorithm in SHARDED_ALGORITHMS
        }
        return {"api": api, "pair": pair, "specs": specs, "ticks": ticks,
                "telemetry_dir": None}

    def calls(self, state):
        from dataclasses import replace

        run, pair = state["api"].run, state["pair"]
        arrivals = 2 * state["ticks"]

        def sharded(spec):
            if state["telemetry_dir"] is not None:
                spec = replace(spec, telemetry_dir=state["telemetry_dir"])
            return run(spec, pair=pair, workers=WORKERS)

        return [
            Call(algorithm, lambda spec=spec: sharded(spec), arrivals,
                 shedding=algorithm != "EXACT", batched=False)
            for algorithm, spec in state["specs"].items()
        ]

    def shard_skew(self, state):
        from repro.core.partition import shard_input_counts

        sizes = [sum(shard_input_counts(state["pair"], shard, SHARDS))
                 for shard in range(SHARDS)]
        return max(sizes) * len(sizes) / sum(sizes)

    def references(self, state):
        from dataclasses import replace

        from repro.streams.tuples import exact_join_size

        api, pair = state["api"], state["pair"]
        exact = exact_join_size(pair, WINDOW, count_from=2 * WINDOW)
        unsharded = api.run(replace(state["specs"]["EXACT"], shards=1,
                                    metrics=False, telemetry=False), pair=pair)
        refs = {
            "EXACT": [("signature", signature(unsharded), "unsharded run"),
                      ("output", exact, "exact_join_size")],
            "exact_output": exact,
        }
        # PROB: the same shards run serially in-process, without metrics
        # or telemetry (no pool, no spools, no registry merge).
        serial = api.run(
            replace(state["specs"]["PROB"], metrics=False, telemetry=False),
            pair=pair, workers=1,
        )
        refs["PROB"] = [("signature", signature(serial), "serial shards")]
        return refs


WORKLOADS = {w.name: w for w in (PairDefault(), StreamBatched(), ServeDrift(),
                                 ShardedObserved())}
