"""Per-layer tracing for the benchmark, from the benchmark's own code.

:class:`Tracer` keeps a stack of open spans.  Each span has a name, a
layer and a start; its parent is the span below it on the stack.  When
it closes, its duration is charged to its parent as child time, and its
*self time* (duration minus child time) to its layer.  The self times of
all layers therefore add up to the wall time of the outermost span.
Closed spans are folded into per-layer totals and not kept.

:func:`installed` wraps the public functions of each layer of ``repro``
where their callers look them up — a module attribute for functions the
engine imports at call time, a class attribute for methods — and
restores every original on exit, so untraced runs execute the program
exactly as shipped.

Sharded runs fork worker processes, which inherit the wrappers.  A
worker resets its copy of the tracer when a shard cell starts and writes
its per-layer totals to ``child_dir`` when the cell ends; the parent
folds them in with :meth:`Tracer.absorb_children`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

_ABSENT = object()

#: Lane functions of ``repro.core.batched`` (re-exported from
#: ``repro.core.batched_policies``); the engine imports them at call time.
LANE_FUNCTIONS = (
    "exact_chunk_counts",
    "exact_tick_counts",
    "exact_stream_counts",
    "rand_chunk_run",
    "prob_chunk_run",
    "life_chunk_run",
)


class Tracer:
    """Stack of open spans with per-layer self-time accounting."""

    def __init__(self, child_dir=None) -> None:
        self.owner_pid = os.getpid()
        self.child_dir = Path(child_dir) if child_dir is not None else None
        self.reset()

    def reset(self) -> None:
        self._stack: list = []  # [name, layer, start, child_seconds]
        self.self_s: defaultdict = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.span_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.inclusive_s: defaultdict = defaultdict(float)  # outermost spans

    # -- spans ---------------------------------------------------------
    def push(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def pop(self) -> None:
        end = time.perf_counter()
        name, layer, start, child = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.span_calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if parent is None or parent[1] != layer:
            self.layer_calls[layer] += 1
            self.inclusive_s[layer] += duration

    @contextmanager
    def span(self, name: str, layer: str):
        self.push(name, layer)
        try:
            yield
        finally:
            self.pop()

    # -- worker processes ----------------------------------------------
    def in_child(self) -> bool:
        return os.getpid() != self.owner_pid

    def dump_child(self) -> None:
        if self.child_dir is None:
            return
        path = self.child_dir / f"{os.getpid()}-{time.perf_counter_ns()}.json"
        path.write_text(json.dumps({
            "self_s": dict(self.self_s),
            "layer_calls": dict(self.layer_calls),
            "span_calls": dict(self.span_calls),
            "counts": dict(self.counts),
        }))

    def absorb_children(self) -> dict:
        """Fold (and delete) the totals written by worker processes;
        return them, keyed like the tracer's own fields."""
        merged = {"self_s": Counter(), "layer_calls": Counter(),
                  "span_calls": Counter(), "counts": Counter()}
        if self.child_dir is None:
            return merged
        for path in sorted(self.child_dir.glob("*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            for key, table in merged.items():
                table.update(data[key])
        return merged


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def _call_wrapper(tracer: Tracer, fn, name: str, layer: str):
    push = tracer.push
    pop = tracer.pop

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        push(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            pop()

    return wrapper


def _iter_wrapper(tracer: Tracer, fn, name: str, layer: str, count_events: bool):
    """Wrap a function returning an iterator: each ``next`` is a span."""
    push = tracer.push
    pop = tracer.pop
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            push(name, layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                pop()
            if count_events:
                counts["sources.ticks"] += 1
                counts["sources.arrivals"] += len(item[0]) + len(item[1])
            yield item

    return wrapper


def _counting_init(tracer: Tracer, fn, counter: str):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _cell_wrapper(tracer: Tracer, fn):
    """Shard-cell entry: in a worker, trace the cell in a fresh tracer
    and hand its totals to the parent through ``child_dir``."""

    @functools.wraps(fn)
    def wrapper(cell):
        if not tracer.in_child():
            return fn(cell)
        tracer.reset()
        try:
            return fn(cell)
        finally:
            tracer.dump_child()

    return wrapper


def _classes_defining(package, method: str, base=None) -> list:
    """Classes in ``package``'s modules that define ``method`` themselves."""
    import pkgutil
    import importlib

    found = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or method not in cls.__dict__:
                continue
            if base is not None and (cls is base or not issubclass(cls, base)):
                continue
            found.append(cls)
    return found


@contextmanager
def installed(tracer: Tracer, *, harness=()):
    """Wrap every layer's public functions for the duration of the block.

    ``harness`` lists ``(class, method)`` pairs of the benchmark's own
    code (an ``__iter__`` is timed per item), traced as layer ``serve``
    so their cost can be subtracted.
    """
    import repro.core.batched as batched
    import repro.core.kernel as kernel
    import repro.core.memory as memory
    import repro.core.partition as partition
    import repro.core.policies as policies
    import repro.obs.registry as registry
    import repro.obs.telemetry as telemetry
    import repro.runtime as runtime
    import repro.runtime.cells as cells
    import repro.stats as stats
    import repro.streams.batches as batches
    import repro.streams.sources as sources
    from repro.core.policies.base import EvictionPolicy

    patches = []  # (owner, attribute, replacement)

    def call(owner, attr, name, layer):
        wrapper = _call_wrapper(tracer, getattr(owner, attr), name, layer)
        patches.append((owner, attr, wrapper))

    for fn in LANE_FUNCTIONS:
        call(batched, fn, f"lanes.{fn}", "lanes")

    for cls in (sources.ZipfSource, sources.DriftingZipfSource, sources.PairSource):
        patches.append((cls, "__iter__", _iter_wrapper(
            tracer, cls.__iter__, "sources.pull", "sources", True)))
    for cls, attr in harness:
        name = f"serve.{cls.__name__}.{attr}"
        if attr == "__iter__":
            wrapper = _iter_wrapper(tracer, getattr(cls, attr), name, "serve", False)
        else:
            wrapper = _call_wrapper(tracer, getattr(cls, attr), name, "serve")
        patches.append((cls, attr, wrapper))

    call(batches, "_encode_column", "batches.encode_column", "batches")
    patches.append((batches, "encode_chunks", _iter_wrapper(
        tracer, batches.encode_chunks, "batches.encode_chunks", "batches", False)))
    patches.append((batches.StreamChunk, "__init__", _counting_init(
        tracer, batches.StreamChunk.__init__, "batches.chunks")))

    for attr in ("probe", "probe_batch"):
        call(kernel.JoinKernel, attr, f"kernel.{attr}", "kernel.probe")
    for attr in ("insert", "insert_batch", "shed_surplus"):
        call(kernel.JoinKernel, attr, f"kernel.{attr}", "kernel.insert")
    for attr in ("expire", "retire"):
        call(kernel.JoinKernel, attr, f"kernel.{attr}", "kernel.expire")
    for attr in ("match_count", "match_total"):
        call(memory.StreamMemory, attr, f"memory.{attr}", "kernel.probe")
    for attr in ("add", "add_batch", "remove"):
        call(memory.StreamMemory, attr, f"memory.{attr}", "kernel.insert")
    call(memory.StreamMemory, "expire_until", "memory.expire_until", "kernel.expire")

    # Only classes that define a method get it wrapped, so the identity
    # checks the engine makes on overridden hooks still hold.
    for cls in _classes_defining(policies, "choose_victim", EvictionPolicy):
        call(cls, "choose_victim", f"policies.{cls.__name__}.choose_victim",
             "policies.victim")
    for hook in ("on_admit", "on_remove", "observe_arrival"):
        for cls in _classes_defining(policies, hook, EvictionPolicy):
            call(cls, hook, f"policies.{cls.__name__}.{hook}", "policies.hooks")
    for cls in _classes_defining(stats, "observe"):
        if not inspect.isabstract(cls):
            call(cls, "observe", f"stats.{cls.__name__}.observe", "stats.observe")

    for attr in ("shard_batches", "shard_source", "plan_shards"):
        call(partition, attr, f"partition.{attr}", "partition.split")
    call(partition, "merge_shard_results", "partition.merge_shard_results",
         "partition.merge")
    call(runtime, "parallel_map", "runtime.parallel_map", "runtime.map")
    cell = _cell_wrapper(tracer, cells.run_shard_cell)
    # Pickle sends the cell function by reference, so both names must be
    # the wrapper for a worker to resolve it.
    patches.append((cells, "run_shard_cell", cell))
    patches.append((runtime, "run_shard_cell", cell))
    call(registry.MetricsRegistry, "merge_snapshot", "obs.merge_snapshot",
         "obs.merge_snapshot")
    call(telemetry, "maybe_heartbeat", "obs.maybe_heartbeat", "obs.heartbeat")

    with patched(patches):
        yield tracer


@contextmanager
def patched(patches):
    """Set each ``(owner, attribute, value)``; restore the originals on exit."""
    originals = []
    try:
        for owner, attr, value in patches:
            originals.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, raw in reversed(originals):
            if raw is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


def lane_delay(seconds: float):
    """Patch that makes every ``prob_chunk_run`` call ``seconds`` slower.

    The benchmark's tests inject it to check that a slower lane shows up
    in ``lanes.self_s`` and in ``stream-batched``'s ``arrivals_per_s``.
    """
    import repro.core.batched as batched

    original = batched.prob_chunk_run

    @functools.wraps(original)
    def slower(*args, **kwargs):
        result = original(*args, **kwargs)
        time.sleep(seconds)
        return result

    return patched([(batched, "prob_chunk_run", slower)])
