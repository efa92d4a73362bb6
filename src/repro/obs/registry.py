"""Metrics registry: counters, gauges, histograms, series, phase timers.

One :class:`MetricsRegistry` accompanies one run (or one experiment
suite).  Components on the hot path receive the registry — or ``None`` —
and record what they see:

* :class:`Counter` — monotone event counts (probes, evictions, relabels);
* :class:`Gauge` — last-written values (routed flow, final queue depth);
* :class:`Histogram` — streaming summaries (count/sum/min/max) of a
  distribution, e.g. augmenting-path lengths;
* :class:`Series` — append-only ``(t, value)`` traces, e.g. per-tick
  occupancy or queue depth;
* phase timers — nested wall-clock spans (see :mod:`repro.obs.timer`)
  aggregated per slash-separated path such as ``"engine/expire"``.

Instruments are identified by ``(name, labels)``; asking for the same
pair twice returns the same object, so callers can cache instruments in
locals outside their hot loops.

The disabled path
-----------------
Instrumentation must cost nothing when off.  Two mechanisms provide
that:

* callers treat ``metrics=None`` as "off" and guard with a single local
  ``is not None`` test (the engines do this);
* :data:`NULL_RECORDER` — a shared :class:`NullRecorder` — offers the
  full registry interface as no-ops for call sites that prefer not to
  branch.  Its instruments are singletons, its spans reusable, and
  ``NullRecorder.enabled`` is ``False`` so components can collapse it to
  ``None`` once at entry (``obs = metrics if metrics and metrics.enabled
  else None``).
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

#: Canonical key for an instrument: name plus sorted label pairs.
MetricKey = tuple


def _key(name: str, labels: dict) -> MetricKey:
    if not labels:
        return (name,)
    return (name,) + tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}, {self.labels}, {self.value})"


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}, {self.labels}, {self.value})"


class Histogram:
    """Streaming summary of a distribution: count, sum, min, max.

    A full sample reservoir would cost memory proportional to the run;
    the summary is enough for the mean and range the reports print.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, count: int, total: float, low, high) -> None:
        """Fold in another summary's ``count``/``sum``/``min``/``max``
        (``None`` extremes, as an empty summary has, change nothing)."""
        self.count += count
        self.sum += total
        if low is not None and (self.min is None or low < self.min):
            self.min = low
        if high is not None and (self.max is None or high > self.max):
            self.max = high

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Series:
    """Append-only ``(t, value)`` trace (occupancy, queue depth, ...)."""

    __slots__ = ("name", "labels", "points")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.points: list[tuple] = []

    def append(self, t, value) -> None:
        self.points.append((t, value))


class PhaseStat:
    """Aggregated wall-clock time of one span path."""

    __slots__ = ("path", "count", "seconds")

    def __init__(self, path: str) -> None:
        self.path = path
        self.count = 0
        self.seconds = 0.0

    def add(self, seconds: float, count: int = 1) -> None:
        self.count += count
        self.seconds += seconds


class _SpanContext:
    """Context manager recording one nested phase (see ``span``)."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        self._registry._span_stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        stack = self._registry._span_stack
        path = "/".join(stack)
        stack.pop()
        self._registry.record_phase(path, elapsed)


class MetricsRegistry:
    """Home of every instrument recorded during one run."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}
        self._series: dict[MetricKey, Series] = {}
        self._phases: dict[str, PhaseStat] = {}
        self._span_stack: list[str] = []

    # ------------------------------------------------------------------
    # instruments (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, labels)
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, labels)
        return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, labels)
        return instrument

    def series(self, name: str, **labels) -> Series:
        key = _key(name, labels)
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = Series(name, labels)
        return instrument

    def inc(self, name: str, amount: int = 1, **labels) -> None:
        """One-shot counter bump: ``registry.inc("runtime.retries")``.

        Sugar for call sites that touch a counter once (the runtime's
        failure accounting); hot loops should still cache the
        :class:`Counter` object from :meth:`counter`.
        """
        self.counter(name, **labels).inc(amount)

    # ------------------------------------------------------------------
    # phase timing
    # ------------------------------------------------------------------
    def span(self, name: str) -> _SpanContext:
        """Time a nested phase: ``with registry.span("engine"): ...``.

        Paths are built from the active span stack, so a span opened
        inside another records as ``"outer/inner"``.
        """
        return _SpanContext(self, name)

    def record_phase(self, path: str, seconds: float, count: int = 1) -> None:
        """Aggregate externally measured time under a phase path.

        The engines accumulate hot-loop section times into plain floats
        and flush them here once per run, keeping ``perf_counter`` calls
        out of the registry.
        """
        stat = self._phases.get(path)
        if stat is None:
            stat = self._phases[path] = PhaseStat(path)
        stat.add(seconds, count)

    # ------------------------------------------------------------------
    # access / export
    # ------------------------------------------------------------------
    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def all_series(self) -> Iterator[Series]:
        return iter(self._series.values())

    def phases(self) -> Iterator[PhaseStat]:
        return iter(self._phases.values())

    def counter_value(self, name: str, **labels) -> int:
        """Current value of a counter, 0 if it was never touched."""
        instrument = self._counters.get(_key(name, labels))
        return instrument.value if instrument is not None else 0

    def counter_total(self, name: str) -> int:
        """Sum of a counter over all label combinations."""
        return sum(c.value for c in self._counters.values() if c.name == name)

    def snapshot(self) -> dict:
        """JSON-serialisable dump of every instrument.

        Deterministically ordered (sorted by name, then labels) so
        snapshots diff cleanly; round-trips through
        :meth:`from_snapshot`.
        """

        def sort_key(instrument):
            return (instrument.name, sorted(instrument.labels.items()))

        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in sorted(self._counters.values(), key=sort_key)
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in sorted(self._gauges.values(), key=sort_key)
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min,
                    "max": h.max,
                }
                for h in sorted(self._histograms.values(), key=sort_key)
            ],
            "series": [
                {
                    "name": s.name,
                    "labels": dict(s.labels),
                    "points": [list(p) for p in s.points],
                }
                for s in sorted(self._series.values(), key=sort_key)
            ],
            "phases": [
                {"path": p.path, "count": p.count, "seconds": p.seconds}
                for p in sorted(self._phases.values(), key=lambda p: p.path)
            ],
        }

    def merge_snapshot(self, data: dict) -> None:
        """Fold a :meth:`snapshot` dump into this registry.

        The runtime layer uses this to aggregate worker-side metrics
        back into the parent registry: counters, phases, and histogram
        summaries accumulate; series points extend; gauges take the
        incoming value (last write wins).  Merging into a fresh registry
        reproduces the snapshot exactly (:meth:`from_snapshot`).
        """
        for entry in data.get("counters", ()):
            self.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in data.get("gauges", ()):
            self.gauge(entry["name"], **entry["labels"]).set(entry["value"])
        for entry in data.get("histograms", ()):
            self.histogram(entry["name"], **entry["labels"]).merge(
                entry["count"], entry["sum"], entry["min"], entry["max"]
            )
        for entry in data.get("series", ()):
            series = self.series(entry["name"], **entry["labels"])
            series.points.extend(tuple(point) for point in entry["points"])
        for entry in data.get("phases", ()):
            self.record_phase(entry["path"], entry["seconds"], entry["count"])

    @classmethod
    def from_snapshot(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        registry.merge_snapshot(data)
        return registry


# ----------------------------------------------------------------------
# the disabled fast path
# ----------------------------------------------------------------------

class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def append(self, t, value) -> None:
        pass


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Registry look-alike whose every operation is a no-op.

    ``enabled`` is ``False``; components that hold a registry reference
    across a hot loop should collapse it to ``None`` up front and guard
    with a local ``is not None`` test instead of calling through.
    """

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def inc(self, name: str, amount: int = 1, **labels) -> None:
        pass

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def series(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def record_phase(self, path: str, seconds: float, count: int = 1) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": [], "series": [], "phases": []}


#: Shared no-op recorder; safe to pass anywhere a registry is expected.
NULL_RECORDER = NullRecorder()


def active_or_none(metrics) -> Optional[MetricsRegistry]:
    """Collapse ``None`` / disabled recorders to ``None``.

    The engines call this once at run entry so their hot loops guard on
    a plain local instead of a method call.
    """
    if metrics is None or not metrics.enabled:
        return None
    return metrics
