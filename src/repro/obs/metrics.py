"""Named counters, gauges and histograms behind one snapshot schema.

:class:`MetricsRegistry` is the process-local metric store: instruments
are created on first use (``registry.counter("serve.jobs").inc()``) and
:meth:`MetricsRegistry.snapshot` renders everything as one JSON-native
dict.  Metric names are dotted, lowercase, ``<layer>.<thing>[.<unit>]``
-- ``serve.queue_wait_s``, ``sta.update`` -- matching the span taxonomy
(see the Observability section in ``docs/ARCHITECTURE.md``).

:func:`session_metrics` and :func:`serve_metrics` are the unification
layer over the stack's pre-existing ad-hoc stat surfaces
(``SessionStats``, ``BoundedCache.stats``, ``IncrementalSta.stats``,
``ServeStats`` / queue / store): they *read* those surfaces -- no public
field changes -- and assemble the one combined schema that the serve
``metrics`` protocol op and ``pops status`` report.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Optional

#: Retained observations per histogram; summaries beyond this window are
#: computed over the most recent values (count/total stay exact).
HISTOGRAM_WINDOW = 4096


def hit_rate(hits: int, misses: int) -> Optional[float]:
    """Hit fraction in ``[0, 1]``, or ``None`` before any lookups."""
    total = hits + misses
    if total == 0:
        return None
    return hits / total


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1)."""
        self.value += n


class Gauge:
    """A point-in-time value, overwritten on every set."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value


class Histogram:
    """Streaming distribution summary over observed floats.

    ``count`` and ``total`` are exact over the histogram's lifetime;
    quantiles come from a bounded window of the most recent
    :data:`HISTOGRAM_WINDOW` observations.
    """

    __slots__ = ("count", "total", "min", "max", "_window")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._window: Deque[float] = deque(maxlen=HISTOGRAM_WINDOW)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._window.append(value)

    def summary(self) -> Dict[str, Any]:
        """Count, total, min/max/mean and windowed p50/p90/p99."""
        out: Dict[str, Any] = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
        }
        if self._window:
            ordered = sorted(self._window)
            last = len(ordered) - 1
            for label, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
                out[label] = ordered[min(last, int(round(q * last)))]
        else:
            out["p50"] = out["p90"] = out["p99"] = None
        return out


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and histograms.

    Instruments are created lazily on first access and live for the
    registry's lifetime.  One name maps to one instrument kind; asking
    for the same name as a different kind raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, table: Dict[str, Any]) -> None:
        for other in (self._counters, self._gauges, self._histograms):
            if other is not table and name in other:
                raise ValueError(f"metric {name!r} already registered as another kind")

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created if absent."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_free(name, self._counters)
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created if absent."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_free(name, self._gauges)
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created if absent."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_free(name, self._histograms)
                instrument = self._histograms[name] = Histogram()
            return instrument

    # -- convenience ---------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Increment the counter ``name`` by ``n``."""
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` on the histogram ``name``."""
        self.histogram(name).observe(value)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-native view of every instrument.

        Returns ``{"counters": {name: int}, "gauges": {name: float},
        "histograms": {name: summary}}`` with names sorted for stable
        output.
        """
        with self._lock:
            return {
                "counters": {
                    name: self._counters[name].value
                    for name in sorted(self._counters)
                },
                "gauges": {
                    name: self._gauges[name].value for name in sorted(self._gauges)
                },
                "histograms": {
                    name: self._histograms[name].summary()
                    for name in sorted(self._histograms)
                },
            }


# -- unified snapshots over the pre-existing stat surfaces -------------


def session_metrics(session: Any) -> Dict[str, Any]:
    """One combined metrics view of a live :class:`repro.api.Session`.

    Reads (never mutates) the session's existing surfaces and returns::

        {
          "schema": 1,
          "session": {"counters": ..., "caches": {name: stats+hit_rate}},
          "sta":     {"engines": n, <summed IncrementalStats>,
                      "mean_cone_gates": ...},
        }
    """
    cache_stats = session.cache_stats()
    sta: Dict[str, Any] = {
        "engines": 0,
        "full_builds": 0,
        "updates": 0,
        "structure_refreshes": 0,
        "gates_reevaluated": 0,
        "cone_truncations": 0,
    }
    for engine in list(session._engines.values()):
        stats = engine.stats
        sta["engines"] += 1
        sta["full_builds"] += stats.full_builds
        sta["updates"] += stats.updates
        sta["structure_refreshes"] += stats.structure_refreshes
        sta["gates_reevaluated"] += stats.gates_reevaluated
        sta["cone_truncations"] += stats.cone_truncations
    sta["mean_cone_gates"] = (
        sta["gates_reevaluated"] / sta["updates"] if sta["updates"] else None
    )
    return {
        "schema": 1,
        "session": {
            "counters": cache_stats["counters"],
            "caches": cache_stats["caches"],
        },
        "sta": sta,
    }


def serve_metrics(server: Any) -> Dict[str, Any]:
    """The :func:`session_metrics` view extended with serve-layer state.

    Adds the daemon's job counters (with derived coalescing ratio),
    queue depth / in-flight gauges, executor pool shape, result-store
    counters, the executor's resilience state (retry/breaker/deadline
    configuration, ``resilience.*`` counters) and the server registry's
    lifecycle histograms (``serve.queue_wait_s``, ``serve.exec_s``).
    """
    snap = session_metrics(server.session)
    counters = server.stats.as_dict()
    submitted = counters.get("submitted", 0)
    coalesced = counters.get("coalesced", 0)
    serve: Dict[str, Any] = dict(counters)
    serve["coalescing_ratio"] = coalesced / submitted if submitted else None
    serve["queue_depth"] = server.queue.depth
    serve["inflight"] = len(server._inflight)
    serve["pools"] = server.executor.stats()
    snap["serve"] = serve
    snap["store"] = None if server.store is None else server.store.stats()
    snap["resilience"] = server.executor.resilience_stats()
    snap["timings"] = server.metrics.snapshot()["histograms"]
    return snap
