"""One registry of counters and histograms per session.

:class:`MetricsRegistry` is the only counter store of a
:class:`~repro.api.session.Session` and of the daemon built on it
(``Session.metrics``): integer counters and windowed histograms, both
created on first use (``registry.inc("serve.submitted")``,
``registry.observe("serve.queue_wait_s", 0.01)``) and rendered by
:meth:`MetricsRegistry.snapshot` as one JSON-native dict.  Names are
dotted, lowercase, ``<layer>.<thing>[.<unit>]`` -- ``serve.queue_wait_s``,
``store.hits``, ``resilience.timeouts`` -- matching the span taxonomy
(see the Observability section in ``docs/ARCHITECTURE.md``); the
session's two work counters keep their bare historical names
(``characterizations``, ``jobs_run``).

:class:`CounterView` reads a fixed set of counters as attributes
(``Session.stats``, ``PopsServer.stats``).  :func:`session_metrics` and
:func:`serve_metrics` assemble the one combined schema that the serve
``metrics`` protocol op and ``pops status`` report: views over the
registry, plus the two surfaces that keep their own counters --
each ``BoundedCache``'s hits and misses (counted under the session
lock) and ``IncrementalSta.stats`` (counted per gate on the STA hot
path).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Mapping, Optional

#: Retained observations per histogram; summaries beyond this window are
#: computed over the most recent values (count/total stay exact).
HISTOGRAM_WINDOW = 4096


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
    """Thread-safe named counters (ints) and histograms.

    Both kinds are created on first use and live for the registry's
    lifetime; every update and read holds the one registry lock.  A
    name is a counter or a histogram, never both: reusing one as the
    other kind raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (``n=0`` declares it at 0)."""
        with self._lock:
            if name not in self._counters:
                _check_free(name, self._histograms)
            self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` on the histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                _check_free(name, self._counters)
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def counters(self, prefix: str = "") -> Dict[str, int]:
        """The counters whose names start with ``prefix``, sorted by name."""
        with self._lock:
            return {
                name: self._counters[name]
                for name in sorted(self._counters)
                if name.startswith(prefix)
            }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-native view of every counter and histogram.

        Returns ``{"counters": {name: int}, "histograms": {name:
        summary}}`` with names sorted for stable output.
        """
        with self._lock:
            return {
                "counters": {
                    name: self._counters[name] for name in sorted(self._counters)
                },
                "histograms": {
                    name: self._histograms[name].summary()
                    for name in sorted(self._histograms)
                },
            }


def _check_free(name: str, other: Dict[str, Any]) -> None:
    if name in other:
        raise ValueError(f"metric {name!r} already registered as another kind")


class CounterView:
    """Read-only attributes over registry counters; absent ones read 0.

    ``names`` maps each attribute to the counter it reads, in the order
    :meth:`as_dict` lists them.
    """

    __slots__ = ("_metrics", "_names")

    def __init__(self, metrics: MetricsRegistry, names: Mapping[str, str]) -> None:
        self._metrics = metrics
        self._names = dict(names)

    def __getattr__(self, attr: str) -> int:
        if attr.startswith("_"):  # unset slots (copy/pickle) stay errors
            raise AttributeError(attr)
        try:
            return self.as_dict()[attr]
        except KeyError:
            raise AttributeError(attr) from None

    def as_dict(self) -> Dict[str, int]:
        """Every attribute's current value."""
        counters = self._metrics.counters()
        return {attr: counters.get(name, 0) for attr, name in self._names.items()}


# -- the combined snapshots ---------------------------------------------


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
    sta: Dict[str, Any] = session.engine_stats()
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

    Adds the daemon's ``serve`` counters (with the derived coalescing
    ratio), queue depth and in-flight count, executor pool shape, the
    result store's counters, the executor's resilience state
    (retry/breaker/deadline configuration, ``resilience.*`` counters)
    and the lifecycle histograms (``serve.queue_wait_s``,
    ``serve.exec_s``).  Every counter here is read from the session's
    registry.
    """
    snap = session_metrics(server.session)
    serve: Dict[str, Any] = server.stats.as_dict()
    submitted = serve["submitted"]
    serve["coalescing_ratio"] = serve["coalesced"] / submitted if submitted else None
    serve["queue_depth"] = server.depth
    serve["inflight"] = len(server._inflight)
    serve["pools"] = server.executor.stats()
    snap["serve"] = serve
    snap["store"] = None if server.store is None else server.store.stats()
    snap["resilience"] = server.executor.resilience_stats()
    snap["timings"] = server.session.metrics.snapshot()["histograms"]
    return snap
