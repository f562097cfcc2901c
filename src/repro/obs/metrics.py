"""Process-safe metrics registry: counters, gauges, histograms.

A :class:`MetricsRegistry` accumulates named metrics during a sweep,
mission, or fault campaign:

* **counters** — monotonically accumulated totals (``engine.solves``,
  ``engine.cache_hits``, ``mission.overruns``, per-arch energy totals);
* **gauges** — last-written values (``engine.jobs``, configuration
  echoes);
* **histograms** — value distributions kept as count / sum / min / max
  plus fixed log-decade bucket counts (solve latencies, per-cell priced
  latency and energy).

Process safety comes from the collation path, not from shared memory:
worker processes return plain records (kernel profiles, mission cell
dicts), and the parent derives or merges metrics **in canonical cell
order** while collating.  Because collation order is independent of
worker count and completion order, the aggregated registry is identical
for ``--jobs 1`` and ``--jobs N`` — floating-point sums included (summing
is order-dependent, so order is pinned).  Registries also support
:meth:`MetricsRegistry.merge` for explicit deterministic folding.

Naming convention (see ``docs/observability.md``): dotted lowercase
paths, ``<layer>.<what>[.<unit>]``; wall-clock-derived metrics end in
``wall_s`` so determinism checks can exclude them.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "reset_metrics",
]

#: Histogram bucket upper bounds: log decades covering sub-microsecond
#: latencies through multi-second solves (values in the metric's own
#: unit). The final implicit bucket is +inf.
DEFAULT_BUCKETS = (
    1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
)


@dataclass
class Histogram:
    """A fixed-bucket value distribution.

    Attributes:
        count: Number of observed values.
        sum: Sum of observed values (observation-order dependent in the
            last float bits — observe in deterministic order).
        min: Smallest observed value (``inf`` when empty).
        max: Largest observed value (``-inf`` when empty).
        buckets: Per-bucket observation counts; bucket ``i`` counts
            values ``<= DEFAULT_BUCKETS[i]``, with one extra overflow
            bucket for everything larger.
    """

    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: List[int] = field(
        default_factory=lambda: [0] * (len(DEFAULT_BUCKETS) + 1)
    )

    def observe(self, value: float) -> None:
        """Add one value to the distribution."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(DEFAULT_BUCKETS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed values (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (empty min/max render as None)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": list(self.buckets),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Rebuild a histogram serialized by :meth:`as_dict`."""
        hist = cls(
            count=int(data["count"]),
            sum=float(data["sum"]),
            min=math.inf if data["min"] is None else float(data["min"]),
            max=-math.inf if data["max"] is None else float(data["max"]),
        )
        buckets = list(data["buckets"])
        hist.buckets = buckets + [0] * (len(DEFAULT_BUCKETS) + 1 - len(buckets))
        return hist


class MetricsRegistry:
    """Named counters, gauges, and histograms with deterministic export.

    Args:
        enabled: When False, every recording method is a cheap early
            return, so always-on call sites cost ~nothing by default.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Recording is read-modify-write; the service's dispatcher thread
        # and its event-loop thread increment one shared registry, so
        # updates lock.
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add ``value`` to histogram ``name`` (creating it empty)."""
        if not self.enabled:
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    @contextmanager
    def suspended(self) -> Iterator["MetricsRegistry"]:
        """Temporarily disable recording; restore on exit, exception-safe.

        The sanctioned seam for code that must run a sub-computation
        without observing it (campaign drivers re-running mission jobs
        inline must not double-count worker-path metrics).  Using this
        instead of toggling :attr:`enabled` by hand keeps the restore
        exception-safe and identical across ``--jobs`` modes — which is
        what the ``worker-shared-state`` lint rule enforces.
        """
        was_enabled = self.enabled
        self.enabled = False
        try:
            yield self
        finally:
            self.enabled = was_enabled

    # -- access ---------------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        """Current value of gauge ``name`` (None if never set)."""
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        """Histogram ``name`` (None if nothing was observed)."""
        return self._histograms.get(name)

    def __len__(self) -> int:
        """Total number of distinct metrics of any type."""
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- aggregation ----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (deterministic given a
        deterministic merge order: counters/histograms add, gauges take
        the incoming value)."""
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in other._gauges.items():
            self._gauges[name] = value
        for name, hist in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = self._histograms[name] = Histogram()
            mine.merge(hist)

    # -- serialization --------------------------------------------------------

    def as_dict(self) -> dict:
        """Deterministic snapshot: every section sorted by metric name."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].as_dict()
                for k in sorted(self._histograms)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry serialized by :meth:`as_dict`."""
        registry = cls()
        registry._counters = dict(data.get("counters", {}))
        registry._gauges = dict(data.get("gauges", {}))
        registry._histograms = {
            name: Histogram.from_dict(entry)
            for name, entry in data.get("histograms", {}).items()
        }
        return registry


#: Disabled default registry, mirroring the tracer's NULL_TRACER setup.
_NULL_METRICS = MetricsRegistry(enabled=False)

_current: MetricsRegistry = _NULL_METRICS


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry (disabled by default)."""
    return _current


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide registry and return it."""
    global _current
    _current = registry
    return registry


def reset_metrics() -> None:
    """Restore the disabled default registry."""
    set_metrics(_NULL_METRICS)
