"""Zero-dependency metrics registry: counters, gauges, latency histograms.

The registry is a named bag of three instrument kinds:

* :class:`Counter` — monotonically increasing totals (events ingested,
  CPDHB invocations, eliminations performed);
* :class:`Gauge` — last-written values (chain counts, min/max sums,
  anything set rather than accumulated);
* :class:`Histogram` — value distributions with exact percentiles over a
  bounded, deterministically decimated sample reservoir (latencies).

Exporters: :meth:`MetricsRegistry.snapshot` (plain dicts),
:meth:`MetricsRegistry.to_json`, and :meth:`MetricsRegistry.to_prometheus`
(Prometheus text exposition format, counters/gauges plus ``summary``
quantiles for histograms).

Everything here is process-local and lock-free: instruments are plain
attribute updates, safe under the GIL for the increment patterns used by
the detection engines.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "registry"]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Value distribution with exact min/max/sum and reservoir percentiles.

    Keeps at most ``max_samples`` observations.  When full, the reservoir
    is deterministically decimated (every second sample kept) and the
    record stride doubles, so long runs keep an evenly spaced subsample —
    percentiles stay representative without unbounded memory and without
    nondeterministic sampling.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples",
                 "_stride", "_skip", "max_samples")

    def __init__(self, name: str, max_samples: int = 4096) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._stride = 1
        self._skip = 0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._skip += 1
        if self._skip < self._stride:
            return
        self._skip = 0
        self._samples.append(value)
        if len(self._samples) >= self.max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    def percentile(self, q: float) -> float:
        """Exact percentile of the retained samples (q in [0, 100]).

        An empty reservoir yields 0.0 — queries on untouched histograms
        normalize to zeros rather than None/ZeroDivisionError.
        """
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def summary(self) -> Dict[str, Any]:
        """Full stats dict; an untouched histogram is all zeros."""
        if self.count == 0:
            return {
                "count": 0,
                "sum": 0.0,
                "mean": 0.0,
                "min": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Create-on-first-use registry of named instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def reset(self) -> None:
        """Drop every instrument (used by Capture for scoped snapshots)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view: counters, gauges, histogram summaries."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        # Imported lazily: export renders spans too, and spans import the
        # registry from this module.
        from repro.obs.export import format_prometheus

        return format_prometheus(self.snapshot())


_GLOBAL = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry every instrumented call site writes to."""
    return _GLOBAL
