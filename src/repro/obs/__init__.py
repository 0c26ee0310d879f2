"""Observability layer (substrate S12): spans, metrics, profiling hooks.

Unified instrumentation across the detection engines, the online monitor,
and the protocol simulator:

* **Metrics registry** (:mod:`repro.obs.metrics`) — counters, gauges, and
  latency histograms with JSON and Prometheus-text exporters;
* **Tracing spans** (:mod:`repro.obs.spans`) — nested wall-time regions
  with structured attributes, forming a per-query call tree;
* **Stat counters** (:mod:`repro.obs.stats`) — the shared helper behind
  every engine's ``DetectionResult.stats`` dict, mirroring into the
  registry when enabled;
* **Progress telemetry** (:mod:`repro.obs.progress`) — rate-limited
  heartbeats and deadlines for the long detection/fuzz loops;
* **Run ledger** (:mod:`repro.obs.ledger`) — durable per-invocation
  ``repro-run-v1`` records behind ``repro runs`` (see ``docs/RUNS.md``).

Disabled by default; the only cost carried by production paths is a
single attribute check per instrumented call site.  Enable globally with
:func:`enable` (or ``REPRO_OBS=1``), or scoped with :class:`Capture`::

    from repro import obs

    with obs.Capture() as cap:
        detect(computation, predicate)
    print(obs.format_span_tree(cap.roots))
    print(cap.registry.to_prometheus())

See ``docs/OBSERVABILITY.md`` for concepts, exporters, and overhead notes.
"""

from repro.obs.config import STATE, disable, enable, is_enabled
from repro.obs.export import (
    format_metrics,
    format_prometheus,
    format_span_tree,
    otlp_json,
    otlp_to_spans,
    spans_to_otlp,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.progress import (
    NOOP_TRACKER,
    PROGRESS,
    DeadlineExceeded,
    ProgressEvent,
    Tracker,
    format_event,
    progress_context,
    stderr_sink,
    tracker,
)
from repro.obs.spans import (
    NOOP,
    Capture,
    Span,
    current_span,
    layer_span,
    span,
    take_roots,
)
from repro.obs.stats import StatCounters

__all__ = [
    "Capture",
    "Counter",
    "DeadlineExceeded",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP",
    "NOOP_TRACKER",
    "PROGRESS",
    "ProgressEvent",
    "STATE",
    "Span",
    "StatCounters",
    "Tracker",
    "current_span",
    "disable",
    "enable",
    "format_event",
    "format_metrics",
    "format_prometheus",
    "format_span_tree",
    "is_enabled",
    "layer_span",
    "otlp_json",
    "otlp_to_spans",
    "progress_context",
    "registry",
    "span",
    "spans_to_otlp",
    "stderr_sink",
    "take_roots",
    "tracker",
]
