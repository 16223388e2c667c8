"""Observability: structured tracing, metrics, and exporters.

The engine's single hook point is ``db.tracer`` (a :class:`Tracer`, default
:class:`NullTracer`).  Attach a :class:`TraceCollector` to record
virtual-clock-stamped events and aggregate histograms — plus derived-view
staleness (:class:`StalenessTracker`), per-rule cost attribution
(:class:`AttributionProfiler`), and periodic gauge samples
(:class:`TimeSeriesSampler`) — then export with :func:`write_chrome_trace`
(Perfetto), :func:`write_jsonl`, :func:`stats_report`, or
:func:`stats_snapshot`.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.attribution import ENGINE_KEY, AttributionProfiler, RuleStats
from repro.obs.exporters import (
    chrome_trace_events,
    ensure_parent,
    export_trace,
    freshness_sections,
    read_jsonl,
    stats_report,
    stats_snapshot,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, log_bounds
from repro.obs.schema import SchemaError, check, validate
from repro.obs.staleness import StalenessTracker
from repro.obs.timeseries import (
    TimeSeriesSampler,
    read_series_jsonl,
    sparkline,
    write_series_jsonl,
)
from repro.obs.tracer import NullTracer, TraceCollector, TraceEvent, Tracer

__all__ = [
    "AttributionProfiler",
    "Counter",
    "ENGINE_KEY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "RuleStats",
    "SchemaError",
    "StalenessTracker",
    "TimeSeriesSampler",
    "TraceCollector",
    "TraceEvent",
    "Tracer",
    "check",
    "chrome_trace_events",
    "ensure_parent",
    "export_trace",
    "freshness_sections",
    "log_bounds",
    "read_jsonl",
    "read_series_jsonl",
    "sparkline",
    "stats_report",
    "stats_snapshot",
    "validate",
    "write_chrome_trace",
    "write_jsonl",
    "write_series_jsonl",
]
