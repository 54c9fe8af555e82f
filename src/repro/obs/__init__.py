"""Observability: structured tracing, metrics, logging, and attribution.

The legs of the telemetry the paper's evaluation implies:

* :mod:`repro.obs.trace` — span tracing of the query pipeline
  (JSON span trees + Chrome ``trace_event`` export). Off by default;
  enable with ``EngineConfig(tracing=True)``.
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and fixed-bucket histograms (Prometheus + OpenMetrics text
  and JSON export). Always on; the instruments are cheap dict updates,
  with ``handle()`` fast paths for per-decode-call sites.
* :mod:`repro.obs.logs` — JSON-lines structured events for
  degraded-mode, salvage, retry, and fault-injection decisions. Silent
  unless a handler is configured.
* :mod:`repro.obs.funnel` — per-query, per-LOD refinement-funnel
  records (candidates → pruned → decoded → evaluated →
  confirmed/rejected/degraded) — the query's one pairs ledger, of which
  ``QueryStats.pairs_*_by_lod`` are read-only views.
* :mod:`repro.obs.profile` — an opt-in sampling profiler
  (``EngineConfig(profiling=True)``) bucketing stacks by pipeline
  phase, with collapsed-stack flamegraph export.

See the "Observability" and "Performance attribution" sections of
README.md and DESIGN.md for how the spans and series map onto the
paper's Fig. 10 / Fig. 12 / Table 2.
"""

from repro.obs.funnel import FunnelStage, QueryFunnel
from repro.obs.logs import JsonFormatter, configure_json_logging, get_logger, log_event
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    CounterHandle,
    Gauge,
    Histogram,
    HistogramHandle,
    MetricsRegistry,
)
from repro.obs.profile import (
    ProfileReport,
    SamplingProfiler,
    current_phase,
    phase_scope,
)
from repro.obs.trace import (
    DISABLED_TRACER,
    NOOP_SPAN,
    Span,
    TimedPhase,
    Tracer,
    phase_totals,
    self_time_table,
)

__all__ = [
    "Tracer",
    "Span",
    "TimedPhase",
    "NOOP_SPAN",
    "DISABLED_TRACER",
    "phase_totals",
    "self_time_table",
    "MetricsRegistry",
    "Counter",
    "CounterHandle",
    "Gauge",
    "Histogram",
    "HistogramHandle",
    "REGISTRY",
    "FunnelStage",
    "QueryFunnel",
    "SamplingProfiler",
    "ProfileReport",
    "phase_scope",
    "current_phase",
    "JsonFormatter",
    "get_logger",
    "log_event",
    "configure_json_logging",
]
