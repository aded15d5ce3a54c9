"""`repro.obs` — structured tracing, metrics, and decision auditing.

A dependency-free observability layer threaded through the runtime's hot
paths.  Four pieces:

1. **Span tracer** — ``with obs.span("tuning.sweep", accelerator=...):``
   produces nested wall-clock spans with attributes.
2. **Metrics registry** — counters, gauges, and histograms
   (``obs.counter("trace_cache.hit")``), exportable as a
   Prometheus-style text snapshot.
3. **Decision-audit log** — every executed placement emits a
   structured record of the (B, I) inputs, chosen M-configuration,
   predicted time/energy/utilization, and the margin over the runner-up
   accelerator.
4. **Exporters** — a JSONL event stream plus ``python -m repro.obs.report``
   which renders a per-run summary (top spans, cache ratios, the
   decision table).

Everything is gated on ``REPRO_OBS`` (``0`` | ``1`` | ``jsonl[:path]``)
with a no-op fast path: disabled, every entry point is one branch and no
allocations, so instrumentation is free on the bench-gated hot paths.
"""

from __future__ import annotations

from repro.obs.audit import (
    DECISION_FIELDS,
    DECISION_SCHEMA_VERSION,
    DecisionRecord,
    config_summary,
)
from repro.obs.config import (
    DEFAULT_JSONL_PATH,
    ENV_VAR,
    PROM_ENV_VAR,
    ObsConfig,
    config_from_env,
)
from repro.obs.http import ObsHTTPServer, start_exposition
from repro.obs.quality import (
    DRIFT_METRIC,
    MISPICK_METRIC,
    DriftDetector,
    QualitySample,
    RegretTracker,
    replay_audit,
)
from repro.obs.slo import DEFAULT_SERVE_SLOS, SLORegistry, SLOSpec, SLOTracker
from repro.obs.state import (
    ObsState,
    configure,
    counter,
    enabled,
    flush,
    gauge,
    histogram,
    install_slos,
    prometheus_text,
    quiet,
    record_decision,
    record_promotion,
    record_span,
    reinit_child,
    reset,
    set_quiet,
    slo_observe,
    span,
    state,
    trace_link,
)
from repro.obs.logger import StructuredLogger, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_context import (
    TraceContext,
    active_trace_ids,
    active_traces,
    current_trace,
    mint_trace,
    trace_scope,
)
from repro.obs.tracer import NOOP_SPAN, SpanRecord, Tracer

__all__ = [
    "DECISION_FIELDS",
    "DECISION_SCHEMA_VERSION",
    "DEFAULT_SERVE_SLOS",
    "DRIFT_METRIC",
    "DecisionRecord",
    "DriftDetector",
    "MISPICK_METRIC",
    "config_summary",
    "DEFAULT_JSONL_PATH",
    "ENV_VAR",
    "PROM_ENV_VAR",
    "ObsConfig",
    "ObsHTTPServer",
    "ObsState",
    "QualitySample",
    "RegretTracker",
    "SLORegistry",
    "SLOSpec",
    "SLOTracker",
    "TraceContext",
    "active_trace_ids",
    "active_traces",
    "config_from_env",
    "configure",
    "counter",
    "current_trace",
    "enabled",
    "flush",
    "gauge",
    "get_logger",
    "histogram",
    "install_slos",
    "MetricsRegistry",
    "mint_trace",
    "NOOP_SPAN",
    "prometheus_text",
    "quiet",
    "record_decision",
    "record_promotion",
    "record_span",
    "reinit_child",
    "replay_audit",
    "reset",
    "set_quiet",
    "slo_observe",
    "span",
    "SpanRecord",
    "start_exposition",
    "state",
    "StructuredLogger",
    "trace_link",
    "trace_scope",
    "Tracer",
]
