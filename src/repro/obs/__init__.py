"""Unified telemetry: run-scoped tracing, metrics and manifests.

The observability layer of the repo (see docs/OBSERVABILITY.md).  One
:class:`Telemetry` object per run bundles a :class:`RunContext` (run
ID + content fingerprints), a :class:`MetricsRegistry` (counters /
gauges / histograms with JSON and Prometheus exporters) and a
:class:`SpanRecorder` (hierarchical run → iteration → stage →
subsystem → kernel spans, exported as Chrome trace-event JSON).  Pool
workers ship their spans back through the executor and merge under the
parent's run ID; finished runs persist as ``runs/<run-id>/``
directories the ``amst runs list/show/diff`` CLI reads.

Telemetry is strictly read-only over the simulation: enabling it never
changes a result byte (property-tested), and code that does not look up
:func:`current_telemetry` pays nothing.
"""

from .context import (
    RunContext,
    activate,
    current_telemetry,
    deactivate,
    detect_git_sha,
    new_run_context,
)
from .manifest import MANIFEST_SCHEMA, RunStore, write_json_atomic
from .metrics import Histogram, MetricsRegistry, prometheus_name
from .regress import (
    DEFAULT_SKIP_PREFIXES,
    DEFAULT_THRESHOLD,
    SKIP_PREFIX_REASONS,
    MetricDelta,
    RegressionReport,
    compare_json_files,
    compare_manifests,
    compare_metrics,
    flatten_numeric,
)
from .spans import (
    Span,
    SpanRecorder,
    to_chrome_trace,
    validate_span_tree,
)
from .telemetry import Telemetry, WorkerTelemetry, worker_payload

__all__ = [
    "RunContext",
    "new_run_context",
    "detect_git_sha",
    "current_telemetry",
    "activate",
    "deactivate",
    "MetricsRegistry",
    "Histogram",
    "prometheus_name",
    "Span",
    "SpanRecorder",
    "to_chrome_trace",
    "validate_span_tree",
    "Telemetry",
    "WorkerTelemetry",
    "worker_payload",
    "RunStore",
    "MANIFEST_SCHEMA",
    "write_json_atomic",
    "MetricDelta",
    "RegressionReport",
    "compare_metrics",
    "compare_manifests",
    "compare_json_files",
    "flatten_numeric",
    "DEFAULT_SKIP_PREFIXES",
    "DEFAULT_THRESHOLD",
    "SKIP_PREFIX_REASONS",
]
