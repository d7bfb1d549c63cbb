"""Runtime observability: span tracing, metrics, cross-process merge, export.

The package has four small layers:

* :mod:`repro.obs.tracer` — hierarchical :func:`span` context manager /
  :func:`traced` decorator over a thread-safe ring buffer; a no-op when
  disabled (``REPRO_TRACE`` unset) so hot paths pay ~zero cost.
  :func:`timed` measures an interval the caller reads back (a span only
  when tracing is on).
* :mod:`repro.obs.metrics` — counters/gauges (:func:`inc`,
  :func:`gauge_max`) riding the same enable switch.
* :mod:`repro.obs.collect` — workers drain their buffers into payloads
  shipped back over the existing result channel; the parent ingests
  them into one pid/stream-tagged timeline (exception path included).
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto-loadable),
  flat JSON, and a terminal top-N/percentile summary.

See ``docs/observability.md`` for the end-to-end guide.
"""

from repro.obs.collect import (
    attach_payload_to_exception,
    export_payload,
    ingest_payload,
    recover_payload_from_exception,
)
from repro.obs.export import (
    chrome_trace,
    flat_json,
    summary_text,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    drain_metrics,
    gauge,
    gauge_max,
    inc,
    ingest_metrics,
    merge_metrics,
    metrics_snapshot,
    reset_metrics,
)
from repro.obs.tracer import (
    DEFAULT_BUFFER_SPANS,
    Span,
    disable_tracing,
    drain_spans,
    enable_tracing,
    ingest_spans,
    merge_spans,
    peek_spans,
    span,
    span_sort_key,
    timed,
    traced,
    tracing_enabled,
)
from repro.obs.tracer import reset as reset_spans

__all__ = [
    "DEFAULT_BUFFER_SPANS",
    "Span",
    "span",
    "timed",
    "traced",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "reset",
    "reset_spans",
    "drain_spans",
    "peek_spans",
    "ingest_spans",
    "merge_spans",
    "span_sort_key",
    "inc",
    "gauge",
    "gauge_max",
    "metrics_snapshot",
    "drain_metrics",
    "reset_metrics",
    "ingest_metrics",
    "merge_metrics",
    "export_payload",
    "ingest_payload",
    "attach_payload_to_exception",
    "recover_payload_from_exception",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "flat_json",
    "summary_text",
]


def reset() -> None:
    """Clear all buffered spans and metrics (one call for both planes)."""
    reset_spans()
    reset_metrics()
