"""Unified observability layer: tracing, metrics and structured logs.

Three dependency-free (stdlib-only) pillars, shared by the analysis engine,
the summary cache and the server (see docs/observability.md):

* :mod:`repro.obs.trace` — hierarchical spans over monotonic clocks, with a
  process-global tracer that is a no-op until installed.  Trace context
  propagates client → server → worker process over the wire
  (``ServerSubmit.trace``), so one trace covers a job end-to-end; exports
  are Chrome trace-event JSON, viewable in Perfetto.
* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges
  and log-scale-bucket histograms, rendered in Prometheus text exposition
  format (``GET /metrics``).  Worker processes ship counter *deltas* back
  to the server, which merges them into its own registry.
* :mod:`repro.obs.logs` — a JSON-lines structured logger threading
  trace/job ids through server request logs and worker lifecycle events.

This package imports nothing from the rest of :mod:`repro` but the
stdlib-only :mod:`repro._lazy` helper, so any module — engine, cache,
server — can instrument itself without import cycles.  The three modules
are re-exported lazily, so an analysis never loads :mod:`repro.obs.logs`.
The bit-identity contract holds throughout: observability records what the
analysis did, it never changes a bound.
"""

from repro._lazy import lazy_exports

_EXPORTS = {"logs": "logs", "metrics": "metrics", "trace": "trace"}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
