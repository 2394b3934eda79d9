"""Concurrent analysis service: job queue, dedup scheduler, HTTP front end.

The paper's workflow is interactive and fleet-scale — the same programs are
re-analysed continuously across modes, error scenarios and guideline audits.
A one-shot CLI pays import, program-build and cache-warmup costs on every
invocation; this package keeps all of that *warm* behind a long-lived
service:

* :mod:`repro.server.queue` — :class:`JobQueue` + :class:`Scheduler`:
  priority lanes (``interactive`` > ``batch``) and content-addressed request
  dedup — identical requests against the same project digest share one
  execution, and every subscriber receives the result;
* :mod:`repro.server.workers` — :class:`WorkerPool`: supervised worker
  processes (per-job deadlines, crash detection, kill/respawn, bounded
  retry) keeping warm :class:`~repro.api.service.AnalysisService` instances,
  one shared on-disk :class:`~repro.cache.store.SummaryStore` underneath;
* :mod:`repro.server.http` — :class:`AnalysisServer`: the stdlib HTTP/JSON
  listener (submit/status/result/cancel, streaming progress events,
  ``/healthz`` stats);
* :mod:`repro.server.wire` — the schema-1 wire messages;
* :mod:`repro.server.client` — :class:`ServerClient`, the typed client
  (``repro analyze --remote URL`` rides on it).

Results served remotely are **bit-identical** to direct facade calls: the
wire format is the exact-round-trip JSON schema of :mod:`repro.api.serialize`
and the execution path is the same :class:`~repro.api.service.AnalysisService`.

Run one with ``python -m repro serve --port 8472 --jobs 4 --cache-dir .cache``
(see docs/server.md for deployment and scaling notes).
"""

from repro._lazy import lazy_exports

# Public names, re-exported lazily (PEP 562): importing one submodule — say
# ``repro.server.wire`` for a local ``repro analyze`` — must not drag in the
# HTTP stack, sockets and worker processes of the others.
_EXPORTS = {
    "ClientError": "client",
    "JobCancelled": "client",
    "JobFailed": "client",
    "RemoteError": "client",
    "RemoteJob": "client",
    "ResultNotReady": "client",
    "ServerClient": "client",
    "AnalysisServer": "http",
    "DEFAULT_PORT": "http",
    "JobQueue": "queue",
    "QueueFull": "queue",
    "Scheduler": "queue",
    "SchedulerClosed": "queue",
    "LANES": "wire",
    "ProjectSpec": "wire",
    "ServerError": "wire",
    "ServerEvent": "wire",
    "ServerJobStatus": "wire",
    "ServerStats": "wire",
    "ServerSubmit": "wire",
    "ServerSubmitReply": "wire",
    "WireError": "wire",
    "request_digest": "wire",
    "DEFAULT_JOB_TIMEOUT": "workers",
    "WorkerPool": "workers",
}

__all__ = sorted(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
