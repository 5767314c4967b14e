"""Structured observability for the planner / simulator / runtime triangle.

The rest of the repo only exposed end-of-run aggregates (a
:class:`~repro.sim.stall.StallProfile`, a bench JSON); this package makes
the *inside* of a planning or validation run inspectable:

* :mod:`repro.obs.trace` — a thread-safe span recorder with a
  context-manager API and a near-zero-overhead disabled fast path.  The
  planner phases, the portfolio sweep, the simulation engine, the plan
  cache, and the asynchronous runtime are all instrumented against the
  process-wide :data:`~repro.obs.trace.TRACER`.
* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges
  and histograms (plan-cache hits, candidates evaluated, bytes moved per
  link, admission backpressure time, ...) with a JSON snapshot export.
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON rendering of
  recorded spans, a predicted :class:`~repro.sim.engine.SimResult`
  timeline, and a measured
  :class:`~repro.runtime.async_executor.RuntimeTrace` timeline, so
  predicted-vs-measured schedules can be eyeballed side by side.
* :mod:`repro.obs.flight` — an always-on bounded flight recorder of
  recent spans and structured events, dumped atomically to a JSON
  postmortem artifact on daemon/worker crashes, unrecoverable elastic
  failures, and on demand via the ``dump`` protocol op.

Distributed tracing rides on :class:`~repro.obs.trace.TraceContext`:
``plan --server`` requests mint one per call, the wire protocol carries
it daemon-side, and the daemon ships the request's spans back so
:func:`~repro.obs.export.stitched_trace_events` can render one
client/daemon timeline.

``python -m repro trace <config> -o out.json`` (and the ``--trace`` /
``--metrics`` flags on ``plan`` and ``validate``) are the CLI front ends;
see ``docs/observability.md``.
"""

from .metrics import METRICS, MetricsRegistry
from .trace import TRACER, Span, TraceContext, Tracer

# Importing .flight registers FLIGHT as the tracer's span sink, so any
# ``repro.obs`` import is enough to arm the crash recorder.
from .flight import FLIGHT, FlightRecorder

__all__ = [
    "FLIGHT",
    "FlightRecorder",
    "METRICS",
    "MetricsRegistry",
    "TRACER",
    "Span",
    "TraceContext",
    "Tracer",
]
