"""Thread-safe span recorder with a near-zero-overhead disabled path.

Design constraints, in order:

1. **Disabled cost ~ zero.**  The simulator is the objective function of
   the blocking search (tens of thousands of calls per plan), so every
   instrumented call site pays at most one attribute read + branch when
   tracing is off: :meth:`Tracer.span` returns a shared no-op handle, and
   hot loops guard on :attr:`Tracer.enabled` directly.  The
   ``bench_obs_overhead`` benchmark holds this to < 3% on the 64-block
   engine sweep.
2. **Thread safety without hot-path locks.**  Stream workers and the main
   thread record concurrently; each thread appends to its own buffer
   (``threading.local``), registered once under a lock, and
   :meth:`Tracer.drain` merges all buffers into one start-sorted list.
3. **Monotonic clocks.**  Spans are stamped with ``time.perf_counter``
   (monotonic, sub-microsecond), never wall time, so durations are exact
   and exportable straight into Chrome-trace microseconds.

Usage::

    from repro.obs.trace import TRACER

    TRACER.enable()
    with TRACER.span("plan.opt1_blocking", "planner", method="dp") as sp:
        result = solve(...)
        sp.set(evaluated=result.evaluated)
    spans = TRACER.drain()          # merged, start-sorted, buffers cleared

Post-hoc recording (for already-timestamped work, e.g. reaped transfer
requests) goes through :meth:`Tracer.record`.

Spans recorded while another thread is mid-append are only guaranteed to
be visible to :meth:`Tracer.drain` once that thread's instrumented work
has quiesced — callers drain after joining/draining their workers, which
every instrumented call site in this repo already does.

**Distributed tracing.**  A :class:`TraceContext` (a trace id plus the
requesting span's id) can be *activated* on a thread
(:meth:`Tracer.activate`); while a context is active, spans are sampled
on that thread even when the tracer is globally disabled, and each span
is stamped with the context's ``trace_id``.  Per-trace *collectors*
(:meth:`Tracer.collect`) gather every span of one trace id regardless of
which thread recorded it — the planner daemon registers one per traced
request and ships the collected spans back over the wire
(:func:`span_to_dict` / :func:`span_from_dict` are the wire format).
Timestamps are comparable across local processes because
``time.perf_counter`` reads the system-wide ``CLOCK_MONOTONIC``.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "TRACER",
    "span_from_dict",
    "span_to_dict",
]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one distributed request: trace id + requesting span.

    ``trace_id`` names the whole end-to-end request (client -> daemon);
    ``parent_id`` names the span that minted or forwarded the context
    (informational — spans link to their trace, not to each other).
    Contexts cross the newline-JSON wire as plain dicts.
    """

    trace_id: str
    parent_id: str = ""

    @classmethod
    def new(cls, parent_id: str = "") -> "TraceContext":
        """Mint a fresh 16-hex-digit trace id (process-unique)."""
        return cls(trace_id=uuid.uuid4().hex[:16], parent_id=parent_id)

    def to_dict(self) -> Dict[str, str]:
        """Wire rendering (the ``trace`` field of a ``plan`` request)."""
        return {"trace_id": self.trace_id, "parent_id": self.parent_id}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceContext":
        """Rebuild a context received over the wire (ignores extras)."""
        return cls(trace_id=str(data.get("trace_id", "")),
                   parent_id=str(data.get("parent_id", "")))


@dataclass(slots=True)
class Span:
    """One recorded interval: ``[start, end]`` seconds on a named track.

    ``trace_id`` is the distributed request the span belongs to (empty
    for spans recorded outside any activated context); ``proc`` is the
    logical process that recorded it (empty = this process) — the
    stitched exporter groups spans into Chrome-trace processes by it.
    """

    name: str
    category: str
    start: float
    end: float
    track: str
    args: Dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""
    proc: str = ""

    @property
    def duration(self) -> float:
        """Span length in seconds (never negative for recorded spans)."""
        return self.end - self.start


def span_to_dict(span: Span) -> Dict[str, Any]:
    """Wire rendering of one span (the ``spans`` field of a plan reply)."""
    return {"name": span.name, "cat": span.category,
            "start": span.start, "end": span.end, "track": span.track,
            "trace_id": span.trace_id, "proc": span.proc,
            "args": dict(span.args)}


def span_from_dict(data: Dict[str, Any]) -> Span:
    """Rebuild a span shipped from another process (wire inverse)."""
    return Span(name=str(data.get("name", "?")),
                category=str(data.get("cat", "")),
                start=float(data.get("start", 0.0)),
                end=float(data.get("end", 0.0)),
                track=str(data.get("track", "")) or "remote",
                args=dict(data.get("args") or {}),
                trace_id=str(data.get("trace_id", "")),
                proc=str(data.get("proc", "")))


class _NullSpan:
    """Shared no-op handle returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **args: Any) -> "_NullSpan":
        """No-op twin of :meth:`_SpanHandle.set`."""
        return self


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager that records one :class:`Span` on exit.

    Created only while the tracer is enabled; the span is recorded even
    if tracing is disabled before exit (it was sampled, so it completes).
    """

    __slots__ = ("_tracer", "_name", "_category", "_track", "_args",
                 "_start", "_trace_id")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 track: Optional[str], args: Dict[str, Any],
                 trace_id: str = ""):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._track = track
        self._args = args
        self._trace_id = trace_id
        self._start = 0.0

    def set(self, **args: Any) -> "_SpanHandle":
        """Attach/override span arguments from inside the ``with`` body."""
        self._args.update(args)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._start = self._tracer.clock()
        return self

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        end = tracer.clock()
        track = self._track or threading.current_thread().name
        tracer._emit(Span(
            name=self._name, category=self._category, start=self._start,
            end=end, track=track, args=self._args,
            trace_id=self._trace_id))
        return None


class Tracer:
    """Process-wide span recorder (see module docstring for the contract).

    Args:
        clock: monotonic time source; injectable for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: List[List[Span]] = []
        self._collectors: Dict[str, List[Span]] = {}
        #: Optional always-on span sink (the flight recorder registers
        #: itself here); called for every emitted span.
        self.sink: Optional[Callable[[Span], None]] = None

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        """Start sampling spans (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop sampling spans; already-recorded spans stay buffered."""
        self.enabled = False

    # -- trace contexts ----------------------------------------------------

    def current(self) -> Optional[TraceContext]:
        """The trace context active on this thread (None when outside)."""
        return getattr(self._local, "ctx", None)

    @contextmanager
    def activate(self,
                 ctx: Optional[TraceContext]) -> Iterator[
                     Optional[TraceContext]]:
        """Make ``ctx`` the thread's active trace context for the body.

        While a context is active, spans recorded on this thread are
        sampled *even when the tracer is globally disabled* and are
        stamped with the context's trace id — this is how the planner
        daemon traces one request without tracing the world.  Passing
        ``None`` is a no-op (callers can activate unconditionally).
        """
        if ctx is None:
            yield None
            return
        prev = getattr(self._local, "ctx", None)
        self._local.ctx = ctx
        try:
            yield ctx
        finally:
            self._local.ctx = prev

    @contextmanager
    def collect(self, trace_id: str) -> Iterator[List[Span]]:
        """Gather every span of ``trace_id``, from any thread, into a list.

        The yielded list fills live as spans complete; on exit the
        collector is unregistered and the list holds the trace's spans
        (recorded by threads that emitted while it was registered).
        """
        sink: List[Span] = []
        with self._lock:
            self._collectors[trace_id] = sink
        try:
            yield sink
        finally:
            with self._lock:
                self._collectors.pop(trace_id, None)

    def peek_collected(self, trace_id: str) -> List[Span]:
        """Snapshot a live collector's spans (empty when unregistered)."""
        sink = self._collectors.get(trace_id)
        return list(sink) if sink is not None else []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, category: str = "", *,
             track: Optional[str] = None, **args: Any):
        """A context manager timing one interval.

        When tracing is disabled and no trace context is active on this
        thread, this returns a shared no-op handle — the only cost at a
        disabled call site is an attribute check plus one thread-local
        read.  The default ``track`` is the current thread's name.
        """
        ctx = getattr(self._local, "ctx", None)
        if not self.enabled and ctx is None:
            return _NULL_SPAN
        return _SpanHandle(self, name, category, track, dict(args),
                           trace_id=ctx.trace_id if ctx else "")

    def record(self, name: str, category: str = "", *, start: float,
               end: float, track: Optional[str] = None,
               **args: Any) -> None:
        """Record an already-timestamped span (e.g. a reaped transfer)."""
        ctx = getattr(self._local, "ctx", None)
        if not self.enabled and ctx is None:
            return
        self._emit(Span(
            name=name, category=category, start=start,
            end=max(start, end),
            track=track or threading.current_thread().name,
            args=dict(args), trace_id=ctx.trace_id if ctx else ""))

    # -- harvesting --------------------------------------------------------

    def drain(self) -> List[Span]:
        """Merge every thread's buffer into one start-sorted list.

        Buffers are cleared; call after instrumented workers have
        quiesced (joined or drained) so no span is split across drains.
        """
        with self._lock:
            spans: List[Span] = []
            for buf in self._buffers:
                spans.extend(buf)
                del buf[:]
        spans.sort(key=lambda s: (s.start, s.end, s.name))
        return spans

    def clear(self) -> None:
        """Discard every buffered span without returning them."""
        with self._lock:
            for buf in self._buffers:
                del buf[:]

    def __len__(self) -> int:
        """Number of currently buffered spans across all threads."""
        with self._lock:
            return sum(len(buf) for buf in self._buffers)

    # -- internals ---------------------------------------------------------

    def _emit(self, span: Span) -> None:
        """Route one finished span: buffer, per-trace collector, sink.

        The thread buffer only fills while the tracer is globally
        enabled (a context-activated span on a disabled tracer goes to
        its collector and the sink only, so a long-lived daemon serving
        traced requests never accumulates undrained buffers).
        """
        if self.enabled:
            self._buffer().append(span)
        if self._collectors and span.trace_id:
            sink = self._collectors.get(span.trace_id)
            if sink is not None:
                sink.append(span)
        hook = self.sink
        if hook is not None:
            hook(span)

    def _buffer(self) -> List[Span]:
        buf: Optional[List[Span]] = getattr(self._local, "buf", None)
        if buf is None:
            buf = []
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf


#: The process-wide tracer every instrumented module records against.
TRACER = Tracer()
