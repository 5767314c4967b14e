"""Chrome-trace / Perfetto JSON export of predicted and measured timelines.

Renders three kinds of timeline into the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
that both ``chrome://tracing`` and https://ui.perfetto.dev load:

* recorded :class:`~repro.obs.trace.Span` lists (planner phases, engine
  calls, fences) — one track per recording thread/track name;
* a predicted :class:`~repro.sim.engine.SimResult` — one track per
  simulated resource (``gpu``, ``h2d``, ``d2h``, ``d2s``, ``s2d``, ...);
* a measured :class:`~repro.runtime.async_executor.RuntimeTrace` — one
  track per stream direction plus the GPU thread.

Each timeline becomes its own *process* (``pid``) with named-metadata
events, so a predicted and a measured rendering of the same plan sit side
by side in the viewer with per-resource rows aligned.  All events are
``ph: "X"`` complete events with microsecond ``ts``/``dur``; every
timeline is shifted to start at ``ts = 0``.

The module is duck-typed over its inputs (``SimResult`` needs
``timings``/``resource_timings``; ``RuntimeTrace`` needs ``records`` and
``wall_start``) so importing it never drags in the simulator or runtime.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..runtime.async_executor import RuntimeTrace
    from ..sim.engine import SimResult
    from .trace import Span

__all__ = [
    "chrome_trace",
    "runtime_track_events",
    "sim_track_events",
    "span_track_events",
    "stitched_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: Seconds -> Chrome-trace microseconds.
_US = 1e6

#: Canonical row order inside a process: compute first, then the link
#: directions in issue-priority order, then everything else.
_RESOURCE_ORDER = ("gpu", "h2d", "d2h", "d2s", "s2d", "cpu", "net",
                   "memory", "other")


def _resource_rank(name: str) -> int:
    base = name.removeprefix("stream-")
    try:
        return _RESOURCE_ORDER.index(base)
    except ValueError:
        return len(_RESOURCE_ORDER)


def _assign_tids(tracks: Iterable[str]) -> Dict[str, int]:
    ordered = sorted(set(tracks), key=lambda t: (_resource_rank(t), t))
    return {name: tid for tid, name in enumerate(ordered, start=1)}


def _metadata(pid: int, process_name: str,
              tids: Dict[str, int]) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": process_name}}]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": track}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
    return events


def _complete(name: str, cat: str, start_s: float, end_s: float,
              pid: int, tid: int,
              args: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "name": name, "cat": cat or "default", "ph": "X",
        "ts": round(start_s * _US, 3),
        "dur": round(max(0.0, end_s - start_s) * _US, 3),
        "pid": pid, "tid": tid,
    }
    if args:
        event["args"] = args
    return event


def _json_safe(value: Any) -> Any:
    """Clamp non-finite floats — strict JSON has no Infinity/NaN."""
    if isinstance(value, float) and (value != value or value in
                                     (float("inf"), float("-inf"))):
        return None
    return value


# ---------------------------------------------------------------------------
# Track renderers
# ---------------------------------------------------------------------------

def span_track_events(spans: "Sequence[Span]", *, pid: int,
                      process_name: str = "planner") -> List[Dict[str, Any]]:
    """Render recorded spans; one track per ``Span.track`` name.

    Timestamps are shifted so the earliest span starts at 0.
    """
    if not spans:
        return []
    tids = _assign_tids(s.track for s in spans)
    t0 = min(s.start for s in spans)
    events = _metadata(pid, process_name, tids)
    for s in spans:
        args = {k: _json_safe(v) for k, v in s.args.items()}
        events.append(_complete(s.name, s.category, s.start - t0,
                                s.end - t0, pid, tids[s.track], args))
    return events


def stitched_trace_events(spans: "Sequence[Span]", *,
                          client_proc: str = "client"
                          ) -> List[Dict[str, Any]]:
    """Stitch spans from several processes into one aligned timeline.

    Input is the union of locally recorded client spans and
    wire-shipped daemon/worker spans (``Span.proc`` names the origin
    process; empty means the local ``client_proc``).  Unlike
    :func:`span_track_events`, every process shares ONE global ``t0`` —
    span timestamps are ``time.perf_counter`` readings, which on Linux
    is the system-wide ``CLOCK_MONOTONIC``, so the clocks of every local
    process are directly comparable and the rendered rows line up in
    true wall-clock order.

    Each origin process becomes its own ``pid`` row (client first, then
    the daemon, then workers), with per-process tracks as threads.
    Span ``trace_id``s are surfaced in event args, and single-flight
    merges — waiter spans carrying a ``merged_into`` arg — are rendered
    as Chrome-trace flow events (``ph: "s"``/``"f"``) from the leader's
    ``service.plan`` span to each waiter's span.
    """
    if not spans:
        return []

    by_proc: Dict[str, List["Span"]] = {}
    for s in spans:
        by_proc.setdefault(s.proc or client_proc, []).append(s)

    def _proc_rank(name: str) -> tuple:
        if name == client_proc:
            return (0, name)
        if name == "daemon":
            return (1, name)
        return (2, name)

    t0 = min(s.start for s in spans)
    events: List[Dict[str, Any]] = []
    # (pid, tid, end) per span, for flow-event anchoring below.
    placed: List[tuple] = []
    span_at: Dict[int, "Span"] = {}
    for pid, proc in enumerate(sorted(by_proc, key=_proc_rank), start=1):
        proc_spans = by_proc[proc]
        tids = _assign_tids(s.track for s in proc_spans)
        events.extend(_metadata(pid, proc, tids))
        for s in proc_spans:
            args = {k: _json_safe(v) for k, v in s.args.items()}
            if s.trace_id:
                args["trace_id"] = s.trace_id
            span_at[len(placed)] = s
            placed.append((pid, tids[s.track], s.end - t0))
            events.append(_complete(s.name, s.category, s.start - t0,
                                    s.end - t0, pid, tids[s.track], args))
    events.extend(_flow_events(placed, span_at, t0))
    return events


def _flow_events(placed: List[tuple], span_at: Dict[int, "Span"],
                 t0: float) -> List[Dict[str, Any]]:
    """Flow arrows for single-flight merges (leader plan -> waiter)."""
    leaders: Dict[str, tuple] = {}
    for i, (pid, tid, end) in enumerate(placed):
        s = span_at[i]
        if s.name == "service.plan" and s.trace_id:
            leaders[s.trace_id] = (pid, tid, end)
    flows: List[Dict[str, Any]] = []
    flow_id = 0
    for i, (pid, tid, end) in enumerate(placed):
        s = span_at[i]
        merged_into = s.args.get("merged_into")
        if not merged_into:
            continue
        leader = leaders.get(str(merged_into))
        if leader is None:
            continue
        flow_id += 1
        lpid, ltid, lend = leader
        flows.append({"ph": "s", "id": flow_id, "name": "singleflight",
                      "cat": "service", "pid": lpid, "tid": ltid,
                      "ts": round(lend * _US, 3)})
        flows.append({"ph": "f", "bp": "e", "id": flow_id,
                      "name": "singleflight", "cat": "service",
                      "pid": pid, "tid": tid, "ts": round(end * _US, 3)})
    return flows


def sim_track_events(sim: "SimResult", *, pid: int,
                     process_name: str = "predicted (sim)"
                     ) -> List[Dict[str, Any]]:
    """Render a simulated schedule; one track per resource.

    The simulator's modeled seconds map directly to trace microseconds
    (the timeline already starts at 0).
    """
    timings = list(sim.timings.values())
    if not timings:
        return []
    tids = _assign_tids(t.op.resource for t in timings)
    events = _metadata(pid, process_name, tids)
    for t in sorted(timings, key=lambda t: (t.start, t.finish)):
        op = t.op
        args: Dict[str, Any] = {"op_id": op.op_id}
        if t.stall > 0:
            args["stall_s"] = round(t.stall, 9)
        if op.mem_acquire:
            args["mem_acquire"] = op.mem_acquire
        if op.mem_release:
            args["mem_release"] = op.mem_release
        events.append(_complete(op.label or f"op{op.op_id}", "sim",
                                t.start, t.finish, pid,
                                tids[op.resource], args))
    return events


def runtime_track_events(trace: "RuntimeTrace", *, pid: int,
                         process_name: str = "measured (runtime)"
                         ) -> List[Dict[str, Any]]:
    """Render a measured iteration; one track per stream direction plus
    the GPU thread.  Timestamps are relative to the iteration's
    ``wall_start``.
    """
    records = list(trace.records)
    if not records:
        return []
    tids = _assign_tids(r.resource for r in records)
    t0 = trace.wall_start or min(r.start for r in records)
    events = _metadata(pid, process_name, tids)
    for r in sorted(records, key=lambda r: (r.start, r.finish)):
        args: Dict[str, Any] = {"block": r.block}
        if r.stall > 0:
            args["stall_s"] = round(r.stall, 9)
        events.append(_complete(r.label, "runtime", r.start - t0,
                                r.finish - t0, pid, tids[r.resource],
                                args))
    return events


# ---------------------------------------------------------------------------
# Document assembly + schema checks
# ---------------------------------------------------------------------------

def chrome_trace(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Wrap rendered events into a Chrome-trace JSON document."""
    return {"traceEvents": list(events), "displayTimeUnit": "ms"}


def write_chrome_trace(path: "Path | str",
                       document: Dict[str, Any]) -> Path:
    """Serialize a trace document to ``path`` (strict JSON) and return it."""
    problems = validate_chrome_trace(document)
    if problems:
        raise ValueError("refusing to write malformed trace: "
                         + "; ".join(problems[:5]))
    out = Path(path)
    out.write_text(json.dumps(document, sort_keys=True,
                              allow_nan=False) + "\n")
    return out


def validate_chrome_trace(document: Any) -> List[str]:
    """Schema-check a trace document; returns a list of problems (empty =
    valid).  Checks the fields the viewers actually require: every event
    has ``ph``/``pid``/``tid``/``name``, and every ``X`` event has a
    non-negative numeric ``ts`` and ``dur``.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("ph", "pid", "tid", "name"):
            if key not in ev:
                problems.append(f"event {i} ({ev.get('name', '?')}): "
                                f"missing {key}")
        if ev.get("ph") == "X":
            for key in ("ts", "dur"):
                v = ev.get(key)
                if not isinstance(v, (int, float)) or v < 0 or v != v:
                    problems.append(
                        f"event {i} ({ev.get('name', '?')}): bad {key}={v!r}")
    return problems
