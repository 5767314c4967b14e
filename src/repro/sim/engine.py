"""Deterministic event-heap engine for schedule simulation (part of
:mod:`repro.sim`).

Models exactly what the KARMA runtime has on real hardware:

* **exclusive FIFO resources** — the GPU compute stream, each direction of
  the host link (duplex PCIe/NVLink = two resources), the storage links,
  host CPU cores, and the network.  Ops issued to a resource run in issue
  order, like CUDA stream semantics.
* **dependencies** — an op starts only after all its dependency ops finish
  (cudaStreamWaitEvent semantics across streams).
* **a near-memory ledger** — an op may acquire bytes at start (blocking
  until the ledger has room) and release bytes when it finishes; this is
  how capacity limits delay eager swap-ins.

The engine is the objective function of the blocking/portfolio search, so
it is built to be *fast*, not just correct:

* dependency satisfaction is tracked with per-op **indegree counters and
  reverse-edge wakeups** — scheduling an op touches only its dependents,
  never the whole queue set;
* unledgered simulations (no ``memory_capacity``, or no op acquires
  memory — every distributed pipeline sim) run on a **priority queue of
  ready resource heads keyed by earliest feasible start**: each op is
  pushed exactly once, when it reaches its queue head with all deps
  scheduled, and popped in chronological order;
* ledgered simulations keep the seed engine's greedy pass order (the
  ledger makes timing order-*dependent*, and bit-identical results with
  :mod:`repro.sim.reference_engine` are a hard invariant) but visit only
  resources whose blocking condition may have changed since the last
  visit;
* the :class:`_MemoryLedger` is **incremental**: the event timeline lives
  in sorted parallel arrays with a lazily repaired prefix-usage /
  suffix-maximum pair, so ``record`` is an :math:`O(\\log n)` bisect plus
  a (C-speed) insert and ``earliest_fit`` is an :math:`O(\\log n)` binary
  search after an amortized-:math:`O(1)` repair — the seed engine rebuilt
  both arrays from scratch on *every* acquire.

The engine is fully deterministic (no randomness, no wall clock); one
training iteration of a 64-block plan is a few hundred events, and the
portfolio search can afford tens of thousands of calls per plan.
:class:`ScheduleBuilder` is the shared op-emission front end used by the
plan compilers (:mod:`repro.sim.trainer_sim`,
:mod:`repro.sim.distributed_sim`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..obs.metrics import METRICS
from ..obs.trace import TRACER


@dataclass(slots=True)
class SimOp:
    """One schedulable operation."""

    op_id: int
    resource: str
    duration: float
    deps: Tuple[int, ...] = ()
    mem_acquire: int = 0     # bytes claimed at start
    mem_release: int = 0     # bytes released at finish
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"op {self.label or self.op_id}: negative duration")
        if self.mem_acquire < 0 or self.mem_release < 0:
            raise ValueError("memory amounts must be non-negative")


@dataclass(slots=True)
class OpTiming:
    """Result record for one op."""

    op: SimOp
    start: float
    finish: float
    ready: float  # when deps were satisfied (start - ready = stall)

    @property
    def stall(self) -> float:
        return max(0.0, self.start - self.ready)


class SimulationDeadlock(RuntimeError):
    """Raised when no resource head can make progress (bad launch order)."""


@dataclass
class SimResult:
    """Timings + per-resource utilization of one simulated schedule."""

    timings: Dict[int, OpTiming]
    makespan: float
    resource_busy: Dict[str, float]
    resource_span: Dict[str, Tuple[float, float]]
    # per-resource timings sorted by (start, finish), built lazily and
    # reused by idle_gaps + the occupancy/stall reporting in trainer_sim
    _by_resource: Dict[str, List[OpTiming]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def timing(self, op_id: int) -> OpTiming:
        return self.timings[op_id]

    def occupancy(self, resource: str = "gpu") -> float:
        """Busy fraction of ``resource`` over its active span (Eq. 1)."""
        busy = self.resource_busy.get(resource, 0.0)
        span = self.resource_span.get(resource)
        if span is None or span[1] <= span[0]:
            return 1.0
        return busy / (span[1] - span[0])

    def resource_timings(self, resource: str) -> List[OpTiming]:
        """Timings of every op on ``resource``, sorted by (start, finish).

        Computed once per resource and cached — both :meth:`idle_gaps` and
        the stall attribution in :func:`repro.sim.trainer_sim.simulate_plan`
        walk this list, and re-sorting it per call dominated occupancy
        reporting on large plans.
        """
        cached = self._by_resource.get(resource)
        if cached is None:
            cached = sorted((t for t in self.timings.values()
                             if t.op.resource == resource),
                            key=lambda t: (t.start, t.finish))
            self._by_resource[resource] = cached
        return cached

    def idle_gaps(self, resource: str = "gpu") -> List[Tuple[float, float]]:
        """Gaps between consecutive ops on ``resource`` (the GPU stalls)."""
        spans = self.resource_timings(resource)
        gaps: List[Tuple[float, float]] = []
        for t0, t1 in zip(spans, spans[1:]):
            if t1.start > t0.finish + 1e-15:
                gaps.append((t0.finish, t1.start))
        return gaps


def summarize(ops: Sequence[SimOp], timings: Dict[int, OpTiming]) -> SimResult:
    """Fold per-op timings into a :class:`SimResult`.

    Accumulates in canonical op order so float summary values are
    identical whichever engine produced ``timings``.
    """
    makespan = 0.0
    busy: Dict[str, float] = {}
    span: Dict[str, Tuple[float, float]] = {}
    for op in ops:
        t = timings[op.op_id]
        if t.finish > makespan:
            makespan = t.finish
        r = op.resource
        busy[r] = busy.get(r, 0.0) + op.duration
        lo, hi = span.get(r, (math.inf, -math.inf))
        span[r] = (min(lo, t.start), max(hi, t.finish))
    return SimResult(timings=timings, makespan=makespan,
                     resource_busy=busy, resource_span=span)


# ---------------------------------------------------------------------------
# Schedule building
# ---------------------------------------------------------------------------

#: A dependency handed to :meth:`ScheduleBuilder.emit`: either a concrete op
#: id (int) or the symbolic key of another emitted op, resolved at build
#: time against the *final* key map (so a key re-emitted for a chained
#: transfer resolves to its last hop).
DepSpec = Union[int, Hashable]


class ScheduleBuilder:
    """Column-wise accumulator for :class:`SimOp` streams.

    The plan compilers used to assemble ad-hoc spec tuples plus a local
    ``ids`` dict and a trailing resolution pass each; this builder owns
    that protocol once: ops are appended to preallocated parallel columns,
    symbolic dependency keys are resolved lazily in :meth:`build` against
    the final key map (re-emitting a key points it at the newest op — the
    "final hop" rule chained swaps rely on), and unresolvable symbolic
    deps are silently dropped unless the op was emitted with
    ``require_deps=True``, in which case :meth:`build` raises
    :class:`SimulationDeadlock`.
    """

    def __init__(self) -> None:
        self._resources: List[str] = []
        self._durations: List[float] = []
        self._deps: List[Tuple[DepSpec, ...]] = []
        self._acquires: List[int] = []
        self._releases: List[int] = []
        self._labels: List[str] = []
        self._require: List[bool] = []
        self._ids: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._resources)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._ids

    def id_of(self, key: Hashable) -> int:
        """The op id a symbolic key currently resolves to."""
        return self._ids[key]

    def keys(self) -> List[Hashable]:
        return list(self._ids)

    def emit(self, resource: str, duration: float, *,
             key: Optional[Hashable] = None,
             deps: Sequence[DepSpec] = (),
             acquire: int = 0, release: int = 0,
             label: str = "", require_deps: bool = False) -> int:
        """Append one op; returns its id (dense, in emission order)."""
        op_id = len(self._resources)
        self._resources.append(resource)
        self._durations.append(duration)
        self._deps.append(tuple(deps))
        self._acquires.append(acquire)
        self._releases.append(release)
        self._labels.append(label)
        self._require.append(require_deps)
        if key is not None:
            self._ids[key] = op_id
        return op_id

    def build(self) -> List[SimOp]:
        """Materialize the accumulated columns as a :class:`SimOp` list."""
        ids = self._ids
        ops: List[SimOp] = []
        for op_id in range(len(self._resources)):
            resolved: List[int] = []
            for d in self._deps[op_id]:
                if isinstance(d, int):
                    resolved.append(d)
                elif d in ids:
                    resolved.append(ids[d])
                elif self._require[op_id]:
                    raise SimulationDeadlock(
                        f"op {self._labels[op_id] or op_id} depends on "
                        f"never-emitted key {d!r}")
            ops.append(SimOp(op_id=op_id, resource=self._resources[op_id],
                             duration=self._durations[op_id],
                             deps=tuple(resolved),
                             mem_acquire=self._acquires[op_id],
                             mem_release=self._releases[op_id],
                             label=self._labels[op_id]))
        return ops


# ---------------------------------------------------------------------------
# Incremental memory ledger
# ---------------------------------------------------------------------------

class _MemoryLedger:
    """Incremental capacity ledger over scheduled acquire/release events.

    An op may hold bytes across a window that *other* ops close (e.g. a
    forward op acquires a stash that the matching backward op releases), so
    fitting a new acquire at time ``t`` must respect every already-scheduled
    usage peak at or after ``t`` — a suffix-maximum query over the event
    timeline.  Conservative by construction: an acquire is only placed where
    it can never retroactively oversubscribe the capacity.

    State is four parallel arrays over *unique* event times:

    * ``_times``  — sorted event times;
    * ``_deltas`` — net byte delta at each time (same-instant events merge);
    * ``_cums``   — prefix sums of ``_deltas`` (usage right after event i);
    * ``_sufmax`` — ``max(_cums[i:], 0)``, one sentinel convention: index
      ``n`` holds 0 (usage after the last event never blocks a fit, and a
      budget is never negative, so clamping at 0 is decision-equivalent to
      the true suffix maximum).

    ``record`` merges or bisect-inserts and marks the arrays dirty from
    the touched index; ``earliest_fit`` repairs lazily — forward from the
    dirty index for ``_cums``, backward with early termination for
    ``_sufmax`` — then answers with one binary search over the
    non-increasing ``_sufmax``.  Events land at or near the schedule
    frontier, so repairs touch an amortized O(1) suffix of the arrays.
    """

    __slots__ = ("capacity", "repairs", "_times", "_deltas", "_cums",
                 "_sufmax", "_dirty")

    def __init__(self, capacity: Optional[int]):
        self.capacity = capacity
        self.repairs = 0                # lazy-repair count (observability)
        self._times: List[float] = []
        self._deltas: List[int] = []
        self._cums: List[int] = []
        self._sufmax: List[int] = [0]   # index n sentinel
        self._dirty = 0                 # arrays valid on [0, _dirty)

    def record(self, time: float, delta: int) -> None:
        if self.capacity is None or delta == 0:
            return
        times = self._times
        i = bisect_left(times, time)
        if i < len(times) and times[i] == time:
            self._deltas[i] += delta
        else:
            times.insert(i, time)
            self._deltas.insert(i, delta)
            self._cums.insert(i, 0)
            self._sufmax.insert(i, 0)
        if i < self._dirty:
            self._dirty = i

    def _repair(self) -> None:
        self.repairs += 1
        n = len(self._times)
        i = self._dirty
        cums, deltas, sufmax = self._cums, self._deltas, self._sufmax
        run = cums[i - 1] if i > 0 else 0
        for j in range(i, n):
            run += deltas[j]
            cums[j] = run
        peak = 0                        # sufmax[n] sentinel
        for j in range(n - 1, i - 1, -1):
            c = cums[j]
            if c > peak:
                peak = c
            sufmax[j] = peak
        # propagate below the dirty point until a value is unchanged
        # (sufmax[j] = max(cums[j], sufmax[j+1]) and cums[<i] are intact)
        for j in range(i - 1, -1, -1):
            c = cums[j]
            v = c if c > peak else peak
            if v == sufmax[j]:
                break
            sufmax[j] = v
            peak = v
        self._dirty = n

    def earliest_fit(self, need: int, not_before: float) -> Optional[float]:
        """Earliest t >= not_before such that usage(t') + need <= capacity
        for every t' >= t under the currently scheduled events.

        Returns None when no such time exists *yet* — the caller should
        defer the op until further releases have been scheduled.
        """
        if self.capacity is None or need == 0:
            return not_before
        if need > self.capacity:
            raise SimulationDeadlock(
                f"op needs {need} B > ledger capacity {self.capacity} B")
        times = self._times
        n = len(times)
        if n == 0:
            return not_before
        if self._dirty < n:
            self._repair()
        cums, sufmax = self._cums, self._sufmax
        budget = self.capacity - need
        i0 = bisect_right(times, not_before)
        usage_at = cums[i0 - 1] if i0 > 0 else 0
        if usage_at <= budget and sufmax[i0] <= budget:
            return not_before
        # otherwise advance to the first later event time whose suffix
        # peak fits (releases shrink peaks; sufmax is non-increasing, so
        # the frontier is a plain binary search)
        lo, hi = i0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if sufmax[mid] <= budget:
                hi = mid
            else:
                lo = mid + 1
        if lo < n:
            return max(not_before, times[lo])
        # cannot fit against the *currently scheduled* events; the caller
        # may retry after more releases are scheduled
        return None


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

class _Prepared:
    """Dense scheduling state shared by both engine paths.

    Ops are re-indexed to dense positions so every hot-loop lookup is a
    list index, not a dict probe; per-resource FIFO queues hold dense
    indices; ``busy`` (per-resource duration sums, accumulated in op
    order — the float addition order the summary is defined in) is static
    and computed here once.
    """

    __slots__ = ("ops", "n", "resources", "queues", "queue_of_op",
                 "indeg", "dependents", "deps", "durations", "acquires",
                 "releases", "busy")

    def __init__(self, ops: Sequence[SimOp]):
        self.ops = ops
        n = self.n = len(ops)
        dense = True
        for i in range(n):
            if ops[i].op_id != i:
                dense = False
                break
        if dense:
            # ids equal positions: nothing to remap, just range-check deps
            for op in ops:
                for d in op.deps:
                    if d < 0 or d >= n:
                        raise ValueError(
                            f"op {op.label or op.op_id} depends on "
                            f"unknown op {d}")
            deps = [op.deps for op in ops]
        else:
            idx: Dict[int, int] = {}
            for i, op in enumerate(ops):
                if op.op_id in idx:
                    raise ValueError("duplicate op ids")
                idx[op.op_id] = i
            try:
                deps = [tuple(idx[d] for d in op.deps) for op in ops]
            except KeyError as exc:
                bad = exc.args[0]
                who = next(op for op in ops if bad in op.deps)
                raise ValueError(f"op {who.label or who.op_id} depends on "
                                 f"unknown op {bad}") from exc
        self.deps = deps

        queue_index: Dict[str, int] = {}
        resources: List[str] = []
        queues: List[List[int]] = []
        busy: List[float] = []
        queue_of_op = [0] * n
        durations = [0.0] * n
        acquires = [0] * n
        releases = [0] * n
        for i, op in enumerate(ops):
            qi = queue_index.get(op.resource)
            if qi is None:
                qi = len(queues)
                queue_index[op.resource] = qi
                resources.append(op.resource)
                queues.append([])
                busy.append(0.0)
            queues[qi].append(i)
            queue_of_op[i] = qi
            busy[qi] += op.duration
            durations[i] = op.duration
            acquires[i] = op.mem_acquire
            releases[i] = op.mem_release
        self.resources = resources
        self.queues = queues
        self.queue_of_op = queue_of_op
        self.busy = busy
        self.durations = durations
        self.acquires = acquires
        self.releases = releases

        indeg = [0] * n
        dependents: List[List[int]] = [[] for _ in range(n)]
        for i in range(n):
            ds = deps[i]
            indeg[i] = len(ds)
            for d in ds:
                dependents[d].append(i)
        self.indeg = indeg
        self.dependents = dependents

    def stuck_heads(self, heads: List[int]) -> List[str]:
        out = []
        for qi, q in enumerate(self.queues):
            if heads[qi] < len(q):
                op = self.ops[q[heads[qi]]]
                out.append(op.label or str(op.op_id))
        return out

    def finalize(self, starts: List[float], finishes: List[float],
                 readies: List[float]) -> SimResult:
        """Summary from the dense arrays — identical values to
        :func:`summarize`: per-resource busy sums accumulate in op order,
        and FIFO scheduling makes starts/finishes monotone per queue, so
        span endpoints are the first start / last finish."""
        ops = self.ops
        timings = {op.op_id: OpTiming(op, starts[i], finishes[i],
                                      readies[i])
                   for i, op in enumerate(ops)}
        makespan = 0.0
        resource_busy: Dict[str, float] = {}
        span: Dict[str, Tuple[float, float]] = {}
        for qi, q in enumerate(self.queues):
            hi = finishes[q[-1]]
            span[self.resources[qi]] = (starts[q[0]], hi)
            resource_busy[self.resources[qi]] = self.busy[qi]
            if hi > makespan:
                makespan = hi
        return SimResult(timings=timings, makespan=makespan,
                         resource_busy=resource_busy, resource_span=span)


def _simulate_heap(prep: _Prepared,
                   stats: Optional[Dict[str, int]] = None) -> SimResult:
    """Unledgered path: without a memory ledger an op's timing is a pure
    function of its deps and its FIFO predecessor, so a priority queue of
    dep-ready resource heads keyed by earliest feasible start schedules
    every op exactly once, in chronological order.

    ``stats`` (observability, only passed while tracing is enabled)
    receives the event count and the heap's population peak; when it is
    None the loop pays a single local-bool check per event.
    """
    queues = prep.queues
    deps = prep.deps
    indeg = list(prep.indeg)
    dependents = prep.dependents
    durations = prep.durations
    queue_of_op = prep.queue_of_op
    nq = len(queues)
    n = prep.n
    heads = [0] * nq
    resource_free = [0.0] * nq
    starts = [0.0] * n
    finishes = [0.0] * n
    readies = [0.0] * n

    heap: List[Tuple[float, int]] = []
    pushed = [False] * nq   # at most one outstanding entry per queue head

    def push_head(qi: int) -> None:
        if pushed[qi]:
            return
        q = queues[qi]
        h = heads[qi]
        if h >= len(q):
            return
        i = q[h]
        if indeg[i]:
            return
        ready = 0.0
        for d in deps[i]:
            f = finishes[d]
            if f > ready:
                ready = f
        readies[i] = ready
        free = resource_free[qi]
        pushed[qi] = True
        heappush(heap, (ready if ready > free else free, qi))

    for qi in range(nq):
        push_head(qi)

    track = stats is not None
    heap_peak = 0
    remaining = n
    while heap:
        if track and len(heap) > heap_peak:
            heap_peak = len(heap)
        start, qi = heappop(heap)
        pushed[qi] = False
        i = queues[qi][heads[qi]]
        finish = start + durations[i]
        starts[i] = start
        finishes[i] = finish
        resource_free[qi] = finish
        heads[qi] += 1
        remaining -= 1
        for j in dependents[i]:
            indeg[j] -= 1
            if not indeg[j]:
                dj = queue_of_op[j]
                if queues[dj][heads[dj]] == j:
                    push_head(dj)
        push_head(qi)
    if remaining:
        raise SimulationDeadlock(
            f"no progress; blocked resource heads: "
            f"{prep.stuck_heads(heads)}")
    if stats is not None:
        stats["events"] = n
        stats["heap_peak"] = heap_peak
    return prep.finalize(starts, finishes, readies)


def _simulate_ledgered(prep: _Prepared, memory_capacity: int,
                       stats: Optional[Dict[str, int]] = None) -> SimResult:
    """Ledgered path: greedy drain of each resource queue in issue order
    (the seed engine's semantics — ledger placement is order-dependent, so
    this order *is* the spec), revisiting a resource only when a wakeup
    (dep scheduled, or any ledger change while its head was deferred) can
    actually unblock it.

    ``stats`` (observability) receives the event count and ledger
    telemetry post hoc — the scheduling loop itself is untouched.
    """
    queues = prep.queues
    deps = prep.deps
    indeg = list(prep.indeg)
    dependents = prep.dependents
    durations = prep.durations
    acquires = prep.acquires
    releases = prep.releases
    queue_of_op = prep.queue_of_op
    nq = len(queues)
    n = prep.n
    heads = [0] * nq
    resource_free = [0.0] * nq
    starts = [0.0] * n
    finishes = [0.0] * n
    readies = [0.0] * n
    ledger = _MemoryLedger(memory_capacity)
    earliest_fit = ledger.earliest_fit
    record = ledger.record
    remaining = n

    runnable = [True] * nq              # visit on the next pass
    deferred = [False] * nq             # head blocked on the ledger
    n_deferred = 0

    while remaining:
        progressed = False
        for qi in range(nq):
            if not runnable[qi]:
                continue
            runnable[qi] = False
            q = queues[qi]
            h = heads[qi]
            free = resource_free[qi]
            while h < len(q):
                i = q[h]
                if indeg[i]:
                    break  # head blocked on an unscheduled dep
                ready = 0.0
                for d in deps[i]:
                    f = finishes[d]
                    if f > ready:
                        ready = f
                start = ready if ready > free else free
                acquire = acquires[i]
                if acquire:
                    fit = earliest_fit(acquire, start)
                    if fit is None:
                        deferred[qi] = True
                        n_deferred += 1
                        break  # defer: future releases may open room
                    start = fit
                finish = start + durations[i]
                record(start, acquire)
                record(finish, -releases[i])
                starts[i] = start
                readies[i] = ready
                finishes[i] = finish
                free = finish
                h += 1
                remaining -= 1
                progressed = True
                for j in dependents[i]:
                    indeg[j] -= 1
                    if not indeg[j]:
                        runnable[queue_of_op[j]] = True
                if n_deferred:
                    # any new event can open room for a deferred head
                    for dq in range(nq):
                        if deferred[dq]:
                            deferred[dq] = False
                            runnable[dq] = True
                    n_deferred = 0
            heads[qi] = h
            resource_free[qi] = free
        if not progressed and remaining:
            raise SimulationDeadlock(
                f"no progress; blocked resource heads: "
                f"{prep.stuck_heads(heads)}")
    if stats is not None:
        stats["events"] = n
        stats["ledger_events"] = len(ledger._times)
        stats["ledger_repairs"] = ledger.repairs
    return prep.finalize(starts, finishes, readies)


def simulate(ops: Sequence[SimOp],
             memory_capacity: Optional[int] = None) -> SimResult:
    """Schedule ``ops`` (given in issue order) and return timings.

    Args:
        ops: the operations to schedule; their order defines each
            resource's FIFO issue order (CUDA-stream semantics).
        memory_capacity: optional near-memory ledger in bytes; ops that
            ``mem_acquire`` are delayed until their bytes fit against
            every already-scheduled usage peak (capacity-based prefetch
            throttling).  ``None`` disables the ledger.

    Returns:
        A :class:`SimResult` — per-op timings, makespan, and
        per-resource busy/span aggregates.

    Raises:
        SimulationDeadlock: no resource head can make progress (circular
            waits, or an acquire larger than the ledger).

    Results are bit-identical to
    :func:`repro.sim.reference_engine.simulate_reference` (the seed
    engine) on every input — the differential test suite holds the two
    to exact equality.
    """
    if not ops:
        return SimResult(timings={}, makespan=0.0, resource_busy={},
                         resource_span={})
    prep = _Prepared(ops)
    if memory_capacity is None or not any(prep.acquires):
        if not TRACER.enabled:
            return _simulate_heap(prep)
        return _simulate_instrumented(prep, None)
    if not TRACER.enabled:
        return _simulate_ledgered(prep, memory_capacity)
    return _simulate_instrumented(prep, memory_capacity)


def _simulate_instrumented(prep: _Prepared,
                           memory_capacity: Optional[int]) -> SimResult:
    """Tracing-enabled twin of the :func:`simulate` dispatch: identical
    timings, plus a span and engine-stat metrics (events processed,
    ledger repairs, heap population peak)."""
    stats: Dict[str, int] = {}
    path = "heap" if memory_capacity is None else "ledgered"
    with TRACER.span("sim.simulate", "sim", ops=prep.n, path=path) as sp:
        if memory_capacity is None:
            result = _simulate_heap(prep, stats)
        else:
            result = _simulate_ledgered(prep, memory_capacity, stats)
        sp.set(**stats)
    METRICS.counter("sim.runs").inc()
    METRICS.counter("sim.events").inc(prep.n)
    if "heap_peak" in stats:
        METRICS.histogram("sim.heap_peak").observe(stats["heap_peak"])
    if "ledger_repairs" in stats:
        METRICS.counter("sim.ledger_repairs").inc(stats["ledger_repairs"])
        METRICS.histogram("sim.ledger_events").observe(
            stats["ledger_events"])
    return result
