"""Deterministic scheduling engine for schedule simulation (part of
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

There is one scheduling loop, and the ledger is optional.  The loop is
the seed engine's greedy pass order: drain each resource queue in issue
order while its head is dep-ready (and, with a ledger, fits).  The
ledger makes timing order-*dependent*, so this order *is* the spec, and
bit-identical results with :mod:`repro.sim.reference_engine` are a hard
invariant.  Without a ledger (``memory_capacity=None``, or no op
acquires bytes — every distributed pipeline sim) an op's timing depends
only on its deps and its FIFO predecessor, so any order that schedules
each op once as its resource's dep-ready head gives the same floats;
the same loop serves both.  It is the objective function of the
blocking/portfolio search, so it is built to be *fast*, not just
correct:

* dependency satisfaction is tracked with per-op **indegree counters and
  reverse-edge wakeups** — scheduling an op touches only its dependents,
  never the whole queue set, and a pass visits only resources whose
  blocking condition may have changed since the last visit;
* the :class:`_MemoryLedger` keeps the event timeline in two sorted
  parallel arrays plus a running total: ``record`` is an
  :math:`O(\\log n)` bisect plus a (C-speed) insert, and ``earliest_fit``
  walks back from the last event only as far as ``not_before`` — a few
  events, since fits land near the schedule frontier — where the seed
  engine rebuilt prefix usages and suffix maxima from scratch on *every*
  acquire.

A priority queue of ready resource heads used to schedule unledgered
streams.  On the 36 language-model schedules of the benchmark's
``eval_sweep`` (20 178 ops, none ledgered) it gave the same timings as
this loop at 1.7x its engine CPU (15.2 against 8.9 ms, 2-core x86 VM),
so it was deleted.

The engine is fully deterministic (no randomness, no wall clock); one
training iteration of a 64-block plan is a few hundred events, and the
portfolio search can afford tens of thousands of calls per plan.
:class:`ScheduleBuilder` is the op-emission front end of the distributed
compiler (:mod:`repro.sim.distributed_sim`); the single-worker compiler
(:mod:`repro.sim.trainer_sim`) assembles its columns from per-op
templates instead.  A :class:`Schedule` is an op
stream's cost-free structure; :func:`simulate` prepares one per call,
while the blocking search keeps one per skeleton and re-prices it with
:func:`run_schedule`.

Resuming a run from a snapshot of an earlier one was measured and not
built.  Each ledgered run of one ``plan()`` was recorded in this loop's
own greedy order as (queue, duration, acquire, release, deps as
positions in that order, start) and matched against the same plan's
previous 8 runs; the longest common prefix is what a snapshot could
skip.  Over the ``plan_cold_wide`` configs (resnet200 b12-b24, ``abci``;
381 runs, 133k events) that is 9.8% of the events, and over the
``plan_cold_deep`` configs (resnet1001 b128-b256; 349 runs, 35k events)
18.9%; matching against every earlier run of the plan gives 12.1% and
19.4%.  Runs of one plan diverge early in that order, so a snapshot
would save too little to pay for keeping it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
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

        Computed once per resource and cached — :meth:`idle_gaps` and the
        stall reporting (:mod:`repro.sim.stall`) walk this list, and
        re-sorting it per call dominated occupancy reporting on large
        plans.
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
        #: per-op resource and label columns, in emission order
        self.resources: List[str] = []
        self.labels: List[str] = []
        self._durations: List[float] = []
        self._deps: List[Tuple[DepSpec, ...]] = []
        self._acquires: List[int] = []
        self._releases: List[int] = []
        self._require: List[bool] = []
        self._ids: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self.resources)

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
        op_id = len(self.resources)
        self.resources.append(resource)
        self._durations.append(duration)
        self._deps.append(tuple(deps))
        self._acquires.append(acquire)
        self._releases.append(release)
        self.labels.append(label)
        self._require.append(require_deps)
        if key is not None:
            self._ids[key] = op_id
        return op_id

    def resolve(self) -> List[Tuple[int, ...]]:
        """Every op's dependencies as op ids, symbolic keys resolved
        against the final key map (see the class docstring)."""
        ids = self._ids
        out: List[Tuple[int, ...]] = []
        for op_id, specs in enumerate(self._deps):
            resolved: List[int] = []
            for d in specs:
                if isinstance(d, int):
                    resolved.append(d)
                elif d in ids:
                    resolved.append(ids[d])
                elif self._require[op_id]:
                    raise SimulationDeadlock(
                        f"op {self.labels[op_id] or op_id} depends on "
                        f"never-emitted key {d!r}")
            out.append(tuple(resolved))
        return out

    def build(self) -> List[SimOp]:
        """Materialize the accumulated columns as a :class:`SimOp` list."""
        return [SimOp(op_id=op_id, resource=self.resources[op_id],
                      duration=self._durations[op_id], deps=deps,
                      mem_acquire=self._acquires[op_id],
                      mem_release=self._releases[op_id],
                      label=self.labels[op_id])
                for op_id, deps in enumerate(self.resolve())]


# ---------------------------------------------------------------------------
# Incremental memory ledger
# ---------------------------------------------------------------------------

class _MemoryLedger:
    """Capacity ledger over scheduled acquire/release events.

    An op may hold bytes across a window that *other* ops close (e.g. a
    forward op acquires a stash that the matching backward op releases), so
    fitting a new acquire at time ``t`` must respect every already-scheduled
    usage peak at or after ``t``.  Conservative by construction: an acquire
    is only placed where it can never retroactively oversubscribe the
    capacity.

    State is two parallel arrays over *unique* event times — ``_times``
    (sorted) and ``_deltas`` (net bytes at each time; same-instant events
    merge) — plus ``total``, the usage after the last event.  ``record``
    is a bisect plus at most two inserts.  ``earliest_fit`` walks back
    from the last event to ``not_before``, reading the usage after each
    event as ``total`` minus the deltas walked: the last event over
    budget decides the answer (fit at the next event, or None), and when
    none is over budget the usage at ``not_before`` does.  Events land at
    or near the schedule frontier, so a fit reads a few events, not the
    timeline.
    """

    __slots__ = ("capacity", "total", "_times", "_deltas")

    def __init__(self, capacity: Optional[int]):
        self.capacity = capacity
        self.total = 0
        self._times: List[float] = []
        self._deltas: List[int] = []

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
        self.total += delta

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
        deltas = self._deltas
        budget = self.capacity - need
        i0 = bisect_right(times, not_before)
        usage = self.total
        i = len(times) - 1
        while i >= i0:
            if usage > budget:
                # the last event over budget: room opens at the next one
                return times[i + 1] if i + 1 < len(times) else None
            usage -= deltas[i]
            i -= 1
        # usage is now what holds at not_before; every later event fits,
        # so only it can block (it holds until the first later event)
        if usage <= budget:
            return not_before
        return times[i0] if i0 < len(times) else None


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

class Schedule:
    """The cost-free structure of one op stream, prepared for the loops.

    Ops are dense positions.  Per-resource FIFO queues hold positions in
    issue order; ``deps``, ``dependents`` and ``indeg`` are the resolved
    edges, so scheduling an op touches only its dependents.  Every
    container is a tuple of ints (of strs for ``resources``/``labels``),
    which the cyclic collector untracks: a lowering cache keeps one
    Schedule per skeleton and prices it any number of times with fresh
    durations and byte counts through :func:`run_schedule`.
    ``deps`` must already be valid positions (:func:`simulate` checks
    caller-built ops before preparing them).
    """

    __slots__ = ("n", "resources", "queues", "queue_of_op", "deps",
                 "dependents", "indeg", "labels")

    def __init__(self, resources: Sequence[str],
                 deps: Sequence[Tuple[int, ...]],
                 labels: Sequence[str]) -> None:
        n = self.n = len(resources)
        queue_index: Dict[str, int] = {}
        queues: List[List[int]] = []
        queue_of_op = [0] * n
        for i, resource in enumerate(resources):
            qi = queue_index.get(resource)
            if qi is None:
                qi = queue_index[resource] = len(queues)
                queues.append([])
            queues[qi].append(i)
            queue_of_op[i] = qi
        dependents: List[List[int]] = [[] for _ in range(n)]
        for i, ds in enumerate(deps):
            for d in ds:
                dependents[d].append(i)
        self.resources = tuple(queue_index)
        self.queues = tuple(map(tuple, queues))
        self.queue_of_op = tuple(queue_of_op)
        self.deps = tuple(deps)
        self.dependents = tuple(map(tuple, dependents))
        self.indeg = tuple(map(len, self.deps))
        self.labels = tuple(labels)

    def stuck_heads(self, heads: List[int]) -> List[str]:
        return [self.labels[q[heads[qi]]]
                for qi, q in enumerate(self.queues) if heads[qi] < len(q)]


#: Per-op (starts, finishes, readies) of one scheduled stream, by position.
Times = Tuple[List[float], List[float], List[float]]


def _prepare(ops: Sequence[SimOp]) -> Schedule:
    """The :class:`Schedule` of caller-built ops: ids re-indexed to dense
    positions (every hot-loop lookup is then a list index, not a dict
    probe) and every dependency checked to name a known op."""
    n = len(ops)
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
    return Schedule([op.resource for op in ops], deps,
                    [op.label or str(op.op_id) for op in ops])


def queue_busy(queue: Sequence[int], durations: Sequence[float]) -> float:
    """Summed durations of one resource queue, added in issue order: the
    float addition order every busy-time summary is defined in."""
    busy = 0.0
    for i in queue:
        busy += durations[i]
    return busy


def finalize(ops: Sequence[SimOp], schedule: Schedule,
             durations: Sequence[float], times: Times) -> SimResult:
    """Fold one scheduled stream into a :class:`SimResult` — identical
    values to :func:`summarize`: per-resource busy sums accumulate in op
    order, and FIFO scheduling makes starts/finishes monotone per queue,
    so span endpoints are the first start / last finish."""
    starts, finishes, readies = times
    timings = {op.op_id: OpTiming(op, starts[i], finishes[i], readies[i])
               for i, op in enumerate(ops)}
    makespan = 0.0
    resource_busy: Dict[str, float] = {}
    span: Dict[str, Tuple[float, float]] = {}
    for resource, q in zip(schedule.resources, schedule.queues):
        hi = finishes[q[-1]]
        span[resource] = (starts[q[0]], hi)
        resource_busy[resource] = queue_busy(q, durations)
        if hi > makespan:
            makespan = hi
    return SimResult(timings=timings, makespan=makespan,
                     resource_busy=resource_busy, resource_span=span)


def _run(schedule: Schedule, durations: Sequence[float],
         acquires: Sequence[int], releases: Sequence[int],
         memory_capacity: Optional[int],
         stats: Optional[Dict[str, int]] = None) -> Times:
    """The scheduling loop: greedy drain of each resource queue in issue
    order (the seed engine's semantics — ledger placement is
    order-dependent, so this order *is* the spec), revisiting a resource
    only when a wakeup (dep scheduled, or any ledger change while its head
    was deferred) can actually unblock it.  With ``memory_capacity=None``
    the ledger records nothing and every acquire fits at once.

    ``stats`` (observability) receives the event count and, when there is
    a ledger, its event count, post hoc — the loop itself is untouched.
    """
    queues = schedule.queues
    deps = schedule.deps
    indeg = list(schedule.indeg)
    dependents = schedule.dependents
    queue_of_op = schedule.queue_of_op
    nq = len(queues)
    n = schedule.n
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
                if acquire:
                    record(start, acquire)
                if releases[i]:
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
                f"{schedule.stuck_heads(heads)}")
    if stats is not None:
        stats["events"] = n
        if memory_capacity is not None:
            stats["ledger_events"] = len(ledger._times)
    return starts, finishes, readies


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
    schedule = _prepare(ops)
    durations = [op.duration for op in ops]
    times = run_schedule(schedule, durations,
                         [op.mem_acquire for op in ops],
                         [op.mem_release for op in ops], memory_capacity)
    return finalize(ops, schedule, durations, times)


def run_schedule(schedule: Schedule, durations: Sequence[float],
                 acquires: Sequence[int], releases: Sequence[int],
                 memory_capacity: Optional[int] = None) -> Times:
    """Schedule a prepared stream with one set of per-op costs.

    The engine behind :func:`simulate`, for callers that keep a
    :class:`Schedule` and re-price it: same arguments per op position,
    same :class:`SimulationDeadlock`; returns (starts, finishes, readies)
    instead of a :class:`SimResult`.
    """
    if not TRACER.enabled:
        return _run(schedule, durations, acquires, releases, memory_capacity)
    return _simulate_instrumented(schedule, durations, acquires, releases,
                                  memory_capacity)


def _simulate_instrumented(schedule: Schedule, durations: Sequence[float],
                           acquires: Sequence[int], releases: Sequence[int],
                           memory_capacity: Optional[int]) -> Times:
    """:func:`run_schedule` with tracing on: the same loop inside a span,
    plus engine-stat metrics (events processed, ledger events)."""
    stats: Dict[str, int] = {}
    with TRACER.span("sim.simulate", "sim", ops=schedule.n) as sp:
        times = _run(schedule, durations, acquires, releases,
                     memory_capacity, stats)
        sp.set(**stats)
    METRICS.counter("sim.runs").inc()
    METRICS.counter("sim.events").inc(schedule.n)
    if "ledger_events" in stats:
        METRICS.histogram("sim.ledger_events").observe(
            stats["ledger_events"])
    return times
