"""The original round-robin simulation engine, kept as the differential
oracle for :mod:`repro.sim.engine`.

This module preserves the seed engine's *scheduling semantics* verbatim:
repeated passes over the resource queues in issue order, draining each
head while its dependencies are scheduled and the memory ledger admits it,
with the ledger rebuilding the merged event timeline and suffix maxima
from scratch on every acquire.  It is :math:`O(\\text{events}^2)` per
simulation and exists only so tests can assert that the production engine
produces **bit-identical** timings (`tests/test_engine_differential.py`)
and so ``benchmarks/bench_engine.py`` can measure the speedup honestly.

Do not use this from production code paths — import
:func:`repro.sim.engine.simulate` instead.

The only deliberate deviations from the seed implementation, both
behaviour-preserving:

* the ``bisect`` import is hoisted to module level;
* summary statistics (``resource_busy``/``resource_span``/``makespan``)
  are accumulated in canonical op order via the shared
  :func:`~repro.sim.engine.summarize` helper, so float accumulation order
  cannot differ between the two engines (the per-op timings, which are
  the semantics, are computed exactly as the seed did).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import OpTiming, SimOp, SimResult, SimulationDeadlock, summarize


class _ReferenceMemoryLedger:
    """Capacity ledger over scheduled acquire/release events.

    An op may hold bytes across a window that *other* ops close (e.g. a
    forward op acquires a stash that the matching backward op releases), so
    fitting a new acquire at time ``t`` must respect every already-scheduled
    usage peak at or after ``t`` — a suffix-maximum query over the event
    timeline.  Conservative by construction: an acquire is only placed where
    it can never retroactively oversubscribe the capacity.
    """

    def __init__(self, capacity: Optional[int]):
        self.capacity = capacity
        self._events: List[Tuple[float, int]] = []  # (time, delta), sorted

    def record(self, time: float, delta: int) -> None:
        if self.capacity is None or delta == 0:
            return
        bisect.insort(self._events, (time, delta), key=lambda e: e[0])

    def _merged(self) -> Tuple[List[float], List[int]]:
        """Unique event times with net deltas (releases and acquires at the
        same instant cancel)."""
        times: List[float] = []
        deltas: List[int] = []
        for t, d in self._events:
            if times and times[-1] == t:
                deltas[-1] += d
            else:
                times.append(t)
                deltas.append(d)
        return times, deltas

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
        times, deltas = self._merged()
        n = len(times)
        if n == 0:
            return not_before
        # usage right after each event, and suffix maxima of those usages
        cums: List[int] = []
        u = 0
        for d in deltas:
            u += d
            cums.append(u)
        suffix_max = [0] * (n + 1)  # suffix_max[i] = max(cums[i:], 0)
        for i in range(n - 1, -1, -1):
            suffix_max[i] = max(cums[i], suffix_max[i + 1])

        budget = self.capacity - need
        # candidate 1: start at not_before
        i0 = 0
        usage_at = 0
        while i0 < n and times[i0] <= not_before:
            usage_at = cums[i0]
            i0 += 1
        peak = max(usage_at, suffix_max[i0] if i0 < n else 0)
        if peak <= budget:
            return not_before
        # otherwise advance to each later event time (releases shrink peaks)
        for i in range(i0, n):
            peak = max(cums[i], suffix_max[i + 1] if i + 1 < n else 0)
            if peak <= budget:
                return max(not_before, times[i])
        # cannot fit against the *currently scheduled* events; the caller
        # may retry after more releases are scheduled
        return None


def simulate_reference(ops: Sequence[SimOp],
                       memory_capacity: Optional[int] = None) -> SimResult:
    """Schedule ``ops`` with the seed round-robin engine (oracle only)."""
    by_id = {op.op_id: op for op in ops}
    if len(by_id) != len(ops):
        raise ValueError("duplicate op ids")
    for op in ops:
        for d in op.deps:
            if d not in by_id:
                raise ValueError(f"op {op.label or op.op_id} depends on "
                                 f"unknown op {d}")

    queues: Dict[str, List[SimOp]] = {}
    for op in ops:
        queues.setdefault(op.resource, []).append(op)
    heads = {r: 0 for r in queues}
    resource_free = {r: 0.0 for r in queues}

    ledger = _ReferenceMemoryLedger(memory_capacity)
    timings: Dict[int, OpTiming] = {}
    remaining = len(ops)

    while remaining:
        progressed = False
        for r, queue in queues.items():
            while heads[r] < len(queue):
                op = queue[heads[r]]
                if any(d not in timings for d in op.deps):
                    break  # head blocked on an unscheduled dep
                ready = max((timings[d].finish for d in op.deps), default=0.0)
                start = max(ready, resource_free[r])
                if op.mem_acquire:
                    fit = ledger.earliest_fit(op.mem_acquire, start)
                    if fit is None:
                        break  # defer: future releases may open room
                    start = fit
                finish = start + op.duration
                ledger.record(start, op.mem_acquire)
                ledger.record(finish, -op.mem_release)
                timings[op.op_id] = OpTiming(op, start, finish, ready)
                resource_free[r] = finish
                heads[r] += 1
                remaining -= 1
                progressed = True
        if not progressed and remaining:
            stuck = [queue[heads[r]].label or str(queue[heads[r]].op_id)
                     for r, queue in queues.items() if heads[r] < len(queue)]
            raise SimulationDeadlock(
                f"no progress; blocked resource heads: {stuck}")

    return summarize(ops, timings)
