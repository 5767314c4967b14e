"""An independent schedule invariant checker.

It knows nothing of the engine's loops or its ledger: it reads the ops
(issue order, deps, durations, bytes) and a :class:`SimResult`'s timings
and checks what every legal schedule of them must satisfy.  Equality with
the seed engine catches drift; this catches a bug the two might share.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.sim.engine import SimOp, SimResult


def longest_dep_chain(ops: Sequence[SimOp]) -> float:
    """Summed durations along the longest dependency path (deps only, no
    FIFO edges): a lower bound on any schedule's makespan."""
    by_id = {op.op_id: op for op in ops}
    indeg = {op.op_id: len(op.deps) for op in ops}
    dependents: Dict[int, List[int]] = defaultdict(list)
    for op in ops:
        for d in op.deps:
            dependents[d].append(op.op_id)
    ready = [i for i, k in indeg.items() if k == 0]
    finish: Dict[int, float] = {}
    while ready:
        i = ready.pop()
        finish[i] = max((finish[d] for d in by_id[i].deps), default=0.0) \
            + by_id[i].duration
        for j in dependents[i]:
            indeg[j] -= 1
            if not indeg[j]:
                ready.append(j)
    return max(finish.values(), default=0.0)


def schedule_violations(ops: Sequence[SimOp], result: SimResult,
                        capacity: Optional[int]) -> List[str]:
    """Every broken invariant of ``result`` as a schedule of ``ops``."""
    t = result.timings
    bad: List[str] = []
    queues: Dict[str, List[SimOp]] = defaultdict(list)
    for op in ops:
        queues[op.resource].append(op)
        if t[op.op_id].finish != t[op.op_id].start + op.duration:
            bad.append(f"op {op.op_id}: finish is not start + duration")
        for d in op.deps:
            if t[d].finish > t[op.op_id].start:
                bad.append(f"op {op.op_id} starts before its dep {d} ends")
    for resource, queue in queues.items():
        for a, b in zip(queue, queue[1:]):
            if t[b.op_id].start < t[a.op_id].finish:
                bad.append(f"{resource}: op {b.op_id} overtakes op "
                           f"{a.op_id}, issued before it (FIFO)")
        spans = sorted((t[op.op_id].start, t[op.op_id].finish)
                       for op in queue)
        for (_, f0), (s1, _) in zip(spans, spans[1:]):
            if s1 < f0:
                bad.append(f"{resource}: ops overlap at {s1!r}")
    if capacity is not None:
        deltas: Dict[float, int] = defaultdict(int)
        for op in ops:
            deltas[t[op.op_id].start] += op.mem_acquire
            deltas[t[op.op_id].finish] -= op.mem_release
        usage = 0
        for time in sorted(deltas):
            usage += deltas[time]
            if usage > capacity:
                bad.append(f"ledger holds {usage} B > {capacity} B at "
                           f"{time!r}")
    if result.makespan < longest_dep_chain(ops):
        bad.append(f"makespan {result.makespan!r} is below the longest "
                   "dependency chain")
    return bad
