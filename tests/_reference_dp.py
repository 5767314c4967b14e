"""The label-correcting queue that ``solve_dp`` used to be, kept as the
differential oracle for the one-pass sweep (``tests/test_dp_differential.py``).

Copied from ``repro.core.solver.solve_dp`` as it stood before the sweep
replaced it.  The one edit: the problem no longer carries the batch
hooks the queue could consume, so only its scalar branches remain (the
batch branches were value-identical to them by construction).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.solver import PartitionProblem


def reference_solve_dp(problem: PartitionProblem) -> List[int]:
    """Exact shortest path over (prev boundary, cur boundary) states.

    Returns the boundary list (exclusive segment end indices, final element
    = num_segments).  Raises ValueError when no feasible partition exists.
    """
    u = problem.num_segments
    if u <= 0:
        raise ValueError("empty problem")
    INF = math.inf

    # per-start feasible span ends: feasibility of [b, c) is independent
    # of the previous boundary a, so each start's span survey is shared
    # by every (a, b) state expanded from it
    span_cache: Dict[int, Tuple[List[int], np.ndarray]] = {}

    def feasible_span(b: int) -> Tuple[List[int], np.ndarray]:
        hit = span_cache.get(b)
        if hit is None:
            arr = np.asarray([c for c in problem.spans(b)
                              if problem.block_feasible(b, c)],
                             dtype=np.int64)
            hit = (arr.tolist(), arr)
            span_cache[b] = hit
        return hit

    # best[(a, b)] = min cost of a partition prefix ending with block [a, b)
    best: Dict[Tuple[int, int], float] = {}
    parent: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
    for b in feasible_span(0)[0]:
        best[(0, b)] = problem.first_cost(0, b)
        parent[(0, b)] = None
    # process states in increasing b, then a (topological for appends)
    states = sorted(best.keys())
    queue = list(states)
    seen = set(states)
    qi = 0
    pair_cost = problem.pair_cost
    while qi < len(queue):
        a, b = queue[qi]
        qi += 1
        if b == u:
            continue
        base = best[(a, b)]
        cs, cs_arr = feasible_span(b)
        if not cs:
            continue
        costs = [base + pair_cost(a, b, c) for c in cs]
        for c, cost in zip(cs, costs):
            key = (b, c)
            if cost < best.get(key, INF) - 1e-18:
                best[key] = cost
                parent[key] = (a, b)
                if key not in seen:
                    queue.append(key)
                    seen.add(key)
                else:
                    # relaxed an existing state: re-expand it
                    queue.append(key)
    finals = [(k, v) for k, v in best.items() if k[1] == u]
    if not finals:
        raise ValueError("no feasible contiguous partition under the "
                         "memory constraint")
    key = min(finals, key=lambda kv: kv[1])[0]
    boundaries: List[int] = []
    while key is not None:
        boundaries.append(key[1])
        key = parent[key]
    return sorted(boundaries)
