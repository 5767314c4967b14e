"""Solvers for the contiguous-partition (blocking) problem of Opt-1.

The paper formulates blocking as a two-tier ILP (Fig. 4) and solves it with
MIDACO, an ant-colony MINLP metaheuristic.  This module covers that role
with three stages over the same problem:

* :func:`solve_dp` — exact dynamic program over the *pairwise surrogate*
  objective (sum over consecutive block pairs of their uncovered swap time).
  The surrogate makes the problem a shortest path in an expanded
  "(previous boundary, current boundary)" graph whose arcs all point to a
  larger boundary, so one sweep over boundaries in increasing order
  settles every state exactly once.
* :func:`portfolio_search` — prices a candidate portfolio (the DP
  solution among them) against an arbitrary *exact* objective callback
  (the event simulator's makespan).
* :func:`local_search` — hill climbing from the portfolio winner under
  the same exact objective.

All solvers work in "segment space": layers are first coarsened into atomic
segments at checkpoint boundaries, so a boundary vector is a subset of
segment indices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from ..obs.metrics import METRICS
from ..obs.trace import TRACER

#: Version of the search semantics.  Bump whenever a change to the solver
#: suite (objective, candidate portfolio, tie-breaking, placement sweep)
#: could alter the plan produced for identical inputs — the plan cache keys
#: on it, so bumping invalidates every cached plan.
SOLVER_VERSION = "2.0"


@dataclass(frozen=True)
class PartitionProblem:
    """Costs in segment space for the pairwise-surrogate objective.

    ``pair_cost(a, b, c)`` prices block [a, b) followed by [b, c): the
    backward-phase stall of the earlier block that the later block's compute
    cannot hide.  ``block_feasible(a, b)`` enforces the per-block memory
    cap (constraint 9.4 at block granularity).
    """

    num_segments: int
    pair_cost: Callable[[int, int, int], float]
    block_feasible: Callable[[int, int], bool]
    first_cost: Callable[[int, int], float]  # cost of the first block
    max_span: int = 64
    #: Optional array hooks for :func:`solve_dp`, one call per boundary
    #: ``b``: ``feasible_ends(b)`` is the increasing array of ends ``c``
    #: with ``[b, c)`` feasible within the span cap, and
    #: ``step_costs(b, starts, ends)`` the 2-D array of
    #: ``pair_cost(a, b, c)`` for every ``a`` in ``starts`` and ``c`` in
    #: ``ends``.  Both must equal their scalar twins exactly, so they may
    #: only redo the same float ops in the same order.  Absent, the DP
    #: derives them from the scalar callables.
    feasible_ends: Optional[Callable[[int], np.ndarray]] = None
    step_costs: Optional[
        Callable[[int, np.ndarray, np.ndarray], np.ndarray]] = None

    def spans(self, start: int) -> range:
        """Candidate next-boundary positions from ``start`` (span-capped)."""
        upper = min(self.num_segments, start + self.max_span)
        return range(start + 1, upper + 1)

    def ends(self, b: int) -> np.ndarray:
        """Feasible ends of a block starting at ``b``, increasing."""
        if self.feasible_ends is not None:
            return self.feasible_ends(b)
        return np.array([c for c in self.spans(b)
                         if self.block_feasible(b, c)], dtype=np.int64)

    def steps(self, b: int, starts: np.ndarray,
              ends: np.ndarray) -> np.ndarray:
        """``pair_cost(a, b, c)`` for ``a`` in ``starts`` x ``c`` in
        ``ends``."""
        if self.step_costs is not None:
            return self.step_costs(b, starts, ends)
        return np.array([[self.pair_cost(a, b, c) for c in ends.tolist()]
                         for a in starts.tolist()],
                        dtype=np.float64).reshape(len(starts), len(ends))


def solve_dp(problem: PartitionProblem) -> List[int]:
    """Exact shortest path over (prev boundary, cur boundary) states.

    Returns the boundary list (exclusive segment end indices, final element
    = num_segments).  Raises ValueError when no feasible partition exists.

    A one-pass sweep: every arc of the state graph goes from ``(a, b)``
    to some ``(b, c)`` with ``c > b``, so visiting boundaries ``b`` in
    increasing order finds each state's label final and expands it once.
    At each ``b`` the pair costs of every reachable start ``a`` and
    feasible end ``c`` come as one array, and the rows are folded in
    increasing ``a``: a row replaces the incumbent of ``(b, c)`` only
    when it is below it by more than ``1e-18``.  The final state is the
    first minimum in increasing ``a``.

    The tolerance is load-bearing.  Near-equal sums a few ulps apart are
    common (on resnet1001 at batch 128 it turns down such an
    "improvement" in 90 of 159 boundary steps), and without it 5 of the
    78 out-of-core registry problems in ``tests/golden/opt1_plans.json``
    get different boundaries.  With it, and with downward-closed
    feasibility (if ``[a, c)`` fits, every sub-interval fits, as
    :func:`~repro.core.blocking.make_problem`'s ``2 * stash <= ledger``
    does), the sweep returns exactly the boundaries of the FIFO
    label-correcting queue it replaced.  Under arbitrary feasibility the
    two may resolve ties, and sums within the tolerance, differently.
    """
    u = problem.num_segments
    if u <= 0:
        raise ValueError("empty problem")
    INF = math.inf
    # label[a, b]: min cost of a partition prefix ending with block [a, b);
    # prev[a, b]: the start of the block before it (-1 for the first
    # block, -2 while the state is unreached)
    label = np.full((u + 1, u + 1), INF)
    prev = np.full((u + 1, u + 1), -2, dtype=np.int64)
    first = problem.ends(0)
    label[0, first] = [problem.first_cost(0, c) for c in first.tolist()]
    prev[0, first] = -1
    for b in range(1, u):
        starts = np.flatnonzero(prev[:, b] != -2)
        ends = problem.ends(b)
        if not len(starts) or not len(ends):
            continue
        rows = label[starts, b][:, None] + problem.steps(b, starts, ends)
        best = np.full(len(ends), INF)
        arg = np.full(len(ends), -2, dtype=np.int64)
        for a, row in zip(starts.tolist(), rows):
            better = row < best - 1e-18
            np.copyto(best, row, where=better)
            np.copyto(arg, a, where=better)
        label[b, ends] = best
        prev[b, ends] = arg
    finals = np.flatnonzero(prev[:, u] != -2)
    if not len(finals):
        raise ValueError("no feasible contiguous partition under the "
                         "memory constraint")
    a, b = int(finals[np.argmin(label[finals, u])]), u
    boundaries = [b]
    while prev[a, b] >= 0:
        a, b = int(prev[a, b]), a
        boundaries.append(b)
    return boundaries[::-1]


@dataclass(frozen=True)
class RejectedCandidate:
    """One (candidate, dims) combination the evaluator refused to price.

    Placement-legality checks (a stash that fits no tier, a plan that
    deadlocks on the ledger) reject combinations mid-sweep; the search
    records them instead of crashing or requiring callers to pre-filter.
    """

    index: int                      # position in the serial sweep order
    candidate: Tuple[int, ...]
    dims: Tuple[object, ...]
    error_type: str
    reason: str


@dataclass
class PortfolioResult:
    """Outcome of :func:`portfolio_search`.

    Iterable as the legacy ``(best_candidate, best_dims, best_value)``
    triple, so existing ``a, b, c = portfolio_search(...)`` call sites keep
    working.
    """

    best_candidate: Optional[List[int]]
    best_dims: Tuple[object, ...]
    best_value: float
    evaluated: int = 0
    rejected: List[RejectedCandidate] = field(default_factory=list)
    n_workers: int = 1              # the sweep is serial; always 1

    def __iter__(self):
        return iter((self.best_candidate, self.best_dims, self.best_value))


def _score(evaluate: Callable[..., float],
           reject_on: Tuple[Type[BaseException], ...],
           index: int, cand: Tuple[int, ...], combo: Tuple[object, ...]
           ) -> Tuple[int, float, Optional[Tuple[str, str]]]:
    try:
        value = float(evaluate(list(cand), *combo))
    except reject_on as exc:
        return index, math.inf, (type(exc).__name__, str(exc))
    if math.isnan(value):
        value = math.inf
    return index, value, None


def portfolio_search(candidates: Sequence[Sequence[int]],
                     dimensions: Sequence[Sequence[object]],
                     evaluate: Callable[..., float], *,
                     reject_on: Tuple[Type[BaseException], ...] = (ValueError,)
                     ) -> PortfolioResult:
    """Score a boundary-candidate portfolio against the cross-product of
    discrete side dimensions.

    The blocking search is not one-dimensional: besides the boundary vector
    it chooses a residency margin and (under a tiered hierarchy) a stash
    placement policy.  ``evaluate(candidate, *dims)`` prices one combination
    (``inf`` = infeasible).  Combinations whose evaluation raises one of
    ``reject_on`` are *skipped and recorded* in ``result.rejected`` — the
    placement-legality checks reject illegal tier assignments mid-sweep and
    the search carries on.

    Stateful evaluators are welcome: the grid is priced through the same
    ``evaluate`` object in serial sweep order, so an evaluator carrying
    memo tables — like :class:`~repro.core.blocking.CandidateEvaluator`
    with its shared lowering cache — amortizes pricing across grid points
    that realize the same plan, and Opt-2 and local search reuse what the
    sweep lowered.  Memoization must be value-transparent; determinism of
    the winner relies on it.  The strict ``<`` keeps the earliest minimum,
    so ties break by serial sweep order.

    The sweep runs in the calling process: a request is the unit of
    parallelism (``plan --manifest --workers N`` fans configs out across
    processes), and the grid of a few dozen points is too small to repay
    shipping the evaluator to a worker pool.

    Returns a :class:`PortfolioResult`; ``best_candidate`` is None when no
    combination was feasible.
    """
    grid: List[Tuple[int, Tuple[int, ...], Tuple[object, ...]]] = []
    for cand in candidates:
        for combo in itertools.product(*dimensions):
            grid.append((len(grid), tuple(cand), tuple(combo)))

    scores: List[Tuple[int, float, Optional[Tuple[str, str]]]] = []
    if TRACER.enabled or TRACER.current() is not None:
        # per-candidate progress spans: which grid point the sweep is
        # on, what it scored, whether it was rejected mid-sweep
        with TRACER.span("opt1.sweep", "solver", grid=len(grid)):
            for index, cand, combo in grid:
                with TRACER.span(f"opt1.eval[{index}]", "solver",
                                 boundaries=len(cand)) as sp:
                    s = _score(evaluate, reject_on, index, cand, combo)
                    sp.set(value=(None if math.isinf(s[1])
                                  else round(s[1], 9)),
                           rejected=s[2] is not None)
                scores.append(s)
    else:
        for index, cand, combo in grid:
            scores.append(_score(evaluate, reject_on, index, cand, combo))

    METRICS.counter("solver.grid_points").inc(len(grid))
    best_index: Optional[int] = None
    best_value = math.inf
    rejected: List[RejectedCandidate] = []
    for index, value, error in scores:
        if error is not None:
            _, cand, combo = grid[index]
            rejected.append(RejectedCandidate(
                index=index, candidate=cand, dims=combo,
                error_type=error[0], reason=error[1]))
            continue
        if value < best_value:
            best_index, best_value = index, value
    METRICS.counter("solver.rejections").inc(len(rejected))
    if best_index is None:
        return PortfolioResult(best_candidate=None, best_dims=(),
                               best_value=math.inf, evaluated=len(grid),
                               rejected=rejected)
    _, best_cand, best_combo = grid[best_index]
    return PortfolioResult(best_candidate=list(best_cand),
                           best_dims=best_combo, best_value=best_value,
                           evaluated=len(grid), rejected=rejected)


def local_search(boundaries: List[int], num_segments: int,
                 objective: Callable[[List[int]], float],
                 feasible: Callable[[int, int], bool],
                 max_passes: int = 4) -> Tuple[List[int], float]:
    """First-improvement hill climbing: shift/merge/split boundary moves."""
    cur = sorted(set(boundaries))
    if not cur or cur[-1] != num_segments:
        raise ValueError("boundaries must end at num_segments")
    cur_v = objective(cur)

    def blocks_of(bs: List[int]) -> List[Tuple[int, int]]:
        return list(zip([0] + bs[:-1], bs))

    for _ in range(max_passes):
        improved = False
        # shift each interior boundary by +-1
        for i in range(len(cur) - 1):
            for delta in (-1, 1):
                cand = list(cur)
                nb = cand[i] + delta
                lo = cand[i - 1] if i > 0 else 0
                hi = cand[i + 1]
                if not (lo < nb < hi):
                    continue
                cand[i] = nb
                if not all(feasible(s, e) for s, e in blocks_of(cand)):
                    continue
                v = objective(cand)
                if v < cur_v - 1e-15:
                    cur, cur_v = cand, v
                    improved = True
        # merge adjacent blocks
        for i in range(len(cur) - 1):
            cand = cur[:i] + cur[i + 1:]
            if not all(feasible(s, e) for s, e in blocks_of(cand)):
                continue
            v = objective(cand)
            if v < cur_v - 1e-15:
                cur, cur_v = cand, v
                improved = True
                break
        # split each block at its midpoint
        for s, e in blocks_of(cur):
            if e - s < 2:
                continue
            mid = (s + e) // 2
            cand = sorted(set(cur + [mid]))
            if not all(feasible(a, b) for a, b in blocks_of(cand)):
                continue
            v = objective(cand)
            if v < cur_v - 1e-15:
                cur, cur_v = cand, v
                improved = True
                break
        if not improved:
            break
    return cur, cur_v
