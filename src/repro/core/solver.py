"""Solvers for the contiguous-partition (blocking) problem of Opt-1.

The paper formulates blocking as a two-tier ILP (Fig. 4) and solves it with
MIDACO, an ant-colony MINLP metaheuristic.  We provide three interchangeable
engines over the same problem:

* :func:`solve_dp` — exact dynamic program over the *pairwise surrogate*
  objective (sum over consecutive block pairs of their uncovered swap time).
  The surrogate makes the problem a shortest path in an expanded
  "(previous boundary, current boundary)" graph whose arcs all point to a
  larger boundary, so one sweep over boundaries in increasing order
  settles every state exactly once.
* :func:`solve_ilp` — the same shortest-path problem written as a 0/1
  min-cost-flow ILP and handed to HiGHS via ``scipy.optimize.milp``;
  included to reproduce the paper's ILP formulation and to cross-check the
  DP (they must agree — tests assert it).
* :func:`solve_aco` — an ant-colony metaheuristic (the MIDACO stand-in)
  that optimizes an arbitrary *exact* objective callback (the event
  simulator's makespan), seeded by the DP solution.

All solvers work in "segment space": layers are first coarsened into atomic
segments at checkpoint boundaries, so a boundary vector is a subset of
segment indices.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np
from scipy import optimize, sparse

from ..obs.metrics import METRICS
from ..obs.trace import TRACER, TraceContext, span_to_dict

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


def solve_ilp(problem: PartitionProblem,
              time_limit: float = 30.0) -> List[int]:
    """The same pairwise-surrogate problem as a 0/1 flow ILP (HiGHS).

    Nodes are (a, b) block states plus a source and sink; each unit-flow arc
    selects a block transition.  Intended for modest segment counts (the
    cross-validation role); use :func:`solve_dp` at scale.
    """
    u = problem.num_segments
    nodes: List[Tuple[int, int]] = []
    node_id: Dict[Tuple[int, int], int] = {}

    def get_node(state: Tuple[int, int]) -> int:
        if state not in node_id:
            node_id[state] = len(nodes)
            nodes.append(state)
        return node_id[state]

    arcs: List[Tuple[int, int, float]] = []  # (tail node, head node, cost)
    SOURCE = get_node((-1, 0))
    # first blocks
    frontier = []
    for b in problem.spans(0):
        if problem.block_feasible(0, b):
            n = get_node((0, b))
            arcs.append((SOURCE, n, problem.first_cost(0, b)))
            frontier.append((0, b))
    # expansions (BFS over reachable states)
    seen = set(frontier)
    qi = 0
    while qi < len(frontier):
        a, b = frontier[qi]
        qi += 1
        if b == u:
            continue
        for c in problem.spans(b):
            if not problem.block_feasible(b, c):
                continue
            tail = get_node((a, b))
            head = get_node((b, c))
            arcs.append((tail, head, problem.pair_cost(a, b, c)))
            if (b, c) not in seen:
                seen.add((b, c))
                frontier.append((b, c))
    SINK = get_node((u, u))
    for (a, b) in list(node_id):
        if b == u and (a, b) != (u, u):
            arcs.append((node_id[(a, b)], SINK, 0.0))
    if not any(head == SINK for _, head, _ in arcs):
        raise ValueError("no feasible partition (ILP graph has no sink arc)")

    n_nodes, n_arcs = len(nodes), len(arcs)
    costs = np.array([c for _, _, c in arcs])
    # flow conservation: A x = b with +1 out of source, -1 into sink
    rows, cols, vals = [], [], []
    for j, (tail, head, _) in enumerate(arcs):
        rows.append(tail), cols.append(j), vals.append(1.0)
        rows.append(head), cols.append(j), vals.append(-1.0)
    a_eq = sparse.coo_matrix((vals, (rows, cols)),
                             shape=(n_nodes, n_arcs)).tocsc()
    b_eq = np.zeros(n_nodes)
    b_eq[SOURCE] = 1.0
    b_eq[SINK] = -1.0
    res = optimize.milp(
        c=costs,
        constraints=optimize.LinearConstraint(a_eq, b_eq, b_eq),
        integrality=np.ones(n_arcs),
        bounds=optimize.Bounds(0, 1),
        options={"time_limit": time_limit},
    )
    if not res.success:
        raise RuntimeError(f"HiGHS failed on the blocking ILP: {res.message}")
    chosen = [arcs[j] for j in range(n_arcs) if res.x[j] > 0.5]
    # walk the path from source
    nxt = {tail: head for tail, head, _ in chosen}
    boundaries: List[int] = []
    cur = SOURCE
    while cur in nxt:
        cur = nxt[cur]
        state = nodes[cur]
        if state != (u, u):
            boundaries.append(state[1])
    return sorted(set(boundaries))


@dataclass
class AcoConfig:
    """Ant-colony hyper-parameters (MIDACO-style defaults, small budget)."""

    ants: int = 12
    iterations: int = 20
    alpha: float = 1.0        # pheromone exponent
    beta: float = 1.5         # heuristic exponent
    rho: float = 0.25         # evaporation
    q0: float = 0.3           # greedy-choice probability
    seed: int = 0


def solve_aco(problem: PartitionProblem,
              objective: Callable[[List[int]], float],
              seed_boundaries: Optional[List[int]] = None,
              config: Optional[AcoConfig] = None) -> Tuple[List[int], float]:
    """Ant-colony search over boundary vectors with an exact objective.

    ``objective`` prices a candidate boundary list (e.g. simulated
    makespan; ``inf`` marks infeasible).  Returns the best (boundaries,
    objective value) found, never worse than the seed.
    """
    cfg = config or AcoConfig()
    u = problem.num_segments
    rng = np.random.default_rng(cfg.seed)
    pheromone: Dict[Tuple[int, int], float] = {}

    def tau(a: int, b: int) -> float:
        return pheromone.get((a, b), 1.0)

    def heuristic(a: int, b: int, c: int) -> float:
        return 1.0 / (1.0 + problem.pair_cost(a, b, c))

    best_b: Optional[List[int]] = None
    best_v = math.inf
    if seed_boundaries is not None:
        v = objective(list(seed_boundaries))
        if math.isfinite(v):
            best_b, best_v = list(seed_boundaries), v
            for a, b in zip([0] + list(seed_boundaries), seed_boundaries):
                pheromone[(a, b)] = 2.0

    for _ in range(cfg.iterations):
        trails: List[Tuple[List[int], float]] = []
        for _ant in range(cfg.ants):
            bounds: List[int] = []
            a, b = 0, 0
            ok = True
            while b < u:
                choices = [c for c in problem.spans(b)
                           if problem.block_feasible(b, c)]
                if not choices:
                    ok = False
                    break
                weights = np.array([
                    tau(b, c) ** cfg.alpha *
                    (heuristic(a, b, c) if b > 0 else 1.0) ** cfg.beta
                    for c in choices])
                total = weights.sum()
                if total <= 0 or not np.isfinite(total):
                    c = int(rng.choice(choices))
                elif rng.random() < cfg.q0:
                    c = choices[int(np.argmax(weights))]
                else:
                    c = int(rng.choice(choices, p=weights / total))
                bounds.append(c)
                a, b = b, c
            if not ok:
                continue
            v = objective(bounds)
            if math.isfinite(v):
                trails.append((bounds, v))
                if v < best_v:
                    best_b, best_v = bounds, v
        # evaporation + deposit by this iteration's elite
        for key in list(pheromone):
            pheromone[key] *= (1.0 - cfg.rho)
        for bounds, v in sorted(trails, key=lambda t: t[1])[:3]:
            deposit = 1.0 / (1.0 + v)
            for a, b in zip([0] + bounds, bounds):
                pheromone[(a, b)] = pheromone.get((a, b), 1.0) + deposit

    if best_b is None:
        raise ValueError("ACO found no feasible partition")
    return best_b, best_v


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
    n_workers: int = 1

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


# Per-process state for portfolio workers: the evaluator travels once per
# worker (pool initializer), not once per task — the evaluator carries the
# whole cost model, and re-pickling it for every grid point dominated the
# sweep at ResNet-1001 scale.  When the sweep is traced, the initializer
# also adopts the request's TraceContext and attaches a per-worker span
# collector ("sink") so shards ship their spans back with each result.
_WORKER_STATE: Dict[str, object] = {}


def _init_portfolio_worker(evaluate: Callable[..., float],
                           reject_on: Tuple[Type[BaseException], ...],
                           trace: Optional[TraceContext] = None) -> None:
    _WORKER_STATE["evaluate"] = evaluate
    _WORKER_STATE["reject_on"] = reject_on
    if trace is not None:
        TRACER.adopt_context(trace)
        _WORKER_STATE["sink"] = TRACER.attach_collector(trace.trace_id)
        _WORKER_STATE["proc"] = f"worker-{os.getpid()}"


def _score_combo(task: Tuple[int, Tuple[int, ...], Tuple[object, ...]]
                 ) -> Tuple[int, float, Optional[Tuple[str, str]],
                            Optional[List[Dict[str, object]]]]:
    """Price one grid point in a pool worker; must stay module-level
    (process workers pickle it by reference).

    Returns ``(index, value, error, spans)`` — ``spans`` is the wire
    rendering of the spans this shard recorded for the grid point (None
    when the sweep is untraced), labeled with this worker's ``proc``
    name so the stitched exporter renders one row per pool process.
    """
    index, cand, combo = task
    evaluate = _WORKER_STATE["evaluate"]
    reject_on = _WORKER_STATE["reject_on"]
    sink = _WORKER_STATE.get("sink")
    if sink is None:
        s = _score(evaluate, reject_on, index, cand, combo)  # type: ignore[arg-type]
        return s[0], s[1], s[2], None
    with TRACER.span(f"opt1.eval[{index}]", "solver", track="sweep",
                     boundaries=len(cand)) as sp:
        s = _score(evaluate, reject_on, index, cand, combo)  # type: ignore[arg-type]
        sp.set(value=(None if math.isinf(s[1]) else round(s[1], 9)),
               rejected=s[2] is not None)
    proc = str(_WORKER_STATE["proc"])
    shipped: List[Dict[str, object]] = []
    for span in sink:  # type: ignore[union-attr]
        span.proc = proc
        shipped.append(span_to_dict(span))
    del sink[:]  # type: ignore[union-attr]
    return s[0], s[1], s[2], shipped


def _parallelizable(evaluate: Callable[..., float],
                    reject_on: Tuple[Type[BaseException], ...]) -> bool:
    """Process workers receive tasks by pickle; closures cannot travel."""
    try:
        pickle.dumps((evaluate, reject_on))
        return True
    except Exception:
        return False


def portfolio_search(candidates: Sequence[Sequence[int]],
                     dimensions: Sequence[Sequence[object]],
                     evaluate: Callable[..., float], *,
                     n_workers: int = 1,
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
    ``evaluate`` object in serial sweep order (or per-worker copies of it),
    so an evaluator carrying memo tables — like
    :class:`~repro.core.blocking.CandidateEvaluator` with its shared
    lowering cache — amortizes pricing across grid points that realize the
    same plan.  Memoization must be value-transparent; determinism of the
    reduced winner relies on it.

    ``n_workers > 1`` shards the (candidate x dims) grid across a process
    pool.  Evaluations are pure and independent, and the winner is reduced
    by the lexicographic ``(value, serial index)`` minimum, so the result
    is **bit-identical to the serial sweep** regardless of worker count or
    completion order (the serial loop's strict ``<`` keeps the earliest
    minimum, which is exactly the ``(value, index)`` minimum).  When
    ``evaluate`` cannot be pickled the search degrades to the serial path.

    Returns a :class:`PortfolioResult`; ``best_candidate`` is None when no
    combination was feasible.
    """
    grid: List[Tuple[int, Tuple[int, ...], Tuple[object, ...]]] = []
    for cand in candidates:
        for combo in itertools.product(*dimensions):
            grid.append((len(grid), tuple(cand), tuple(combo)))

    use_workers = max(1, int(n_workers))
    if use_workers > 1 and (len(grid) < 2
                            or not _parallelizable(evaluate, reject_on)):
        use_workers = 1

    scores: List[Tuple[int, float, Optional[Tuple[str, str]]]] = []
    if use_workers == 1:
        if TRACER.enabled or TRACER.current() is not None:
            # per-candidate progress spans: which grid point the sweep is
            # on, what it scored, whether it was rejected mid-sweep
            with TRACER.span("opt1.sweep", "solver", grid=len(grid),
                             workers=1):
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
                scores.append(_score(evaluate, reject_on, index, cand,
                                     combo))
    else:
        from concurrent.futures import ProcessPoolExecutor
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:          # pragma: no cover - non-POSIX hosts
            ctx = mp.get_context("spawn")
        chunk = max(1, len(grid) // (4 * use_workers))
        # when the sweep is traced (globally, or per-request via an
        # activated context), workers adopt the trace and ship their
        # per-eval spans back with each result
        wire_trace = TRACER.current()
        if wire_trace is None and TRACER.enabled:
            wire_trace = TraceContext.new()
        with TRACER.span("opt1.sweep", "solver", grid=len(grid),
                         workers=use_workers, shard_size=chunk) as sweep_sp:
            with ProcessPoolExecutor(max_workers=use_workers,
                                     mp_context=ctx,
                                     initializer=_init_portfolio_worker,
                                     initargs=(evaluate, reject_on,
                                               wire_trace)) as pool:
                raw = list(pool.map(_score_combo, grid, chunksize=chunk))
            shipped = 0
            for index, value, error, spans in raw:
                if spans:
                    TRACER.adopt(spans)
                    shipped += len(spans)
                scores.append((index, value, error))
            if shipped:
                sweep_sp.set(shipped_spans=shipped)

    METRICS.counter("solver.grid_points").inc(len(grid))
    best_index: Optional[int] = None
    best_value = math.inf
    rejected: List[RejectedCandidate] = []
    if use_workers > 1:
        scores = sorted(scores)
    # the serial path appends in index order already; pool.map preserves
    # task order too, but sorting is kept there as a cheap invariant guard
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
                               rejected=rejected, n_workers=use_workers)
    _, best_cand, best_combo = grid[best_index]
    return PortfolioResult(best_candidate=list(best_cand),
                           best_dims=best_combo, best_value=best_value,
                           evaluated=len(grid), rejected=rejected,
                           n_workers=use_workers)


class WorkerBudget:
    """Thread-safe token pool that carves the portfolio process pool into
    per-request leases.

    The planning daemon (:mod:`repro.service`) serves many concurrent
    requests out of one machine, but the sweep's process pool
    (``n_workers`` in :func:`portfolio_search`) is a machine-wide
    resource: one huge sweep taking every core would starve every other
    queued request.  A budget holds ``total`` worker tokens; each request
    leases ``max(minimum, min(want, per_request_cap, free))`` of them for
    the duration of its search.

    The ``minimum`` floor guarantees progress — a request is always
    granted at least one worker even when the pool is exhausted, so the
    budget may transiently oversubscribe by at most one token per
    concurrent lease (a single-process sweep is just the serial path).
    The ``per_request_cap`` keeps any single sweep from monopolizing the
    pool regardless of what it asks for.

    Args:
        total: machine-wide worker tokens shared by all leases.
        per_request_cap: ceiling on any one lease's grant; defaults to
            ``total`` (no per-request cap beyond the pool itself).
    """

    def __init__(self, total: int,
                 per_request_cap: Optional[int] = None) -> None:
        if total < 1:
            raise ValueError("worker budget must hold at least 1 token")
        self.total = int(total)
        self.per_request_cap = int(per_request_cap
                                   if per_request_cap is not None else total)
        if self.per_request_cap < 1:
            raise ValueError("per-request cap must be >= 1")
        self._free = self.total
        self._lock = threading.Lock()

    @property
    def free(self) -> int:
        """Currently unleased tokens (negative while oversubscribed)."""
        with self._lock:
            return self._free

    def acquire(self, want: int = 1, *, minimum: int = 1) -> int:
        """Lease up to ``want`` workers; returns the granted count.

        Never blocks and never grants less than ``minimum`` (progress
        floor); the grant is clamped by the per-request cap and by the
        tokens currently free.  Pair every acquire with a
        :meth:`release` of the same grant — or use :meth:`lease`.
        """
        want = max(int(minimum), int(want))
        with self._lock:
            granted = max(int(minimum),
                          min(want, self.per_request_cap, self._free))
            self._free -= granted
            return granted

    def release(self, granted: int) -> None:
        """Return a lease's tokens to the pool."""
        with self._lock:
            self._free += int(granted)
            if self._free > self.total:   # release without matching acquire
                raise ValueError("worker budget over-released")

    @contextmanager
    def lease(self, want: int = 1, *,
              minimum: int = 1) -> Iterator[int]:
        """Context manager pairing :meth:`acquire` with :meth:`release`.

        Yields the granted worker count for the ``with`` body (typically
        forwarded as ``plan(..., n_workers=granted)``).
        """
        granted = self.acquire(want, minimum=minimum)
        try:
            yield granted
        finally:
            self.release(granted)


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
