"""Optimization Problem 1 (Fig. 4): group layers into blocks that maximize
occupancy subject to the device memory capacity.

Pipeline:

1. **Segment** the layer graph at checkpoint boundaries (indices no skip
   edge crosses), so every candidate block is a union of atomic segments —
   this is how residual blocks stay whole (constraint 9.3's dependency
   closure at block granularity).
2. **Search** boundary vectors with the solver suite: exact DP on the
   pairwise stall surrogate, priced with the rest of a candidate portfolio
   and refined by local search against the *event-simulated* makespan —
   the paper's occupancy objective, since minimizing stalls at fixed
   compute maximizes Eq. 8's occupancy.
3. **Assign residency**: the capacity-based strategy keeps the largest
   suffix of blocks resident that fits alongside a double-buffered prefetch
   margin (Fig. 2b: "no swap-out if memory available").

Activations consumed by far-away blocks (U-Net long skips) are *pinned*:
they stay near for the whole iteration and are excluded from the swappable
stash (§III-F.4 support).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..costs.profiler import CostModel
from ..graph.layer_graph import LayerGraph
from ..graph.traversal import checkpoint_boundaries
from ..hardware.tiering import MemoryHierarchy
from .schedule import BlockPolicy
from .solver import PartitionProblem, local_search, portfolio_search, solve_dp
from .stages import make_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sim.trainer_sim import LoweringCache


def segment_graph(graph: LayerGraph) -> List[Tuple[int, int]]:
    """Atomic segments: layer ranges between consecutive checkpoint
    boundaries.  Any union of consecutive segments is a dependency-legal
    block (no skip edge leaves its interior except at the seam)."""
    bounds = checkpoint_boundaries(graph)
    segs: List[Tuple[int, int]] = []
    start = 0
    for b in bounds:
        segs.append((start, b + 1))
        start = b + 1
    if start != len(graph):  # trailing layers after the last boundary
        segs.append((start, len(graph)))
    return segs


def coarsen_segments(segments: List[Tuple[int, int]], cost: CostModel,
                     max_units: int) -> List[Tuple[int, int]]:
    """Merge adjacent segments (smallest combined stash first) until at most
    ``max_units`` remain.  Keeps ResNet-1001-scale searches tractable
    without changing block legality (merged segments stay contiguous)."""
    segs = list(segments)
    if len(segs) <= max_units:
        return segs
    stash = [cost.block_activation_bytes(s, e) for s, e in segs]
    while len(segs) > max_units:
        # merge the adjacent pair with the smallest combined stash
        best_i = min(range(len(segs) - 1),
                     key=lambda i: stash[i] + stash[i + 1])
        segs[best_i] = (segs[best_i][0], segs[best_i + 1][1])
        stash[best_i] = stash[best_i] + stash[best_i + 1]
        del segs[best_i + 1]
        del stash[best_i + 1]
    return segs


def pinned_bytes_per_block(graph: LayerGraph, blocks: Sequence[Tuple[int, int]],
                           cost: CostModel) -> List[int]:
    """Per-block bytes that must stay near past the next block's forward.

    A layer whose activation feeds a block more than one step ahead (U-Net
    contracting -> expansive skips) cannot travel with the stash; those
    bytes are pinned for the iteration.
    """
    block_of = {}
    for bi, (s, e) in enumerate(blocks):
        for i in range(s, e):
            block_of[i] = bi
    pinned = [0] * len(blocks)
    for u, v in graph.edges():
        bu = block_of[graph.index_of(u)]
        bv = block_of[graph.index_of(v)]
        if bv - bu > 1:
            iu = graph.index_of(u)
            pinned[bu] += cost.block_activation_bytes(iu, iu + 1)
    return pinned


@dataclass
class BlockingInputs:
    """Segment-space cost arrays plus the capacity budget."""

    segments: List[Tuple[int, int]]
    seg_fw: np.ndarray
    seg_bw: np.ndarray
    seg_stash: np.ndarray
    seg_weights: np.ndarray
    ledger_capacity: int        # bytes available to stashes
    swap_throughput: float      # bytes/s (Eq. 4)

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    def layers_of(self, seg_start: int, seg_end: int) -> Tuple[int, int]:
        """Map a segment range back to a layer range."""
        return self.segments[seg_start][0], self.segments[seg_end - 1][1]

    # prefix sums for O(1) block queries in segment space.  The query
    # methods read plain-python mirrors of the numpy prefixes: the scalar
    # surrogate calls them in tight loops, where numpy *scalar* indexing
    # plus float()/int() boxing dominated (values are identical — the
    # mirrors hold the exact same IEEE doubles / int64s)
    def __post_init__(self) -> None:
        self._fw = np.concatenate([[0.0], np.cumsum(self.seg_fw)])
        self._bw = np.concatenate([[0.0], np.cumsum(self.seg_bw)])
        self._st = np.concatenate([[0], np.cumsum(self.seg_stash)])
        self._fw_list: List[float] = self._fw.tolist()
        self._bw_list: List[float] = self._bw.tolist()
        self._st_list: List[int] = self._st.tolist()

    def fw(self, a: int, b: int) -> float:
        """Forward time of segments ``[a, b)`` (prefix-sum lookup)."""
        return self._fw_list[b] - self._fw_list[a]

    def bw(self, a: int, b: int) -> float:
        """Backward time of segments ``[a, b)`` (prefix-sum lookup)."""
        return self._bw_list[b] - self._bw_list[a]

    def stash(self, a: int, b: int) -> int:
        """Stash bytes of segments ``[a, b)`` (prefix-sum lookup)."""
        return self._st_list[b] - self._st_list[a]

    def swap_time(self, a: int, b: int) -> float:
        """One-way swap time of segments ``[a, b)`` at the calibrated
        throughput."""
        return (self._st_list[b] - self._st_list[a]) / self.swap_throughput


def build_inputs(graph: LayerGraph, cost: CostModel,
                 capacity: float, max_units: int = 160) -> BlockingInputs:
    """Aggregate the cost model into segment space and size the ledger."""
    segments = coarsen_segments(segment_graph(graph), cost, max_units)
    seg_fw = np.array([cost.block_fw_time(s, e) for s, e in segments])
    seg_bw = np.array([cost.block_bw_time(s, e) for s, e in segments])
    seg_stash = np.array([cost.block_activation_bytes(s, e)
                          for s, e in segments], dtype=np.int64)
    seg_weights = np.array([cost.block_weight_bytes(s, e)
                            for s, e in segments], dtype=np.int64)
    persistent = cost.persistent_bytes()
    workspace = max((cost.block_memory(s, e).peak_workspace
                     for s, e in segments), default=0)
    ledger = int(capacity - persistent - workspace)
    if ledger <= 0:
        raise ValueError(
            f"model persistent state ({persistent + workspace} B) "
            f"exceeds device capacity ({int(capacity)} B); out-of-core "
            "activation swapping cannot help — weights must be distributed")
    return BlockingInputs(segments=segments, seg_fw=seg_fw, seg_bw=seg_bw,
                          seg_stash=seg_stash, seg_weights=seg_weights,
                          ledger_capacity=ledger,
                          swap_throughput=cost.transfer.swap_throughput())


def assign_policies(inputs: BlockingInputs, boundaries: Sequence[int],
                    margin_blocks: float = 2.0) -> List[BlockPolicy]:
    """Capacity-based residency: largest resident suffix that leaves a
    prefetch margin for the swapped prefix.

    ``margin_blocks`` is the in-flight buffer allowance in units of the
    largest swapped block (2 = classic double buffering; 1 = aggressive
    residency that relies on the ledger to serialize prefetches).
    """
    bounds = list(boundaries)
    blocks = list(zip([0] + bounds[:-1], bounds))
    n = len(blocks)
    stash = [inputs.stash(a, b) for a, b in blocks]
    ledger = inputs.ledger_capacity
    best_suffix = 0
    for suffix in range(n, -1, -1):
        resident_bytes = sum(stash[n - suffix:])
        swapped = stash[:n - suffix]
        margin = int(margin_blocks * max(swapped)) if swapped else 0
        if resident_bytes + margin <= ledger:
            best_suffix = suffix
            break
    policies = [BlockPolicy.SWAPPED] * (n - best_suffix) \
        + [BlockPolicy.RESIDENT] * best_suffix
    return policies


def make_problem(inputs: BlockingInputs, max_span: int = 64
                 ) -> PartitionProblem:
    """The pairwise stall surrogate over segment space.

    pair_cost([a,b), [b,c)) = uncovered backward swap-in of the earlier
    block + uncovered forward swap-out, assuming the earlier block swaps —
    an upper bound that residency assignment later relaxes.

    The DP's per-boundary hooks read the numpy prefix sums with the
    scalar path's float ops in the same order, so they equal it exactly.
    """
    ledger = inputs.ledger_capacity

    def block_feasible(a: int, b: int) -> bool:
        # a swapped block must double-buffer within the ledger
        return 2 * inputs.stash(a, b) <= ledger

    def pair_cost(a: int, b: int, c: int) -> float:
        swap_prev = inputs.swap_time(a, b)
        bw_next = inputs.bw(b, c)
        fw_next = inputs.fw(b, c)
        return max(0.0, swap_prev - bw_next) \
            + 0.5 * max(0.0, swap_prev - fw_next)

    def first_cost(a: int, b: int) -> float:
        return 0.0

    u = inputs.num_segments
    fw_prefix, bw_prefix, st_prefix = inputs._fw, inputs._bw, inputs._st

    def feasible_ends(b: int) -> np.ndarray:
        cs = np.arange(b + 1, min(u, b + max_span) + 1)
        return cs[2 * (st_prefix[cs] - st_prefix[b]) <= ledger]

    def step_costs(b: int, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
        swap_prev = ((st_prefix[b] - st_prefix[starts])
                     / inputs.swap_throughput)[:, None]
        bw_next = bw_prefix[ends] - bw_prefix[b]
        fw_next = fw_prefix[ends] - fw_prefix[b]
        return np.maximum(0.0, swap_prev - bw_next) \
            + 0.5 * np.maximum(0.0, swap_prev - fw_next)

    return PartitionProblem(num_segments=u, pair_cost=pair_cost,
                            block_feasible=block_feasible,
                            first_cost=first_cost, max_span=max_span,
                            feasible_ends=feasible_ends,
                            step_costs=step_costs)


@dataclass
class BlockingResult:
    """Outcome of Opt-1: blocks in layer space + policies + search value."""

    boundaries_segments: List[int]
    blocks: List[Tuple[int, int]]       # layer space
    policies: List[BlockPolicy]
    objective: float                    # simulated makespan (seconds)
    method: str
    # stash tier per swapped block (empty = classic DRAM-only far pool)
    placements: Dict[int, int] = field(default_factory=dict)
    placement_policy: Optional[str] = None
    # grid points the placement-legality checks rejected during the sweep
    # (recorded, not fatal), as "ErrorType: reason" summaries
    rejected: Tuple[str, ...] = ()
    evaluated: int = 0
    # lowering-cache counters from the shared evaluator (diagnostics only)
    sim_cache: Dict[str, int] = field(default_factory=dict)


def fits_without_swapping(inputs: BlockingInputs) -> bool:
    """True when the whole stash fits the ledger (in-core regime)."""
    return int(inputs.seg_stash.sum()) <= inputs.ledger_capacity


def _uniform_bounds(u: int, k: int) -> List[int]:
    k = max(1, min(k, u))
    bounds = sorted({round((i + 1) * u / k) for i in range(k)})
    bounds[-1] = u
    return bounds


#: The Opt-1 search methods :func:`solve_blocking` accepts.
BLOCKING_METHODS = ("auto", "dp", "uniform")


def check_method(method: str) -> None:
    """Raise ``ValueError`` naming the choices unless ``method`` is one of
    :data:`BLOCKING_METHODS`."""
    if method not in BLOCKING_METHODS:
        raise ValueError(f"unknown method {method!r}; choose one of "
                         f"{', '.join(BLOCKING_METHODS)}")


@dataclass
class CandidateEvaluator:
    """Prices one (boundaries, margin, placement policy) grid point.

    Raises the underlying infeasibility error instead of flattening it to
    ``inf`` — the portfolio search is responsible for skipping and
    recording rejected combinations.

    Evaluation is *batched*: every stage of a grid point's pricing
    pipeline is memoized across calls.  Residency, tier placement and each
    realized plan's makespan (or infeasibility message) are cached here —
    margins and placement policies very often realize the same plan — and
    a miss builds the plan and prices it through a shared
    :class:`~repro.sim.trainer_sim.LoweringCache` (``lowering``), so
    similar plans reuse the lowered skeleton with re-bound durations.  The
    memos hold scalars and atomic keys, never an exception, a simulation
    or a plan.  The portfolio sweep and local search hit the same caches —
    their neighbourhoods overlap heavily.

    The memos are plain dicts and never evict.  Each pricing adds at most
    one entry to each, and one :func:`solve_blocking` prices at most 36
    sweep points (<= 6 candidates x 3 margins x 2 placement policies) plus
    local search's start and 2 passes of <= 2(k-1) shifts, k-1 merges and
    k splits over k <= ``max_units`` = 160 blocks: 1311 entries at most.
    The largest seen over the Fig. 5 grid is 260 (resnet1001, batch 192,
    ``abci``).
    """

    inputs: BlockingInputs
    cost: CostModel
    capacity: float
    model_name: str
    batch_size: int
    hierarchy: Optional[MemoryHierarchy] = None
    lowering: "Optional[LoweringCache]" = None

    def __post_init__(self) -> None:
        if self.lowering is None:
            from ..sim.trainer_sim import LoweringCache

            self.lowering = LoweringCache(self.cost, self.capacity,
                                          self.hierarchy)
        self._realize_cache: Dict[tuple, tuple] = {}
        self._place_cache: Dict[tuple, Dict[int, int]] = {}
        self._plan_cache: Dict[tuple, object] = {}
        self.memo_hits = 0   # pricings answered by _plan_cache

    def realize(self, bounds: Sequence[int], margin: float
                ) -> Tuple[List[Tuple[int, int]], List[BlockPolicy]]:
        """Turn segment boundaries + a residency margin into concrete
        layer blocks and per-block policies (memoized)."""
        key = (tuple(bounds), margin)
        hit = self._realize_cache.get(key)
        if hit is None:
            seg_bounds = list(bounds)
            blocks = [self.inputs.layers_of(a, b)
                      for a, b in zip([0] + seg_bounds[:-1], seg_bounds)]
            policies = assign_policies(self.inputs, seg_bounds, margin)
            hit = self._realize_cache[key] = (blocks, policies)
        # copies: callers (Opt-2, local search) mutate policy lists freely
        return list(hit[0]), list(hit[1])

    def place(self, blocks: List[Tuple[int, int]],
              policies: List[BlockPolicy],
              ppolicy: Optional[str]) -> Dict[int, int]:
        """Assign stash tiers for one candidate under ``ppolicy``
        (memoized; empty without a hierarchy)."""
        from ..tiering.placement import assign_tiers

        if self.hierarchy is None or ppolicy is None:
            return {}
        key = (tuple(blocks), tuple(policies), ppolicy)
        hit = self._place_cache.get(key)
        if hit is None:
            hit = self._place_cache[key] = assign_tiers(
                blocks, policies, self.cost, self.hierarchy,
                policy=ppolicy).placements
        return dict(hit)

    def __call__(self, bounds: Sequence[int], margin: float,
                 ppolicy: Optional[str]) -> float:
        from ..sim.trainer_sim import OutOfCoreInfeasible, simulate_plan

        blocks, policies = self.realize(bounds, margin)
        placements = self.place(blocks, policies, ppolicy)
        key = (tuple(blocks), tuple(policies),
               tuple(sorted(placements.items())))
        priced = self._plan_cache.get(key)
        if priced is not None:
            self.memo_hits += 1
        else:  # a ValueError from make_plan propagates un-memoized
            plan = make_plan(self.model_name, self.batch_size, blocks,
                             policies, placements=placements,
                             lowering=self.lowering)
            try:
                priced = simulate_plan(plan, self.cost, self.capacity,
                                       hierarchy=self.hierarchy,
                                       cache=self.lowering).makespan
            except OutOfCoreInfeasible as exc:
                priced = str(exc)
            self._plan_cache[key] = priced
        if isinstance(priced, str):
            raise OutOfCoreInfeasible(priced)
        return priced

    def stats(self) -> Dict[str, int]:
        """The lowering cache's counters, with memo hits added to
        ``result_hits``: both are pricings answered without simulating."""
        stats = self.lowering.stats()
        stats["result_hits"] += self.memo_hits
        return stats

    def safe(self, bounds: Sequence[int], margin: float,
             ppolicy: Optional[str]) -> float:
        """``inf``-on-reject wrapper for local search, which probes many
        illegal neighbours by design."""
        from ..sim.trainer_sim import OutOfCoreInfeasible
        from ..tiering.placement import PlacementError

        try:
            return self(bounds, margin, ppolicy)
        except (OutOfCoreInfeasible, PlacementError, ValueError):
            return math.inf


def solve_blocking(graph: LayerGraph, cost: CostModel, capacity: float,
                   model_name: str, batch_size: int,
                   method: str = "auto", max_span: int = 64,
                   hierarchy: Optional[MemoryHierarchy] = None,
                   placement_policy: str = "auto",
                   lowering: "Optional[LoweringCache]" = None
                   ) -> BlockingResult:
    """Run Opt-1 end to end and return the best blocking found.

    Args:
        graph/cost/capacity: the planning context — model graph, its
            profiled cost model, and the device capacity in bytes.
        model_name/batch_size: stamped onto the trial plans.
        method: search strategy, one of :data:`BLOCKING_METHODS` —

            * ``'auto'``    — candidate portfolio (DP surrogate,
              per-segment fine blocking, uniform-K) x residency margins,
              scored by the event simulator, refined by local search;
            * ``'dp'``      — DP surrogate boundaries only (ablation);
            * ``'uniform'`` — naive equal-segment blocks (ablation
              baseline).
        max_span: cap on block span in coarsened segments.
        hierarchy: adds a third search dimension — the stash placement
            policy — and scores every candidate with tier-aware
            simulation: a candidate whose stash overflows the DRAM budget
            is only feasible if a storage tier can absorb the spill.
            Combinations a placement-legality check rejects are skipped
            and surfaced in ``result.rejected``.
        placement_policy: ``'bandwidth'`` / ``'pressure'``, or ``'auto'``
            to try both.
        lowering: share one :class:`~repro.sim.trainer_sim.LoweringCache`
            between this search and the caller's other pricing passes
            (the planner hands the same cache to Opt-2, whose trial plans
            share blocks with the winning blocking); omitted, the
            evaluator builds its own.

    Returns:
        A :class:`BlockingResult` — blocks, policies, placements, the
        simulated objective, and search diagnostics.

    Raises:
        ValueError: ``method`` is not in :data:`BLOCKING_METHODS`, or no
            blocking fits the device.
    """
    from ..sim.trainer_sim import OutOfCoreInfeasible, simulate_plan
    from ..tiering.placement import PlacementError

    check_method(method)
    inputs = build_inputs(graph, cost, capacity)
    u = inputs.num_segments

    if fits_without_swapping(inputs):
        boundaries = [u]
        blocks = [inputs.layers_of(0, u)]
        policies = [BlockPolicy.RESIDENT]
        plan = make_plan(model_name, batch_size, blocks, policies)
        res = simulate_plan(plan, cost, capacity)
        return BlockingResult(boundaries_segments=boundaries, blocks=blocks,
                              policies=policies, objective=res.makespan,
                              method="in-core")

    problem = make_problem(inputs, max_span=max_span)
    margins = (0.5, 1.0, 2.0)
    if hierarchy is None:
        ppolicies: Tuple[Optional[str], ...] = (None,)
    elif placement_policy == "auto":
        # without a storage tier both policies place everything in DRAM —
        # sweeping them would just simulate identical plans twice
        ppolicies = ("bandwidth", "pressure") if hierarchy.has_storage \
            else ("bandwidth",)
    else:
        ppolicies = (placement_policy,)

    evaluator = CandidateEvaluator(inputs=inputs, cost=cost,
                                   capacity=capacity, model_name=model_name,
                                   batch_size=batch_size,
                                   hierarchy=hierarchy, lowering=lowering)

    # candidate portfolio ----------------------------------------------------
    overflow = inputs.seg_stash.sum() / max(1, inputs.ledger_capacity)
    k_fit = max(2, int(math.ceil(2 * overflow)))
    candidates: List[List[int]] = []
    if method == "uniform":
        candidates.append(_uniform_bounds(u, k_fit))
    else:
        try:
            candidates.append(solve_dp(problem))
        except ValueError:
            pass
    if method == "auto":
        candidates.append(list(range(1, u + 1)))  # per-segment fine blocking
        for k in {k_fit, 8, 16, u // 4 or 2}:
            candidates.append(_uniform_bounds(u, k))

    sweep = portfolio_search(
        candidates, (margins, ppolicies), evaluator,
        reject_on=(OutOfCoreInfeasible, PlacementError, ValueError))
    best_bounds, best_dims, best_value = sweep
    rejected = tuple(f"{r.error_type}: {r.reason}" for r in sweep.rejected)
    if best_bounds is None or not math.isfinite(best_value):
        raise ValueError(
            "no feasible blocking found within device capacity"
            + (f" ({len(rejected)} grid point(s) rejected; first: "
               f"{rejected[0]})" if rejected else ""))
    best_margin, best_ppolicy = best_dims

    if method == "auto":
        best_bounds, best_value = local_search(
            best_bounds, u,
            lambda bs: evaluator.safe(bs, best_margin, best_ppolicy),
            problem.block_feasible, max_passes=2)

    blocks, policies = evaluator.realize(best_bounds, best_margin)
    placements = evaluator.place(blocks, policies, best_ppolicy)
    return BlockingResult(boundaries_segments=list(best_bounds),
                          blocks=blocks, policies=policies,
                          objective=best_value, method=method,
                          placements=placements,
                          placement_policy=best_ppolicy,
                          rejected=rejected, evaluated=sweep.evaluated,
                          sim_cache=evaluator.stats())
