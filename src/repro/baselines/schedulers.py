"""Baseline schedulers: the related-work strategies of Table I and Fig. 5.

Every baseline emits a standard :class:`ExecutionPlan`, so the same event
simulator prices KARMA and its competitors — differences in Fig. 5 come
from *strategy*, never from a different timing model.

* **in-core** — no swapping; feasible only while the unmanaged footprint
  fits (the first batch size of each Fig. 5 panel).
* **vDNN++ family** (Fig. 2a) — eager per-segment swap-out of everything,
  including the model tail (the forward->backward turnaround stall), with
  one-block-lookahead prefetch.
* **ooc_cuDNN** — per-segment swaps with *no* cross-layer prefetch
  ("the swapping of tensors is limited to the scope of a single layer").
* **SuperNeurons** — type-driven policy: conv-dominated segments swap,
  cheap segments recompute; eager swap-out without capacity-based
  residency, one-ahead prefetch.
* **gradient checkpointing** (Chen et al.) — sqrt(N) segments, recompute
  only (CHECKPOINTED policy keeps segment boundaries).
* **Checkmate** — memory-constrained *optimal* rematerialization: an ILP
  picks which blocks keep their stash vs recompute, no swapping.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np
from scipy import optimize

from ..core.blocking import build_inputs
from ..core.schedule import BlockPolicy, ExecutionPlan
from ..core.stages import make_plan
from ..costs.calibration import act_factor_for, optimizer_slots_for
from ..costs.memory import fits_in_core
from ..costs.profiler import CostModel
from ..graph.layer_graph import CHEAP_TO_RECOMPUTE, LayerGraph


class InCoreInfeasible(RuntimeError):
    """In-core training does not fit device memory at this batch size."""


def incore_plan(graph: LayerGraph, cost: CostModel,
                capacity: float, batch_size: int) -> ExecutionPlan:
    """Vanilla training: one resident block.  Raises when the *unmanaged*
    footprint (act-factor calibrated) exceeds capacity — the regime where
    real PyTorch OOMs even though a managed stash might fit."""
    if not fits_in_core(graph, batch_size, capacity,
                        act_factor=act_factor_for(graph.name),
                        optimizer_slots=optimizer_slots_for(graph.name)):
        raise InCoreInfeasible(
            f"{graph.name} @ batch {batch_size} exceeds device capacity")
    return make_plan(graph.name, batch_size, [(0, len(graph))],
                     [BlockPolicy.RESIDENT])


def _segment_blocks(graph: LayerGraph, cost: CostModel,
                    capacity: float) -> List[Tuple[int, int]]:
    inputs = build_inputs(graph, cost, capacity)
    return [inputs.layers_of(i, i + 1) for i in range(inputs.num_segments)]


def vdnn_plan(graph: LayerGraph, cost: CostModel, capacity: float,
              batch_size: int) -> ExecutionPlan:
    """vDNN++-style: swap every segment (even the tail), prefetch one
    block ahead.  Reproduces Fig. 2a's turnaround inefficiency."""
    blocks = _segment_blocks(graph, cost, capacity)
    policies = [BlockPolicy.SWAPPED] * len(blocks)
    return make_plan(graph.name, batch_size, blocks, policies,
                     prefetch="one_ahead")


def ooc_cudnn_plan(graph: LayerGraph, cost: CostModel, capacity: float,
                   batch_size: int) -> ExecutionPlan:
    """ooc_cuDNN-style: per-segment swaps, swap-in exactly at use."""
    blocks = _segment_blocks(graph, cost, capacity)
    policies = [BlockPolicy.SWAPPED] * len(blocks)
    return make_plan(graph.name, batch_size, blocks, policies,
                     prefetch="none")


def superneurons_plan(graph: LayerGraph, cost: CostModel, capacity: float,
                      batch_size: int) -> ExecutionPlan:
    """SuperNeurons: type-driven swap/recompute + a caching memory pool.

    Segments containing convolutions swap ("activations of convolution
    layers are swapped out"); segments of only cheap operators recompute
    ("batch normalization layers are recomputed").  Its memory pool caches
    recently-used tensors, which we model as a residency suffix sized by
    leftover capacity — but the decision is type-based, with no cost model,
    no occupancy objective and no interleave optimization, which is the
    source of its spread-out stalls in Fig. 6.
    """
    blocks = _segment_blocks(graph, cost, capacity)
    inputs = build_inputs(graph, cost, capacity)
    n = len(blocks)
    has_conv = []
    for (s, e) in blocks:
        heavy = any(graph[i].kind not in CHEAP_TO_RECOMPUTE
                    and graph[i].is_parametric for i in range(s, e))
        has_conv.append(heavy)
    stash = [cost.block_activation_bytes(s, e) for s, e in blocks]
    # the caching pool keeps the most recently produced conv segments that
    # still fit (a plain LRU over the tail), minus a double-buffer margin
    ledger = inputs.ledger_capacity
    swapped_stash = [stash[i] for i in range(n) if has_conv[i]]
    margin = 2 * max(swapped_stash) if swapped_stash else 0
    budget = max(0, ledger - margin)
    resident = [False] * n
    acc = 0
    for i in range(n - 1, -1, -1):
        if acc + stash[i] > budget:
            break
        resident[i] = True
        acc += stash[i]
    policies: List[BlockPolicy] = []
    for i in range(n):
        if resident[i]:
            policies.append(BlockPolicy.RESIDENT)
        elif has_conv[i]:
            policies.append(BlockPolicy.SWAPPED)
        else:
            policies.append(BlockPolicy.RECOMPUTED)
    # a recomputed segment needs an upstream non-recomputed source
    if policies and policies[0] is BlockPolicy.RECOMPUTED:
        policies[0] = BlockPolicy.SWAPPED
    return make_plan(graph.name, batch_size, blocks, policies,
                     prefetch="one_ahead")


def checkpointing_plan(graph: LayerGraph, cost: CostModel, capacity: float,
                       batch_size: int,
                       segments: Optional[int] = None) -> ExecutionPlan:
    """Chen et al. sqrt(N) gradient checkpointing: recompute-only.

    The model is cut into ~sqrt(U) CHECKPOINTED blocks; only block
    boundaries persist between forward and backward — the O(sqrt N) memory
    bound of Table I.
    """
    inputs = build_inputs(graph, cost, capacity)
    u = inputs.num_segments
    k = segments or max(2, int(round(math.sqrt(u))))
    k = min(k, u)
    bounds = sorted({round((i + 1) * u / k) for i in range(k)})
    bounds[-1] = u
    blocks = [inputs.layers_of(a, b)
              for a, b in zip([0] + bounds[:-1], bounds)]
    policies = [BlockPolicy.CHECKPOINTED] * len(blocks)
    return make_plan(graph.name, batch_size, blocks, policies)


def checkmate_plan(graph: LayerGraph, cost: CostModel, capacity: float,
                   batch_size: int, time_limit: float = 20.0
                   ) -> ExecutionPlan:
    """Checkmate-style optimal rematerialization via ILP (HiGHS).

    Minimize total recompute time subject to the retained stash fitting
    the memory budget: ``x_b = 1`` keeps block b's stash resident,
    ``x_b = 0`` drops it to a checkpoint (keep the boundary, re-forward in
    the backward pass).  No swapping — Checkmate is a pure recompute
    method (Table I).
    """
    inputs = build_inputs(graph, cost, capacity)
    u = inputs.num_segments
    # coarsen block granularity until the mandatory boundaries fit: fewer
    # blocks -> fewer retained boundaries (Checkmate picks its own stage
    # granularity in the original system)
    group = 1
    while group < u:
        bounds = list(range(group, u, group))
        if not bounds or bounds[-1] != u:
            bounds.append(u)
        starts = [0] + bounds[:-1]
        ends = [inputs.layers_of(a, b)[1] for a, b in zip(starts, bounds)]
        boundary = np.array(
            [cost.block_activation_bytes(e - 1, e) for e in ends], dtype=float)
        if boundary.sum() <= inputs.ledger_capacity:
            break
        group *= 2
    else:
        raise ValueError("even pure checkpointing does not fit memory")
    starts = [0] + bounds[:-1]
    stash = np.array([inputs.stash(a, b) for a, b in zip(starts, bounds)],
                     dtype=float)
    fw = np.array([inputs.fw(a, b) for a, b in zip(starts, bounds)])
    k = len(bounds)
    budget = float(inputs.ledger_capacity)
    # retained = sum_b x_b stash_b + (1-x_b) boundary_b <= budget, minus the
    # largest transient interior (a dropped block holds its full stash
    # while it is being forwarded/recomputed)
    # minimize sum_b (1-x_b) fw_b  ==  maximize sum_b x_b fw_b
    coeff = stash - boundary
    transient = float((stash - boundary).max()) if k else 0.0
    rhs = budget - boundary.sum() - transient
    if rhs < 0:
        raise ValueError("even pure checkpointing does not fit memory")
    res = optimize.milp(
        c=-fw,
        constraints=optimize.LinearConstraint(coeff[None, :], -np.inf, rhs),
        integrality=np.ones(k),
        bounds=optimize.Bounds(0, 1),
        options={"time_limit": time_limit},
    )
    if not res.success:
        raise RuntimeError(f"Checkmate ILP failed: {res.message}")
    keep = res.x > 0.5
    blocks = [inputs.layers_of(a, b) for a, b in zip(starts, bounds)]
    policies = [BlockPolicy.RESIDENT if keep[i] else BlockPolicy.CHECKPOINTED
                for i in range(k)]
    return make_plan(graph.name, batch_size, blocks, policies)
