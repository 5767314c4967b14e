"""Optimization Problem 2 (Fig. 4): interleave recompute with swap-in.

Given Opt-1's blocks and residency, flip SWAPPED blocks to RECOMPUTED where
that shrinks the pipeline's stalls.  Constraint 10.1 is the admission
filter — a block may be recomputed only if its re-forward cost up to the
next checkpoint is below the swap time it replaces — and the event
simulator is the acceptance test: a flip is kept only when the simulated
makespan strictly improves, which is the paper's framing ("recompute ...
to reduce the runtime by reducing the stalls in the pipeline"), not
gradient checkpointing's capacity framing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from ..costs.profiler import CostModel
from ..graph.layer_graph import LayerGraph
from ..graph.traversal import blocks_with_long_skips
from ..hardware.tiering import MemoryHierarchy
from .schedule import BlockPolicy
from .stages import make_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sim.trainer_sim import LoweringCache


@dataclass
class RecomputeResult:
    """Outcome of Opt-2."""

    policies: List[BlockPolicy]
    flipped: List[int]              # blocks converted to RECOMPUTED
    makespan_before: float
    makespan_after: float

    @property
    def improvement(self) -> float:
        if self.makespan_before <= 0:
            return 0.0
        return 1.0 - self.makespan_after / self.makespan_before


def _chain_length(policies: Sequence[BlockPolicy], b: int) -> int:
    """Length of the recompute chain that would end at block ``b``."""
    length = 1
    i = b - 1
    while i >= 0 and policies[i] is BlockPolicy.RECOMPUTED:
        length += 1
        i -= 1
    return length


def admissible(cost: CostModel, blocks: Sequence[Tuple[int, int]],
               policies: Sequence[BlockPolicy], b: int,
               hierarchy: Optional[MemoryHierarchy] = None,
               placements: Optional[Mapping[int, int]] = None) -> bool:
    """Constraint 10.1 for block ``b``: compute-to-checkpoint < swap time.

    Δ is the recompute chain that block ``b`` would join; its total
    re-forward cost must undercut the swap traffic it removes.  With a
    tiered placement, the removed swap includes the storage-link leg —
    an NVMe-placed block is far easier to admit than a DRAM-placed one.
    """
    if policies[b] is not BlockPolicy.SWAPPED:
        return False
    comp = 0.0
    i = b
    while i >= 0 and (i == b or policies[i] is BlockPolicy.RECOMPUTED):
        s, e = blocks[i]
        comp += cost.block_fw_time(s, e)
        i -= 1
    s, e = blocks[b]
    stash = cost.block_activation_bytes(s, e)
    swap = cost.transfer.swap_time(stash)
    if hierarchy is not None and placements:
        tier = placements.get(b, 1)
        if tier >= 2:
            swap += hierarchy.transfer_time(stash, 1, tier)
    return comp < swap


def apply_recompute(graph: LayerGraph, cost: CostModel, capacity: float,
                    model_name: str, batch_size: int,
                    blocks: Sequence[Tuple[int, int]],
                    policies: Sequence[BlockPolicy],
                    max_chain: int = 3,
                    max_evals: int = 200,
                    hierarchy: Optional[MemoryHierarchy] = None,
                    placement_policy: Optional[str] = None,
                    lowering: "Optional[LoweringCache]" = None
                    ) -> RecomputeResult:
    """Greedy Opt-2: flip admissible swapped blocks where the simulator
    confirms a strict makespan win.

    Blocks whose activations feed far-downstream blocks (U-Net long skips)
    are considered first — the paper observes the ILP converts exactly
    those to recompute (§III-F.4).

    Under a tiered ``hierarchy`` every trial is re-placed and priced with
    the storage links included, so an NVMe-placed block's expensive swap
    is weighed at its true cost — exactly the blocks recompute replaces
    most profitably.

    ``lowering`` shares the Opt-1 search's
    :class:`~repro.sim.trainer_sim.LoweringCache`: every trial keeps the
    winning block partition, so its block costs and ledger sizing are
    already cached, and re-probed policy vectors price as lookups.
    """
    from ..sim.trainer_sim import (
        LoweringCache,
        OutOfCoreInfeasible,
        simulate_plan,
    )

    if lowering is None:
        lowering = LoweringCache(cost, capacity, hierarchy)
    elif not lowering.matches(cost, capacity, hierarchy):
        raise ValueError("lowering cache does not match the Opt-2 context")

    policies = list(policies)
    # assign_tiers is pure and make_plan copies the placements it is
    # given, so each policy vector is placed once: an accepted trial's
    # vector is placed again right after its simulation
    placed: Dict[Tuple[BlockPolicy, ...], Dict[int, int]] = {}

    def place(pols: Sequence[BlockPolicy]) -> Dict[int, int]:
        if hierarchy is None:
            return {}
        key = tuple(pols)
        placements = placed.get(key)
        if placements is None:
            from ..tiering.placement import assign_tiers
            placements = placed[key] = assign_tiers(
                blocks, pols, cost, hierarchy,
                policy=placement_policy or "bandwidth").placements
        return placements

    def simulate(pols: Sequence[BlockPolicy]) -> float:
        try:
            plan = make_plan(model_name, batch_size, blocks, pols,
                             placements=place(pols), lowering=lowering)
            return simulate_plan(plan, cost, capacity, hierarchy=hierarchy,
                                 cache=lowering).makespan
        except (OutOfCoreInfeasible, ValueError):
            return math.inf

    base = simulate(policies)
    if not math.isfinite(base):
        raise ValueError("Opt-2 received an infeasible blocking")

    boundaries = [e for _, e in blocks]
    skip_first = set(blocks_with_long_skips(graph, boundaries))
    # candidate order: long-skip blocks first, then descending block index
    # (the backward phase meets high blocks first, Fig. 2c)
    candidates = sorted(
        (b for b, p in enumerate(policies) if p is BlockPolicy.SWAPPED),
        key=lambda b: (b not in skip_first, -b))

    flipped: List[int] = []
    current = base
    best_policies, best_value = list(policies), base
    # Greedy acceptance is order dependent, and on a saturated link a single
    # flip may sit on a makespan plateau until neighbours flip too.  Sweep
    # to a fixed point, accepting plateau moves (they strictly reduce swap
    # traffic, which is what eventually breaks the plateau), and return the
    # best configuration seen.
    evals = 0
    for _ in range(4):
        accepted_this_pass = False
        current_placements = place(policies)
        for b in candidates:
            if evals >= max_evals:
                break
            if policies[b] is not BlockPolicy.SWAPPED:
                continue
            if not admissible(cost, blocks, policies, b, hierarchy,
                              current_placements):
                continue
            if _chain_length(policies, b) > max_chain:
                continue
            trial = list(policies)
            trial[b] = BlockPolicy.RECOMPUTED
            value = simulate(trial)
            evals += 1
            if value <= current * (1.0 + 1e-6):
                policies = trial
                current = value
                flipped.append(b)
                accepted_this_pass = True
                current_placements = place(policies)
                if value < best_value - 1e-12:
                    best_policies, best_value = list(trial), value
        if not accepted_this_pass or evals >= max_evals:
            break

    kept = [b for b, p in enumerate(best_policies)
            if p is BlockPolicy.RECOMPUTED]
    return RecomputeResult(policies=best_policies, flipped=kept,
                           makespan_before=base, makespan_after=best_value)
