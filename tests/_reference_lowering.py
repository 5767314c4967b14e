"""The plan-pricing pipeline as it stood before candidates were priced
from arrays: the differential oracle for :mod:`repro.sim.trainer_sim`.

``block_costs``, ``plan_structure_key``, ``compile_skeleton``,
``bind_costs`` and ``_analyze`` are the earlier implementations verbatim
(per-op ``Op``/``SimOp`` objects, a sorted ``SimResult`` fold), and
``_qualify_tiers`` is the second pass ``make_plan`` used to run over the
stage schedule.  ``validate`` and its two helpers are the two-walk
``ExecutionPlan.validate`` (methods turned into functions of the plan).
``reference_simulate_plan`` chains the pipeline the way the uncached
``simulate_plan`` did.  Only tests import this module.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.schedule import (
    BlockPolicy,
    ExecutionPlan,
    Op,
    OpKind,
    PlanValidationError,
    Resource,
    Stage,
)
from repro.costs.profiler import CostModel
from repro.graph.layer_graph import LayerGraph
from repro.hardware.tiering import MemoryHierarchy
from repro.sim.engine import (
    ScheduleBuilder,
    SimOp,
    SimResult,
    SimulationDeadlock,
    simulate,
)
from repro.sim.trainer_sim import (
    BlockCosts,
    OutOfCoreInfeasible,
    _stash_ledger_capacity,
)

#: The IterationResult fields after plan and sim.
_Timing = Tuple[float, float, float, float, Dict[int, float], float, float]

#: One skeleton op: (role, block, resource, label, resolved dep ids).
SkeletonOp = Tuple[int, int, str, str, Tuple[int, ...]]


def block_costs(blocks: Sequence[Tuple[int, int]],
                cost: CostModel,
                hierarchy: Optional[MemoryHierarchy] = None,
                placements: Optional[Dict[int, int]] = None) -> BlockCosts:
    """Aggregate the cost model over a blocking.

    When ``hierarchy``/``placements`` are given, blocks placed past DRAM
    also get storage-link hop times (the DRAM <-> NVMe legs of the chained
    transfer); the host-link leg keeps the calibrated ``swap_time``.
    """
    fw, bw, stash, bnd, wbytes, swap, gswap = [], [], [], [], [], [], []
    sto_out, sto_in = [], []
    placements = placements or {}
    for bi, (s, e) in enumerate(blocks):
        fw.append(cost.block_fw_time(s, e))
        bw.append(cost.block_bw_time(s, e))
        sb = cost.block_activation_bytes(s, e)
        wb = cost.block_weight_bytes(s, e)
        stash.append(sb)
        bnd.append(cost.block_activation_bytes(e - 1, e))
        wbytes.append(wb)
        swap.append(cost.transfer.swap_time(sb))
        gswap.append(cost.transfer.swap_time(wb))
        tier = placements.get(bi, 1)
        if tier >= 2 and hierarchy is not None:
            sto_out.append(hierarchy.transfer_time(sb, 1, tier))
            sto_in.append(hierarchy.transfer_time(sb, tier, 1))
        else:
            sto_out.append(0.0)
            sto_in.append(0.0)
    return BlockCosts(fw=tuple(fw), bw=tuple(bw), stash_bytes=tuple(stash),
                      boundary_bytes=tuple(bnd), weight_bytes=tuple(wbytes),
                      swap_time=tuple(swap), grad_swap_time=tuple(gswap),
                      storage_out_time=tuple(sto_out),
                      storage_in_time=tuple(sto_in))


# Op roles, as the skeleton's first column.
_ROLE_FW_KEEP = 0     # forward, stash stays near
_ROLE_FW_DROP = 1     # forward of a RECOMPUTED block (drop whole stash)
_ROLE_FW_CKPT = 2     # forward of a CHECKPOINTED block (keep boundary)
_ROLE_SOUT = 3        # host-link swap-out hop (plain, or leg 1 of chained)
_ROLE_SOUT_STORE = 4  # storage-link swap-out hop (leg 2 of chained)
_ROLE_SIN = 5         # host-link swap-in hop (plain, or leg 2 of chained)
_ROLE_SIN_STORE = 6   # storage-link swap-in hop (leg 1 of chained)
_ROLE_RC = 7          # recompute of a RECOMPUTED block
_ROLE_RC_CKPT = 8     # recompute of a CHECKPOINTED block
_ROLE_BW = 9          # backward

def plan_structure_key(plan: ExecutionPlan, costs: BlockCosts,
                       prefetch_lookahead: int = 3) -> Tuple:
    """Hashable key capturing everything :func:`compile_skeleton` reads.

    Two plans with equal keys lower to the same skeleton even when their
    block boundaries (and therefore durations and byte counts) differ —
    that is the reuse the blocking search's lowering cache exploits.  Ops
    key on ``kind.value`` so the tuples stay atomic (the GC untracks them).
    """
    stage_sig = tuple(
        tuple((op.kind.value, op.block, op.src_tier, op.dst_tier)
              for op in stage.ops)
        for stage in plan.stages)
    placements_sig = tuple(sorted(plan.placements.items()))
    chained_out = frozenset(
        b for b in range(plan.num_blocks)
        if plan.stash_tier(b) >= 2 and costs.storage_out(b) > 0)
    chained_in = frozenset(
        b for b in range(plan.num_blocks)
        if plan.stash_tier(b) >= 2 and costs.storage_in(b) > 0)
    return (stage_sig, plan.policies, placements_sig, chained_out,
            chained_in, prefetch_lookahead)


def compile_skeleton(plan: ExecutionPlan, costs: BlockCosts,
                     prefetch_lookahead: int = 3) -> Tuple[SkeletonOp, ...]:
    """Lower the stage schedule to a cost-free op skeleton.

    Two throttles shape swap-in timing, both mirroring the paper's runtime:

    * a swap-in depends on the last GPU op of the *preceding* stage — the
      prefetch is issued at its stage's launch point, never earlier (the
      "synchronize before the prefetch" of §III-H);
    * a swap-in for block b additionally waits for the backward of block
      ``b + prefetch_lookahead`` — prefetch depth is bounded, so eager
      swap-ins cannot hoard the memory that upcoming recompute scratch or
      outstanding forwards still need.

    Swaps placed past DRAM lower to a chained op pair — the host-link hop
    plus a storage-link hop on the exclusive ``d2s``/``s2d`` resources —
    so one plan-level op may produce two skeleton ops.  Symbolic keys
    always point at the *final* hop (the one downstream deps must wait
    for); the :class:`~repro.sim.engine.ScheduleBuilder` resolves them
    against the final key map at build time.
    """
    builder = ScheduleBuilder()
    roles: List[int] = []
    blocks: List[int] = []
    n = plan.num_blocks

    def emit(role: int, block: int, resource: str, label: str,
             deps: Sequence[object], key: Optional[Tuple[OpKind, int]],
             require_deps: bool = False) -> int:
        roles.append(role)
        blocks.append(block)
        return builder.emit(resource, 0.0, key=key, deps=deps, label=label,
                            require_deps=require_deps)

    def checkpoint_key(block: int) -> Optional[Tuple[OpKind, int]]:
        """The op whose output feeds block's recompute."""
        prev = block - 1
        if prev < 0:
            return None
        prev_policy = plan.policies[prev]
        if prev_policy is BlockPolicy.RECOMPUTED:
            return (OpKind.RECOMPUTE, prev)
        if prev_policy is BlockPolicy.SWAPPED:
            return (OpKind.SWAP_IN, prev)
        # RESIDENT, or CHECKPOINTED whose boundary survived forward
        return (OpKind.FORWARD, prev)

    gpu_kinds = (OpKind.FORWARD, OpKind.BACKWARD, OpKind.RECOMPUTE)
    last_gpu_prev_stages: Optional[Tuple[OpKind, int]] = None
    for stage in plan.stages:
        stage_gpu: Optional[Tuple[OpKind, int]] = None
        for op in stage.ops:
            b = op.block
            policy = plan.policies[b]
            plain = Op(op.kind, b)
            if op.kind is OpKind.FORWARD:
                deps: List[object] = []
                if b > 0:
                    deps.append((OpKind.FORWARD, b - 1))
                # RECOMPUTED blocks drop their whole stash after forward;
                # CHECKPOINTED blocks keep only their output boundary
                if policy is BlockPolicy.RECOMPUTED:
                    role = _ROLE_FW_DROP
                elif policy is BlockPolicy.CHECKPOINTED:
                    role = _ROLE_FW_CKPT
                else:
                    role = _ROLE_FW_KEEP
                emit(role, b, Resource.GPU.value, plain.label(), deps,
                     (OpKind.FORWARD, b))
            elif op.kind is OpKind.SWAP_OUT:
                tier = plan.stash_tier(b)
                if tier >= 2 and costs.storage_out(b) > 0:
                    # chained demotion: D2H stages into the DRAM bounce
                    # buffer (stash leaves the device ledger here), then
                    # the storage write occupies the exclusive D2S link
                    host_hop = emit(
                        _ROLE_SOUT, b, Resource.D2H.value, f"Sout{b + 1}",
                        [(OpKind.FORWARD, b)], None)
                    emit(_ROLE_SOUT_STORE, b, Resource.D2S.value,
                         op.label(), [host_hop], (OpKind.SWAP_OUT, b))
                else:
                    emit(_ROLE_SOUT, b, Resource.D2H.value, plain.label(),
                         [(OpKind.FORWARD, b)], (OpKind.SWAP_OUT, b))
            elif op.kind is OpKind.SWAP_IN:
                deps = [(OpKind.SWAP_OUT, b)]
                if last_gpu_prev_stages is not None:
                    deps.append(last_gpu_prev_stages)
                if prefetch_lookahead and b + prefetch_lookahead < n:
                    deps.append((OpKind.BACKWARD, b + prefetch_lookahead))
                tier = plan.stash_tier(b)
                if tier >= 2 and costs.storage_in(b) > 0:
                    # chained promotion: the storage read (S2D) lands in
                    # DRAM first; only the H2D hop claims device memory
                    storage_hop = emit(
                        _ROLE_SIN_STORE, b, Resource.S2D.value, op.label(),
                        deps, None)
                    emit(_ROLE_SIN, b, Resource.H2D.value, f"Sin{b + 1}",
                         [storage_hop], (OpKind.SWAP_IN, b))
                else:
                    emit(_ROLE_SIN, b, Resource.H2D.value, plain.label(),
                         deps, (OpKind.SWAP_IN, b))
            elif op.kind is OpKind.RECOMPUTE:
                key = checkpoint_key(b)
                deps = [key] if key is not None else []
                if plan.policies[b] is BlockPolicy.CHECKPOINTED:
                    role = _ROLE_RC_CKPT
                else:
                    role = _ROLE_RC
                emit(role, b, Resource.GPU.value, plain.label(), deps,
                     (OpKind.RECOMPUTE, b), require_deps=True)
            elif op.kind is OpKind.BACKWARD:
                deps = []
                if b + 1 < n:
                    deps.append((OpKind.BACKWARD, b + 1))
                if policy is BlockPolicy.SWAPPED:
                    deps.append((OpKind.SWAP_IN, b))
                elif policy in (BlockPolicy.RECOMPUTED,
                                BlockPolicy.CHECKPOINTED):
                    deps.append((OpKind.RECOMPUTE, b))
                else:
                    deps.append((OpKind.FORWARD, b))
                emit(_ROLE_BW, b, Resource.GPU.value, plain.label(), deps,
                     (OpKind.BACKWARD, b))
            else:
                raise ValueError(f"single-worker plans cannot contain "
                                 f"{op.kind}")
            if op.kind in gpu_kinds:
                stage_gpu = (op.kind, b)
        if stage_gpu is not None:
            last_gpu_prev_stages = stage_gpu

    built = builder.build()
    return tuple((roles[i], blocks[i], sim_op.resource, sim_op.label,
                  sim_op.deps) for i, sim_op in enumerate(built))


def bind_costs(skeleton: Sequence[SkeletonOp],
               costs: BlockCosts) -> List[SimOp]:
    """Stamp durations and byte counts from ``costs`` onto a skeleton."""
    fw, bw = costs.fw, costs.bw
    stash, boundary = costs.stash_bytes, costs.boundary_bytes
    swap = costs.swap_time
    ops: List[SimOp] = []
    for op_id, (role, b, resource, label, deps) in enumerate(skeleton):
        acquire = 0
        release = 0
        if role == _ROLE_FW_KEEP:
            duration, acquire = fw[b], stash[b]
        elif role == _ROLE_FW_DROP:
            duration, acquire, release = fw[b], stash[b], stash[b]
        elif role == _ROLE_FW_CKPT:
            duration, acquire = fw[b], stash[b]
            release = stash[b] - boundary[b]
        elif role == _ROLE_SOUT:
            duration, release = swap[b], stash[b]
        elif role == _ROLE_SOUT_STORE:
            duration = costs.storage_out(b)
        elif role == _ROLE_SIN:
            duration, acquire = swap[b], stash[b]
        elif role == _ROLE_SIN_STORE:
            duration = costs.storage_in(b)
        elif role == _ROLE_RC:
            duration, acquire = fw[b], stash[b]
        elif role == _ROLE_RC_CKPT:
            duration = fw[b]
            acquire = stash[b] - boundary[b]
        else:  # _ROLE_BW
            duration, release = bw[b], stash[b]
        ops.append(SimOp(op_id=op_id, resource=resource, duration=duration,
                         deps=deps, mem_acquire=acquire,
                         mem_release=release, label=label))
    return ops


def _analyze(sim: SimResult, batch_size: int) -> _Timing:
    """Fold a raw simulation into the per-iteration report's fields."""
    gpu = Resource.GPU.value
    gpu_busy = sim.resource_busy.get(gpu, 0.0)
    occupancy = sim.occupancy(gpu)
    # one cached sort serves both the gap list and the stall attribution
    gpu_ops = sim.resource_timings(gpu)
    gaps = sim.idle_gaps(gpu)
    total_stall = sum(hi - lo for lo, hi in gaps)

    # attribute each idle gap to the GPU op that follows it
    bw_stalls: Dict[int, float] = {}
    prev_finish: Optional[float] = None
    for t in gpu_ops:
        if prev_finish is not None and t.start > prev_finish + 1e-15:
            if t.op.label.startswith("B"):
                block = int(t.op.label[1:]) - 1
                bw_stalls[block] = bw_stalls.get(block, 0.0) \
                    + (t.start - prev_finish)
        prev_finish = t.finish
    storage_busy = (sim.resource_busy.get(Resource.D2S.value, 0.0)
                    + sim.resource_busy.get(Resource.S2D.value, 0.0))
    return (sim.makespan, gpu_busy, occupancy, total_stall, bw_stalls,
            batch_size / sim.makespan if sim.makespan > 0 else math.inf,
            storage_busy)


def _qualify_tiers(stages: Tuple[Stage, ...],
                   placements: Mapping[int, int]) -> Tuple[Stage, ...]:
    """Rewrite swap ops with explicit src/dst tiers per the placement map."""
    out: List[Stage] = []
    for stage in stages:
        ops: List[Op] = []
        for op in stage.ops:
            tier = placements.get(op.block)
            if tier is None:
                ops.append(op)
            elif op.kind is OpKind.SWAP_OUT:
                ops.append(Op(op.kind, op.block, src_tier=0, dst_tier=tier))
            elif op.kind is OpKind.SWAP_IN:
                ops.append(Op(op.kind, op.block, src_tier=tier, dst_tier=0))
            else:
                ops.append(op)
        out.append(Stage(tuple(ops)))
    return tuple(out)


def validate(self: ExecutionPlan, graph: Optional[LayerGraph] = None) -> None:
    """Check structural legality; raises :class:`PlanValidationError`.

    Verifies the block partition (contiguous, covering ``graph`` when
    given), checkpoint sources, tier placements, and the stage launch
    order's dependency sanity.
    """
    n = self.num_blocks
    if n == 0:
        raise PlanValidationError("plan has no blocks")
    if len(self.policies) != n:
        raise PlanValidationError("one policy required per block")
    # contiguous, complete partition
    prev_end = 0
    for s, e in self.blocks:
        if s != prev_end or e <= s:
            raise PlanValidationError(
                f"blocks must be a contiguous partition; got {self.blocks}")
        prev_end = e
    if graph is not None and prev_end != len(graph):
        raise PlanValidationError(
            f"blocks cover {prev_end} layers, graph has {len(graph)}")
    # checkpoints: every recomputed block needs an upstream source
    # (-1 is the model-input sentinel: the batch itself is the source)
    for b in self.recomputed:
        src = self.checkpoints.get(b)
        if src is None:
            raise PlanValidationError(f"recomputed block {b} lacks a "
                                      "checkpoint source")
        if src >= b:
            raise PlanValidationError(
                f"checkpoint {src} of block {b} is not upstream")
        if src >= 0 and self.policies[src] is BlockPolicy.RECOMPUTED:
            raise PlanValidationError(
                f"checkpoint {src} of block {b} is itself recomputed")
    _validate_placements(self)
    _validate_stage_order(self)


def _validate_placements(self: ExecutionPlan) -> None:
    """Tier legality: placements only for swapped blocks, tiers >= 1,
    and every tier-qualified swap op consistent with its placement."""
    swapped = self.swapped
    for b, tier in self.placements.items():
        if b not in swapped:
            raise PlanValidationError(
                f"placement for block {b} which is not swapped "
                f"(policy {self.policies[b].value})")
        if tier < 1:
            raise PlanValidationError(
                f"block {b} placed in tier {tier}; stashes must leave "
                "the device tier (tier >= 1)")
    for stage in self.stages:
        for op in stage.ops:
            if op.kind is OpKind.SWAP_OUT:
                if op.src_tier not in (None, 0):
                    raise PlanValidationError(
                        f"{op.label()}: swap-out must leave the device "
                        f"tier, not tier {op.src_tier}")
                if op.dst_tier is not None \
                        and op.dst_tier != self.stash_tier(op.block):
                    raise PlanValidationError(
                        f"{op.label()}: dst tier {op.dst_tier} "
                        f"contradicts placement "
                        f"{self.stash_tier(op.block)}")
            elif op.kind is OpKind.SWAP_IN:
                if op.dst_tier not in (None, 0):
                    raise PlanValidationError(
                        f"{op.label()}: swap-in must land in the device "
                        f"tier, not tier {op.dst_tier}")
                if op.src_tier is not None \
                        and op.src_tier != self.stash_tier(op.block):
                    raise PlanValidationError(
                        f"{op.label()}: src tier {op.src_tier} "
                        f"contradicts placement "
                        f"{self.stash_tier(op.block)}")
            elif op.src_tier is not None or op.dst_tier is not None:
                raise PlanValidationError(
                    f"{op.label()}: only swap ops may be tier-qualified")


def _validate_stage_order(self: ExecutionPlan) -> None:
    """Dependency sanity over the launch schedule."""
    seen: List[Op] = []
    fw_done = set()
    bw_done = set()
    swapped_out = set()
    swapped_in = set()
    recomputed_live = set()
    for stage in self.stages:
        # ops within a stage must use distinct resources or be swaps of
        # different blocks on the same duplex link
        kinds = [op.resource for op in stage.ops
                 if op.resource is Resource.GPU]
        if len(kinds) > 1:
            raise PlanValidationError(
                f"stage {stage.label()!r} launches two GPU compute ops")
        for op in stage.ops:
            b = op.block
            if op.kind is OpKind.FORWARD:
                if b > 0 and (b - 1) not in fw_done:
                    # recompute sources re-enter as FORWARD during the
                    # backward phase; treat as recompute then
                    if (b - 1) not in bw_done and b not in self.recomputed:
                        raise PlanValidationError(
                            f"F{b + 1} before F{b} completed")
                fw_done.add(b)
            elif op.kind is OpKind.RECOMPUTE:
                recomputed_live.add(b)
            elif op.kind is OpKind.BACKWARD:
                if b + 1 < self.num_blocks and (b + 1) not in bw_done:
                    raise PlanValidationError(
                        f"B{b + 1} launched before B{b + 2}")
                if self.policies[b] is BlockPolicy.SWAPPED \
                        and b not in swapped_in:
                    raise PlanValidationError(
                        f"B{b + 1} launched before Sin{b + 1}")
                if self.policies[b] in (BlockPolicy.RECOMPUTED,
                                        BlockPolicy.CHECKPOINTED) \
                        and b not in recomputed_live:
                    raise PlanValidationError(
                        f"B{b + 1} launched before its recompute")
                bw_done.add(b)
            elif op.kind is OpKind.SWAP_OUT:
                if b not in fw_done:
                    raise PlanValidationError(
                        f"Sout{b + 1} before F{b + 1}")
                swapped_out.add(b)
            elif op.kind is OpKind.SWAP_IN:
                if b not in swapped_out:
                    raise PlanValidationError(
                        f"Sin{b + 1} without a prior Sout{b + 1}")
                swapped_in.add(b)
        seen.extend(stage.ops)
    missing_bw = set(range(self.num_blocks)) - bw_done
    if missing_bw:
        raise PlanValidationError(
            f"blocks never backward-processed: {sorted(missing_bw)}")


def reference_simulate_plan(plan: ExecutionPlan, cost: CostModel,
                            capacity: float,
                            hierarchy: Optional[MemoryHierarchy] = None
                            ) -> Tuple[SimResult, _Timing]:
    """The uncached ``simulate_plan`` pipeline: block costs, ledger
    sizing, skeleton, bound ``SimOp`` list, engine, fold; returns the
    ``SimResult`` and the ``IterationResult`` fields after it."""
    if plan.uses_storage and hierarchy is None:
        raise ValueError(
            "plan places stashes on a storage tier; pass the "
            "MemoryHierarchy so the storage link can be priced")
    costs = block_costs(plan.blocks, cost, hierarchy=hierarchy,
                        placements=plan.placements)
    ledger = _stash_ledger_capacity(plan, costs, cost, capacity)
    ops = compile_plan(plan, costs)
    try:
        sim = simulate(ops, memory_capacity=ledger)
    except SimulationDeadlock as exc:
        raise OutOfCoreInfeasible(str(exc)) from exc
    return sim, _analyze(sim, plan.batch_size)


def compile_plan(plan: ExecutionPlan, costs: BlockCosts,
                 prefetch_lookahead: int = 3) -> List[SimOp]:
    return bind_costs(compile_skeleton(plan, costs, prefetch_lookahead),
                      costs)
