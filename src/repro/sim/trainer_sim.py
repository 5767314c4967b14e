"""Compile execution plans to event graphs and simulate one iteration.

This is the timing engine behind Fig. 5 (throughput vs batch), Fig. 6
(per-block stall profiles) and the blocking search's objective: the planner
proposes a blocking, :func:`simulate_plan` prices it.

Op semantics (single-worker iteration):

* ``F b``   — forward of block b; needs block b-1's output; acquires b's stash
* ``Sout b``— stash D2H copy; releases the stash bytes when done
* ``Sin b`` — stash H2D copy; re-acquires the bytes (the ledger may delay it:
              that is precisely the capacity-based prefetch throttling)
* ``R b``   — recompute (re-forward) from the nearest upstream checkpoint
* ``B b``   — backward of block b; releases the stash when done

Stashes placed past DRAM (``plan.placements[b] >= 2``) lower to *chained*
swap pairs: the host-link hop (``d2h``/``h2d``) plus a storage-link hop on
the dedicated exclusive ``d2s``/``s2d`` resources, so NVMe contention
surfaces in the stall profile exactly like host-link contention does.
Simulating a storage-placed plan requires a
:class:`~repro.hardware.tiering.MemoryHierarchy` for the storage link's
timing.

Weights stay device-resident in single-worker plans (Fig. 2 swaps
activations); the distributed 5-stage pipeline moves weights and gradients
too and is simulated in :mod:`repro.sim.distributed_sim`.

Lowering is split in two so the blocking search can batch candidate
evaluation:

* :func:`compile_skeleton` walks the stage schedule once and produces the
  *structure* — op roles, resources, labels, resolved dependency ids —
  which depends only on policies / stage order / which blocks chain
  through storage, **not** on where the block boundaries sit;
* :func:`bind_costs` stamps durations and acquire/release byte counts
  from a :class:`BlockCosts` onto a skeleton, yielding the
  :class:`~repro.sim.engine.SimOp` list.

A :class:`LoweringCache` memoizes that pipeline (block costs, ledger
sizing, skeletons, and each priced outcome) for one fixed ``(cost model,
capacity, hierarchy)`` planning context, so grid points that differ only
in margin / placement policy — which very often lower to the same plan —
are priced at dictionary-lookup cost, and boundary candidates that share
a policy structure reuse the lowered skeleton with re-bound durations.
It holds scalars and atomic keys, never an exception, a ``SimResult`` or
a plan, so a search leaves no cyclic garbage for the collector to walk.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.schedule import BlockPolicy, ExecutionPlan, Op, OpKind, Resource
from ..costs.profiler import CostModel
from ..hardware.tiering import MemoryHierarchy
from .engine import (
    ScheduleBuilder,
    SimOp,
    SimResult,
    SimulationDeadlock,
    simulate,
)


class OutOfCoreInfeasible(RuntimeError):
    """The plan cannot run within device capacity (true OOM)."""


@dataclass(frozen=True)
class BlockCosts:
    """Per-block costs derived from the cost model for one plan."""

    fw: Tuple[float, ...]
    bw: Tuple[float, ...]
    stash_bytes: Tuple[int, ...]
    boundary_bytes: Tuple[int, ...]    # the block's output activation
    weight_bytes: Tuple[int, ...]
    swap_time: Tuple[float, ...]       # one-way stash transfer (host link)
    grad_swap_time: Tuple[float, ...]  # gradients D2H (distributed pipeline)
    # storage-link hop times past DRAM; all zeros for DRAM-only plans
    storage_out_time: Tuple[float, ...] = ()
    storage_in_time: Tuple[float, ...] = ()

    @property
    def num_blocks(self) -> int:
        return len(self.fw)

    def storage_out(self, block: int) -> float:
        return self.storage_out_time[block] if self.storage_out_time else 0.0

    def storage_in(self, block: int) -> float:
        return self.storage_in_time[block] if self.storage_in_time else 0.0


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


@dataclass
class IterationResult:
    """Timing of one simulated training iteration."""

    plan: ExecutionPlan
    sim: Optional[SimResult]           # None when priced through a cache
    makespan: float
    gpu_busy: float
    gpu_occupancy: float
    total_stall: float
    bw_block_stalls: Dict[int, float]  # idle gap right before each B op
    samples_per_sec: float
    storage_busy: float = 0.0          # seconds on the d2s + s2d links

    def summary(self) -> str:
        line = (f"iteration {self.makespan * 1e3:8.2f} ms | occupancy "
                f"{self.gpu_occupancy * 100:5.1f}% | stalls "
                f"{self.total_stall * 1e3:7.2f} ms | "
                f"{self.samples_per_sec:8.1f} samples/s")
        if self.storage_busy > 0:
            line += f" | storage {self.storage_busy * 1e3:7.2f} ms"
        return line


#: The IterationResult fields after plan and sim: what a cache keeps.
_Timing = Tuple[float, float, float, float, Dict[int, float], float, float]


def _stash_ledger_capacity(plan: ExecutionPlan, costs: BlockCosts,
                           cost: CostModel, capacity: float,
                           workspace_of=None) -> int:
    """Near-memory bytes available to activation stashes.

    Weights, gradients and optimizer state stay resident in single-worker
    plans; the largest transient workspace is reserved as margin.
    ``workspace_of`` overrides the per-block peak-workspace lookup (the
    lowering cache memoizes it — neighbouring search candidates share
    almost all their blocks).
    """
    persistent = cost.persistent_bytes()
    if workspace_of is None:
        workspace = max((cost.block_memory(s, e).peak_workspace
                         for (s, e) in plan.blocks), default=0)
    else:
        workspace = max((workspace_of(s, e) for (s, e) in plan.blocks),
                        default=0)
    ledger = int(capacity - persistent - workspace)
    if ledger <= 0:
        raise OutOfCoreInfeasible(
            f"persistent bytes {persistent + workspace} exceed device "
            f"capacity {int(capacity)}")
    return ledger


# ---------------------------------------------------------------------------
# Lowering: plan -> skeleton -> SimOps
# ---------------------------------------------------------------------------

# Op roles: the cost-binding rule for each emitted op.  The skeleton pins
# (role, block, resource, label, deps); bind_costs turns a role into
# (duration, mem_acquire, mem_release) for a concrete BlockCosts.
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

#: One skeleton op: (role, block, resource, label, resolved dep ids).
SkeletonOp = Tuple[int, int, str, str, Tuple[int, ...]]


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


def compile_plan(plan: ExecutionPlan, costs: BlockCosts,
                 prefetch_lookahead: int = 3) -> List[SimOp]:
    """Lower the stage schedule to SimOps with explicit data dependencies.

    Equivalent to ``bind_costs(compile_skeleton(plan, costs), costs)`` —
    the split exists so the blocking search can reuse skeletons across
    candidates (see :class:`LoweringCache`).
    """
    return bind_costs(compile_skeleton(plan, costs, prefetch_lookahead),
                      costs)


# ---------------------------------------------------------------------------
# The lowering cache
# ---------------------------------------------------------------------------

class LoweringCache:
    """Memoizes the plan-pricing pipeline for one planning context.

    The blocking search prices thousands of (boundaries, margin,
    placement-policy) grid points against one fixed cost model, device
    capacity and memory hierarchy.  Candidates that differ only in margin
    or placement policy very often *lower to the same plan*, and boundary
    candidates that share a policy structure share the lowered skeleton.
    This cache exploits both, layer by layer:

    * ``results``   — an :class:`IterationResult`'s fields minus ``plan``
      and ``sim`` per (structure, blocks) key: identical plans priced once;
    * ``skeletons`` — cost-free skeletons per structure key, so a new
      boundary vector only re-binds durations / byte counts;
    * ``costs`` / ``ledgers`` — :func:`block_costs` and the stash-ledger
      sizing per block partition.

    Layers hold scalars and atomic keys; an infeasible outcome is kept as
    its message and re-raised fresh, never as the exception (whose
    traceback pins the search frames, and through them this cache).
    Instances are bound to their ``(cost, capacity, hierarchy)`` triple;
    :func:`simulate_plan` refuses a cache built for a different context
    (a silent key collision would return wrong prices).  All layers are
    LRU-bounded.  Safe to pickle (fork-based portfolio workers each carry
    their own copy).
    """

    def __init__(self, cost: CostModel, capacity: float,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 max_entries: int = 1024):
        self.cost = cost
        self.capacity = capacity
        self.hierarchy = hierarchy
        self.max_entries = max_entries
        self._costs: "OrderedDict[Tuple, BlockCosts]" = OrderedDict()
        self._ledgers: "OrderedDict[Tuple, Union[int, str]]" = OrderedDict()
        self._skeletons: "OrderedDict[Tuple, Tuple[SkeletonOp, ...]]" = \
            OrderedDict()
        self._results: "OrderedDict[Tuple, Union[_Timing, str]]" = \
            OrderedDict()
        self._workspace: Dict[Tuple[int, int], int] = {}
        self.hits = 0            # result-level hits (sim fully skipped)
        self.misses = 0          # result-level misses (sim actually ran)
        self.skeleton_hits = 0   # re-binds that skipped stage lowering

    def matches(self, cost: CostModel, capacity: float,
                hierarchy: Optional[MemoryHierarchy]) -> bool:
        return (self.cost is cost and self.capacity == capacity
                and self.hierarchy is hierarchy)

    def stats(self) -> Dict[str, int]:
        return {"result_hits": self.hits, "result_misses": self.misses,
                "skeleton_hits": self.skeleton_hits,
                "results": len(self._results),
                "skeletons": len(self._skeletons)}

    @staticmethod
    def _put(store: "OrderedDict", key: Tuple, value: object,
             limit: int) -> None:
        store[key] = value
        if len(store) > limit:
            store.popitem(last=False)

    @staticmethod
    def _get(store: "OrderedDict", key: Tuple) -> object:
        """Lookup that refreshes recency, so eviction is true LRU — the
        skeleton a thousand boundary candidates share must not be evicted
        by one-off entries just because it was inserted first."""
        value = store.get(key)
        if value is not None:
            store.move_to_end(key)
        return value

    def block_costs(self, plan: ExecutionPlan,
                    placements_sig: Tuple) -> BlockCosts:
        key = (plan.blocks, placements_sig)
        costs = self._get(self._costs, key)
        if costs is None:
            costs = block_costs(plan.blocks, self.cost,
                                hierarchy=self.hierarchy,
                                placements=plan.placements)
            self._put(self._costs, key, costs, self.max_entries)
        return costs  # type: ignore[return-value]

    def _block_workspace(self, s: int, e: int) -> int:
        key = (s, e)
        w = self._workspace.get(key)
        if w is None:
            w = self.cost.block_memory(s, e).peak_workspace
            self._workspace[key] = w
        return w

    def ledger_capacity(self, plan: ExecutionPlan,
                        costs: BlockCosts) -> int:
        """Stash-ledger sizing per block partition; infeasible partitions
        cache their message so repeated probes fail fast."""
        key = plan.blocks
        cached = self._get(self._ledgers, key)
        if cached is None:
            try:
                cached = _stash_ledger_capacity(
                    plan, costs, self.cost, self.capacity,
                    workspace_of=self._block_workspace)
            except OutOfCoreInfeasible as exc:
                cached = str(exc)
            self._put(self._ledgers, key, cached, self.max_entries)
        if isinstance(cached, str):
            raise OutOfCoreInfeasible(cached)
        return cached  # type: ignore[return-value]

    def skeleton(self, plan: ExecutionPlan, costs: BlockCosts,
                 structure_key: Tuple,
                 prefetch_lookahead: int) -> Tuple[SkeletonOp, ...]:
        skeleton = self._get(self._skeletons, structure_key)
        if skeleton is None:
            skeleton = compile_skeleton(plan, costs, prefetch_lookahead)
            self._put(self._skeletons, structure_key, skeleton,
                      self.max_entries)
        else:
            self.skeleton_hits += 1
        return skeleton  # type: ignore[return-value]

    def result(self, key: Tuple) -> Optional[Union[_Timing, str]]:
        return self._get(self._results, key)  # type: ignore[return-value]

    def store_result(self, key: Tuple, value: Union[_Timing, str]) -> None:
        self._put(self._results, key, value, self.max_entries)


# ---------------------------------------------------------------------------
# Plan pricing
# ---------------------------------------------------------------------------

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


def simulate_plan(plan: ExecutionPlan, cost: CostModel,
                  capacity: float,
                  hierarchy: Optional[MemoryHierarchy] = None,
                  cache: Optional[LoweringCache] = None
                  ) -> IterationResult:
    """Price one training iteration of ``plan`` on the cost model's device.

    Raises :class:`OutOfCoreInfeasible` when the plan cannot fit (either
    persistent state exceeds capacity, or the event simulation deadlocks on
    the stash ledger — e.g. a single block larger than available memory).
    Plans that place stashes past DRAM need a ``hierarchy`` for the
    storage link's timing.

    ``cache`` batches repeated pricing: pass the search's shared
    :class:`LoweringCache` (built for the *same* cost model, capacity and
    hierarchy — anything else raises) and structurally identical plans
    reuse lowered skeletons and priced results.  A cached pricing, hit or
    miss, returns every scalar field and ``bw_block_stalls`` with ``sim``
    set to None; call without ``cache`` for the :class:`SimResult`.
    """
    if plan.uses_storage and hierarchy is None:
        raise ValueError(
            "plan places stashes on a storage tier; pass the "
            "MemoryHierarchy so the storage link can be priced")
    if cache is not None and not cache.matches(cost, capacity, hierarchy):
        raise ValueError(
            "LoweringCache was built for a different (cost, capacity, "
            "hierarchy) context; results would be silently wrong")

    if cache is None:
        costs = block_costs(plan.blocks, cost, hierarchy=hierarchy,
                            placements=plan.placements)
        ledger = _stash_ledger_capacity(plan, costs, cost, capacity)
        ops = compile_plan(plan, costs)
        try:
            sim = simulate(ops, memory_capacity=ledger)
        except SimulationDeadlock as exc:
            raise OutOfCoreInfeasible(str(exc)) from exc
        return IterationResult(plan, sim, *_analyze(sim, plan.batch_size))

    costs = cache.block_costs(plan, tuple(sorted(plan.placements.items())))
    structure_key = plan_structure_key(plan, costs)
    result_key = (structure_key, plan.blocks)
    cached = cache.result(result_key)
    if cached is not None:
        cache.hits += 1
    else:
        cache.misses += 1
        try:
            ledger = cache.ledger_capacity(plan, costs)
            skeleton = cache.skeleton(plan, costs, structure_key,
                                      prefetch_lookahead=3)
            try:
                sim = simulate(bind_costs(skeleton, costs),
                               memory_capacity=ledger)
            except SimulationDeadlock as exc:
                raise OutOfCoreInfeasible(str(exc)) from exc
        except OutOfCoreInfeasible as exc:
            cache.store_result(result_key, str(exc))
            raise
        cached = _analyze(sim, plan.batch_size)
        cache.store_result(result_key, cached)
    if isinstance(cached, str):
        raise OutOfCoreInfeasible(cached)
    # same structure + same blocks + same context => same timings; only
    # the caller's plan is attached
    return IterationResult(plan, None, *cached)
