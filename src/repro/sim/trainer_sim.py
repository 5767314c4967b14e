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
  *structure* as five columns — op roles, blocks, resources, labels,
  resolved dependency ids — which depends only on policies / stage order
  / which blocks chain through storage, **not** on where the block
  boundaries sit; prepared once, it becomes the engine's
  :class:`~repro.sim.engine.Schedule`.  Each op is lowered once into a
  position-free template keyed on its signature and the context it
  reads; a skeleton is those templates appended in order, plus each
  swap-in's previous-stage GPU op, with every dependency resolved in one
  final pass;
* one role -> cost rule binds durations and acquire/release byte counts
  from a :class:`BlockCosts` into flat per-op lists, which
  :func:`~repro.sim.engine.run_schedule` prices; the report's fields are
  folded from the resulting start/finish arrays.  :func:`bind_costs` is
  the same rule yielding a :class:`~repro.sim.engine.SimOp` list.

A :class:`LoweringCache` memoizes that pipeline for one fixed ``(cost
model, capacity, hierarchy)`` planning context: block costs, ledger
sizing and each priced outcome, so grid points that differ only in
margin / placement policy — which very often lower to the same plan —
are priced at dictionary-lookup cost.  What does not read the context
lives in its :class:`StructureCache`: stage schedules, prepared
skeletons, and the piece tables every new policy vector is lowered from
— the interned ``Op``/``Stage`` objects of
:class:`~repro.core.stages.StagePieces` and the skeleton templates.
Boundary candidates that share a policy structure reuse the prepared
skeleton with re-bound durations, building no per-op object, and a
vector allocates only the pieces no earlier vector had; without a cache
the same code runs against fresh tables.  One plan's search owns one
structure table, unless its caller shares one across plans (the planner
daemon does).  Apart from one immutable stage schedule per policy
vector and the interned pieces, the caches hold scalars, atomic keys and
int tuples, never an exception, a ``SimResult`` or a plan, so a search
leaves no cyclic garbage for the collector to walk.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple, Union)

from ..core.schedule import (
    BlockPolicy,
    ExecutionPlan,
    Op,
    OpKind,
    Resource,
    Stages,
)
from ..core.stages import StagePieces
from ..costs.profiler import CostModel
from ..hardware.tiering import MemoryHierarchy
from .engine import (
    Schedule,
    SimOp,
    SimResult,
    SimulationDeadlock,
    Times,
    finalize,
    queue_busy,
    run_schedule,
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
    transfer); the host-link leg keeps the calibrated ``swap_time``.  A
    placement is read only when its tier is >= 2 and a hierarchy is
    given, which is what :class:`LoweringCache` keys block costs on.
    """
    fw, bw, stash, bnd, wbytes = cost.block_table(blocks)
    swap_time = cost.transfer.swap_time
    sto_out, sto_in = [0.0] * len(stash), [0.0] * len(stash)
    if hierarchy is not None and placements:
        for bi, sb in enumerate(stash):
            tier = placements.get(bi, 1)
            if tier >= 2:
                sto_out[bi] = hierarchy.transfer_time(sb, 1, tier)
                sto_in[bi] = hierarchy.transfer_time(sb, tier, 1)
    return BlockCosts(fw=tuple(fw), bw=tuple(bw), stash_bytes=tuple(stash),
                      boundary_bytes=tuple(bnd), weight_bytes=tuple(wbytes),
                      swap_time=tuple(map(swap_time, stash)),
                      grad_swap_time=tuple(map(swap_time, wbytes)),
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
# (role, block, resource, label, deps); _RULE turns a role into
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

#: The role -> cost rule, indexed by role: the (duration, acquire,
#: release) of an op on block b are entry b of these per-block columns
#: (see _bind): ``ckpt`` is stash minus the kept output boundary, ``0``
#: is nothing.
_RULE = (
    ("fw", "stash", "0"),          # _ROLE_FW_KEEP
    ("fw", "stash", "stash"),      # _ROLE_FW_DROP
    ("fw", "stash", "ckpt"),       # _ROLE_FW_CKPT
    ("swap", "0", "stash"),        # _ROLE_SOUT
    ("storage_out", "0", "0"),     # _ROLE_SOUT_STORE
    ("swap", "stash", "0"),        # _ROLE_SIN
    ("storage_in", "0", "0"),      # _ROLE_SIN_STORE
    ("fw", "stash", "0"),          # _ROLE_RC
    ("fw", "ckpt", "0"),           # _ROLE_RC_CKPT
    ("bw", "0", "stash"),          # _ROLE_BW
)

#: A skeleton as its five columns, one entry per op in emission order:
#: roles, blocks, resources, labels and resolved dependency ids.
Skeleton = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[str, ...],
                 Tuple[str, ...], Tuple[Tuple[int, ...], ...]]

#: One plan op lowered without its position: the (role, resource, label,
#: dependency specs) of the skeleton op it emits; for a swap chained to
#: storage, the (role, resource, label) of a second op that depends on the
#: first, else None; the symbolic key of the last op (both ops are on its
#: block); and whether the op is a GPU op, a swap-in and a recompute.  A
#: spec is a symbolic key.
_Template = Tuple[int, str, str, Tuple[Tuple[str, int], ...],
                  Optional[Tuple[int, str, str]], Tuple[str, int],
                  bool, bool, bool]

#: The dependency specs of a chained swap's second op: the op before it.
_PREVIOUS = (-1,)

#: A skeleton prepared for pricing: per-op roles and blocks, plus the
#: engine's :class:`~repro.sim.engine.Schedule` (queues, deps, labels).
_Lowered = Tuple[Tuple[int, ...], Tuple[int, ...], Schedule]

#: Per-op (durations, acquires, releases) of one bound skeleton.
_Bound = Tuple[List[float], List[int], List[int]]

# resource names and policies, read once: Enum attribute access is a
# descriptor call, and a template is built per distinct op
_GPU, _D2H, _H2D = Resource.GPU.value, Resource.D2H.value, Resource.H2D.value
_D2S, _S2D = Resource.D2S.value, Resource.S2D.value
_SWAPPED, _RECOMPUTED, _CHECKPOINTED = (
    BlockPolicy.SWAPPED, BlockPolicy.RECOMPUTED, BlockPolicy.CHECKPOINTED)


#: The empty chained-block set of a structure key.
_NO_BLOCKS: FrozenSet[int] = frozenset()


def plan_structure_key(plan: ExecutionPlan, costs: BlockCosts,
                       prefetch_lookahead: int = 3) -> Tuple:
    """Hashable key capturing everything :func:`compile_skeleton` reads.

    Two plans with equal keys lower to the same skeleton even when their
    block boundaries (and therefore durations and byte counts) differ —
    that is the reuse the blocking search's lowering cache exploits.  Ops
    key on their kind's value string so the tuples stay atomic (the GC
    untracks them).  The stage part is the schedule's carried
    :attr:`~repro.core.schedule.Stages.signature`, so plans sharing one
    schedule derive it once.  An empty chained set is the one shared
    :data:`_NO_BLOCKS`: each ``frozenset()`` built empty is a new object,
    and a structure table keeps one key per policy vector.
    """
    stage_sig = plan.stages.signature
    placements = plan.placements
    placements_sig = tuple(sorted(placements.items()))
    chained_out = frozenset(b for b, tier in placements.items()
                            if tier >= 2 and costs.storage_out(b) > 0) \
        or _NO_BLOCKS
    chained_in = frozenset(b for b, tier in placements.items()
                           if tier >= 2 and costs.storage_in(b) > 0) \
        or _NO_BLOCKS
    return (stage_sig, plan.policies, placements_sig, chained_out,
            chained_in, prefetch_lookahead)


def _template_key(sig: Tuple, policies: Sequence[BlockPolicy], n: int,
                  lookahead: int, chained: bool) -> Tuple:
    """Everything :func:`_template` reads for the op ``sig``: the
    signature, the block's policy, the previous block's policy for a
    recompute (its source), whether a next block and a lookahead block
    exist, and whether the op is chained to storage.  Policies enter as
    their value strings, so the key is atomic and the collector untracks
    it."""
    b = sig[1]
    return (sig, policies[b]._value_,
            policies[b - 1]._value_ if sig[0] == "R" and b > 0 else None,
            b + 1 < n, lookahead, b + lookahead < n, chained)


def _template(sig: Tuple, policies: Sequence[BlockPolicy], n: int,
              lookahead: int, chained: bool) -> _Template:
    """Lower one plan op apart from its position (see
    :func:`compile_skeleton`)."""
    kind, b = sig[0], sig[1]
    policy = policies[b]
    if kind == "F":
        # RECOMPUTED blocks drop their whole stash after forward;
        # CHECKPOINTED blocks keep only their output boundary
        role = (_ROLE_FW_DROP if policy is _RECOMPUTED
                else _ROLE_FW_CKPT if policy is _CHECKPOINTED
                else _ROLE_FW_KEEP)
        return (role, _GPU, f"F{b + 1}",
                (("F", b - 1),) if b > 0 else (), None, ("F", b),
                True, False, False)
    if kind == "Sout":
        if chained:
            # chained demotion: D2H stages into the DRAM bounce buffer
            # (stash leaves the device ledger here), then the storage
            # write occupies the exclusive D2S link
            return (_ROLE_SOUT, _D2H, f"Sout{b + 1}", (("F", b),),
                    (_ROLE_SOUT_STORE, _D2S, _op_label(sig)), ("Sout", b),
                    False, False, False)
        return (_ROLE_SOUT, _D2H, f"Sout{b + 1}", (("F", b),), None,
                ("Sout", b), False, False, False)
    if kind == "Sin":
        # the previous stage's last GPU op joins these deps at assembly
        deps: Tuple[Tuple[str, int], ...] = (("Sout", b),)
        if lookahead and b + lookahead < n:
            deps += (("B", b + lookahead),)
        if chained:
            # chained promotion: the storage read (S2D) lands in DRAM
            # first; only the H2D hop claims device memory
            return (_ROLE_SIN_STORE, _S2D, _op_label(sig), deps,
                    (_ROLE_SIN, _H2D, f"Sin{b + 1}"), ("Sin", b),
                    False, True, False)
        return (_ROLE_SIN, _H2D, f"Sin{b + 1}", deps, None, ("Sin", b),
                False, True, False)
    if kind == "R":
        # the recompute's input: the previous block's output, re-derived,
        # swapped back in, or kept since forward
        prev = b - 1
        if prev < 0:
            source: Tuple[Tuple[str, int], ...] = ()
        elif policies[prev] is _RECOMPUTED:
            source = (("R", prev),)
        elif policies[prev] is _SWAPPED:
            source = (("Sin", prev),)
        else:  # RESIDENT, or CHECKPOINTED (boundary survived)
            source = (("F", prev),)
        role = _ROLE_RC_CKPT if policy is _CHECKPOINTED else _ROLE_RC
        return (role, _GPU, f"F{b + 1}", source, None, ("R", b),
                True, False, True)
    if kind == "B":
        deps = (("B", b + 1),) if b + 1 < n else ()
        if policy is _SWAPPED:
            deps += (("Sin", b),)
        elif policy is _RECOMPUTED or policy is _CHECKPOINTED:
            deps += (("R", b),)
        else:
            deps += (("F", b),)
        return (_ROLE_BW, _GPU, f"B{b + 1}", deps, None, ("B", b),
                True, False, False)
    raise ValueError(f"single-worker plans cannot contain {OpKind(kind)}")


def _op_label(sig: Tuple) -> str:
    """Paper notation of the op ``sig``, tier suffix included."""
    return Op(OpKind(sig[0]), *sig[1:]).label()


def compile_skeleton(plan: ExecutionPlan, costs: BlockCosts,
                     prefetch_lookahead: int = 3,
                     templates: Optional[Dict[Tuple, _Template]] = None
                     ) -> Skeleton:
    """Lower the stage schedule to a cost-free op skeleton, as columns.

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
    (``(kind letter, block)`` tuples) always point at the *final* hop (the
    one downstream deps must wait for) and are resolved against the final
    key map.  Labels are the paper notation of the plan's ops (the
    storage hop carries the tier suffix).

    Each op is lowered once into a position-free template, keyed on its
    signature and the context it reads (:func:`_template_key`), and kept
    in ``templates`` — the search's :class:`LoweringCache` shares one
    table across every policy vector, and a fresh table is used when
    None.  Assembly appends the templates' columns, adds the one
    positional dependency (a swap-in's previous-stage GPU op) and
    resolves every symbolic dependency in one final pass.
    """
    if templates is None:
        templates = {}
    template_of = templates.get
    n = plan.num_blocks
    policies = plan.policies
    placements = plan.placements
    roles: List[int] = []
    blocks: List[int] = []
    resources: List[str] = []
    labels: List[str] = []
    specs: List[Tuple[Any, ...]] = []
    ids: Dict[Tuple[str, int], int] = {}
    required: Set[int] = set()   # recomputes: every dep must resolve
    last_gpu_prev_stages: Optional[Tuple[str, int]] = None
    for stage in plan.stages.signature:
        stage_gpu: Optional[Tuple[str, int]] = None
        for sig in stage:
            chained = False
            if placements:
                kind, b = sig[0], sig[1]
                if kind == "Sout":
                    chained = placements.get(b, 1) >= 2 \
                        and costs.storage_out(b) > 0
                elif kind == "Sin":
                    chained = placements.get(b, 1) >= 2 \
                        and costs.storage_in(b) > 0
            key = _template_key(sig, policies, n, prefetch_lookahead,
                                chained)
            template = template_of(key)
            if template is None:
                template = templates[key] = _template(
                    sig, policies, n, prefetch_lookahead, chained)
            (role, resource, label, spec, second, t_key,
             gpu, swap_in, recompute) = template
            b = t_key[1]
            if recompute:
                required.add(len(roles))
            if swap_in and last_gpu_prev_stages is not None:
                spec = spec[:1] + (last_gpu_prev_stages,) + spec[1:]
            roles.append(role)
            blocks.append(b)
            resources.append(resource)
            labels.append(label)
            specs.append(spec)
            if second is not None:
                roles.append(second[0])
                blocks.append(b)
                resources.append(second[1])
                labels.append(second[2])
                specs.append(_PREVIOUS)
            ids[t_key] = len(roles) - 1
            if gpu:
                stage_gpu = t_key
        if stage_gpu is not None:
            last_gpu_prev_stages = stage_gpu

    resolve = ids.__getitem__
    try:
        deps = tuple([tuple(map(resolve, spec)) for spec in specs])
    except KeyError:   # a chained op's relative dep, or a missing key
        deps = tuple([_resolve(i, spec, ids, i in required, labels)
                      for i, spec in enumerate(specs)])
    return tuple(roles), tuple(blocks), tuple(resources), tuple(labels), deps


def _resolve(i: int, spec: Tuple[Any, ...], ids: Dict[Tuple[str, int], int],
             required: bool, labels: Sequence[str]) -> Tuple[int, ...]:
    """Op ``i``'s dependency ids when some spec is relative or never
    emitted: a never-emitted key is dropped, unless ``required``."""
    resolved: List[int] = []
    for d in spec:
        if isinstance(d, int):
            resolved.append(i + d)
        elif d in ids:
            resolved.append(ids[d])
        elif required:
            raise SimulationDeadlock(
                f"op {labels[i] or i} depends on never-emitted key {d!r}")
    return tuple(resolved)


def _lower(skeleton: Skeleton) -> _Lowered:
    """Prepare a skeleton for pricing: what a :class:`StructureCache`
    keeps per structure key."""
    roles, blocks, resources, labels, deps = skeleton
    return roles, blocks, Schedule(resources, deps, labels)


def _bind(roles: Sequence[int], blocks: Sequence[int],
          labels: Sequence[str], costs: BlockCosts) -> _Bound:
    """Apply :data:`_RULE` to every op; raises :class:`SimOp`'s
    ``ValueError`` for the first op with a negative duration or byte
    count."""
    n = len(costs.fw)
    no_time = (0.0,) * n
    columns: Dict[str, Sequence[Any]] = {
        "fw": costs.fw, "bw": costs.bw, "stash": costs.stash_bytes,
        "swap": costs.swap_time, "0": (0,) * n,
        "ckpt": [s - k for s, k in zip(costs.stash_bytes,
                                       costs.boundary_bytes)],
        "storage_out": costs.storage_out_time or no_time,
        "storage_in": costs.storage_in_time or no_time,
    }
    duration_of = [columns[name] for name, _, _ in _RULE]
    acquire_of = [columns[name] for _, name, _ in _RULE]
    release_of = [columns[name] for _, _, name in _RULE]
    ops = tuple(zip(roles, blocks))
    durations = [duration_of[role][b] for role, b in ops]
    acquires = [acquire_of[role][b] for role, b in ops]
    releases = [release_of[role][b] for role, b in ops]
    if (any(d < 0 for d in durations) or min(acquires, default=0) < 0
            or min(releases, default=0) < 0):
        for i, d in enumerate(durations):
            if d < 0:
                raise ValueError(f"op {labels[i]}: negative duration")
            if acquires[i] < 0 or releases[i] < 0:
                raise ValueError("memory amounts must be non-negative")
    return durations, acquires, releases


def _sim_ops(skeleton: Skeleton, bound: _Bound) -> List[SimOp]:
    _, _, resources, labels, deps = skeleton
    return [SimOp(op_id=i, resource=resource, duration=duration, deps=dep,
                  mem_acquire=acquire, mem_release=release, label=label)
            for i, (resource, label, dep, duration, acquire, release)
            in enumerate(zip(resources, labels, deps, *bound))]


def bind_costs(skeleton: Skeleton, costs: BlockCosts) -> List[SimOp]:
    """Stamp durations and byte counts from ``costs`` onto a skeleton's
    columns."""
    roles, blocks, _, labels, _ = skeleton
    return _sim_ops(skeleton, _bind(roles, blocks, labels, costs))


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
# The lowering caches
# ---------------------------------------------------------------------------

def _content_key(skeleton: Skeleton) -> Tuple:
    """What two skeletons must share to lower to one ``Schedule``: every
    column but resources, which are a function of the role (see
    :func:`_template`)."""
    roles, blocks, _, labels, deps = skeleton
    return roles, blocks, labels, deps


class StructureCache:
    """The context-free lowering tables: what a plan's *structure* lowers
    to, whatever model, batch size or byte counts it is then priced with.

    * ``skeletons`` — prepared skeletons (roles, blocks and the engine's
      :class:`~repro.sim.engine.Schedule`) per :func:`plan_structure_key`,
      so a new boundary vector only re-binds durations / byte counts;
    * ``schedules`` — :func:`~repro.core.stages.make_plan`'s eager stage
      schedule and checkpoints per (policies, placements), kept once a
      plan built from them validated: plans that share a policy vector
      share one immutable :class:`~repro.core.schedule.Stages`, which
      carries its stage signature and validation walk;
    * ``pieces`` — the :class:`~repro.core.stages.StagePieces` that
      :func:`~repro.core.stages.generate_stages` takes each ``Op`` and
      ``Stage`` from, interned by content;
    * ``templates`` — :func:`compile_skeleton`'s per-op templates, keyed
      on an op's signature and the context it reads.

    None of these keys names a model, a batch size or a byte count, so
    one table serves any number of plans.  ``plan()`` makes a fresh one
    per call unless it is handed one; the planner daemon keeps one for
    its life, and a plan then lowers only the structure no earlier plan
    had.

    Skeletons are interned by content too: a skeleton whose structure
    key is new is looked up by its columns in ``content`` before its
    ``Schedule`` is built (keys that differ only in what lowering
    ignores share one: a swap placed in DRAM explicitly lowers like one
    left untiered), and every per-op ``deps`` / ``dependents`` tuple is
    interned in ``edges``.

    Nothing is ever evicted or reordered: an owner bounds the table by
    replacing it once it is :attr:`full`, which is one reference swap.
    So threads sharing one table only ever do ``dict.get`` and
    ``dict[k] = v``, both atomic; a race interns equal content twice,
    which is harmless because every entry is immutable.  Instances
    pickle.
    """

    def __init__(self, max_entries: int = 1024):
        self.max_entries = max_entries
        self.skeletons: Dict[Tuple, _Lowered] = {}
        self.schedules: Dict[Tuple, Tuple[Stages, Dict[int, int]]] = {}
        self.pieces = StagePieces()
        self.templates: Dict[Tuple, _Template] = {}
        self.content: Dict[Tuple, _Lowered] = {}
        self.edges: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    @property
    def full(self) -> bool:
        """Whether an owner should start a fresh table for its next plan
        (a single plan builds far fewer than ``max_entries``)."""
        return (len(self.skeletons) >= self.max_entries
                or len(self.schedules) >= self.max_entries)

    def lower(self, skeleton: Skeleton) -> _Lowered:
        """Prepare a skeleton for pricing, or return the prepared one with
        equal content."""
        lowered = self.content.get(_content_key(skeleton))
        if lowered is None:
            roles, blocks, resources, labels, deps = skeleton
            intern = self.edges.setdefault   # (d, d): d, or its equal
            skeleton = (roles, blocks, resources, labels,
                        tuple(map(intern, deps, deps)))
            lowered = _lower(skeleton)
            schedule = lowered[2]
            schedule.dependents = tuple(map(intern, schedule.dependents,
                                            schedule.dependents))
            self.content[_content_key(skeleton)] = lowered
        return lowered


def _structure_layer(name: str) -> property:
    """A :class:`LoweringCache` attribute that reads and writes one
    layer of its :class:`StructureCache`."""
    return property(lambda self: getattr(self.structure, name),
                    lambda self, value: setattr(self.structure, name, value))


class LoweringCache:
    """Memoizes the plan-pricing pipeline for one planning context.

    The blocking search prices thousands of (boundaries, margin,
    placement-policy) grid points against one fixed cost model, device
    capacity and memory hierarchy.  Candidates that differ only in margin
    or placement policy very often *lower to the same plan*, and boundary
    candidates that share a policy structure share the lowered skeleton.
    This cache exploits both.  Its pricing layers read the context:

    * ``results`` — an :class:`IterationResult`'s fields minus ``plan``
      and ``sim`` per (structure, blocks) key: identical plans priced once;
    * ``costs`` / ``ledgers`` — :func:`block_costs` per (partition,
      storage-placed blocks) and the stash-ledger sizing per partition,
      plus each block's peak workspace.

    The structure layers do not: they live in a :class:`StructureCache`
    (``structure``), a fresh one unless the caller shares one, and are
    also reachable here as ``_skeletons``, ``_schedules``, ``pieces`` and
    ``templates``.

    Layers hold scalars and atomic keys; an infeasible outcome is kept as
    its message and re-raised fresh, never as the exception (whose
    traceback pins the search frames, and through them this cache).
    Instances are bound to their ``(cost, capacity, hierarchy)`` triple;
    :func:`simulate_plan` refuses a cache built for a different context
    (a silent key collision would return wrong prices).  The pricing
    layers are LRU-bounded; an instance is used by one thread.
    Instances pickle.
    """

    _skeletons = _structure_layer("skeletons")
    _schedules = _structure_layer("schedules")
    pieces = _structure_layer("pieces")
    templates = _structure_layer("templates")

    def __init__(self, cost: CostModel, capacity: float,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 max_entries: int = 1024,
                 structure: Optional[StructureCache] = None):
        self.cost = cost
        self.capacity = capacity
        self.hierarchy = hierarchy
        self.max_entries = max_entries
        self.structure = structure if structure is not None \
            else StructureCache()
        self._costs: "OrderedDict[Tuple, BlockCosts]" = OrderedDict()
        self._ledgers: "OrderedDict[Tuple, Union[int, str]]" = OrderedDict()
        self._results: "OrderedDict[Tuple, Union[_Timing, str]]" = \
            OrderedDict()
        self._workspace: Dict[Tuple[int, int], int] = {}
        self._built: Set[Tuple] = set()   # structure keys lowered here
        self.hits = 0            # result-level hits (sim fully skipped)
        self.misses = 0          # result-level misses (sim actually ran)
        self.skeleton_hits = 0   # re-binds that skipped stage lowering
        self.shared_hits = 0     # ... of skeletons another cache lowered

    def matches(self, cost: CostModel, capacity: float,
                hierarchy: Optional[MemoryHierarchy]) -> bool:
        return (self.cost is cost and self.capacity == capacity
                and self.hierarchy is hierarchy)

    def stats(self) -> Dict[str, int]:
        return {"result_hits": self.hits, "result_misses": self.misses,
                "skeleton_hits": self.skeleton_hits,
                "results": len(self._results),
                "skeletons": len(self._built)}

    @staticmethod
    def _put(store: "OrderedDict", key: Tuple, value: object,
             limit: int) -> None:
        store[key] = value
        if len(store) > limit:
            store.popitem(last=False)

    @staticmethod
    def _get(store: "OrderedDict", key: Tuple) -> object:
        """Lookup that refreshes recency, so eviction is true LRU — the
        ledger sizing a thousand candidates share must not be evicted by
        one-off entries just because it was inserted first."""
        value = store.get(key)
        if value is not None:
            store.move_to_end(key)
        return value

    def block_costs(self, plan: ExecutionPlan) -> BlockCosts:
        """:func:`block_costs` per (blocks, storage-placed (block, tier)
        pairs): the only placements it reads, so DRAM-only plans that
        share a partition share one entry."""
        storage = () if self.hierarchy is None else tuple(sorted(
            (b, tier) for b, tier in plan.placements.items() if tier >= 2))
        key = (plan.blocks, storage)
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

    def lowered(self, plan: ExecutionPlan, costs: BlockCosts,
                structure_key: Tuple, prefetch_lookahead: int) -> _Lowered:
        structure = self.structure
        lowered = structure.skeletons.get(structure_key)
        if lowered is None:
            lowered = structure.skeletons[structure_key] = structure.lower(
                compile_skeleton(plan, costs, prefetch_lookahead,
                                 structure.templates))
            self._built.add(structure_key)
        else:
            self.skeleton_hits += 1
            if structure_key not in self._built:
                self.shared_hits += 1
        return lowered

    def schedule(self, key: Tuple) -> Optional[Tuple[Stages, Dict[int, int]]]:
        """The (stages, checkpoints) kept for a (policies, placements)
        key, or None."""
        return self.structure.schedules.get(key)

    def store_schedule(self, key: Tuple,
                       value: Tuple[Stages, Dict[int, int]]) -> None:
        self.structure.schedules[key] = value

    def result(self, key: Tuple) -> Optional[Union[_Timing, str]]:
        return self._get(self._results, key)  # type: ignore[return-value]

    def store_result(self, key: Tuple, value: Union[_Timing, str]) -> None:
        self._put(self._results, key, value, self.max_entries)


# ---------------------------------------------------------------------------
# Plan pricing
# ---------------------------------------------------------------------------

def _timing(lowered: _Lowered, durations: Sequence[float],
            times: Times, batch_size: int) -> _Timing:
    """Fold one priced skeleton into the per-iteration report's fields.

    Reads the start/finish arrays directly: a FIFO queue's issue order is
    its (start, finish) order, so the GPU queue is already the timeline
    whose idle gaps are the stalls; each gap is charged to the GPU op
    that follows it, and to its block when that op is a backward.
    """
    roles, blocks, schedule = lowered
    starts, finishes, _ = times
    queues = dict(zip(schedule.resources, schedule.queues))
    makespan = 0.0
    for q in schedule.queues:
        if finishes[q[-1]] > makespan:
            makespan = finishes[q[-1]]
    gpu = queues.get(Resource.GPU.value, ())
    gpu_busy = queue_busy(gpu, durations)
    occupancy = 1.0
    if gpu and finishes[gpu[-1]] > starts[gpu[0]]:
        occupancy = gpu_busy / (finishes[gpu[-1]] - starts[gpu[0]])
    gaps: List[float] = []
    bw_stalls: Dict[int, float] = {}
    for prev, i in zip(gpu, gpu[1:]):
        if starts[i] > finishes[prev] + 1e-15:
            gaps.append(starts[i] - finishes[prev])
            if roles[i] == _ROLE_BW:
                bw_stalls[blocks[i]] = bw_stalls.get(blocks[i], 0.0) \
                    + gaps[-1]
    storage_busy = (
        queue_busy(queues.get(Resource.D2S.value, ()), durations)
        + queue_busy(queues.get(Resource.S2D.value, ()), durations))
    return (makespan, gpu_busy, occupancy, sum(gaps), bw_stalls,
            batch_size / makespan if makespan > 0 else math.inf,
            storage_busy)


def _price(lowered: _Lowered, costs: BlockCosts, ledger: int,
           batch_size: int) -> Tuple[_Timing, _Bound, Times]:
    """Bind, schedule and fold one lowered skeleton."""
    roles, blocks, schedule = lowered
    bound = _bind(roles, blocks, schedule.labels, costs)
    try:
        times = run_schedule(schedule, *bound, memory_capacity=ledger)
    except SimulationDeadlock as exc:
        raise OutOfCoreInfeasible(str(exc)) from exc
    return _timing(lowered, bound[0], times, batch_size), bound, times


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
        skeleton = compile_skeleton(plan, costs)
        lowered = _lower(skeleton)
        timing, bound, times = _price(lowered, costs, ledger,
                                      plan.batch_size)
        sim = finalize(_sim_ops(skeleton, bound), lowered[2], bound[0],
                       times)
        return IterationResult(plan, sim, *timing)

    costs = cache.block_costs(plan)
    structure_key = plan_structure_key(plan, costs)
    result_key = (structure_key, plan.blocks)
    cached = cache.result(result_key)
    if cached is not None:
        cache.hits += 1
    else:
        cache.misses += 1
        try:
            ledger = cache.ledger_capacity(plan, costs)
            lowered = cache.lowered(plan, costs, structure_key,
                                    prefetch_lookahead=3)
            cached = _price(lowered, costs, ledger, plan.batch_size)[0]
        except OutOfCoreInfeasible as exc:
            cache.store_result(result_key, str(exc))
            raise
        cache.store_result(result_key, cached)
    if isinstance(cached, str):
        raise OutOfCoreInfeasible(cached)
    # same structure + same blocks + same context => same timings; only
    # the caller's plan is attached
    return IterationResult(plan, None, *cached)
