"""Execution-plan IR: blocks, ops, stages, and the paper's plan strings.

A KARMA plan (Fig. 1, step 5) is a serial sequence of *stages*; each stage
launches one or more independent *ops* that may overlap (the paper's ``||``
notation).  Ops act on *blocks* — contiguous runs of layers in topological
order.  Every block carries exactly one residency policy:

* ``SWAPPED``    — stash is swapped out after forward, swapped in before
                   backward (weights travel with it);
* ``RECOMPUTED`` — stash is dropped after forward and re-derived during the
                   backward phase from the nearest upstream checkpoint;
* ``RESIDENT``   — never leaves near memory (the capacity-based strategy
                   keeps a suffix of blocks resident, Fig. 2b).

The same IR drives both the discrete-event simulator (timing) and the
numeric out-of-core executor (correctness), which is what makes the two
engines commensurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..graph.layer_graph import LayerGraph


class OpKind(Enum):
    FORWARD = "F"
    BACKWARD = "B"
    RECOMPUTE = "R"        # re-forward of a dropped block
    SWAP_IN = "Sin"
    SWAP_OUT = "Sout"
    GRAD_SWAP_OUT = "Gout"  # gradients D2H (multi-GPU pipeline, Fig. 3 step 3)
    GRAD_EXCHANGE = "G"     # phased allreduce on the host (step 4)
    CPU_UPDATE = "U"        # host-side weight update (step 5)
    DEV_UPDATE = "W"        # device-side update (single-GPU case)


class Resource(Enum):
    GPU = "gpu"       # the device compute stream
    H2D = "h2d"       # host-to-device link direction
    D2H = "d2h"       # device-to-host link direction
    D2S = "d2s"       # DRAM-to-storage link direction (NVMe writes)
    S2D = "s2d"       # storage-to-DRAM link direction (NVMe reads)
    CPU = "cpu"       # host cores (weight update)
    NET = "net"       # inter-node fabric (allreduce)


OP_RESOURCE: Dict[OpKind, Resource] = {
    OpKind.FORWARD: Resource.GPU,
    OpKind.BACKWARD: Resource.GPU,
    OpKind.RECOMPUTE: Resource.GPU,
    OpKind.DEV_UPDATE: Resource.GPU,
    OpKind.SWAP_IN: Resource.H2D,
    OpKind.SWAP_OUT: Resource.D2H,
    OpKind.GRAD_SWAP_OUT: Resource.D2H,
    OpKind.GRAD_EXCHANGE: Resource.NET,
    OpKind.CPU_UPDATE: Resource.CPU,
}


class BlockPolicy(Enum):
    RESIDENT = "resident"
    SWAPPED = "swapped"
    RECOMPUTED = "recomputed"
    # gradient-checkpointing semantics: drop the interior stash but retain
    # the block's output boundary as the next block's recompute source
    CHECKPOINTED = "checkpointed"

    # members are singletons compared by identity, so the identity hash
    # agrees with equality; it runs at C speed, where ``Enum.__hash__``
    # is a Python call per element of every policy tuple the search's
    # caches key on
    __hash__ = object.__hash__


#: Placement tier of a stash when the plan does not say otherwise: host
#: DRAM, the classic two-tier "far" memory.
DEFAULT_STASH_TIER = 1


@dataclass(frozen=True)
class Op:
    """One scheduled operation on one block.

    Swap ops may be *tier-qualified*: ``src_tier``/``dst_tier`` name the
    memory tiers the stash moves between (0 = HBM, 1 = DRAM, 2 = NVMe).
    Untiered swap ops (both ``None``) keep the classic two-tier meaning
    (device <-> host DRAM).
    """

    kind: OpKind
    block: int
    src_tier: Optional[int] = None
    dst_tier: Optional[int] = None

    @property
    def stash_tier(self) -> int:
        """The non-device tier this swap touches (DRAM when untiered)."""
        if self.kind is OpKind.SWAP_OUT and self.dst_tier is not None:
            return self.dst_tier
        if self.kind is OpKind.SWAP_IN and self.src_tier is not None:
            return self.src_tier
        return DEFAULT_STASH_TIER

    @property
    def resource(self) -> Resource:
        # a swap that reaches past DRAM is bound by the storage link: its
        # issue slot belongs to the D2S/S2D queue (the host-link hop it
        # stages through is modelled by the event compiler, which lowers
        # such ops to a chained pair)
        if self.kind is OpKind.SWAP_OUT and self.stash_tier >= 2:
            return Resource.D2S
        if self.kind is OpKind.SWAP_IN and self.stash_tier >= 2:
            return Resource.S2D
        return OP_RESOURCE[self.kind]

    def label(self) -> str:
        """Paper notation: 1-based block ids, e.g. ``Sout3`` or ``F2``.

        Tier-qualified swaps past DRAM carry a tier suffix (``Sout3@t2``);
        DRAM-bound swaps keep the paper's plain notation.
        """
        # recompute is printed as a forward in the paper's plan strings
        kind = OpKind.FORWARD if self.kind is OpKind.RECOMPUTE else self.kind
        base = f"{kind.value}{self.block + 1}"
        if self.kind in (OpKind.SWAP_OUT, OpKind.SWAP_IN) \
                and self.stash_tier >= 2:
            return f"{base}@t{self.stash_tier}"
        return base

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.label()


#: Op kinds that run on the GPU compute stream (``Op.resource`` is GPU).
_GPU_KINDS = tuple(k for k, r in OP_RESOURCE.items() if r is Resource.GPU)


@dataclass(frozen=True)
class Stage:
    """A set of ops launched together; ops within a stage may overlap."""

    ops: Tuple[Op, ...]

    def label(self) -> str:
        """Paper notation for the stage: ops joined with ``||``."""
        return "||".join(op.label() for op in self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)


#: An op's (kind value, block, src tier, dst tier), read at C speed:
#: ``_value_`` is the plain attribute behind the ``Enum.value`` descriptor.
_op_signature = attrgetter("kind._value_", "block", "src_tier", "dst_tier")


class Stages(tuple):
    """A plan's stage launch schedule, carrying what is a pure function of
    it so that plans sharing one schedule object pay for it once (the
    blocking search's lowering cache hands every candidate with the same
    policies and placements the same one):

    * ``signature`` — every op as an atomic (kind value, block, src tier,
      dst tier) tuple, stage by stage: the tuples
      :func:`~repro.core.stages.generate_stages` built the schedule from,
      or computed on first use for a schedule built otherwise;
    * ``walked`` — the (policies, placements) that
      :meth:`ExecutionPlan.validate`'s stage walk last passed for.  The
      walk reads nothing else, so a plan with equal policies and
      placements skips it; a plan with any other inputs walks again.
    """

    walked: Optional[Tuple[Tuple[BlockPolicy, ...], Dict[int, int]]] = None
    _signature: Optional[Tuple[Tuple[Tuple, ...], ...]] = None

    @property
    def signature(self) -> Tuple[Tuple[Tuple, ...], ...]:
        if self._signature is None:
            self._signature = tuple(tuple(map(_op_signature, stage.ops))
                                    for stage in self)
        return self._signature


class PlanValidationError(ValueError):
    """Raised when an execution plan violates dependency or policy rules."""


@dataclass(frozen=True)
class ExecutionPlan:
    """A complete single-iteration schedule for one worker.

    ``blocks`` are half-open layer ranges; ``policies[b]`` gives block b's
    residency policy; ``stages`` is the launch schedule.  ``checkpoints[b]``
    (for recomputed blocks) names the block whose *output* is the recompute
    source — the nearest upstream swapped/resident block.  ``placements[b]``
    (for swapped blocks) names the memory tier the stash lands in; absent
    entries default to DRAM (tier 1), the classic two-tier behaviour.
    """

    model_name: str
    batch_size: int
    blocks: Tuple[Tuple[int, int], ...]
    policies: Tuple[BlockPolicy, ...]
    stages: Tuple[Stage, ...]
    checkpoints: Dict[int, int] = field(default_factory=dict)
    placements: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.stages, Stages):
            object.__setattr__(self, "stages", Stages(self.stages))

    # -- derived sets ---------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def swapped(self) -> FrozenSet[int]:
        return frozenset(i for i, p in enumerate(self.policies)
                         if p is BlockPolicy.SWAPPED)

    @property
    def recomputed(self) -> FrozenSet[int]:
        return frozenset(i for i, p in enumerate(self.policies)
                         if p in (BlockPolicy.RECOMPUTED,
                                  BlockPolicy.CHECKPOINTED))

    @property
    def resident(self) -> FrozenSet[int]:
        return frozenset(i for i, p in enumerate(self.policies)
                         if p is BlockPolicy.RESIDENT)

    def stash_tier(self, block: int) -> int:
        """Which tier block ``block``'s stash is placed in when swapped."""
        return self.placements.get(block, DEFAULT_STASH_TIER)

    @property
    def max_tier(self) -> int:
        """Deepest tier any stash reaches (1 for pure two-tier plans)."""
        return max(self.placements.values(), default=DEFAULT_STASH_TIER)

    @property
    def uses_storage(self) -> bool:
        """True when any stash is placed past DRAM (tier >= 2)."""
        return self.max_tier >= 2

    def block_of_layer(self, layer_index: int) -> int:
        """The block whose layer range contains ``layer_index``."""
        for b, (s, e) in enumerate(self.blocks):
            if s <= layer_index < e:
                return b
        raise IndexError(f"layer {layer_index} outside all blocks")

    def boundaries(self) -> List[int]:
        """The end layer index of every block, in order."""
        return [e for _, e in self.blocks]

    # -- the paper's plan-string notation ---------------------------------------

    def plan_string(self) -> str:
        """E.g. ``F1 -> F2||Sout1 -> ... -> B2 -> B1`` (Fig. 1, step 5)."""
        return " -> ".join(stage.label() for stage in self.stages)

    # -- validation -------------------------------------------------------------

    def validate(self, graph: Optional[LayerGraph] = None) -> None:
        """Check structural legality; raises :class:`PlanValidationError`.

        Verifies the block partition (contiguous, covering ``graph`` when
        given), checkpoint sources, tier placements, and the stage launch
        order's dependency sanity.  The stage walk is skipped when this
        schedule object already passed it with these policies and
        placements (see :class:`Stages`); every other check runs per plan.
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
        policies = self.policies
        recomputed = self.recomputed
        for b in recomputed:
            src = self.checkpoints.get(b)
            if src is None:
                raise PlanValidationError(f"recomputed block {b} lacks a "
                                          "checkpoint source")
            if src >= b:
                raise PlanValidationError(
                    f"checkpoint {src} of block {b} is not upstream")
            if src >= 0 and policies[src] is BlockPolicy.RECOMPUTED:
                raise PlanValidationError(
                    f"checkpoint {src} of block {b} is itself recomputed")
        swapped = self.swapped
        for b, tier in self.placements.items():
            if b not in swapped:
                raise PlanValidationError(
                    f"placement for block {b} which is not swapped "
                    f"(policy {policies[b].value})")
            if tier < 1:
                raise PlanValidationError(
                    f"block {b} placed in tier {tier}; stashes must leave "
                    "the device tier (tier >= 1)")
        walked = self.stages.walked
        if walked is None or walked[0] != policies \
                or walked[1] != self.placements:
            self._validate_stages(recomputed)
            self.stages.walked = (policies, dict(self.placements))

    def _validate_stages(self, recomputed: FrozenSet[int]) -> None:
        """One walk over the launch schedule.

        Checks tier legality — only swap ops may be tier-qualified, and a
        qualified swap must leave / land in the device tier and agree with
        its block's placement — and dependency sanity of the launch order.
        A tier error anywhere outranks an order error, so order errors are
        held until the walk ends.
        """
        n = self.num_blocks
        policies = self.policies
        placements = self.placements
        order_error: Optional[str] = None
        fw_done = set()
        bw_done = set()
        swapped_out = set()
        swapped_in = set()
        recomputed_live = set()
        for stage in self.stages:
            # ops within a stage must use distinct resources or be swaps of
            # different blocks on the same duplex link
            if order_error is None and len(stage.ops) > 1 and sum(
                    op.kind in _GPU_KINDS for op in stage.ops) > 1:
                order_error = (f"stage {stage.label()!r} launches two GPU "
                               "compute ops")
            for op in stage.ops:
                kind = op.kind
                b = op.block
                if kind is OpKind.SWAP_OUT:
                    tier = placements.get(b, DEFAULT_STASH_TIER)
                    if op.src_tier not in (None, 0):
                        raise PlanValidationError(
                            f"{op.label()}: swap-out must leave the device "
                            f"tier, not tier {op.src_tier}")
                    if op.dst_tier is not None and op.dst_tier != tier:
                        raise PlanValidationError(
                            f"{op.label()}: dst tier {op.dst_tier} "
                            f"contradicts placement {tier}")
                elif kind is OpKind.SWAP_IN:
                    tier = placements.get(b, DEFAULT_STASH_TIER)
                    if op.dst_tier not in (None, 0):
                        raise PlanValidationError(
                            f"{op.label()}: swap-in must land in the device "
                            f"tier, not tier {op.dst_tier}")
                    if op.src_tier is not None and op.src_tier != tier:
                        raise PlanValidationError(
                            f"{op.label()}: src tier {op.src_tier} "
                            f"contradicts placement {tier}")
                elif op.src_tier is not None or op.dst_tier is not None:
                    raise PlanValidationError(
                        f"{op.label()}: only swap ops may be tier-qualified")
                if order_error is not None:
                    continue
                if kind is OpKind.FORWARD:
                    if b > 0 and (b - 1) not in fw_done:
                        # recompute sources re-enter as FORWARD during the
                        # backward phase; treat as recompute then
                        if (b - 1) not in bw_done and b not in recomputed:
                            order_error = f"F{b + 1} before F{b} completed"
                    fw_done.add(b)
                elif kind is OpKind.RECOMPUTE:
                    recomputed_live.add(b)
                elif kind is OpKind.BACKWARD:
                    if b + 1 < n and (b + 1) not in bw_done:
                        order_error = f"B{b + 1} launched before B{b + 2}"
                    elif policies[b] is BlockPolicy.SWAPPED \
                            and b not in swapped_in:
                        order_error = f"B{b + 1} launched before Sin{b + 1}"
                    elif b in recomputed and b not in recomputed_live:
                        order_error = (f"B{b + 1} launched before its "
                                       "recompute")
                    bw_done.add(b)
                elif kind is OpKind.SWAP_OUT:
                    if b not in fw_done:
                        order_error = f"Sout{b + 1} before F{b + 1}"
                    swapped_out.add(b)
                elif kind is OpKind.SWAP_IN:
                    if b not in swapped_out:
                        order_error = f"Sin{b + 1} without a prior Sout{b + 1}"
                    swapped_in.add(b)
        if order_error is not None:
            raise PlanValidationError(order_error)
        missing_bw = set(range(n)) - bw_done
        if missing_bw:
            raise PlanValidationError(
                f"blocks never backward-processed: {sorted(missing_bw)}")


def single_block_plan(model_name: str, batch_size: int,
                      num_layers: int) -> ExecutionPlan:
    """The trivial in-core plan: one resident block, F then B."""
    blocks = ((0, num_layers),)
    stages = (Stage((Op(OpKind.FORWARD, 0),)),
              Stage((Op(OpKind.BACKWARD, 0),)))
    return ExecutionPlan(model_name=model_name, batch_size=batch_size,
                         blocks=blocks, policies=(BlockPolicy.RESIDENT,),
                         stages=stages)
