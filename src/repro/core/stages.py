"""Algorithm 1: schedule generation of stages from blocks + policies.

Produces the launch schedule of Fig. 2(b)/(c): forward stages with
swap-outs attached to the *following* block's forward (``F2||Sout1``),
a capacity-based backward phase that launches swap-ins as early as the
schedule allows (``B6||Sin3``), and recompute stages inserted where Opt-2
replaced a swap with a re-forward (``... -> B5 -> F4 -> B4||Sin1 -> ...``).

``prefetch`` selects the swap-in launch discipline, which is exactly what
separates the related-work swap strategies of Fig. 2:

* ``"eager"``     — KARMA: launch as early as the link order allows; the
                    memory ledger throttles it to capacity (Fig. 2b/c)
* ``"one_ahead"`` — vDNN++-family: prefetch one block ahead of use
* ``"none"``      — ooc_cuDNN-family: swap in exactly at the point of use

Recompute *chains* (consecutive RECOMPUTED blocks, e.g. a U-Net
contracting path) are emitted in ascending order from their shared
checkpoint so each re-forward finds its input.  CHECKPOINTED blocks keep
their output boundary, so they are their own neighbours' recompute source
and always form chains of length one.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from .schedule import BlockPolicy, ExecutionPlan, Op, OpKind, Stage, Stages

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sim.trainer_sim import LoweringCache

_RECOMPUTE_LIKE = (BlockPolicy.RECOMPUTED, BlockPolicy.CHECKPOINTED)


def _checkpoint_of(block: int, policies: Sequence[BlockPolicy]) -> int:
    """Nearest upstream block able to source a recompute of ``block``.

    Walks past RECOMPUTED blocks (whole stash dropped); stops at RESIDENT,
    SWAPPED, or CHECKPOINTED (retained boundary) blocks.  -1 means the
    model input feeds the recompute directly.
    """
    i = block - 1
    while i >= 0 and policies[i] is BlockPolicy.RECOMPUTED:
        i -= 1
    return i


def generate_stages(policies: Sequence[BlockPolicy],
                    prefetch: str = "eager",
                    placements: Optional[Mapping[int, int]] = None
                    ) -> Tuple[Stages, Dict[int, int]]:
    """Build the stage launch schedule for one iteration (Algorithm 1).

    ``placements`` (swapped block -> stash tier) tier-qualifies the swap
    ops of the blocks it names as they are emitted: ``Sout`` moves tier
    0 -> tier, ``Sin`` tier -> 0.  Swaps of unnamed blocks stay untiered
    (DRAM), and the launch order does not depend on it.
    """
    if prefetch not in ("eager", "one_ahead", "none"):
        raise ValueError(f"unknown prefetch mode {prefetch!r}")
    n = len(policies)
    if n == 0:
        raise ValueError("need at least one block")
    stages: List[Stage] = []
    swapped = [i for i, p in enumerate(policies) if p is BlockPolicy.SWAPPED]
    checkpoints = {i: _checkpoint_of(i, policies)
                   for i, p in enumerate(policies) if p in _RECOMPUTE_LIKE}
    tiers = placements or {}

    def swap_out(b: int) -> Op:
        tier = tiers.get(b)
        if tier is None:
            return Op(OpKind.SWAP_OUT, b)
        return Op(OpKind.SWAP_OUT, b, src_tier=0, dst_tier=tier)

    def swap_in(b: int) -> Op:
        tier = tiers.get(b)
        if tier is None:
            return Op(OpKind.SWAP_IN, b)
        return Op(OpKind.SWAP_IN, b, src_tier=tier, dst_tier=0)

    # ---- forward phase: F(b), attaching pending swap-outs to the next
    # block's forward stage (Fig. 2b: Sout launches while F(b+1) runs)
    pending_out: List[int] = []
    for b in range(n):
        ops: List[Op] = [Op(OpKind.FORWARD, b)]
        while pending_out:
            ops.append(swap_out(pending_out.pop(0)))
        stages.append(Stage(tuple(ops)))
        if policies[b] is BlockPolicy.SWAPPED:
            pending_out.append(b)
    if pending_out:
        # swapped blocks at the model tail (vDNN-style plans) flush here
        stages.append(Stage(tuple(swap_out(b) for b in pending_out)))
        pending_out = []

    # ---- backward phase: descending blocks, swap-in launch per discipline
    sin_queue = sorted(swapped, reverse=True)
    sin_launched: set = set()
    recompute_done: set = set()

    def attach_next_sin(ops: List[Op]) -> None:
        # swap-ins go in front of the stage's compute op: a same-stage
        # backward may depend on them (validators and the compiler read
        # stages left to right)
        if sin_queue:
            b = sin_queue.pop(0)
            ops.insert(0, swap_in(b))
            sin_launched.add(b)

    def attach_specific_sin(ops: List[Op], block: int) -> None:
        if block in sin_queue:
            # everything ahead of it in the queue must launch first to keep
            # the link FIFO in need order
            pos = 0
            while sin_queue:
                b = sin_queue.pop(0)
                ops.insert(pos, swap_in(b))
                pos += 1
                sin_launched.add(b)
                if b == block:
                    break

    def next_needed_sin(current: int) -> Optional[int]:
        """Highest-index swapped block strictly below ``current``."""
        for b in sin_queue:
            if b < current:
                return b
        return None

    for b in range(n - 1, -1, -1):
        # emit any recompute chain that must complete before B(b)
        if policies[b] in _RECOMPUTE_LIKE and b not in recompute_done:
            cp = _checkpoint_of(b, policies)
            chain_start = cp + 1
            for r in range(chain_start, b + 1):
                if policies[r] in _RECOMPUTE_LIKE \
                        and r not in recompute_done:
                    ops = [Op(OpKind.RECOMPUTE, r)]
                    # the chain's source must be near before any re-forward:
                    # force its swap-in now, whatever the prefetch mode
                    if cp >= 0 and policies[cp] is BlockPolicy.SWAPPED \
                            and cp not in sin_launched:
                        attach_specific_sin(ops, cp)
                    elif prefetch == "eager":
                        attach_next_sin(ops)
                    stages.append(Stage(tuple(ops)))
                    recompute_done.add(r)
        ops = [Op(OpKind.BACKWARD, b)]
        if policies[b] is BlockPolicy.SWAPPED and b not in sin_launched:
            attach_specific_sin(ops, b)
        elif prefetch == "eager":
            attach_next_sin(ops)
        elif prefetch == "one_ahead":
            target = next_needed_sin(b)
            if target is not None:
                attach_specific_sin(ops, target)
        # prefetch == "none": swap-ins only attach at their point of use
        stages.append(Stage(tuple(ops)))

    return Stages(stages), checkpoints


def make_plan(model_name: str, batch_size: int,
              blocks: Sequence[Tuple[int, int]],
              policies: Sequence[BlockPolicy],
              prefetch: str = "eager",
              placements: Optional[Mapping[int, int]] = None,
              lowering: "Optional[LoweringCache]" = None
              ) -> ExecutionPlan:
    """Assemble a validated :class:`ExecutionPlan` from blocks + policies.

    ``placements`` maps swapped block index -> stash tier (1 = DRAM,
    2 = NVMe); omitted blocks default to DRAM.  The stage schedule itself
    is tier-agnostic — tiers only change which link a swap occupies and how
    long it takes, not when it is launched.

    ``lowering`` is the search's
    :class:`~repro.sim.trainer_sim.LoweringCache`: an eager schedule is
    generated once per (policies, placements) and shared by every plan
    built from them, so their validations walk it once.  Only a schedule
    whose plan validated is kept, so an illegal one raises on every build.
    """
    placements = {int(b): int(t) for b, t in (placements or {}).items()}
    policies = tuple(policies)
    key = (policies, tuple(sorted(placements.items())))
    shared = lowering is not None and prefetch == "eager"
    built = lowering.schedule(key) if shared else None
    fresh = built is None
    if fresh:
        built = generate_stages(policies, prefetch=prefetch,
                                placements=placements)
    stages, checkpoints = built
    plan = ExecutionPlan(
        model_name=model_name, batch_size=batch_size,
        blocks=tuple((int(s), int(e)) for s, e in blocks),
        policies=policies, stages=stages,
        checkpoints=dict(checkpoints),
        placements=placements,
    )
    plan.validate()
    if shared and fresh:
        lowering.store_schedule(key, built)
    return plan
