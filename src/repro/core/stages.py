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


#: An op's atomic (kind value, block, src tier, dst tier): the content
#: :class:`StagePieces` interns ops on, and one entry of
#: :attr:`~repro.core.schedule.Stages.signature`.
OpSig = Tuple[str, int, Optional[int], Optional[int]]

_KIND_OF_VALUE = {kind.value: kind for kind in OpKind}


class StagePieces:
    """The :class:`Op` and :class:`Stage` objects schedules are built
    from, interned by content.

    ``ops`` maps an op signature (:data:`OpSig`) to the one op with it;
    ``stages`` maps a stage's tuple of op signatures to the one stage with
    those ops, and ``keys`` to that tuple's first instance.  The policy
    vectors a search tries share most of their pieces, but not at fixed
    positions — an eager swap-in shifts every later backward stage it
    attaches to — so pieces are keyed on what they hold, not where they
    sit.  A schedule built against a shared table allocates only the
    pieces no earlier schedule had, and its signature is made of the
    interned tuples.  A :class:`~repro.sim.trainer_sim.StructureCache`
    owns one — per ``plan()`` call, or for a planner daemon's life;
    :func:`generate_stages` without one uses a fresh table.  Ops, stages
    and signatures are immutable, so sharing one between schedules, and
    between plans, is invisible.  Threads may share a table: it is only
    read and added to, and a race builds an equal piece twice.
    """

    __slots__ = ("ops", "stages", "keys")

    def __init__(self) -> None:
        self.ops: Dict[OpSig, Op] = {}
        self.stages: Dict[Tuple[OpSig, ...], Stage] = {}
        self.keys: Dict[Tuple[OpSig, ...], Tuple[OpSig, ...]] = {}

    def schedule(self, keys: Sequence[Tuple[OpSig, ...]]) -> Stages:
        """The schedule whose stages hold the ops with signatures
        ``keys``, one distinct tuple per stage (at least one); an op or a
        stage is built only when no earlier schedule built it."""
        ops, table = self.ops, self.stages
        found = list(map(table.get, keys))
        for i, stage in enumerate(found):
            if stage is not None:
                continue
            key, built = keys[i], []
            for sig in key:
                op = ops.get(sig)
                if op is None:
                    kind, block, src_tier, dst_tier = sig
                    op = ops[sig] = Op(_KIND_OF_VALUE[kind], block,
                                       src_tier, dst_tier)
                built.append(op)
            found[i] = table[key] = Stage(tuple(built))
            self.keys[key] = key
        schedule = Stages(found)
        schedule._signature = tuple(map(self.keys.__getitem__, keys))
        return schedule


def generate_stages(policies: Sequence[BlockPolicy],
                    prefetch: str = "eager",
                    placements: Optional[Mapping[int, int]] = None,
                    pieces: Optional[StagePieces] = None
                    ) -> Tuple[Stages, Dict[int, int]]:
    """Build the stage launch schedule for one iteration (Algorithm 1).

    ``placements`` (swapped block -> stash tier) tier-qualifies the swap
    ops of the blocks it names as they are emitted: ``Sout`` moves tier
    0 -> tier, ``Sin`` tier -> 0.  Swaps of unnamed blocks stay untiered
    (DRAM), and the launch order does not depend on it.

    The schedule is worked out as op signatures and assembled from the
    interned pieces of ``pieces`` (a fresh :class:`StagePieces` when
    None); the returned :class:`~repro.core.schedule.Stages` carries those
    signatures as its ``signature``.
    """
    if prefetch not in ("eager", "one_ahead", "none"):
        raise ValueError(f"unknown prefetch mode {prefetch!r}")
    n = len(policies)
    if n == 0:
        raise ValueError("need at least one block")
    swapped = BlockPolicy.SWAPPED
    checkpoints = {i: _checkpoint_of(i, policies)
                   for i, p in enumerate(policies) if p in _RECOMPUTE_LIKE}
    tiers = placements or {}
    keys: List[Tuple[OpSig, ...]] = []   # one op-signature tuple per stage

    def swap_out(b: int) -> OpSig:
        tier = tiers.get(b)
        return ("Sout", b, None, None) if tier is None \
            else ("Sout", b, 0, tier)

    def swap_in(b: int) -> OpSig:
        tier = tiers.get(b)
        return ("Sin", b, None, None) if tier is None \
            else ("Sin", b, tier, 0)

    # ---- forward phase: F(b), attaching the previous block's swap-out to
    # the next block's forward stage (Fig. 2b: Sout launches while F(b+1)
    # runs)
    pending: Optional[int] = None
    for b in range(n):
        if pending is None:
            keys.append((("F", b, None, None),))
        else:
            keys.append((("F", b, None, None), swap_out(pending)))
        pending = b if policies[b] is swapped else None
    if pending is not None:
        # a swapped block at the model tail (vDNN-style plans) flushes here
        keys.append((swap_out(pending),))

    # ---- backward phase: descending blocks, swap-in launch per discipline.
    # The swap-in queue is consumed from ``head`` in need order, so a
    # swapped block is still queued exactly when it is not launched.
    sin_queue = [b for b in range(n - 1, -1, -1) if policies[b] is swapped]
    head = 0
    sin_launched: set = set()
    recompute_done: set = set()

    def attach_next_sin(ops: List[OpSig]) -> None:
        # swap-ins go in front of the stage's compute op: a same-stage
        # backward may depend on them (validators and the compiler read
        # stages left to right)
        nonlocal head
        if head < len(sin_queue):
            b = sin_queue[head]
            head += 1
            ops.insert(0, swap_in(b))
            sin_launched.add(b)

    def attach_specific_sin(ops: List[OpSig], block: int) -> None:
        # ``block`` is still queued (every caller passes a swapped block
        # not yet launched); everything ahead of it in the queue must
        # launch first to keep the link FIFO in need order
        nonlocal head
        pos = 0
        while head < len(sin_queue):
            b = sin_queue[head]
            head += 1
            ops.insert(pos, swap_in(b))
            pos += 1
            sin_launched.add(b)
            if b == block:
                break

    def next_needed_sin(current: int) -> Optional[int]:
        """Highest-index queued swapped block strictly below ``current``."""
        for i in range(head, len(sin_queue)):
            if sin_queue[i] < current:
                return sin_queue[i]
        return None

    for b in range(n - 1, -1, -1):
        # emit any recompute chain that must complete before B(b)
        if policies[b] in _RECOMPUTE_LIKE and b not in recompute_done:
            cp = checkpoints[b]
            for r in range(cp + 1, b + 1):
                if policies[r] in _RECOMPUTE_LIKE \
                        and r not in recompute_done:
                    ops: List[OpSig] = [("R", r, None, None)]
                    # the chain's source must be near before any re-forward:
                    # force its swap-in now, whatever the prefetch mode
                    if cp >= 0 and policies[cp] is swapped \
                            and cp not in sin_launched:
                        attach_specific_sin(ops, cp)
                    elif prefetch == "eager":
                        attach_next_sin(ops)
                    keys.append(tuple(ops))
                    recompute_done.add(r)
        ops = [("B", b, None, None)]
        if policies[b] is swapped and b not in sin_launched:
            attach_specific_sin(ops, b)
        elif prefetch == "eager":
            attach_next_sin(ops)
        elif prefetch == "one_ahead":
            target = next_needed_sin(b)
            if target is not None:
                attach_specific_sin(ops, target)
        # prefetch == "none": swap-ins only attach at their point of use
        keys.append(tuple(ops))

    if pieces is None:
        pieces = StagePieces()
    return pieces.schedule(keys), checkpoints


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
    Every schedule, eager or not, is built from the
    :class:`StagePieces` of the cache's structure table.
    """
    placements = {int(b): int(t) for b, t in (placements or {}).items()}
    policies = tuple(policies)
    key = (policies, tuple(sorted(placements.items())))
    shared = lowering is not None and prefetch == "eager"
    built = lowering.schedule(key) if shared else None
    fresh = built is None
    if fresh:
        built = generate_stages(
            policies, prefetch=prefetch, placements=placements,
            pieces=lowering.structure.pieces if lowering is not None
            else None)
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
