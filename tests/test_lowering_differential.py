"""Candidate pricing, held to the pipeline it replaced.

``tests/_reference_lowering.py`` keeps the earlier lowering verbatim:
per-op ``Op``/``SimOp`` objects, a ``SimResult`` folded through a sort,
tier qualification as a second pass over the stages and a two-walk
``validate``.  The tests here draw random block partitions and hold every
observable of today's pipeline to it: skeleton tuples, structure keys,
block costs, stage schedules, ``repr`` of every ``IterationResult`` field
(uncached, cached miss, cached hit, and a second partition through the
same cache), the uncached ``SimResult``, and the type and message of
every failure — ledger sizing, stash-ledger deadlocks and validation.

The draws cover all four policies (recompute chains included), the three
prefetch modes, DRAM and NVMe placements with and without a hierarchy,
blocks whose costs are forced to zero (zero-duration ops, empty stashes)
and stash ledgers small enough to deadlock.

A search lowers every new policy vector from the piece tables of one
``LoweringCache`` (interned ops and stages, per-op skeleton templates),
so a second test pushes a sequence of search-like steps through one
cache and holds each vector to a fresh lowering and to the reference.
Planted key bugs — a template key without the recompute source's policy
or the chained flag, an op key without the tier — must fail that check.

The structure layers (schedules, skeletons, pieces, templates) do not
read the pricing context, so one ``StructureCache`` may serve many: a
third test pushes the vectors of two contexts through one table.
Planted bugs in what that table keys on — a structure key without the
prefetch lookahead or without the chained swap-outs, a content key
without the dependency edges — must fail those checks.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import make_plan
from repro.core.schedule import BlockPolicy, ExecutionPlan, Op, OpKind, Stage
from repro.core.stages import StagePieces, generate_stages
from repro.costs import profile_graph
from repro.hardware import TransferModel, abci_host, karma_swap_link
from repro.hardware.spec import LinkSpec, v100_sxm2_16gb
from repro.hardware.tiering import (
    GiB,
    MemoryHierarchy,
    MiB,
    TierSpec,
    abci_hierarchy,
)
from repro.sim import trainer_sim
from repro.sim.engine import SimulationDeadlock
from repro.sim.trainer_sim import (
    LoweringCache,
    OutOfCoreInfeasible,
    StructureCache,
    block_costs,
    compile_skeleton,
    plan_structure_key,
    simulate_plan,
)
from tests import _reference_lowering as ref
from tests.helpers import build_small_cnn, build_small_unet

S, R = BlockPolicy.SWAPPED, BlockPolicy.RECOMPUTED
POLICIES = (S, BlockPolicy.RESIDENT, R, BlockPolicy.CHECKPOINTED)
FIELDS = ("makespan", "gpu_busy", "gpu_occupancy", "total_stall",
          "bw_block_stalls", "samples_per_sec", "storage_busy")
FAILURES = (OutOfCoreInfeasible, SimulationDeadlock, ValueError)


@functools.lru_cache(maxsize=None)
def _context(name: str):
    graph = build_small_cnn() if name == "cnn" else build_small_unet()
    device = v100_sxm2_16gb()
    transfer = TransferModel(link=karma_swap_link(), device=device,
                             host=abci_host())
    return graph, profile_graph(graph, device, transfer, 8)


def _partition(draw, length: int, k: int):
    cuts = sorted(draw(st.sets(st.integers(1, length - 1),
                               min_size=k - 1, max_size=k - 1)))
    bounds = [0] + cuts + [length]
    return list(zip(bounds[:-1], bounds[1:]))


@st.composite
def cases(draw):
    """Two plans with one policy vector, prefetch mode and placement map
    but (usually) different partitions, plus the pricing context."""
    graph, cost = _context(draw(st.sampled_from(("cnn", "unet"))))
    k = draw(st.integers(1, 8))
    policies = draw(st.lists(st.sampled_from(POLICIES), min_size=k,
                             max_size=k))
    prefetch = draw(st.sampled_from(("eager", "one_ahead", "none")))
    placements = {b: draw(st.sampled_from((1, 2)))
                  for b, p in enumerate(policies)
                  if p is S and draw(st.booleans())}
    hierarchy = abci_hierarchy() if draw(st.booleans()) else None
    plans = [make_plan(graph.name, 8, _partition(draw, len(graph), k),
                       policies, prefetch=prefetch, placements=placements)
             for _ in range(2)]
    # ledger = stash room past persistent state and the workspace peak;
    # small slacks deadlock the stash ledger or leave it empty
    slack = draw(st.sampled_from((None, 0.0, 0.25, 0.6, 1.0, 3.0)))
    if slack is None:
        capacity = 16e9
    else:
        workspace = max(cost.block_memory(s, e).peak_workspace
                        for plan in plans for s, e in plan.blocks)
        capacity = float(cost.persistent_bytes() + workspace
                         + slack * cost.total_activation_bytes / k)
    zero = draw(st.sets(st.integers(0, k - 1)))
    zero_bytes = draw(st.booleans())
    return plans, cost, capacity, hierarchy, (zero, zero_bytes)


def _zeroing(original, zero, zero_bytes):
    """``block_costs`` with the chosen blocks' times (and optionally
    stash/boundary bytes) forced to zero."""
    def wrapped(*args, **kwargs):
        costs = original(*args, **kwargs)

        def z(column, value):
            return tuple(value if i in zero else v
                         for i, v in enumerate(column))

        changes = {name: z(getattr(costs, name), 0.0)
                   for name in ("fw", "bw", "swap_time", "storage_out_time",
                                "storage_in_time")}
        if zero_bytes:
            changes.update(stash_bytes=z(costs.stash_bytes, 0),
                           boundary_bytes=z(costs.boundary_bytes, 0))
        return dataclasses.replace(costs, **changes)
    return wrapped


def _outcome(fn):
    try:
        return "ok", fn()
    except FAILURES as exc:
        return type(exc), str(exc)


def _fields(result):
    return [repr(getattr(result, name)) for name in FIELDS]


def _rows(lowered):
    """A cached lowering entry back as skeleton tuples."""
    roles, blocks, schedule = lowered
    resources = [schedule.resources[q] for q in schedule.queue_of_op]
    return tuple(zip(roles, blocks, resources, schedule.labels,
                     schedule.deps))


@given(case=cases())
def test_pricing_matches_reference(case):
    plans, cost, capacity, hierarchy, (zero, zero_bytes) = case
    for plan in plans:
        new = block_costs(plan.blocks, cost, hierarchy, plan.placements)
        old = ref.block_costs(plan.blocks, cost, hierarchy, plan.placements)
        assert repr(new) == repr(old)
    cache = LoweringCache(cost, capacity, hierarchy)
    with ExitStack() as patches:
        for module in (trainer_sim, ref):
            patches.enter_context(mock.patch.object(
                module, "block_costs",
                _zeroing(module.block_costs, zero, zero_bytes)))
        for plan in plans:
            expect = _outcome(lambda: ref.reference_simulate_plan(
                plan, cost, capacity, hierarchy))
            plain = _outcome(lambda: simulate_plan(plan, cost, capacity,
                                                   hierarchy=hierarchy))
            priced = [_outcome(lambda: simulate_plan(
                plan, cost, capacity, hierarchy=hierarchy, cache=cache))
                for _ in range(2)]   # a miss (or skeleton hit), then a hit
            if expect[0] != "ok":
                assert plain == expect
                assert priced == [expect, expect]
                continue
            sim, timing = expect[1]
            assert _fields(plain[1]) == [repr(v) for v in timing]
            for status, result in priced:
                assert status == "ok" and result.sim is None
                assert _fields(result) == _fields(plain[1])
            got = plain[1].sim
            assert repr(got.timings) == repr(sim.timings)
            assert repr((got.makespan, got.resource_busy,
                         got.resource_span)) == \
                repr((sim.makespan, sim.resource_busy, sim.resource_span))

            costs = trainer_sim.block_costs(plan.blocks, cost, hierarchy,
                                            plan.placements)
            skeleton = tuple(zip(*compile_skeleton(plan, costs)))
            assert skeleton == ref.compile_skeleton(plan, costs)
            key = plan_structure_key(plan, costs)
            assert key == ref.plan_structure_key(plan, costs)
            assert _rows(cache._skeletons[key]) == skeleton


def _zeroing_starts(original, starts, zero_bytes):
    """``block_costs`` with every block that starts at a layer in
    ``starts`` zeroed as by :func:`_zeroing`: a stash's storage hops
    vanish under one partition and not under another."""
    def wrapped(blocks, *args, **kwargs):
        zero = {i for i, (s, _) in enumerate(blocks) if s in starts}
        return _zeroing(original, zero, zero_bytes)(blocks, *args, **kwargs)
    return wrapped


def _signature_of(stages):
    return tuple(tuple((op.kind.value, op.block, op.src_tier, op.dst_tier)
                       for op in stage.ops) for stage in stages)


def _check_sequence(name, hierarchy, capacity, starts, zero_bytes,
                    vectors, structure=None):
    """Lower and price every (partition, policies, placements, prefetch)
    vector through one ``LoweringCache``, holding each to a fresh lowering
    and to the reference.  ``structure`` is the table the cache lowers
    through, a fresh one when None."""
    graph, cost = _context(name)
    cache = LoweringCache(cost, capacity, hierarchy, structure=structure)
    with ExitStack() as patches:
        for module in (trainer_sim, ref):
            patches.enter_context(mock.patch.object(
                module, "block_costs",
                _zeroing_starts(module.block_costs, starts, zero_bytes)))
        for blocks, policies, placements, prefetch in vectors:
            shared, fresh = (make_plan(graph.name, 8, blocks, policies,
                                       prefetch=prefetch,
                                       placements=placements,
                                       lowering=lowering)
                             for lowering in (cache, None))
            untiered, _ = generate_stages(policies, prefetch)
            assert shared.stages == fresh.stages == \
                ref._qualify_tiers(untiered, placements)
            assert shared.plan_string() == fresh.plan_string()
            assert shared.stages.signature == fresh.stages.signature == \
                _signature_of(shared.stages)

            priced = _outcome(lambda: simulate_plan(
                shared, cost, capacity, hierarchy=hierarchy, cache=cache))
            plain = _outcome(lambda: simulate_plan(fresh, cost, capacity,
                                                   hierarchy=hierarchy))
            expect = _outcome(lambda: ref.reference_simulate_plan(
                fresh, cost, capacity, hierarchy))
            if expect[0] != "ok":
                assert priced == plain == expect
            else:
                assert _fields(priced[1]) == _fields(plain[1]) == \
                    [repr(v) for v in expect[1][1]]

            costs = trainer_sim.block_costs(blocks, cost, hierarchy,
                                            shared.placements)
            rows = ref.compile_skeleton(fresh, costs)
            columns = compile_skeleton(shared, costs,
                                       templates=cache.templates)
            assert tuple(zip(*columns)) == rows
            assert tuple(zip(*compile_skeleton(fresh, costs))) == rows
            key = plan_structure_key(shared, costs)
            assert key == plan_structure_key(fresh, costs) == \
                ref.plan_structure_key(fresh, costs)
            if key in cache._skeletons:
                assert _rows(cache._skeletons[key]) == rows


@st.composite
def sequences(draw, k=None):
    """A pricing context and a sequence of vectors over one block count
    (``k``, drawn when None): small counts, so later vectors meet the
    pieces of earlier ones in new surroundings."""
    name = draw(st.sampled_from(("cnn", "unet")))
    graph, cost = _context(name)
    if k is None:
        k = draw(st.integers(1, 5))

    def placed(policies):
        return {b: draw(st.sampled_from((1, 2)))
                for b, p in enumerate(policies)
                if p is S and draw(st.booleans())}

    policies = draw(st.lists(st.sampled_from(POLICIES), min_size=k,
                             max_size=k))
    blocks, placements = _partition(draw, len(graph), k), placed(policies)
    vectors = []
    for _ in range(draw(st.integers(2, 6))):
        # a search step: move boundaries, flip one policy, or re-place
        step = draw(st.sampled_from(("blocks", "policy", "placements")))
        if step == "blocks":
            blocks = _partition(draw, len(graph), k)
        elif step == "policy":
            policies = list(policies)
            policies[draw(st.integers(0, k - 1))] = \
                draw(st.sampled_from(POLICIES))
            placements = {b: t for b, t in placements.items()
                          if policies[b] is S}
        else:
            placements = placed(policies)
        vectors.append((blocks, policies, placements, draw(st.sampled_from(
            ("eager", "one_ahead", "none")))))
    hierarchy = abci_hierarchy() if draw(st.booleans()) else None
    slack = draw(st.sampled_from((None, 0.0, 0.6, 3.0)))
    if slack is None:
        capacity = 16e9
    else:
        workspace = max(cost.block_memory(s, e).peak_workspace
                        for blocks, *_ in vectors for s, e in blocks)
        capacity = float(cost.persistent_bytes() + workspace
                         + slack * cost.total_activation_bytes / k)
    starts = draw(st.sets(st.sampled_from(sorted(
        {s for blocks, *_ in vectors for s, _ in blocks}))))
    return name, hierarchy, capacity, starts, draw(st.booleans()), vectors


@given(case=sequences())
def test_shared_piece_tables_match_fresh_lowering(case):
    _check_sequence(*case)


TEMPLATE_KEY = trainer_sim._template_key
PIECES_INIT = StagePieces.__init__


def _key_without_source(sig, policies, n, lookahead, chained):
    b = sig[1]
    return (sig, policies[b].value, b + 1 < n, lookahead, b + lookahead < n,
            chained)


def _key_without_chained(sig, policies, n, lookahead, chained):
    return TEMPLATE_KEY(sig, policies, n, lookahead, False)


class _OpsByBlock(dict):
    """An op table that keys an op on its (kind, block) alone."""

    def get(self, sig, default=None):
        return super().get(sig[:2], default)

    def __setitem__(self, sig, op):
        super().__setitem__(sig[:2], op)


def _op_without_tier(self):
    PIECES_INIT(self)
    self.ops = _OpsByBlock()


K = BlockPolicy.RESIDENT
NO_HIERARCHY = ("cnn", None, 16e9, (), False)
#: Two partitions of the small CNN; block 1 starts at layer 4 in the
#: first, whose start is zeroed, so its storage hops vanish there.
SPLITS = ([(0, 4), (4, 16)], [(0, 6), (6, 16)])


@pytest.mark.parametrize("target, name, bug, context, vectors", [
    # R2's source is F1, then Sin1
    (trainer_sim, "_template_key", _key_without_source, NO_HIERARCHY,
     [(SPLITS[1], [K, R], {}, "eager"), (SPLITS[1], [S, R], {}, "eager")]),
    # Sout2@t2 chains to storage under the second partition only
    (trainer_sim, "_template_key", _key_without_chained,
     ("cnn", abci_hierarchy(), 16e9, {4}, False),
     [(split, [K, S], {1: 2}, "eager") for split in SPLITS]),
    # Sout1 untiered, then tier-qualified to DRAM: both validate
    (StagePieces, "__init__", _op_without_tier, NO_HIERARCHY,
     [(SPLITS[0], [S, K], placements, "eager")
      for placements in ({}, {0: 1})]),
], ids=["template-key-omits-source", "template-key-omits-chained",
        "op-key-omits-tier"])
def test_planted_piece_key_bugs_fail_the_check(monkeypatch, target, name,
                                               bug, context, vectors):
    _check_sequence(*context, vectors)
    monkeypatch.setattr(target, name, bug)
    with pytest.raises(AssertionError):
        _check_sequence(*context, vectors)


@given(k=st.integers(1, 5), data=st.data())
def test_one_structure_table_serves_two_contexts(k, data):
    """Two pricing contexts (model, hierarchy, capacity, zeroed stashes)
    lower their vectors through one structure table, the second meeting
    everything the first left in it."""
    structure = StructureCache()
    for _ in range(2):
        _check_sequence(*data.draw(sequences(k)), structure=structure)


def _check_lookaheads(name, vectors, lookaheads=(3, 1), structure=None):
    """Lower each vector at every prefetch lookahead through one
    structure table, holding each skeleton to a fresh lowering and to
    the reference."""
    graph, cost = _context(name)
    structure = structure if structure is not None else StructureCache()
    for blocks, policies, placements, prefetch in vectors:
        plan = make_plan(graph.name, 8, blocks, policies, prefetch=prefetch,
                         placements=placements)
        cache = LoweringCache(cost, 16e9, structure=structure)
        costs = cache.block_costs(plan)
        for lookahead in lookaheads:
            key = plan_structure_key(plan, costs, lookahead)
            assert key == ref.plan_structure_key(plan, costs, lookahead)
            rows = ref.compile_skeleton(plan, costs, lookahead)
            assert tuple(zip(*compile_skeleton(plan, costs, lookahead))) \
                == rows
            assert _rows(cache.lowered(plan, costs, key, lookahead)) == rows


#: A toy hierarchy whose storage writes are free: a stash placed in NVMe
#: chains its swap-in through storage but not its swap-out.
FREE_WRITES = MemoryHierarchy(
    tiers=(TierSpec("hbm", 16 * GiB, 900e9),
           TierSpec("dram", 64 * MiB, math.inf),
           TierSpec("nvme", 4 * GiB, math.inf)),
    links_down=(LinkSpec("host", 16e9), LinkSpec("write", math.inf, 0.0)),
    links_up=(LinkSpec("host", 16e9), LinkSpec("read", 2e9)))

#: Sout2/Sin2 both chain under ABCI; only Sin2 chains under FREE_WRITES.
SPILLED = [(SPLITS[0], [K, S], {1: 2}, "eager")]


def _check_chained_contexts():
    structure = StructureCache()
    for hierarchy in (abci_hierarchy(), FREE_WRITES):
        _check_sequence("cnn", hierarchy, 16e9, (), False, SPILLED,
                        structure=structure)


def _check_three_swaps():
    # Sin1's deps name B2 at lookahead 1 and no backward at lookahead 3:
    # the skeletons differ in their edges alone
    _check_lookaheads("cnn", [([(0, 4), (4, 8), (8, 12), (12, 16)],
                               [S, S, S, K], {}, "eager")])


def _without_lookahead(key_of):
    return lambda plan, costs, prefetch_lookahead=3: key_of(plan, costs)


def _without_chained_out(key_of):
    def key(plan, costs, prefetch_lookahead=3):
        full = key_of(plan, costs, prefetch_lookahead)
        return full[:3] + (frozenset(),) + full[4:]
    return key


@pytest.mark.parametrize("name, bug, check", [
    ("plan_structure_key", _without_lookahead, _check_three_swaps),
    ("plan_structure_key", _without_chained_out, _check_chained_contexts),
    ("_content_key", lambda content_key: lambda s: content_key(s)[:3],
     _check_three_swaps),
], ids=["structure-key-omits-lookahead", "structure-key-omits-chained-out",
        "content-key-omits-deps"])
def test_planted_structure_bugs_fail_the_shared_table_check(
        monkeypatch, name, bug, check):
    check()
    # planted wherever the function is read, the reference and this
    # module included, so only the shared table can tell
    for module in (trainer_sim, ref, sys.modules[__name__]):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, bug(getattr(module, name)))
    with pytest.raises(AssertionError):
        check()


@given(policies=st.lists(st.sampled_from(POLICIES), min_size=1,
                         max_size=10),
       prefetch=st.sampled_from(("eager", "one_ahead", "none")),
       tiers=st.lists(st.sampled_from((None, 1, 2, 3)), min_size=10,
                      max_size=10))
def test_stages_emit_tiers_like_the_second_pass(policies, prefetch, tiers):
    placements = {b: t for b, t in enumerate(tiers[:len(policies)])
                  if t is not None and policies[b] is S}
    untiered, checkpoints = generate_stages(policies, prefetch)
    stages, same = generate_stages(policies, prefetch, placements)
    assert same == checkpoints
    assert stages == ref._qualify_tiers(untiered, placements)
    assert [s.label() for s in stages] == \
        [s.label() for s in ref._qualify_tiers(untiered, placements)]


def _mutate(draw, plan: ExecutionPlan) -> ExecutionPlan:
    """One random structural edit of a valid plan."""
    stages = list(plan.stages)
    placements = dict(plan.placements)
    policies = list(plan.policies)
    checkpoints = dict(plan.checkpoints)
    n, m = plan.num_blocks, len(stages)
    edit = draw(st.sampled_from(("swap", "drop", "retier", "place",
                                 "qualify", "policy", "gpu", "checkpoint")))
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    if edit == "swap":
        stages[i], stages[j] = stages[j], stages[i]
    elif edit == "drop":
        del stages[i]
    elif edit in ("retier", "qualify"):
        ops = list(stages[i].ops)
        k = draw(st.integers(0, len(ops) - 1))
        tier = draw(st.sampled_from((None, 0, 1, 2, 3)))
        src = draw(st.booleans())
        ops[k] = dataclasses.replace(
            ops[k], **{"src_tier" if src else "dst_tier": tier})
        stages[i] = Stage(tuple(ops))
    elif edit == "place":
        placements[draw(st.integers(0, n - 1))] = \
            draw(st.sampled_from((0, 1, 2)))
    elif edit == "policy":
        policies[draw(st.integers(0, n - 1))] = \
            draw(st.sampled_from(POLICIES))
    elif edit == "gpu":
        b = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from((OpKind.FORWARD, OpKind.BACKWARD,
                                     OpKind.RECOMPUTE, OpKind.SWAP_IN)))
        stages[i] = Stage(stages[i].ops + (Op(kind, b),))
    else:
        checkpoints[draw(st.integers(0, n - 1))] = \
            draw(st.integers(-1, n))
    return dataclasses.replace(plan, stages=tuple(stages),
                               placements=placements,
                               policies=tuple(policies),
                               checkpoints=checkpoints)


@given(data=st.data())
def test_validate_matches_reference(data):
    graph, _ = _context("cnn")
    k = data.draw(st.integers(1, 6))
    policies = data.draw(st.lists(st.sampled_from(POLICIES), min_size=k,
                                  max_size=k))
    placements = {b: data.draw(st.sampled_from((1, 2)))
                  for b, p in enumerate(policies) if p is S}
    plan = make_plan(graph.name, 8, _partition(data.draw, len(graph), k),
                     policies, placements=placements)
    for _ in range(data.draw(st.integers(1, 3))):
        plan = _mutate(data.draw, plan)
    assert _outcome(plan.validate) == _outcome(lambda: ref.validate(plan))
