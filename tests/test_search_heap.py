"""What the blocking search keeps alive.

The search prices many candidates but re-reads only their makespans, so
its memos (``CandidateEvaluator``) and the shared ``LoweringCache`` must
hold scalars, messages and atomic keys — never a simulation, a plan or
an exception.  An exception in a cache is the worst case: its traceback
pins the search frames, which point back at the cache, so a finished
``plan()`` leaves the whole cache as cyclic garbage for the collector.
The makespan memo must also stay value-transparent: a memoized answer
equals an uncached re-pricing exactly, and an infeasible one re-raises
the same type and message.
"""

import gc
import types

import pytest

from repro.core import make_plan, plan
from repro.core.blocking import (
    CandidateEvaluator,
    _uniform_bounds,
    assign_policies,
    build_inputs,
)
from repro.core.schedule import ExecutionPlan, Stage
from repro.costs import profile_graph
from repro.hardware import TransferModel, abci_host, karma_swap_link
from repro.hardware.spec import v100_sxm2_16gb
from repro.hardware.tiering import abci_hierarchy
from repro.models import build
from repro.sim import LoweringCache, OutOfCoreInfeasible, simulate_plan
from repro.sim.engine import OpTiming, SimOp, SimResult
from repro.tiering.placement import assign_tiers

#: Types the search must never retain (and never leave as cyclic garbage).
HEAVY = (SimResult, SimOp, OpTiming, ExecutionPlan, Stage, BaseException)

#: Objects a referent walk does not descend into: reaching a class, module
#: or function would walk every module global, not what the caches hold.
OPAQUE = (type, types.ModuleType, types.FunctionType, types.MethodType,
          types.BuiltinFunctionType, types.CodeType)


@pytest.fixture(scope="module")
def unet_context():
    """unet b24 on a V100 with the ABCI DRAM+NVMe hierarchy, and a small
    grid: the fine blocking plus coarse uniform blockings (the coarse
    ones deadlock the stash ledger), every margin and placement policy,
    swept twice so the second sweep is all repeats."""
    graph = build("unet")
    device = v100_sxm2_16gb()
    transfer = TransferModel(link=karma_swap_link(), device=device,
                             host=abci_host())
    cost = profile_graph(graph, device, transfer, 24)
    inputs = build_inputs(graph, cost, device.usable_memory)
    u = inputs.num_segments
    candidates = [list(range(1, u + 1))] + [_uniform_bounds(u, k)
                                            for k in (4, 8, 10)]
    grid = [(bounds, margin, ppolicy)
            for bounds in candidates
            for margin in (0.5, 1.0, 2.0)
            for ppolicy in ("bandwidth", "pressure")]
    return graph, cost, device.usable_memory, abci_hierarchy(), inputs, \
        grid + grid


def _evaluator(unet_context):
    graph, cost, capacity, hierarchy, inputs, _ = unet_context
    return CandidateEvaluator(inputs=inputs, cost=cost, capacity=capacity,
                              model_name=graph.name, batch_size=24,
                              hierarchy=hierarchy)


def _outcome(price, *args):
    """``("ok", value)`` or ``(error type, message)``."""
    try:
        return "ok", price(*args)
    except OutOfCoreInfeasible as exc:
        return type(exc), str(exc)


def _reachable(*roots):
    """Every object reachable from ``roots`` through ``gc.get_referents``,
    not descending into classes, modules or functions."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, OPAQUE):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_makespan_memo_value_transparent(unet_context):
    """Every grid point — first sweep and repeat — prices exactly as an
    uncached ``simulate_plan`` of the same realized plan."""
    graph, cost, capacity, hierarchy, inputs, grid = unet_context
    evaluator = _evaluator(unet_context)

    def uncached(bounds, margin, ppolicy):
        blocks = [inputs.layers_of(a, b)
                  for a, b in zip([0] + bounds[:-1], bounds)]
        policies = assign_policies(inputs, bounds, margin)
        placements = assign_tiers(blocks, policies, cost, hierarchy,
                                  policy=ppolicy).placements
        p = make_plan(graph.name, 24, blocks, policies,
                      placements=placements)
        return simulate_plan(p, cost, capacity,
                             hierarchy=hierarchy).makespan

    outcomes = []
    for point in grid:
        got = _outcome(evaluator, *point)
        assert got == _outcome(uncached, *point), point
        outcomes.append(got[0])
    assert "ok" in outcomes and OutOfCoreInfeasible in outcomes
    assert evaluator.memo_hits >= len(grid) // 2   # the repeated sweep


def test_search_caches_hold_no_simulations_plans_or_exceptions(
        unet_context):
    """Only the schedules layer and the piece table may hold stages — one
    immutable schedule per policy vector, shared by its candidates'
    plans, and the interned ops and stages schedules are built from —
    and no layer holds anything else heavy."""
    *_, grid = unet_context
    evaluator = _evaluator(unet_context)
    for point in grid:
        evaluator.safe(*point)
    lowering = evaluator.lowering
    schedules, pieces = lowering._schedules, lowering.pieces
    assert schedules and pieces.stages
    lowering._schedules, lowering.pieces = {}, None
    try:
        held = _reachable(evaluator._realize_cache, evaluator._place_cache,
                          evaluator._plan_cache, lowering)
    finally:
        lowering._schedules, lowering.pieces = schedules, pieces
    heavy = sorted({type(o).__name__ for o in held if isinstance(o, HEAVY)})
    assert heavy == []
    for layer in (schedules, pieces):
        in_layer = sorted({type(o).__name__ for o in _reachable(layer)
                           if isinstance(o, HEAVY)})
        assert in_layer == ["Stage"]


def test_finished_plans_leave_no_heavy_cyclic_garbage():
    """With the collector off, plan two models, then collect once with
    DEBUG_SAVEALL: nothing the search built may sit in a reference cycle."""
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        for name, batch in (("unet", 24), ("wrn28_10", 1024)):
            assert plan(build(name), batch).blocking.method == "auto"
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = sorted({type(o).__name__ for o in gc.garbage
                         if isinstance(o, HEAVY + (LoweringCache,))})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert cyclic == []
