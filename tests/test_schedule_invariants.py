"""The independent schedule invariant checker (``tests/_schedule_invariants``)
on the benchmark's cold plans, on a ledger boundary, and against planted
faults it must report.  ``test_engine_differential.py`` runs it on every
schedule it simulates."""

import dataclasses

import pytest

from repro.cli import plan_config_full
from repro.sim import SimOp, block_costs, compile_plan, simulate, simulate_plan
from repro.sim.engine import OpTiming
from repro.sim.trainer_sim import _stash_ledger_capacity
from tests._schedule_invariants import longest_dep_chain, schedule_violations

#: The ``plan_cold_wide`` and ``plan_cold_deep`` benchmark configs.
PLAN_COLD = ([{"model": "resnet200", "batch": b, "hierarchy": "abci"}
              for b in (12, 16, 20, 24)]
             + [{"model": "resnet1001", "batch": b, "hierarchy": "none"}
                for b in (128, 192, 256)])


@pytest.mark.parametrize("config", PLAN_COLD,
                         ids=lambda c: f"{c['model']}-b{c['batch']}")
def test_cold_plans_keep_every_invariant(config):
    kp = plan_config_full(config, use_cache=False)[1]
    plan = kp.plan
    costs = block_costs(plan.blocks, kp.cost, hierarchy=kp.hierarchy,
                        placements=plan.placements)
    ledger = _stash_ledger_capacity(plan, costs, kp.cost, kp.capacity)
    ops = compile_plan(plan, costs)
    sim = simulate_plan(plan, kp.cost, kp.capacity,
                        hierarchy=kp.hierarchy).sim
    assert [sim.timings[op.op_id].op for op in ops] == ops
    assert any(op.mem_acquire for op in ops)
    assert schedule_violations(ops, sim, ledger) == []
    claimed = (kp.recompute.makespan_after if kp.recompute is not None
               else kp.blocking.objective)
    assert sim.makespan == claimed


#: Two ops that fit a 100 B ledger together only with one byte to spare.
TIGHT = [SimOp(0, "gpu", 2.0, mem_acquire=60, mem_release=60),
         SimOp(1, "h2d", 1.0, mem_acquire=41, mem_release=41)]


def test_ledger_boundary_defers_the_second_acquire():
    result = simulate(TIGHT, 100)
    assert schedule_violations(TIGHT, result, 100) == []
    assert result.timings[1].start == 2.0
    assert schedule_violations(TIGHT, simulate(TIGHT, 101), 101) == []


def _moved(result, op_id, start):
    """``result`` with one op moved to ``start`` (duration kept)."""
    timings = dict(result.timings)
    t = timings[op_id]
    timings[op_id] = OpTiming(t.op, start, start + t.op.duration, t.ready)
    return dataclasses.replace(
        result, timings=timings,
        makespan=max(t.finish for t in timings.values()))


class TestPlantedFaults:
    """Each invariant reports a schedule that breaks it."""

    def test_acquire_admitted_one_byte_over(self):
        bad = schedule_violations(TIGHT, _moved(simulate(TIGHT, 100), 1, 0.0),
                                  100)
        assert any("ledger holds 101 B" in v for v in bad)

    def test_fifo_ops_swapped(self):
        ops = [SimOp(0, "gpu", 1.0), SimOp(1, "gpu", 1.0)]
        result = simulate(ops)
        swapped = _moved(_moved(result, 1, 0.0), 0, 1.0)
        bad = schedule_violations(ops, swapped, None)
        assert any("FIFO" in v for v in bad)

    def test_dropped_dependency(self):
        ops = [SimOp(0, "gpu", 1.0), SimOp(1, "h2d", 1.0, deps=(0,))]
        bad = schedule_violations(ops, _moved(simulate(ops), 1, 0.5), None)
        assert any("before its dep 0" in v for v in bad)
        assert any("longest dependency chain" in v for v in bad)

    def test_overlap_on_a_resource(self):
        ops = [SimOp(0, "gpu", 1.0), SimOp(1, "gpu", 1.0)]
        bad = schedule_violations(ops, _moved(simulate(ops), 1, 0.5), None)
        assert any("overlap" in v for v in bad)

    def test_longest_dep_chain(self):
        ops = [SimOp(0, "gpu", 1.0), SimOp(1, "h2d", 2.0),
               SimOp(2, "gpu", 0.5, deps=(0, 1)),
               SimOp(3, "d2h", 0.25, deps=(2,))]
        assert longest_dep_chain(ops) == 2.75
        assert simulate(ops).makespan == 2.75
