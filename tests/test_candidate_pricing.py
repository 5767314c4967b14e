"""What pricing one search candidate builds.

A candidate that misses the result cache but shares a structure with an
earlier one is priced from the cached skeleton's arrays: no ``SimOp`` or
``OpTiming`` per op.  Block costs are cached on what
:func:`~repro.sim.trainer_sim.block_costs` reads — the partition and its
storage-placed blocks — so Opt-2's trials, which keep the partition and
shuffle only DRAM placements, compute them once, while a storage
placement can never collide with a DRAM-only entry.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core import make_plan, plan
from repro.core.recompute import apply_recompute
from repro.core.schedule import BlockPolicy
from repro.costs import profile_graph
from repro.hardware.tiering import abci_hierarchy
from repro.models import build
from repro.sim import LoweringCache, simulate_plan, trainer_sim
from repro.sim.engine import OpTiming, SimOp
from repro.tiering import placement

S, R, K = BlockPolicy.SWAPPED, BlockPolicy.RECOMPUTED, BlockPolicy.RESIDENT


def _counting(monkeypatch, cls):
    """Count ``cls`` constructions from here on."""
    calls = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        calls.append(cls)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def test_skeleton_hit_builds_no_per_op_objects(small_cnn, platform,
                                               monkeypatch):
    device, _, transfer = platform
    cost = profile_graph(small_cnn, device, transfer, 64)
    cache = LoweringCache(cost, device.usable_memory)
    n = len(small_cnn)
    first, second = (make_plan(small_cnn.name, 64, [(0, mid), (mid, n)],
                               [S, R]) for mid in (n // 2, n // 2 + 1))
    simulate_plan(first, cost, device.usable_memory, cache=cache)
    sim_ops = _counting(monkeypatch, SimOp)
    timings = _counting(monkeypatch, OpTiming)
    priced = simulate_plan(second, cost, device.usable_memory, cache=cache)
    assert (cache.misses, cache.skeleton_hits) == (2, 1)
    assert (len(sim_ops), len(timings)) == (0, 0)
    monkeypatch.undo()
    assert priced.makespan == simulate_plan(second, cost,
                                            device.usable_memory).makespan


def test_storage_placement_has_its_own_block_costs(platform):
    device, _, transfer = platform
    graph = build("unet")
    cost = profile_graph(graph, device, transfer, 16)
    hierarchy = abci_hierarchy()
    cache = LoweringCache(cost, device.usable_memory, hierarchy)
    blocks = [(0, 10), (10, 20), (20, len(graph))]
    dram, nvme = (make_plan(graph.name, 16, blocks, [S, S, K],
                            placements={0: 1, 1: tier})
                  for tier in (1, 2))
    dram_costs, nvme_costs = cache.block_costs(dram), cache.block_costs(nvme)
    assert dram_costs != nvme_costs
    for p, costs in ((dram, dram_costs), (nvme, nvme_costs)):
        assert costs == trainer_sim.block_costs(p.blocks, cost, hierarchy,
                                                p.placements)
    # a DRAM placement map is not read: another DRAM-only plan shares it
    other = make_plan(graph.name, 16, blocks, [R, S, K], placements={1: 1})
    assert cache.block_costs(other) is dram_costs


def test_opt2_on_a_dram_only_plan_prices_block_costs_once():
    graph = build("vgg16")
    hierarchy = abci_hierarchy()
    kp = plan(graph, 256, hierarchy=hierarchy, recompute=False)
    blocking = kp.blocking
    assert set(blocking.placements.values()) == {1}
    with mock.patch.object(trainer_sim, "block_costs",
                           wraps=trainer_sim.block_costs) as costs, \
            mock.patch.object(trainer_sim, "simulate_plan",
                              wraps=trainer_sim.simulate_plan) as priced:
        result = apply_recompute(graph, kp.cost, kp.capacity, graph.name,
                                 256, blocking.blocks, blocking.policies,
                                 hierarchy=hierarchy,
                                 placement_policy=blocking.placement_policy)
    assert result.flipped and priced.call_count > 2
    assert costs.call_count == 1


def test_opt2_places_each_policy_vector_once():
    graph = build("vgg16")
    hierarchy = abci_hierarchy()
    kp = plan(graph, 256, hierarchy=hierarchy, recompute=False)
    blocking = kp.blocking
    with mock.patch.object(placement, "assign_tiers",
                           wraps=placement.assign_tiers) as placed:
        result = apply_recompute(graph, kp.cost, kp.capacity, graph.name,
                                 256, blocking.blocks, blocking.policies,
                                 hierarchy=hierarchy,
                                 placement_policy=blocking.placement_policy)
    vectors = [tuple(call.args[1]) for call in placed.call_args_list]
    # an accepted trial's vector is the next pass's current one
    assert result.flipped and len(vectors) > 2
    assert len(vectors) == len(set(vectors))


@pytest.mark.parametrize("tier", [1, 2])
def test_block_costs_table_range_checks_each_block(platform, tier):
    device, _, transfer = platform
    graph = build("unet")
    cost = profile_graph(graph, device, transfer, 8)
    with pytest.raises(ValueError, match=r"invalid block \[3, 3\)"):
        trainer_sim.block_costs([(0, 3), (3, 3)], cost, abci_hierarchy(),
                                {0: tier})
