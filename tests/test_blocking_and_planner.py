"""Opt-1 (blocking), Opt-2 (recompute), solver agreement, end-to-end plans."""

import math

import pytest

from repro.core import (
    BlockPolicy,
    PartitionProblem,
    admissible,
    apply_recompute,
    assign_policies,
    build_inputs,
    local_search,
    plan,
    segment_graph,
    solve_blocking,
    solve_dp,
)
from repro.core.blocking import (
    BLOCKING_METHODS,
    coarsen_segments,
    pinned_bytes_per_block,
)
from repro.costs import profile_graph
from repro.sim import simulate_plan

R, S, C = BlockPolicy.RESIDENT, BlockPolicy.SWAPPED, BlockPolicy.RECOMPUTED


def _toy_problem(costs, feas=None, max_span=8):
    """Pairwise problem over explicit cost table c[a][b][c]."""
    u = len(costs)

    def pair(a, b, c):
        return costs[b - 1] * 0.1 + abs((b - a) - (c - b)) * 0.01

    return PartitionProblem(
        num_segments=u,
        pair_cost=pair,
        block_feasible=feas or (lambda a, b: b - a <= 4),
        first_cost=lambda a, b: 0.0,
        max_span=max_span)


class TestSolvers:
    def test_dp_returns_valid_partition(self):
        prob = _toy_problem([1.0] * 10)
        bounds = solve_dp(prob)
        assert bounds[-1] == 10
        assert bounds == sorted(set(bounds))
        assert all(b - a <= 4 for a, b in zip([0] + bounds[:-1], bounds))

    def test_infeasible_problem_raises(self):
        prob = _toy_problem([1.0] * 10, feas=lambda a, b: False)
        with pytest.raises(ValueError):
            solve_dp(prob)

    def test_local_search_monotone(self):
        prob = _toy_problem([1.0] * 12)

        def objective(bounds):
            return abs(len(bounds) - 4) + sum(bounds) * 1e-6

        start = [3, 6, 9, 12]
        out, val = local_search([12], 12, objective, prob.block_feasible)
        assert val <= objective([12])


class TestBlocking:
    def test_segments_cover_graph(self, small_cnn):
        segs = segment_graph(small_cnn)
        assert segs[0][0] == 0 and segs[-1][1] == len(small_cnn)
        for (a, b), (c, d) in zip(segs, segs[1:]):
            assert b == c

    def test_coarsening_respects_limit(self, small_cnn, small_cnn_cost):
        segs = segment_graph(small_cnn)
        coarse = coarsen_segments(segs, small_cnn_cost, max_units=3)
        assert len(coarse) == 3
        assert coarse[0][0] == 0 and coarse[-1][1] == len(small_cnn)

    def test_assign_policies_suffix_resident(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 2048)
        inputs = build_inputs(small_cnn, cost, device.usable_memory)
        u = inputs.num_segments
        pols = assign_policies(inputs, list(range(1, u + 1)))
        # resident blocks form a suffix
        states = [p is BlockPolicy.RESIDENT for p in pols]
        if any(states):
            first_resident = states.index(True)
            assert all(states[first_resident:])

    def test_pinned_bytes_unet(self, small_unet, platform):
        device, _, transfer = platform
        cost = profile_graph(small_unet, device, transfer, 4)
        n = len(small_unet)
        blocks = [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]
        pinned = pinned_bytes_per_block(small_unet, blocks, cost)
        assert sum(pinned) > 0, "U-Net long skips must pin bytes"

    def test_incore_regime_single_block(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 2)
        res = solve_blocking(small_cnn, cost, device.usable_memory,
                             small_cnn.name, 2)
        assert res.method == "in-core"
        assert res.policies == [BlockPolicy.RESIDENT]

    def test_out_of_core_blocking_feasible(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cap = cost.persistent_bytes() + int(0.9 * cost.total_activation_bytes)
        res = solve_blocking(small_cnn, cost, cap, small_cnn.name, 8)
        assert any(p is not BlockPolicy.RESIDENT for p in res.policies)
        assert math.isfinite(res.objective)

    def test_uniform_method_ablation(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cap = cost.persistent_bytes() + int(0.9 * cost.total_activation_bytes)
        uni = solve_blocking(small_cnn, cost, cap, small_cnn.name, 8,
                             method="uniform")
        auto = solve_blocking(small_cnn, cost, cap, small_cnn.name, 8,
                              method="auto")
        assert auto.objective <= uni.objective + 1e-12

    def test_unknown_method_rejected_on_entry(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 2)
        # in core: the search would return at once, whatever the method
        with pytest.raises(ValueError, match="unknown method 'aco'"):
            solve_blocking(small_cnn, cost, device.usable_memory,
                           small_cnn.name, 2, method="aco")


class TestRecompute:
    def test_admissibility_constraint_10_1(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        n = len(small_cnn)
        blocks = [(0, n // 2), (n // 2, n)]
        pols = [S, R]
        # compute of the block must undercut its swap time for admission
        is_adm = admissible(cost, blocks, pols, 0)
        fw = cost.block_fw_time(0, n // 2)
        swap = cost.transfer.swap_time(
            cost.block_activation_bytes(0, n // 2))
        assert is_adm == (fw < swap)

    def test_opt2_never_worse(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cap = cost.persistent_bytes() + int(0.9 * cost.total_activation_bytes)
        res = solve_blocking(small_cnn, cost, cap, small_cnn.name, 8)
        out = apply_recompute(small_cnn, cost, cap, small_cnn.name, 8,
                              res.blocks, res.policies)
        assert out.makespan_after <= out.makespan_before + 1e-12
        assert out.improvement >= -1e-12


class TestPlannerEndToEnd:
    def test_unknown_method_rejected_before_cache_lookup(self, small_cnn):
        """A cache entry written under a retired method is never
        replayed: ``plan`` rejects the method before it asks the cache."""
        class StubCache:
            def get(self, key):
                raise AssertionError("cache consulted for a bad method")

        with pytest.raises(ValueError) as err:
            plan(small_cnn, batch_size=2, method="aco", cache=StubCache())
        assert "'aco'" in str(err.value)
        assert all(m in str(err.value) for m in BLOCKING_METHODS)

    def test_incore_plan(self, small_cnn):
        kp = plan(small_cnn, batch_size=2)
        assert not kp.is_out_of_core
        assert kp.plan.plan_string() == "F1 -> B1"

    def test_ooc_plan_valid_and_feasible(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cap = cost.persistent_bytes() + int(0.9 * cost.total_activation_bytes)
        kp = plan(small_cnn, batch_size=8, capacity=cap)
        assert kp.is_out_of_core
        kp.plan.validate(small_cnn)
        res = simulate_plan(kp.plan, kp.cost, kp.capacity)
        assert math.isfinite(res.makespan)

    def test_recompute_flag_controls_opt2(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cap = cost.persistent_bytes() + int(0.9 * cost.total_activation_bytes)
        with_r = plan(small_cnn, batch_size=8, capacity=cap, recompute=True)
        without = plan(small_cnn, batch_size=8, capacity=cap,
                       recompute=False)
        assert without.recompute is None
        assert not without.plan.recomputed
        r1 = simulate_plan(with_r.plan, with_r.cost, cap).makespan
        r0 = simulate_plan(without.plan, without.cost, cap).makespan
        assert r1 <= r0 + 1e-12

    def test_describe_mentions_plan_string(self, small_cnn):
        kp = plan(small_cnn, batch_size=2)
        assert "plan string" in kp.describe()

    def test_unet_plan_handles_long_skips(self, small_unet):
        kp = plan(small_unet, batch_size=4)
        kp.plan.validate(small_unet)
