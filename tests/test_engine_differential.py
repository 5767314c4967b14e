"""Differential tests: the production engine (``simulate``, with and
without a memory ledger) and the seed round-robin oracle
(``sim.reference_engine``) must be bit-identical on every op stream —
randomized DAGs, plan-shaped pipeline lowerings with multi-hop tiered
swaps, distributed pipelines, and the compiled streams of every registry
model.  The batched lowering cache must be value-transparent."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockPolicy, make_plan
from repro.costs import profile_graph
from repro.hardware import three_tier_hierarchy
from repro.models.registry import REGISTRY, build
from repro.runtime.executor import OutOfCorePlanError
from repro.sim import (
    LoweringCache,
    ScheduleBuilder,
    SimOp,
    SimulationDeadlock,
    block_costs,
    compile_plan,
    simulate,
    simulate_plan,
    simulate_reference,
)
from repro.sim.engine import _MemoryLedger
from repro.sim.reference_engine import _ReferenceMemoryLedger
from tests._schedule_invariants import schedule_violations

R, S, C, K = (BlockPolicy.RESIDENT, BlockPolicy.SWAPPED,
              BlockPolicy.RECOMPUTED, BlockPolicy.CHECKPOINTED)

RESOURCES = ("gpu", "h2d", "d2h", "d2s", "s2d", "cpu")


def assert_bit_identical(ops, capacity):
    """Engine and oracle agree exactly — timings, summaries, or the
    deadlock — and the engine's schedule breaks no invariant.  Returns the
    engine's result (None when both deadlock)."""
    try:
        ref = simulate_reference(ops, capacity)
    except SimulationDeadlock:
        with pytest.raises(SimulationDeadlock):
            simulate(ops, capacity)
        return None
    got = simulate(ops, capacity)
    assert schedule_violations(ops, got, capacity) == []
    assert got.timings == ref.timings          # exact float equality
    assert got.makespan == ref.makespan
    assert got.resource_busy == ref.resource_busy
    assert got.resource_span == ref.resource_span
    for r in RESOURCES:
        assert got.idle_gaps(r) == ref.idle_gaps(r)
        assert got.occupancy(r) == ref.occupancy(r)
    return got


@st.composite
def op_dags(draw):
    """Randomized op DAGs: resources, deps, acquires/releases, capacity."""
    n = draw(st.integers(min_value=1, max_value=40))
    n_res = draw(st.integers(min_value=1, max_value=4))
    ops = []
    for i in range(n):
        n_deps = draw(st.integers(min_value=0, max_value=min(i, 3)))
        deps = tuple(sorted(
            draw(st.sets(st.integers(0, i - 1), min_size=n_deps,
                         max_size=n_deps)))) if i else ()
        ops.append(SimOp(
            op_id=i,
            resource=RESOURCES[draw(st.integers(0, n_res - 1))],
            duration=draw(st.floats(min_value=0.0, max_value=3.0,
                                    allow_nan=False)),
            deps=deps,
            mem_acquire=draw(st.sampled_from([0, 0, 10, 40, 80, 130])),
            mem_release=draw(st.sampled_from([0, 0, 10, 40, 80, 130])),
        ))
    capacity = draw(st.sampled_from([None, 60, 100, 200, 500]))
    return ops, capacity


@st.composite
def pipeline_lowerings(draw):
    """Plan-shaped op streams mirroring ``compile_plan``'s emission: a
    forward chain acquiring stash, per-block swap-out/swap-in hop chains
    (optionally two-legged through the storage link, like an NVMe
    placement), recompute, and a reverse backward chain releasing stash
    — under an optional tight ledger."""
    n_blocks = draw(st.integers(min_value=2, max_value=8))
    stash = [draw(st.sampled_from([10, 20, 50, 90])) for _ in range(n_blocks)]
    # S = swapped, C = recomputed, R = resident; last block resident as
    # in real plans
    policy = [draw(st.sampled_from("SSCR")) for _ in range(n_blocks - 1)]
    policy.append("R")
    tiered = [p == "S" and draw(st.booleans()) for p in policy]
    dur = st.floats(min_value=0.1, max_value=2.0, allow_nan=False)

    ops = []
    fw_of, swapin_tail = {}, {}
    prev_gpu = None

    def emit(resource, duration, deps=(), acq=0, rel=0):
        ops.append(SimOp(len(ops), resource, duration,
                         deps=tuple(deps), mem_acquire=acq,
                         mem_release=rel))
        return ops[-1].op_id

    for b in range(n_blocks):
        deps = [prev_gpu] if prev_gpu is not None else []
        fw_of[b] = prev_gpu = emit("gpu", draw(dur), deps,
                                   acq=stash[b])
        if policy[b] == "S":
            out = emit("d2h", draw(dur), [fw_of[b]], rel=stash[b])
            if tiered[b]:
                out = emit("d2s", draw(dur), [out])
            swapin_tail[b] = out
        elif policy[b] == "C":
            # dropped immediately after forward, like FW_DROP
            ops[-1] = SimOp(fw_of[b], "gpu", ops[fw_of[b]].duration,
                            deps=ops[fw_of[b]].deps,
                            mem_acquire=stash[b], mem_release=stash[b])
    for b in reversed(range(n_blocks)):
        deps = [prev_gpu]
        if policy[b] == "S":
            sin = swapin_tail[b]
            if tiered[b]:
                sin = emit("s2d", draw(dur), [sin])
            sin = emit("h2d", draw(dur), [sin, prev_gpu],
                       acq=stash[b])
            deps.append(sin)
        elif policy[b] == "C":
            deps.append(emit("gpu", draw(dur), [prev_gpu],
                             acq=stash[b]))
        prev_gpu = emit("gpu", draw(dur), deps, rel=stash[b])
    ledger = draw(st.sampled_from([None, 100, 150, 250, 10 ** 6]))
    return ops, ledger


@st.composite
def distributed_dags(draw):
    """Multi-worker pipeline DAGs: per-worker GPU chains, cross-worker
    activations hops, and a shared allreduce resource — unledgered, so
    the engine runs with no memory ledger."""
    workers = draw(st.integers(min_value=2, max_value=4))
    depth = draw(st.integers(min_value=2, max_value=6))
    dur = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
    ops = []

    def emit(resource, duration, deps=()):
        ops.append(SimOp(len(ops), resource, duration,
                         deps=tuple(deps)))
        return ops[-1].op_id

    stage = {}
    for p in range(depth):
        for w in range(workers):
            deps = []
            if p:
                deps.append(stage[p - 1, w])
            if w:
                # activations hop from the previous pipeline stage
                deps.append(emit("h2d", draw(dur), [stage[p, w - 1]]))
            stage[p, w] = emit(f"gpu{w}", draw(dur), deps)
    # phased allreduce: every worker's last stage meets on the wire
    reduce_deps = [stage[depth - 1, w] for w in range(workers)]
    tail = emit("cpu", draw(dur), reduce_deps)
    for w in range(workers):
        emit(f"gpu{w}", draw(dur), [tail])
    return ops, None


class TestDifferential:
    @given(op_dags())
    @settings(deadline=None)
    def test_property_randomized_dags(self, case):
        ops, capacity = case
        assert_bit_identical(ops, capacity)

    @given(pipeline_lowerings())
    @settings(deadline=None)
    def test_property_pipeline_lowerings(self, case):
        ops, ledger = case
        assert_bit_identical(ops, ledger)

    @given(distributed_dags())
    @settings(deadline=None)
    def test_property_distributed_pipelines(self, case):
        ops, capacity = case
        assert_bit_identical(ops, capacity)

    def test_ledger_contention_chain(self):
        """Swap-style pattern: acquires held across resources under a
        tight ledger — the order-sensitive case for the ledgered path."""
        ops = []
        n = 12
        for b in range(n):
            f = len(ops)
            ops.append(SimOp(f, "gpu", 1.0,
                             deps=(ops[-3].op_id,) if b else (),
                             mem_acquire=30))
            ops.append(SimOp(f + 1, "d2h", 1.5, deps=(f,), mem_release=30))
            ops.append(SimOp(f + 2, "h2d", 1.5, deps=(f + 1,),
                             mem_acquire=30))
        for b in range(n):
            ops.append(SimOp(len(ops), "gpu", 0.7,
                             deps=(3 * b + 2,), mem_release=30))
        assert_bit_identical(ops, 100)

    def test_memory_deadlock_both_engines(self):
        ops = [SimOp(0, "gpu", 1.0, mem_acquire=80),
               SimOp(1, "h2d", 1.0, mem_acquire=50)]  # never released
        with pytest.raises(SimulationDeadlock):
            simulate_reference(ops, 100)
        with pytest.raises(SimulationDeadlock):
            simulate(ops, 100)

    def test_capacity_overflow_both_engines(self):
        ops = [SimOp(0, "gpu", 1.0, mem_acquire=200)]
        with pytest.raises(SimulationDeadlock):
            simulate_reference(ops, 100)
        with pytest.raises(SimulationDeadlock):
            simulate(ops, 100)

    def test_circular_dependency_both_engines(self):
        ops = [SimOp(0, "gpu", 1.0, deps=(1,)),
               SimOp(1, "h2d", 1.0, deps=(0,))]
        with pytest.raises(SimulationDeadlock):
            simulate_reference(ops)
        with pytest.raises(SimulationDeadlock):
            simulate(ops)

    def test_zero_capacity_ledger(self):
        ops = [SimOp(0, "gpu", 1.0, mem_acquire=1)]
        with pytest.raises(SimulationDeadlock):
            simulate(ops, 0)

    def test_empty_schedule(self):
        got = assert_bit_identical([], None)
        assert got.makespan == 0.0 and got.timings == {}

    @pytest.mark.parametrize("capacity", [None, 100])
    def test_non_dense_op_ids(self, capacity):
        """Ids that are not issue positions are remapped, not rejected,
        and results stay keyed by the caller's ids."""
        ops = [SimOp(7, "gpu", 1.0, mem_acquire=60, label="F"),
               SimOp(9, "d2h", 2.0, deps=(7,), mem_release=60),
               SimOp(4, "gpu", 0.5, deps=(9,), mem_acquire=60,
                     mem_release=60)]
        got = assert_bit_identical(ops, capacity)
        assert sorted(got.timings) == [4, 7, 9]

    def test_duplicate_ids_rejected_by_both_engines(self):
        ops = [SimOp(0, "gpu", 1.0), SimOp(0, "h2d", 1.0)]
        for run in (simulate, simulate_reference):
            with pytest.raises(ValueError, match="duplicate"):
                run(ops)

    @pytest.mark.parametrize("ops", [
        [SimOp(0, "gpu", 1.0), SimOp(1, "h2d", 1.0, deps=(3,))],
        [SimOp(0, "gpu", 1.0, deps=(-1,))],
        [SimOp(7, "gpu", 1.0), SimOp(9, "h2d", 1.0, deps=(8,))],
    ], ids=["dense", "dense-negative", "non-dense"])
    def test_unknown_dependency_rejected_by_both_engines(self, ops):
        for run in (simulate, simulate_reference):
            with pytest.raises(ValueError, match="unknown op"):
                run(ops)

    def test_plan_level_differential(self, small_cnn, platform):
        """Compiled plans (the production op streams) agree exactly."""
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 64)
        n = len(small_cnn)
        blocks = [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]
        for policies in ([S, S, R], [S, C, R], [C, S, R], [S, S, S]):
            plan = make_plan(small_cnn.name, 64, blocks, policies)
            costs = block_costs(plan.blocks, cost)
            ops = compile_plan(plan, costs)
            for ledger in (None, 2 ** 40, 2 ** 34):
                assert_bit_identical(ops, ledger)

    def test_tiered_multi_hop_lowering(self, small_cnn, platform):
        """NVMe placements produce chained d2h->d2s / s2d->h2d hops; the
        engine and the oracle must still agree exactly."""
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 64)
        hier = three_tier_hierarchy(device=device)
        n = len(small_cnn)
        blocks = [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]
        plan = make_plan(small_cnn.name, 64, blocks, [S, S, R],
                         placements={0: 2, 1: 1})
        costs = block_costs(plan.blocks, cost, hierarchy=hier,
                            placements=plan.placements)
        ops = compile_plan(plan, costs)
        assert any(op.resource in ("d2s", "s2d") for op in ops)
        for ledger in (None, 2 ** 40, 2 ** 34):
            assert_bit_identical(ops, ledger)


@pytest.mark.parametrize("name", sorted(REGISTRY))
class TestRegistryPlanStreams:
    """Plan-level bit-identity for every registered model's op stream."""

    def _compiled(self, name, platform, placements=None, hierarchy=None):
        device, _, transfer = platform
        graph = build(name)
        cost = profile_graph(graph, device, transfer, 16)
        n = len(graph)
        bounds = np.linspace(0, n, 9).astype(int)
        blocks = [(int(s), int(e)) for s, e in zip(bounds, bounds[1:])
                  if e > s]
        # alternate swap/recompute, keep the tail resident (real plans do)
        policies = [S if i % 2 == 0 else C for i in range(len(blocks))]
        policies[-1] = R
        plan = make_plan(graph.name, 16, blocks, policies,
                         placements=placements)
        costs = block_costs(plan.blocks, cost, hierarchy=hierarchy,
                            placements=plan.placements)
        return compile_plan(plan, costs)

    def test_two_tier_stream_bit_identical(self, name, platform):
        ops = self._compiled(name, platform)
        for ledger in (None, 2 ** 40):
            assert_bit_identical(ops, ledger)

    def test_tiered_stream_bit_identical(self, name, platform):
        device, _, _ = platform
        hier = three_tier_hierarchy(device=device)
        ops = self._compiled(name, platform, placements={0: 2},
                             hierarchy=hier)
        assert_bit_identical(ops, None)


def _fit_both(events, capacity, need, not_before):
    """``earliest_fit`` of the engine's ledger, held to the seed ledger's
    answer over the same recorded events."""
    ledger = _MemoryLedger(capacity)
    ref = _ReferenceMemoryLedger(capacity)
    for time, delta in events:
        ledger.record(time, delta)
        ref.record(time, delta)
    got = ledger.earliest_fit(need, not_before)
    assert got == ref.earliest_fit(need, not_before)
    return got


class TestLedgerEdgeCases:
    """The walk-back fit at each of its exits, pinned to the seed ledger
    (capacity 100, need 50: the budget is usage <= 50)."""

    def test_fit_at_not_before(self):
        assert _fit_both([(0.0, 30), (5.0, -30)], 100, 50, 2.0) == 2.0

    def test_fit_after_last_over_budget_event(self):
        # usage 10 at not_before fits, but the acquire at 3.0 would
        # oversubscribe: room opens at the release after it
        events = [(0.0, 10), (3.0, 60), (5.0, -20), (6.0, -50)]
        assert _fit_both(events, 100, 50, 1.0) == 5.0
        # usage at not_before is the only thing over budget
        assert _fit_both([(0.0, 60), (4.0, -20)], 100, 50, 1.0) == 4.0

    def test_none_when_last_event_over_budget(self):
        assert _fit_both([(0.0, 10), (3.0, 80)], 100, 50, 1.0) is None

    def test_none_past_every_event_with_usage_over_budget(self):
        assert _fit_both([(0.0, 80)], 100, 50, 10.0) is None
        assert _fit_both([(0.0, 80), (2.0, -10)], 100, 50, 2.0) is None

    def test_same_instant_acquire_and_release_net_to_zero(self):
        events = [(0.0, 40), (2.0, 30), (2.0, -30)]
        assert _fit_both(events, 100, 60, 2.0) == 2.0
        assert _fit_both(events, 100, 61, 1.0) is None
        ledger = _MemoryLedger(100)
        for time, delta in events:
            ledger.record(time, delta)
        assert ledger._times == [0.0, 2.0] and ledger.total == 40

    def test_empty_ledger_and_zero_need(self):
        assert _fit_both([], 100, 50, 3.0) == 3.0
        assert _fit_both([(0.0, 100)], 100, 0, 3.0) == 3.0

    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.5]),
                              st.integers(-120, 120)), max_size=30),
           st.integers(1, 100),
           st.sampled_from([0.0, 0.25, 1.0, 2.0, 4.0, 9.0]))
    @settings(deadline=None)
    def test_property_matches_seed_ledger(self, events, need, not_before):
        _fit_both(events, 100, need, not_before)


class TestScheduleBuilder:
    def test_symbolic_resolution_and_final_hop(self):
        b = ScheduleBuilder()
        first = b.emit("d2h", 1.0, key=("Sout", 0), label="hop1")
        b.emit("d2s", 2.0, key=("Sout", 0), deps=[first], label="hop2")
        b.emit("gpu", 1.0, deps=[("Sout", 0)], label="B1")
        ops = b.build()
        # the dep resolved against the *final* emission of the key
        assert ops[2].deps == (1,)
        assert b.id_of(("Sout", 0)) == 1
        assert ("Sout", 0) in b and ("Sin", 0) not in b

    def test_missing_symbolic_dep_dropped_or_raises(self):
        b = ScheduleBuilder()
        b.emit("gpu", 1.0, deps=[("never", 1)], label="ok")
        assert b.build()[0].deps == ()
        b2 = ScheduleBuilder()
        b2.emit("gpu", 1.0, deps=[("never", 1)], label="R1",
                require_deps=True)
        with pytest.raises(SimulationDeadlock):
            b2.build()


class TestLoweringCache:
    def _ctx(self, small_cnn, platform, batch=64):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, batch)
        return cost, device.usable_memory

    def test_cached_results_value_transparent(self, small_cnn, platform):
        cost, cap = self._ctx(small_cnn, platform)
        cache = LoweringCache(cost, cap)
        n = len(small_cnn)
        blocks = [(0, n // 2), (n // 2, n)]
        plan = make_plan(small_cnn.name, 64, blocks, [S, R])
        plain = simulate_plan(plan, cost, cap)
        miss = simulate_plan(plan, cost, cap, cache=cache)
        hit = simulate_plan(plan, cost, cap, cache=cache)
        for res in (miss, hit):
            assert res.makespan == plain.makespan
            assert res.total_stall == plain.total_stall
            assert res.gpu_occupancy == plain.gpu_occupancy
            assert res.bw_block_stalls == plain.bw_block_stalls
        assert cache.hits == 1 and cache.misses == 1
        assert hit.plan is plan   # the hit re-carries the caller's plan

    def test_cached_pricing_is_slim(self, small_cnn, platform):
        """Only the uncached call carries the SimResult; the cache keeps
        the result's fields, so a hit and a miss read the same."""
        cost, cap = self._ctx(small_cnn, platform)
        cache = LoweringCache(cost, cap)
        n = len(small_cnn)
        plan = make_plan(small_cnn.name, 64, [(0, n // 2), (n // 2, n)],
                         [S, R])
        assert simulate_plan(plan, cost, cap).sim is not None
        miss = simulate_plan(plan, cost, cap, cache=cache)
        hit = simulate_plan(plan, cost, cap, cache=cache)
        assert miss.sim is None and hit.sim is None
        assert miss == hit and miss.plan is plan

    def test_skeleton_reuse_across_boundaries(self, small_cnn, platform):
        """Same policy structure, shifted boundary: skeleton reused,
        durations re-bound, values still exact."""
        cost, cap = self._ctx(small_cnn, platform)
        cache = LoweringCache(cost, cap)
        n = len(small_cnn)
        for mid in (n // 2, n // 2 + 1):
            plan = make_plan(small_cnn.name, 64, [(0, mid), (mid, n)],
                             [S, R])
            cached = simulate_plan(plan, cost, cap, cache=cache)
            assert cached.makespan == simulate_plan(plan, cost,
                                                    cap).makespan
        assert cache.skeleton_hits >= 1

    def test_infeasible_outcome_cached(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, 8)
        cache = LoweringCache(cost, 1000.0)
        plan = make_plan(small_cnn.name, 8, [(0, len(small_cnn))], [R])
        from repro.sim import OutOfCoreInfeasible
        messages = []
        for _ in range(2):
            with pytest.raises(OutOfCoreInfeasible) as info:
                simulate_plan(plan, cost, 1000.0, cache=cache)
            messages.append(str(info.value))
        # the second raise is a counted hit, re-raised with the same text
        assert cache.hits == 1 and cache.misses == 1
        assert messages[0] == messages[1]

    def test_mismatched_context_rejected(self, small_cnn, platform):
        cost, cap = self._ctx(small_cnn, platform)
        cache = LoweringCache(cost, cap)
        plan = make_plan(small_cnn.name, 64,
                         [(0, len(small_cnn))], [R])
        with pytest.raises(ValueError):
            simulate_plan(plan, cost, cap / 2, cache=cache)


class TestSimResultCaches:
    def test_idle_gaps_cached_and_stable(self):
        ops = [SimOp(0, "gpu", 1.0),
               SimOp(1, "h2d", 3.0),
               SimOp(2, "gpu", 1.0, deps=(1,))]
        res = simulate(ops)
        first = res.idle_gaps("gpu")
        assert first == [(1.0, 3.0)]
        assert res.idle_gaps("gpu") == first
        assert res.resource_timings("gpu") is res.resource_timings("gpu")
        assert res.occupancy("gpu") == pytest.approx(0.5)


class TestExecutorLeakGuard:
    def _setup(self, policies):
        import numpy as np
        from repro.hardware import GiB, MemorySpace
        from repro.nn import ExecutableModel
        from tests.helpers import build_small_cnn

        graph = build_small_cnn()
        m = ExecutableModel(graph, dtype=np.float64, seed=3)
        n = len(graph)
        plan = make_plan(graph.name, 8, [(0, n // 2), (n // 2, n)],
                         policies)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3, 16, 16))
        y = rng.integers(0, 5, 8)
        return m, plan, MemorySpace(2 * GiB, 16 * GiB), x, y

    def test_clean_plan_does_not_raise(self):
        from repro.runtime.executor import OutOfCoreExecutor
        m, plan, space, x, y = self._setup([S, R])
        loss = OutOfCoreExecutor(m, plan, space).run_iteration(x, y)
        assert math.isfinite(loss)
        assert space.near.bytes_in_use == 0

    def test_leak_raises_and_names_layers(self, monkeypatch):
        from repro.runtime.executor import OutOfCoreExecutor
        m, plan, space, x, y = self._setup([S, R])
        ex = OutOfCoreExecutor(m, plan, space)
        orig = OutOfCoreExecutor._backward_block

        def skip_free(self, block):  # simulate a buggy executor/plan
            orig(self, block)
            if block == 0:
                name = self.graph[0].name
                self.acts[name] = x
                self._charge(name)
        monkeypatch.setattr(OutOfCoreExecutor, "_backward_block", skip_free)
        with pytest.raises(OutOfCorePlanError, match="leaked"):
            ex.run_iteration(x, y)
        # accounting was restored before raising
        assert space.near.bytes_in_use == 0

        tolerant = OutOfCoreExecutor(m, plan, space, allow_leaks=True)
        loss = tolerant.run_iteration(x, y)
        assert math.isfinite(loss)
        assert space.near.bytes_in_use == 0
