"""Simulation-engine benchmarks: the production engine vs the seed
engine, and batched candidate evaluation through the lowering cache.

The discrete-event simulator is the objective function of the blocking /
portfolio search, so planner throughput is bounded by ``simulate()`` —
the one engine the planner runs.  This bench prices the two remedies
this repo ships:

1. **engine** — ``repro.sim.engine.simulate`` (one greedy pass loop
   with indegree wakeups, plus the incremental ledger when one is given)
   against the seed round-robin oracle preserved in
   ``repro.sim.reference_engine``, on a steady-state 3-iteration stream
   of a 64-block, 3-tier (HBM/DRAM/NVMe) ResNet-200 plan sweep.  Every
   simulated grid point is asserted **bit-identical** between the two
   engines; the speedup bar is >= 10x (the seed ledger is
   O(events^2) per simulation, so the gap widens with stream length).
2. **batched evaluation** — the same candidate grid priced through the
   evaluator's makespan memo and the shared
   :class:`~repro.sim.trainer_sim.LoweringCache` (result reuse +
   skeleton re-binding) vs. rebuilding every plan from scratch.

Emits ``BENCH_engine.json`` with the gated key metrics (see
``benchmarks/baselines/key_metrics.json``): the engine speedup, the
serial simulation throughput in ops/sec, and the batched-eval speedup.
Baselines are committed with generous headroom — the in-bench asserts
are the hard floor; the gate exists to catch order-of-magnitude
regressions (e.g. reintroducing a quadratic ledger) on top of them.
"""

import time

from repro.core import BlockPolicy, make_plan
from repro.core.blocking import CandidateEvaluator, build_inputs
from repro.core.solver import portfolio_search
from repro.costs import profile_graph
from repro.hardware import TransferModel, abci_host, karma_swap_link
from repro.hardware.spec import v100_sxm2_16gb
from repro.hardware.tiering import abci_hierarchy
from repro.models import build
from repro.sim import (
    SimOp,
    block_costs,
    compile_plan,
    simulate,
    simulate_reference,
)
from repro.sim.trainer_sim import _stash_ledger_capacity

S, R = BlockPolicy.SWAPPED, BlockPolicy.RESIDENT

NUM_BLOCKS = 64
BATCH = 96
STEADY_STATE_ITERATIONS = 3
#: (resident suffix, NVMe stride) grid — the margin/placement shape of the
#: blocking search's sweep, pinned to feasible points (larger resident
#: suffixes deadlock on the stash ledger at this batch) so the bench is
#: deterministic
SWEEP = ((4, 2), (4, 3), (4, 4), (8, 2), (8, 3), (8, 4))


def _sixty_four_block_plans():
    """The 64-block, 3-tier ResNet-200 sweep: compiled op streams +
    ledger capacities for each grid point."""
    graph = build("resnet200")
    device = v100_sxm2_16gb()
    transfer = TransferModel(link=karma_swap_link(), device=device,
                             host=abci_host())
    cost = profile_graph(graph, device, transfer, BATCH)
    hier = abci_hierarchy()
    n = len(graph)
    bounds = [round((i + 1) * n / NUM_BLOCKS) for i in range(NUM_BLOCKS)]
    blocks = list(zip([0] + bounds[:-1], bounds))
    cases = []
    for resident_suffix, nvme_stride in SWEEP:
        swapped = NUM_BLOCKS - resident_suffix
        policies = [S] * swapped + [R] * resident_suffix
        placements = {b: (2 if b % nvme_stride == 0 else 1)
                      for b in range(swapped)}
        plan = make_plan(graph.name, BATCH, blocks, policies,
                         placements=placements)
        costs = block_costs(plan.blocks, cost, hierarchy=hier,
                            placements=plan.placements)
        ledger = _stash_ledger_capacity(plan, costs, cost,
                                        device.usable_memory)
        cases.append((compile_plan(plan, costs), ledger))
    return cases


def _unroll(ops, iterations):
    """Steady-state stream: ``iterations`` back-to-back copies of one
    iteration's ops; iteration k+1's root ops wait for iteration k's last
    GPU op (the optimizer step boundary)."""
    out = []
    nops = len(ops)
    last_gpu = max(i for i, op in enumerate(ops) if op.resource == "gpu")
    for k in range(iterations):
        off = k * nops
        for op in ops:
            deps = tuple(d + off for d in op.deps)
            if k and not op.deps:
                deps = (last_gpu + off - nops,)
            out.append(SimOp(op.op_id + off, op.resource, op.duration,
                             deps, op.mem_acquire, op.mem_release,
                             op.label))
    return out


def test_engine_speedup_64block_3tier(bench_writer):
    """Acceptance: the production engine is >= 10x faster than the seed
    engine on the 64-block, 3-tier steady-state sweep, bit-identically."""
    cases = [( _unroll(ops, STEADY_STATE_ITERATIONS), ledger)
             for ops, ledger in _sixty_four_block_plans()]
    total_ops = sum(len(ops) for ops, _ in cases)

    # bit-identical on every grid point (timings, summaries, gap lists)
    for ops, ledger in cases:
        new = simulate(ops, memory_capacity=ledger)
        ref = simulate_reference(ops, memory_capacity=ledger)
        assert new.timings == ref.timings
        assert new.makespan == ref.makespan
        assert new.resource_busy == ref.resource_busy
        assert new.resource_span == ref.resource_span
        assert new.idle_gaps("gpu") == ref.idle_gaps("gpu")

    def sweep(engine, reps):
        # min-of-N: robust to transient load from earlier bench modules
        # sharing the pytest process / CI runner
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            for ops, ledger in cases:
                engine(ops, memory_capacity=ledger)
            best = min(best, time.perf_counter() - t0)
        return best

    sweep(simulate, 1)  # warm up
    new_s = sweep(simulate, 5)
    ref_s = sweep(simulate_reference, 3)
    speedup = ref_s / new_s
    ops_per_sec = total_ops / new_s
    print(f"\n64-block 3-tier sweep ({len(cases)} plans x "
          f"{STEADY_STATE_ITERATIONS} iterations, {total_ops} ops): "
          f"engine {new_s * 1e3:.1f} ms, reference "
          f"{ref_s * 1e3:.1f} ms ({speedup:.1f}x, "
          f"{ops_per_sec:,.0f} ops/s)")
    bench_writer.emit("engine", {
        "sweep.plans": len(cases),
        "sweep.total_ops": total_ops,
        "sweep.event_heap_s": new_s,
        "sweep.reference_s": ref_s,
        "engine_speedup_64b_3tier": speedup,
        "sim_ops_per_sec": ops_per_sec,
        "bit_identical": True,
    })
    assert speedup >= 10.0, \
        f"production engine only {speedup:.1f}x faster than the seed engine"


def test_single_iteration_speedup(bench_writer):
    """One-iteration pricing (the search's unit of work): reported for
    the perf trajectory, no >= 10x bar (the quadratic gap needs stream
    length to open up)."""
    cases = _sixty_four_block_plans()

    def sweep(engine, reps):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            for ops, ledger in cases:
                engine(ops, memory_capacity=ledger)
            best = min(best, time.perf_counter() - t0)
        return best

    sweep(simulate, 1)
    new_s = sweep(simulate, 10)
    ref_s = sweep(simulate_reference, 3)
    print(f"\nsingle-iteration sweep: engine {new_s * 1e3:.2f} ms, "
          f"reference {ref_s * 1e3:.2f} ms ({ref_s / new_s:.1f}x)")
    bench_writer.emit("engine", {
        "single_iter.event_heap_s": new_s,
        "single_iter.reference_s": ref_s,
        "single_iter.speedup": ref_s / new_s,
    })
    assert ref_s / new_s >= 3.0


def test_batched_eval_speedup(bench_writer):
    """The portfolio grid priced through the shared lowering cache vs
    rebuilding every candidate from scratch (both on the new engine, so
    the ratio isolates the batching)."""
    from repro.sim.trainer_sim import simulate_plan

    graph = build("resnet200")
    device = v100_sxm2_16gb()
    transfer = TransferModel(link=karma_swap_link(), device=device,
                             host=abci_host())
    cost = profile_graph(graph, device, transfer, 16)
    hier = abci_hierarchy()
    inputs = build_inputs(graph, cost, device.usable_memory)
    u = inputs.num_segments
    candidates = [list(range(1, u + 1))]
    for k in (8, 16, 32, u // 4 or 2):
        bounds = sorted({round((i + 1) * u / k) for i in range(k)})
        bounds[-1] = u
        candidates.append(bounds)
    dims = ((0.5, 1.0, 2.0), ("bandwidth", "pressure"))

    def fresh_evaluator():
        return CandidateEvaluator(
            inputs=inputs, cost=cost, capacity=device.usable_memory,
            model_name=graph.name, batch_size=16, hierarchy=hier)

    def evaluate_unbatched(bounds, margin, ppolicy,
                           _ev=fresh_evaluator()):
        # same pipeline, no memoization anywhere: realize + place via a
        # throwaway evaluator state, then an uncached simulate_plan
        blocks, policies = _ev.realize(list(bounds), margin)
        _ev._realize_cache.clear()
        placements = _ev.place(blocks, policies, ppolicy)
        _ev._place_cache.clear()
        plan = make_plan(graph.name, 16, blocks, policies,
                         placements=placements)
        return simulate_plan(plan, cost, device.usable_memory,
                             hierarchy=hier).makespan

    # min-of-3: the grid takes ~50-150 ms per pass, thin enough that GC
    # or CI-runner load in a single pass can halve the observed ratio
    unbatched_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        unbatched = portfolio_search(candidates, dims, evaluate_unbatched)
        unbatched_s = min(unbatched_s, time.perf_counter() - t0)

    batched_s = float("inf")
    for _ in range(3):
        evaluator = fresh_evaluator()  # cold caches each pass
        t0 = time.perf_counter()
        batched = portfolio_search(candidates, dims, evaluator)
        batched_s = min(batched_s, time.perf_counter() - t0)

    assert batched.best_value == unbatched.best_value
    assert batched.best_candidate == unbatched.best_candidate
    assert batched.best_dims == unbatched.best_dims
    # evaluator memo hits + lowering result hits: pricings that skipped
    # the simulator
    stats = evaluator.stats()
    speedup = unbatched_s / batched_s
    print(f"\nbatched evaluation ({batched.evaluated} grid points): "
          f"unbatched {unbatched_s * 1e3:.0f} ms, batched "
          f"{batched_s * 1e3:.0f} ms ({speedup:.1f}x; "
          f"{stats['result_hits']} result hits, "
          f"{stats['skeleton_hits']} skeleton hits)")
    bench_writer.emit("engine", {
        "batched.grid_points": batched.evaluated,
        "batched.unbatched_s": unbatched_s,
        "batched.batched_s": batched_s,
        "batched_eval_speedup": speedup,
        "batched.result_hits": stats["result_hits"],
        "batched.skeleton_hits": stats["skeleton_hits"],
        "batched.identical_winner": True,
    })
    # floor chosen below the ~2.4-3x typically measured: the wall-clock
    # ratio is load-sensitive even with min-of-3 on shared CI runners
    assert speedup >= 1.5, \
        f"batched evaluation only {speedup:.1f}x faster"
