"""Planning-service benchmarks: cold vs warm planning, sweep, manifest.

PR 1 made the blocking search combinatorial (boundaries x margins x
placement policies), so planning is the hot path between a (model,
hardware) configuration and a running job.  This bench prices the three
remedies the planning service layer provides:

1. **warm cache** — replanning the ResNet-200 example configuration
   through the content-addressed plan cache must be >= 10x faster than
   the cold search (the acceptance bar; in practice it is 100-300x);
2. **portfolio sweep** — the ResNet-200 Opt-1 grid priced in one
   process through one evaluator (its lowering cache amortizes grid
   points that realize the same plan), timed;
3. **parallel manifest** — planning independent configurations
   concurrently through the CLI service layer, the fleet-planning path.
"""

import time


from repro.cache import PlanCache
from repro.cli import _plan_config_task, plan_config
from repro.core import plan
from repro.core.blocking import (
    CandidateEvaluator,
    _uniform_bounds,
    build_inputs,
    make_problem,
)
from repro.core.solver import portfolio_search, solve_dp
from repro.costs import profile_graph
from repro.hardware import TransferModel, abci_host, karma_swap_link
from repro.hardware.spec import v100_sxm2_16gb
from repro.hardware.tiering import abci_hierarchy
from repro.models import build

import math

#: The ResNet-200 example configuration (examples/resnet200_out_of_core.py
#: plans this exact point at its largest batch).
RESNET200_BATCH = 16

MANIFEST = (
    {"model": "resnet200", "batch": 16},
    {"model": "resnet200", "batch": 20},
    {"model": "vgg16", "batch": 96},
    {"model": "unet", "batch": 24},
)


def test_warm_cache_speedup(benchmark, bench_writer, tmp_path):
    """Acceptance: warm-cache planning >= 10x faster than cold on the
    ResNet-200 example config."""
    graph = build("resnet200")
    cache = PlanCache(cache_dir=tmp_path)

    t0 = time.perf_counter()
    cold = plan(graph, batch_size=RESNET200_BATCH, cache=cache)
    cold_s = time.perf_counter() - t0
    assert not cold.cache_hit

    # disk-only warm hit: a fresh cache instance models a fresh process
    fresh = PlanCache(cache_dir=tmp_path)
    t0 = time.perf_counter()
    warm = plan(graph, batch_size=RESNET200_BATCH, cache=fresh)
    warm_disk_s = time.perf_counter() - t0
    assert warm.cache_hit
    assert warm.plan.plan_string() == cold.plan.plan_string()
    assert warm.blocking.objective == cold.blocking.objective

    # in-memory warm hit, measured properly by pytest-benchmark
    warm_mem = benchmark(lambda: plan(graph, batch_size=RESNET200_BATCH,
                                      cache=fresh))
    assert warm_mem.cache_hit
    warm_s = benchmark.stats.stats.mean

    speedup_disk = cold_s / warm_disk_s
    speedup_mem = cold_s / warm_s
    print(f"\nResNet-200 @ batch {RESNET200_BATCH}: cold {cold_s:.3f} s, "
          f"warm(disk) {warm_disk_s * 1e3:.1f} ms ({speedup_disk:.0f}x), "
          f"warm(mem) {warm_s * 1e3:.1f} ms ({speedup_mem:.0f}x)")
    bench_writer.emit("plan_cache", {
        "resnet200.cold_plan_s": cold_s,
        "resnet200.warm_disk_plan_s": warm_disk_s,
        "resnet200.warm_mem_plan_s": warm_s,
        "resnet200.warm_disk_speedup": speedup_disk,
        "resnet200.warm_mem_speedup": speedup_mem,
        "resnet200.search_s": cold.search_time,
    })
    assert speedup_disk >= 10.0, \
        f"warm-cache planning only {speedup_disk:.1f}x faster than cold"
    assert speedup_mem >= 10.0


def test_portfolio_sweep_timed(bench_writer):
    """The ResNet-200 Opt-1 portfolio sweep on a tiered hierarchy, timed."""
    graph = build("resnet200")
    device = v100_sxm2_16gb()
    transfer = TransferModel(link=karma_swap_link(), device=device,
                             host=abci_host())
    cost = profile_graph(graph, device, transfer, RESNET200_BATCH)
    inputs = build_inputs(graph, cost, device.usable_memory)
    u = inputs.num_segments
    problem = make_problem(inputs)
    evaluator = CandidateEvaluator(
        inputs=inputs, cost=cost, capacity=device.usable_memory,
        model_name=graph.name, batch_size=RESNET200_BATCH,
        hierarchy=abci_hierarchy())

    candidates = [solve_dp(problem), list(range(1, u + 1))]
    overflow = inputs.seg_stash.sum() / max(1, inputs.ledger_capacity)
    for k in {max(2, int(math.ceil(2 * overflow))), 8, 16, u // 4 or 2}:
        candidates.append(_uniform_bounds(u, k))
    dims = ((0.5, 1.0, 2.0), ("bandwidth", "pressure"))

    t0 = time.perf_counter()
    sweep = portfolio_search(candidates, dims, evaluator)
    sweep_s = time.perf_counter() - t0

    assert sweep.best_candidate is not None
    print(f"\nportfolio sweep ({sweep.evaluated} grid points): "
          f"{sweep_s:.3f} s")
    bench_writer.emit("plan_cache", {
        "sweep.grid_points": sweep.evaluated,
        "sweep.serial_s": sweep_s,
    })


def test_parallel_manifest_speedup(bench_writer, tmp_path, grids):
    """Fleet planning: independent configurations across processes.

    Result equality is asserted unconditionally; the wall-clock speedup
    bar only applies when the host actually has >= 2 cores (a single-core
    runner pays pool overhead for no possible gain).
    """
    from concurrent.futures import ProcessPoolExecutor
    import multiprocessing as mp
    import os

    configs = MANIFEST if grids else MANIFEST[:3]
    cores = len(os.sched_getaffinity(0))

    def tasks(subdir):
        return [{"config": dict(c), "cache_dir": str(tmp_path / subdir),
                 "use_cache": True, "n_workers": 1} for c in configs]

    t0 = time.perf_counter()
    serial = [_plan_config_task(t) for t in tasks("serial")]
    serial_s = time.perf_counter() - t0

    ctx = mp.get_context("fork")
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=len(configs),
                             mp_context=ctx) as pool:
        parallel = list(pool.map(_plan_config_task, tasks("parallel")))
    par_s = time.perf_counter() - t0

    assert not any("error" in r for r in serial + parallel)
    for a, b in zip(serial, parallel):
        assert a["plan_string"] == b["plan_string"]
        assert a["makespan_s"] == b["makespan_s"]
    speedup = serial_s / par_s
    print(f"\nmanifest of {len(configs)} configs on {cores} core(s): "
          f"serial {serial_s:.2f} s, parallel {par_s:.2f} s "
          f"({speedup:.2f}x)")
    bench_writer.emit("plan_cache", {
        "manifest.configs": len(configs),
        "manifest.cores": cores,
        "manifest.serial_s": serial_s,
        "manifest.parallel_s": par_s,
        "manifest.parallel_speedup": speedup,
    })
    if cores >= 2:
        assert speedup > 1.2, \
            f"parallel manifest planning not faster ({speedup:.2f}x)"


def test_cli_service_reports_cache_state(tmp_path):
    """The CLI result records carry hit/miss + wall time (the service
    contract examples and CI smoke rely on)."""
    cfg = {"model": "unet", "batch": 16}
    first = plan_config(cfg, cache_dir=str(tmp_path))
    second = plan_config(cfg, cache_dir=str(tmp_path))
    assert first["cache"] == "miss" and second["cache"] == "hit"
    assert second["wall_s"] < first["wall_s"]
    assert first["search_s"] > 0
