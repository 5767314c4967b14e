"""Planner-daemon benchmarks: hot-tier latency, single-flight, saturation.

The multi-tenant service layer (PR 7) claims three things worth pricing:

1. **hot-tier latency** — a repeated request served from the daemon's
   in-process LRU must be orders of magnitude faster than a cold plan
   (it skips the queue, the planner, and the disk cache entirely);
2. **single-flight merging** — K identical concurrent requests collapse
   onto one planner invocation; the merge ratio (K-1)/K is asserted
   bit-exactly, stampede protection is not probabilistic;
3. **saturated throughput** — under sustained load the bounded queue
   must keep serving (shedding the overflow with typed rejections),
   so completed requests per second stays high instead of collapsing.

Key metrics (``key_metrics.json``): ``warm_hit_latency_ms`` (lower),
``singleflight_merge_ratio`` (higher), ``saturated_throughput_rps``
(higher).  Baselines are committed with generous headroom — shared CI
runners jitter; the gate is for collapses, not microseconds.
"""

import json
import threading
import time
from typing import Any, Dict, List

from repro.cache import PlanCache
from repro.obs.metrics import METRICS
from repro.service import PlannerDaemon, QueueFull, ServiceConfig

#: The configuration planned by every request in this bench.
CONFIG = {"model": "unet", "batch": 8}


def _merges() -> float:
    return METRICS.snapshot()["counters"].get(
        "service.singleflight_merges", 0.0)


def test_hot_tier_latency(benchmark, bench_writer, tmp_path):
    """Hot-LRU hits through the daemon: the repeated-request fast path."""
    cache = PlanCache(cache_dir=tmp_path / "plans")
    with PlannerDaemon(cache=cache) as daemon:
        t0 = time.perf_counter()
        cold = daemon.request(CONFIG)
        cold_s = time.perf_counter() - t0
        assert cold.tier == "cold"

        hot = benchmark(lambda: daemon.request(CONFIG))
        assert hot.tier == "hot"
        assert hot.record == cold.record
        warm_s = benchmark.stats.stats.mean

    speedup = cold_s / warm_s if warm_s else float("inf")
    print(f"\nhot tier: cold {cold_s * 1e3:.1f} ms -> hot "
          f"{warm_s * 1e6:.0f} us ({speedup:.0f}x)")
    bench_writer.emit("service", {
        "warm_hit_latency_ms": warm_s * 1e3,
        "cold_latency_ms": cold_s * 1e3,        # informational
        "hot_speedup": speedup,                 # informational
    })


def test_singleflight_merge_ratio(bench_writer):
    """K identical concurrent requests -> exactly one plan, K-1 merges."""
    K = 16
    gate = threading.Event()
    calls: List[Dict[str, Any]] = []

    def planner(config: Dict[str, Any]) -> Dict[str, Any]:
        calls.append(config)
        assert gate.wait(30)
        return {"cache": "miss", **config}

    merges0 = _merges()
    with PlannerDaemon(ServiceConfig(queue_depth=K, service_workers=2),
                       planner=planner) as daemon:
        results: List[Any] = []
        lock = threading.Lock()

        def go():
            r = daemon.request(CONFIG)
            with lock:
                results.append(r)

        threads = [threading.Thread(target=go) for _ in range(K)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        while _merges() - merges0 < K - 1 \
                and time.monotonic() < deadline:
            time.sleep(0.002)
        gate.set()
        for t in threads:
            t.join()

    assert len(calls) == 1, f"stampede planned {len(calls)} times"
    blobs = {json.dumps(r.record, sort_keys=True) for r in results}
    assert len(blobs) == 1
    ratio = (K - 1) / K
    print(f"\nsingle-flight: {K} concurrent identical requests, "
          f"{len(calls)} plan, merge ratio {ratio:.4f}")
    bench_writer.emit("service", {"singleflight_merge_ratio": ratio})


def test_saturated_queue_throughput(bench_writer):
    """Sustained overload: completed rps stays up, overflow is shed."""
    work_s = 0.002

    def planner(config: Dict[str, Any]) -> Dict[str, Any]:
        time.sleep(work_s)
        return {"cache": "miss", **config}

    cfg = ServiceConfig(queue_depth=8, service_workers=2,
                        hot_capacity=1)   # distinct configs anyway
    completed = [0]
    shed = [0]
    lock = threading.Lock()
    # more synchronous clients than workers + queue slots (2 + 8), so the
    # overflow genuinely sheds instead of merely queueing
    n_clients, per_client = 14, 30

    with PlannerDaemon(cfg, planner=planner) as daemon:
        t0 = time.perf_counter()

        def client(cid: int) -> None:
            for i in range(per_client):
                try:
                    daemon.request({"model": "m", "batch": cid * 1000 + i})
                    with lock:
                        completed[0] += 1
                except QueueFull:
                    with lock:
                        shed[0] += 1

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0

    total = n_clients * per_client
    rps = completed[0] / wall
    ideal = cfg.service_workers / work_s
    print(f"\nsaturation: {total} requests from {n_clients} clients in "
          f"{wall:.2f} s -> {completed[0]} served ({rps:.0f} rps, ideal "
          f"{ideal:.0f}), {shed[0]} shed with queue_full")
    assert completed[0] + shed[0] == total   # nothing lost or hung
    assert completed[0] > 0
    bench_writer.emit("service", {
        "saturated_throughput_rps": rps,
        "saturated_shed_requests": float(shed[0]),   # informational
    })
