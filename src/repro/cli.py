"""``python -m repro`` — the planning service front door.

Examples, benchmarks, and ad-hoc studies all need the same thing: a KARMA
plan for a (model, hardware) configuration, fast.  This CLI plans one
configuration or a batch manifest, reports cache hit/miss and search
wall-time per configuration, and shares the content-addressed plan cache
(:mod:`repro.cache`) with every other caller.

Usage::

    python -m repro plan --model resnet200 --batch 16
    python -m repro plan --model resnet200 --batch 16 --hierarchy abci
    python -m repro plan --manifest configs.json --workers 4
    python -m repro cache info
    python -m repro cache clear
    python -m repro validate
    python -m repro validate --config cnn gpt --target-wall 0.5 --json
    python -m repro elastic --steps 12 --world 4 --dirty-rate 0.5
    python -m repro trace unet --server /tmp/planner.sock --hierarchy abci
    python -m repro top /tmp/planner.sock --interval 1

A manifest is a JSON list of configuration objects (or ``{"configs":
[...]}``); each object takes the same keys as the single-config flags::

    [{"model": "resnet200", "batch": 16, "hierarchy": "abci"},
     {"model": "unet", "batch": 16}]

With ``--workers N`` a manifest is planned N configurations at a time in
separate processes (each full search is independent); one configuration
is always planned in the calling process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HIERARCHIES = ("none", "two-tier", "abci", "tiny")
LINKS = ("calibrated", "pcie", "nvlink")


def _resolve_hierarchy(name: str):
    from .hardware.tiering import (
        abci_hierarchy,
        tiny_test_hierarchy,
        two_tier_hierarchy,
    )

    if name == "none":
        return None
    if name == "two-tier":
        return two_tier_hierarchy()
    if name == "abci":
        return abci_hierarchy()
    if name == "tiny":
        return tiny_test_hierarchy()
    raise ValueError(f"unknown hierarchy {name!r}; choose from {HIERARCHIES}")


def _resolve_transfer(link: str):
    from .hardware.interconnect import TransferModel
    from .hardware.spec import (
        abci_host,
        karma_swap_link,
        nvlink2,
        pcie_gen3_x16,
        v100_sxm2_16gb,
    )

    links = {"calibrated": karma_swap_link, "pcie": pcie_gen3_x16,
             "nvlink": nvlink2}
    if link not in links:
        raise ValueError(f"unknown link {link!r}; choose from {LINKS}")
    device = v100_sxm2_16gb()
    return device, TransferModel(link=links[link](), device=device,
                                 host=abci_host())


def plan_config_full(config: Dict[str, Any], *,
                     cache_dir: Optional[str] = None,
                     use_cache: bool = True,
                     cache: Optional[Any] = None,
                     structure: Optional[Any] = None
                     ) -> "Tuple[Dict[str, Any], Any]":
    """Plan one configuration dict; returns ``(record, KarmaPlan)``.

    The record is the JSON-ready summary; the
    :class:`~repro.core.planner.KarmaPlan` carries the full plan and
    cost model for callers that keep going (trace export compiles and
    simulates it).  Session-cumulative cache counters are flushed to the
    cache's sidecar before returning.  Passing an existing ``cache``
    instance (the planner daemon's shared warm tier) overrides
    ``cache_dir``/``use_cache``; flushing is then the owner's job.
    ``structure`` is the :class:`~repro.sim.trainer_sim.StructureCache`
    a cold search lowers through (the daemon's, kept for its life);
    omitted, the search uses a fresh one.
    """
    from .cache.plan_cache import PlanCache
    from .core.planner import plan
    from .hardware.tiering import STORAGE_TIER
    from .models.registry import build
    from .tiering.placement import swapped_stash_bytes

    model = config["model"]
    batch = int(config["batch"])
    graph = build(model)
    device, transfer = _resolve_transfer(config.get("link", "calibrated"))
    hierarchy = _resolve_hierarchy(config.get("hierarchy", "none"))
    capacity = config.get("capacity")
    owns_cache = cache is None
    if cache is None and use_cache:
        cache = PlanCache(cache_dir=Path(cache_dir) if cache_dir else None)

    t0 = time.perf_counter()
    kp = plan(graph, batch_size=batch, device=device, transfer=transfer,
              recompute=bool(config.get("recompute", True)),
              method=config.get("method", "auto"),
              max_span=int(config.get("max_span", 64)),
              capacity=float(capacity) if capacity is not None else None,
              hierarchy=hierarchy,
              placement_policy=config.get("placement", "auto"),
              cache=cache, structure=structure)
    wall = time.perf_counter() - t0
    if cache is not None and owns_cache:
        cache.flush_session_stats()

    tier_bytes: Dict[str, int] = {}
    placement_tiers = getattr(kp.placement, "tier_bytes", None)
    if placement_tiers:
        tier_bytes = {str(t): int(n)
                      for t, n in sorted(placement_tiers.items())}
    elif kp.plan.swapped:
        # no explicit tier placement: every swapped stash lands in DRAM
        stash = swapped_stash_bytes(list(kp.plan.blocks),
                                    list(kp.plan.policies), kp.cost)
        tier_bytes = {"1": int(sum(stash.values()))}

    record = {
        "model": model,
        "batch": batch,
        "hierarchy": config.get("hierarchy", "none"),
        "method": kp.blocking.method,
        "cache": ("off" if cache is None
                  else "hit" if kp.cache_hit else "miss"),
        "cache_key": kp.cache_key,
        "wall_s": round(wall, 6),
        "search_s": round(kp.search_time, 6),
        "makespan_s": kp.blocking.objective,
        "blocks": kp.plan.num_blocks,
        "swapped": len(kp.plan.swapped),
        "recomputed": len(kp.plan.recomputed),
        "resident": len(kp.plan.resident),
        "storage_blocks": sorted(b for b, t in kp.plan.placements.items()
                                 if t >= STORAGE_TIER),
        "tier_bytes": tier_bytes,
        "rejected_grid_points": len(kp.blocking.rejected),
        "plan_string": kp.plan.plan_string(),
    }
    return record, kp


def plan_config(config: Dict[str, Any], *,
                cache_dir: Optional[str] = None,
                use_cache: bool = True) -> Dict[str, Any]:
    """Plan one configuration dict; returns a JSON-ready result record.

    This is the service call the CLI, examples, and benchmarks go
    through.  Module-level and argument-picklable so batch manifests can
    fan out across processes.
    """
    record, _ = plan_config_full(config, cache_dir=cache_dir,
                                 use_cache=use_cache)
    return record


def _plan_config_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool entry for one manifest configuration.

    Never raises: a failed configuration reports an ``error`` record so
    one infeasible entry cannot sink the rest of the batch.
    """
    try:
        return plan_config(task["config"], cache_dir=task["cache_dir"],
                           use_cache=task["use_cache"])
    except Exception as exc:  # noqa: BLE001 - surfaced in the result record
        return {"model": task["config"].get("model", "?"),
                "batch": task["config"].get("batch", "?"),
                "error": f"{type(exc).__name__}: {exc}"}


def _load_manifest(path: Path) -> List[Dict[str, Any]]:
    data = json.loads(path.read_text())
    if isinstance(data, dict):
        data = data.get("configs", [])
    if not isinstance(data, list) or not all(isinstance(c, dict)
                                             for c in data):
        raise ValueError(f"manifest {path} must be a JSON list of config "
                         "objects (or {'configs': [...]})")
    return data


def _format_result(r: Dict[str, Any]) -> str:
    if "error" in r:
        return (f"  {r['model']:<14} batch {r['batch']:<5} "
                f"FAILED: {r['error']}")
    # served via the planner daemon: show the hit tier (hot/warm/cold)
    tier = f" tier={r['tier']}" if "tier" in r else ""
    return (f"  {r['model']:<14} batch {r['batch']:<5} "
            f"cache={r['cache']:<4}{tier} "
            f"wall={r['wall_s'] * 1e3:9.1f} ms  "
            f"search={r['search_s'] * 1e3:9.1f} ms  "
            f"blocks={r['blocks']:<3} "
            f"S/R/C={r['swapped']}/{r['resident']}/{r['recomputed']}")


# ---------------------------------------------------------------------------
# Observability plumbing shared by plan/validate/trace
# ---------------------------------------------------------------------------

def _compiled_sim(kp: Any, hierarchy: Any) -> Tuple[Any, Any]:
    """Compile a planned configuration and simulate it (ops, SimResult)."""
    from .sim.engine import simulate
    from .sim.trainer_sim import (
        _stash_ledger_capacity,
        block_costs,
        compile_plan,
    )

    costs = block_costs(kp.plan.blocks, kp.cost, hierarchy=hierarchy,
                        placements=kp.plan.placements)
    ledger = _stash_ledger_capacity(kp.plan, costs, kp.cost, kp.capacity)
    ops = compile_plan(kp.plan, costs)
    return ops, simulate(ops, memory_capacity=ledger)


def _export_trace(output: str, spans: Optional[List[Any]] = None,
                  sims: Sequence[Tuple[str, Any]] = (),
                  runtimes: Sequence[Tuple[str, Any]] = ()) -> Path:
    """Assemble planner/sim/runtime tracks into one Perfetto JSON file.

    Each timeline becomes its own trace process: planner spans first,
    then one predicted (sim) process per config, then one measured
    (runtime) process per config — side by side in the viewer.
    """
    from .obs.export import (
        chrome_trace,
        runtime_track_events,
        sim_track_events,
        span_track_events,
        write_chrome_trace,
    )

    events: List[Dict[str, Any]] = []
    pid = 1
    if spans:
        events.extend(span_track_events(spans, pid=pid))
        pid += 1
    for name, sim in sims:
        if sim is None:
            continue
        events.extend(sim_track_events(sim, pid=pid, process_name=name))
        pid += 1
    for name, trace in runtimes:
        if trace is None:
            continue
        events.extend(runtime_track_events(trace, pid=pid,
                                           process_name=name))
        pid += 1
    return write_chrome_trace(output, chrome_trace(events))


def _dump_metrics(path: Optional[str], *, json_mode: bool = False) -> None:
    """Write the process-wide metrics snapshot (``-`` for stdout).

    With ``json_mode`` the file notice goes to stderr so ``--json``
    stdout stays a single machine-readable document.
    """
    if not path:
        return
    from .obs.metrics import METRICS

    text = json.dumps(METRICS.snapshot(), indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n")
        print(f"metrics snapshot written to {path}",
              file=sys.stderr if json_mode else sys.stdout)


def _trace_notice(path: Path, *, json_mode: bool = False) -> None:
    """Tell the user where the trace landed (stderr under ``--json``)."""
    print(f"trace written to {path} "
          "(load in ui.perfetto.dev or chrome://tracing)",
          file=sys.stderr if json_mode else sys.stdout)


def _plan_via_server(args: argparse.Namespace,
                     configs: List[Dict[str, Any]]) -> int:
    """Plan through a running daemon (``serve``) instead of in-process.

    Typed rejections (queue full, deadline expired, ...) become error
    records, mirroring how manifest failures are reported.
    """
    from .service.client import PlannerClient
    from .service.errors import ServiceRejection
    from .service.server import parse_address

    address = parse_address(args.server)
    results: List[Dict[str, Any]] = []
    t0 = time.perf_counter()
    try:
        with PlannerClient(address) as client:
            for config in configs:
                try:
                    reply = client.plan(config, deadline_s=args.deadline,
                                        retries=args.retries)
                except ServiceRejection as exc:
                    results.append({"model": config.get("model", "?"),
                                    "batch": config.get("batch", "?"),
                                    "error": f"{exc.code}: {exc}"})
                    continue
                record = dict(reply.get("record") or {})
                record["tier"] = reply.get("tier", "?")
                record["merged"] = bool(reply.get("merged", False))
                record["wall_s"] = float(reply.get("wall_s", 0.0))
                results.append(record)
    except OSError as exc:
        print(f"error: cannot reach planner daemon at {args.server}: "
              f"{exc}", file=sys.stderr)
        return 2
    total = time.perf_counter() - t0

    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        print(f"planned {len(results)} configuration(s) in {total:.2f} s "
              f"via daemon at {args.server}:")
        for r in results:
            print(_format_result(r))
        errors = sum(1 for r in results if "error" in r)
        merged = sum(1 for r in results if r.get("merged"))
        print(f"  -> {merged} single-flight merge(s), "
              f"{errors} rejection(s)/failure(s)")
    return 1 if any("error" in r for r in results) else 0


def _run_plan(args: argparse.Namespace) -> int:
    if (args.manifest is None) == (args.model is None):
        print("error: provide exactly one of --model or --manifest",
              file=sys.stderr)
        return 2

    if args.manifest is not None:
        configs = _load_manifest(Path(args.manifest))
    else:
        configs = [{"model": args.model, "batch": args.batch,
                    "hierarchy": args.hierarchy, "method": args.method,
                    "recompute": not args.no_recompute,
                    "max_span": args.max_span, "placement": args.placement,
                    "link": args.link,
                    **({"capacity": args.capacity}
                       if args.capacity is not None else {})}]
    use_cache = not args.no_cache
    workers = max(1, args.workers)

    if args.server is not None:
        if args.trace is not None:
            print("error: --trace is not available with --server "
                  "(the daemon owns the planner process)",
                  file=sys.stderr)
            return 2
        return _plan_via_server(args, configs)

    if args.trace is not None:
        if args.manifest is not None:
            print("error: --trace requires a single --model configuration",
                  file=sys.stderr)
            return 2
        from .obs.trace import TRACER

        TRACER.clear()
        TRACER.enable()
        try:
            record, kp = plan_config_full(
                configs[0], cache_dir=args.cache_dir, use_cache=use_cache)
            _, sim = _compiled_sim(kp,
                                   _resolve_hierarchy(args.hierarchy))
            spans = TRACER.drain()
        finally:
            TRACER.disable()
        path = _export_trace(args.trace, spans=spans,
                             sims=[(f"predicted (sim) [{args.model}]",
                                    sim)])
        if args.json:
            print(json.dumps([record], indent=2, sort_keys=True))
        else:
            print(_format_result(record))
        _trace_notice(path, json_mode=args.json)
        _dump_metrics(args.metrics, json_mode=args.json)
        return 0

    t0 = time.perf_counter()
    if args.manifest is not None and workers > 1 and len(configs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            ctx = mp.get_context("spawn")
        tasks = [{"config": c, "cache_dir": args.cache_dir,
                  "use_cache": use_cache} for c in configs]
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=ctx) as pool:
            results = list(pool.map(_plan_config_task, tasks))
    else:
        workers = 1
        results = [_plan_config_task(
            {"config": c, "cache_dir": args.cache_dir,
             "use_cache": use_cache}) for c in configs]
    total = time.perf_counter() - t0

    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        print(f"planned {len(results)} configuration(s) in {total:.2f} s "
              f"({workers} worker(s), cache "
              f"{'off' if not use_cache else 'on'}):")
        for r in results:
            print(_format_result(r))
        hits = sum(1 for r in results if r.get("cache") == "hit")
        misses = sum(1 for r in results if r.get("cache") == "miss")
        errors = sum(1 for r in results if "error" in r)
        print(f"  -> {hits} cache hit(s), {misses} miss(es), "
              f"{errors} failure(s)")
    _dump_metrics(args.metrics, json_mode=args.json)
    return 1 if any("error" in r for r in results) else 0


def _run_cache(args: argparse.Namespace) -> int:
    from .cache.plan_cache import PlanCache

    cache = PlanCache(cache_dir=Path(args.cache_dir)
                      if args.cache_dir else None)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached plan(s) from {cache.cache_dir}")
        return 0
    entries = list(cache.keys())
    print(f"plan cache at {cache.cache_dir}: {len(entries)} entr(ies)")
    for key in entries[:20]:
        print(f"  {key}")
    if len(entries) > 20:
        print(f"  ... and {len(entries) - 20} more")
    cum = cache.cumulative_stats()
    print("session totals (cumulative across invocations; reset by "
          "'cache clear'):")
    print(f"  {cum['hits']} hit(s) ({cum['memory_hits']} mem / "
          f"{cum['disk_hits']} disk), {cum['misses']} miss(es), "
          f"{cum['stores']} store(s), {cum['evictions']} eviction(s), "
          f"{cum['invalidated']} invalidated")
    return 0


def _service_config(args: argparse.Namespace):
    """The :class:`~repro.service.daemon.ServiceConfig` ``serve`` flags
    describe (their defaults are the config's own)."""
    from .service.daemon import ServiceConfig

    return ServiceConfig(queue_depth=args.queue_depth,
                         service_workers=args.service_workers,
                         default_deadline_s=args.deadline,
                         hot_capacity=args.hot_capacity)


def _run_serve(args: argparse.Namespace) -> int:
    from .service.server import parse_address

    if (args.socket is None) == (args.port is None):
        print("error: provide exactly one of --socket or --port",
              file=sys.stderr)
        return 2
    address = parse_address(args.socket if args.socket is not None
                            else str(args.port))

    if args.ping or args.stop:
        return _serve_client_op(args, address)

    from .cache.plan_cache import PlanCache
    from .service.cluster import ClusterArbiter
    from .service.daemon import PlannerDaemon
    from .service.server import PlannerServer

    cache = None
    if not args.no_cache:
        cache = PlanCache(cache_dir=Path(args.cache_dir)
                          if args.cache_dir else None)
    cluster = None
    if args.cluster != "none":
        cluster = ClusterArbiter(_resolve_hierarchy(args.cluster),
                                 n_devices=args.devices)
    chaos = None
    if args.chaos_rate > 0 or args.chaos_first > 0:
        from .elastic.faults import ChaosMonkey

        chaos = ChaosMonkey(args.chaos_rate, seed=args.chaos_seed,
                            crash_first=args.chaos_first)
    daemon = PlannerDaemon(_service_config(args), cache=cache,
                           cluster=cluster, chaos=chaos)
    server = PlannerServer(daemon, address)
    daemon.start()
    print(f"planner daemon serving on {address} "
          f"(queue={args.queue_depth}, workers={args.service_workers}, "
          f"cache {'off' if cache is None else 'on'}, cluster "
          f"{args.cluster}"
          + (f", chaos rate={args.chaos_rate} first={args.chaos_first}"
             if chaos is not None else "")
          + "); stop with 'serve --stop' or Ctrl-C",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.stop()
        daemon.stop()
        _dump_metrics(args.metrics)
    return 0


def _serve_client_op(args: argparse.Namespace, address: Any) -> int:
    """The ``serve --ping`` / ``serve --stop`` client-side operations."""
    from .service.client import PlannerClient, wait_for_server
    from .service.errors import ServiceRejection

    if args.ping:
        timeout = args.wait if args.wait is not None else 2.0
        if wait_for_server(address, timeout=timeout):
            print(f"planner daemon at {address} is up")
            return 0
        print(f"error: no planner daemon answered at {address} "
              f"within {timeout}s", file=sys.stderr)
        return 1
    try:
        with PlannerClient(address, timeout=10.0) as client:
            client.shutdown()
    except (OSError, ServiceRejection) as exc:
        print(f"error: could not stop daemon at {address}: {exc}",
              file=sys.stderr)
        return 1
    print(f"planner daemon at {address} stopping")
    return 0


def _run_elastic(args: argparse.Namespace) -> int:
    """The ``elastic`` subcommand: a trace-driven churn scenario.

    Runs a real data-parallel trainer through preemptions/joins with
    checkpoint-backed recovery, prints (or JSON-dumps) the per-event
    recovery reports, and exits non-zero if recovery ever failed or
    replicas diverged.
    """
    import tempfile

    from .elastic.controller import RecoveryError, RecoveryPolicy
    from .elastic.faults import FaultTrace
    from .elastic.scenario import ChurnScenario, ScenarioConfig

    if args.global_batch % args.world:
        print(f"error: --global-batch {args.global_batch} must divide by "
              f"--world {args.world}", file=sys.stderr)
        return 2
    policy = RecoveryPolicy(mode=args.mode, backoff_base_s=0.001,
                            backoff_max_s=0.05)
    config = ScenarioConfig(
        steps=args.steps, world=args.world,
        global_batch=args.global_batch, seed=args.seed,
        checkpoint_interval=args.checkpoint_interval, policy=policy,
        preemptions=args.preemptions, joins=args.joins,
        slowdowns=args.slowdowns, dirty_rate=args.dirty_rate)
    trace = FaultTrace.from_json(args.trace_file) if args.trace_file \
        else None
    tmpdir = None
    ckpt_dir = args.checkpoint_dir
    if ckpt_dir is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-elastic-")
        ckpt_dir = tmpdir.name
    try:
        scenario = ChurnScenario(config, ckpt_dir, trace=trace)
        if args.save_trace:
            path = scenario.trace.to_json(args.save_trace)
            print(f"trace written to {path}",
                  file=sys.stderr if args.json else sys.stdout)
        try:
            result = scenario.run()
        except RecoveryError as exc:
            print(f"error: recovery failed ({exc.code}): {exc}",
                  file=sys.stderr)
            return 1
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()

    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"elastic churn scenario: {config.steps} steps, world "
              f"{config.world} -> {result.final_world}, global batch "
              f"{config.global_batch}")
        print(f"  events      : {len(result.trace)} "
              f"({result.trace.preemptions} preempt, "
              f"{result.trace.joins} join)")
        print(f"  recoveries  : "
              + (", ".join(r.decision for r in result.reports) or "none"))
        print(f"  lost steps  : {result.lost_steps} "
              f"(replayed {result.replayed_steps})")
        print(f"  checkpoints : {result.checkpoints_written}")
        print(f"  final loss  : {result.losses[-1]:.6f}")
        for r in result.reports:
            e = r.event
            print(f"    step {e.step:>3} {e.kind.value:<9} "
                  f"world {r.world_before}->{r.world_after} "
                  f"decision={r.decision} attempts={r.attempts} "
                  f"recover={r.time_to_recover_s * 1e3:.1f}ms"
                  + (f" lost={r.lost_steps}" if r.lost_steps else ""))
        print("  replicas bit-identical after every world change: yes")
    _dump_metrics(args.metrics, json_mode=args.json)
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    from .eval.validation import (
        DEFAULT_CONFIGS,
        VALIDATION_CONFIGS,
        validate_many,
    )

    if args.list:
        print("validation configs:")
        for name, cfg in sorted(VALIDATION_CONFIGS.items()):
            print(f"  {name:<8} batch {cfg.batch_size:<4} "
                  f"link {cfg.link_bandwidth / 1e9:.0f} GB/s")
        return 0
    names = args.config or list(DEFAULT_CONFIGS)
    unknown = [n for n in names if n not in VALIDATION_CONFIGS]
    if unknown:
        print(f"error: unknown config(s) {unknown}; known: "
              f"{sorted(VALIDATION_CONFIGS)}", file=sys.stderr)
        return 2

    calibration = None
    if args.calibration is not None:
        from .costs.trace_fit import CalibrationArtifact

        try:
            artifact = CalibrationArtifact.load(args.calibration)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read calibration artifact "
                  f"{args.calibration}: {exc}", file=sys.stderr)
            return 2
        calibration = artifact.op_scales
        if not args.json:
            print(f"applying calibration artifact {args.calibration} "
                  f"({artifact.model or '?'}, "
                  f"{len(calibration)} op scales)\n")

    traced = args.trace is not None
    if traced:
        from .obs.trace import TRACER

        TRACER.clear()
        TRACER.enable()
    t0 = time.perf_counter()
    try:
        reports = validate_many(names, target_wall_s=args.target_wall,
                                seed=args.seed, calibration=calibration)
        total = time.perf_counter() - t0
        spans = TRACER.drain() if traced else []
    finally:
        if traced:
            TRACER.disable()

    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2,
                         sort_keys=True))
    else:
        print("sim-vs-real stall validation (async runtime paced with the "
              "simulator's own durations):\n")
        for r in reports:
            print(r.table())
            print(r.stall_detail())
            print(f"  blocks={r.num_blocks}  "
                  f"makespan ratio (measured/predicted)="
                  f"{r.makespan_ratio:.3f}  "
                  f"max |error|={r.max_abs_error:.4f}\n")
        worst = max(r.max_abs_error for r in reports)
        print(f"validated {len(reports)} config(s) in {total:.2f} s; "
              f"worst per-resource stall-fraction error {worst:.4f}")
    if traced:
        path = _export_trace(
            args.trace, spans=spans,
            sims=[(f"predicted (sim) [{r.config}]", r.sim_result)
                  for r in reports],
            runtimes=[(f"measured (runtime) [{r.config}]", r.runtime_trace)
                      for r in reports])
        _trace_notice(path, json_mode=args.json)
    _dump_metrics(args.metrics, json_mode=args.json)
    if args.max_error is not None and any(
            r.max_abs_error > args.max_error for r in reports):
        print(f"error: stall-fraction error exceeds --max-error "
              f"{args.max_error}", file=sys.stderr)
        return 1
    return 0


def _run_calibrate(args: argparse.Namespace) -> int:
    """Fit a calibration artifact from measured validation runs.

    Runs the sim-vs-real loop for each requested config, least-squares
    fits per-op compute scales and per-link latency/bandwidth from the
    recorded runtime traces, and writes the merged
    :class:`~repro.costs.trace_fit.CalibrationArtifact` as JSON.
    """
    from .costs.trace_fit import fit_validation_report, merge_artifacts
    from .eval.validation import (
        DEFAULT_CONFIGS,
        VALIDATION_CONFIGS,
        validate_many,
    )

    names = args.config or list(DEFAULT_CONFIGS)
    unknown = [n for n in names if n not in VALIDATION_CONFIGS]
    if unknown:
        print(f"error: unknown config(s) {unknown}; known: "
              f"{sorted(VALIDATION_CONFIGS)}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    reports = validate_many(names, target_wall_s=args.target_wall,
                            seed=args.seed)
    artifact = merge_artifacts([fit_validation_report(r) for r in reports])
    artifact.save(args.output)
    fit_s = time.perf_counter() - t0

    check_rows = []
    if args.check:
        calibrated = validate_many(names, target_wall_s=args.target_wall,
                                   seed=args.seed,
                                   calibration=artifact.op_scales)
        check_rows = [
            {"config": before.config,
             "uncalibrated_error": round(before.max_abs_error, 4),
             "calibrated_error": round(after.max_abs_error, 4)}
            for before, after in zip(reports, calibrated)]

    if args.json:
        payload: Dict[str, Any] = {"artifact": args.output,
                                   "configs": list(names),
                                   "fit_seconds": round(fit_s, 3),
                                   "summary": artifact.to_json()}
        if check_rows:
            payload["check"] = check_rows
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"fitted {len(names)} config(s) in {fit_s:.2f} s")
        print(artifact.summary())
        for row in check_rows:
            print(f"  [{row['config']}] max |error| "
                  f"uncalibrated {row['uncalibrated_error']:.4f} -> "
                  f"calibrated {row['calibrated_error']:.4f}")
        print(f"wrote {args.output}")
        print("replay with: python -m repro validate "
              f"--calibration {args.output}")
    _dump_metrics(args.metrics, json_mode=args.json)
    return 0


def _span_identity(span: Any) -> Tuple[str, str, float, float, str]:
    """What tells one recorded span from another across the wire."""
    return (span.name, span.track, span.start, span.end, span.trace_id)


def _trace_via_server(args: argparse.Namespace) -> int:
    """The ``trace --server`` path: one distributed-trace round trip.

    Mints a fresh :class:`~repro.obs.trace.TraceContext`, plans through
    a running daemon with span collection, and stitches the local client
    span together with the daemon spans shipped back in the reply into
    one multi-process Chrome trace timeline.
    """
    from .models.registry import REGISTRY
    from .obs.export import (
        chrome_trace,
        stitched_trace_events,
        write_chrome_trace,
    )
    from .obs.trace import TRACER, TraceContext, span_from_dict
    from .service.client import PlannerClient
    from .service.errors import ServiceRejection
    from .service.server import parse_address

    name = args.config
    if name not in REGISTRY:
        print(f"error: trace --server plans registered models only; "
              f"known: {sorted(REGISTRY)}", file=sys.stderr)
        return 2
    config: Dict[str, Any] = {
        "model": name, "batch": args.batch,
        "hierarchy": args.hierarchy, "link": args.link,
        **({"capacity": args.capacity}
           if args.capacity is not None else {})}
    output = args.output or f"trace_{name}.json"
    address = parse_address(args.server)

    ctx = TraceContext.new()
    TRACER.clear()
    TRACER.enable()
    try:
        with TRACER.activate(ctx), \
                TRACER.span("client.plan", "client", track="client",
                            model=name, server=str(args.server)):
            with PlannerClient(address, timeout=60.0) as client:
                reply = client.plan(config, deadline_s=args.deadline,
                                    trace=ctx, collect_spans=True,
                                    retries=args.retries)
    except ServiceRejection as exc:
        print(f"error: daemon rejected the plan ({exc.code}): {exc}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach planner daemon at {args.server}: "
              f"{exc}", file=sys.stderr)
        return 2
    finally:
        spans = TRACER.drain()
        TRACER.disable()

    # a daemon in this process records into the local tracer too: keep
    # its spans once, in the rows the reply ships them in
    shipped = [span_from_dict(d) for d in reply.get("spans") or []]
    seen = {_span_identity(s) for s in shipped}
    spans = [s for s in spans if _span_identity(s) not in seen]
    spans.extend(shipped)
    path = write_chrome_trace(output, chrome_trace(
        stitched_trace_events(spans)))

    record = dict(reply.get("record") or {})
    record["tier"] = reply.get("tier", "?")
    record["wall_s"] = float(reply.get("wall_s", 0.0))
    procs = sorted({s.proc or "client" for s in spans})
    print(_format_result(record))
    print(f"  distributed trace {ctx.trace_id}: {len(spans)} span(s) "
          f"across {len(procs)} process(es): {', '.join(procs)}")
    _trace_notice(path)
    _dump_metrics(args.metrics)
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    if args.server is not None:
        return _trace_via_server(args)

    from .eval.validation import VALIDATION_CONFIGS, validate_config
    from .models.registry import REGISTRY
    from .obs.trace import TRACER

    name = args.config
    is_validation = name in VALIDATION_CONFIGS
    if not is_validation and name not in REGISTRY:
        print(f"error: unknown config {name!r}; validation configs: "
              f"{sorted(VALIDATION_CONFIGS)}, models: {sorted(REGISTRY)}",
              file=sys.stderr)
        return 2
    output = args.output or f"trace_{name}.json"

    TRACER.clear()
    TRACER.enable()
    try:
        if is_validation:
            # full sim-vs-real loop: planner spans + predicted timeline
            # + the measured runtime iteration, side by side
            report = validate_config(
                name, target_wall_s=args.target_wall,
                hierarchy=_resolve_hierarchy(args.hierarchy),
                seed=args.seed)
            spans = TRACER.drain()
            sims: List[Tuple[str, Any]] = [
                (f"predicted (sim) [{name}]", report.sim_result)]
            runtimes: List[Tuple[str, Any]] = [
                (f"measured (runtime) [{name}]", report.runtime_trace)]
            summary = report.stall_detail()
        else:
            # registered model: planner spans + predicted timeline only
            # (no numeric runtime at these sizes)
            config: Dict[str, Any] = {
                "model": name, "batch": args.batch,
                "hierarchy": args.hierarchy, "link": args.link,
                **({"capacity": args.capacity}
                   if args.capacity is not None else {})}
            record, kp = plan_config_full(
                config, cache_dir=args.cache_dir,
                use_cache=not args.no_cache)
            _, sim = _compiled_sim(kp, _resolve_hierarchy(args.hierarchy))
            spans = TRACER.drain()
            sims = [(f"predicted (sim) [{name}]", sim)]
            runtimes = []
            summary = _format_result(record)
    finally:
        TRACER.disable()

    path = _export_trace(output, spans=spans, sims=sims, runtimes=runtimes)
    print(summary)
    _trace_notice(path)
    _dump_metrics(args.metrics)
    return 0


def _hist_line(hists: Dict[str, Any], name: str) -> str:
    """One ``p50/p95/p99 (n)`` line for a histogram summary, in ms."""
    h = hists.get(name) or {}
    if not h.get("count"):
        return "no samples yet"
    return (f"p50={h.get('p50', 0.0) * 1e3:8.1f}ms  "
            f"p95={h.get('p95', 0.0) * 1e3:8.1f}ms  "
            f"p99={h.get('p99', 0.0) * 1e3:8.1f}ms  "
            f"(n={h.get('count', 0):.0f})")


def _hit_ratio(hits: float, total: float) -> str:
    return f"{hits / total:5.1%}" if total else "  n/a"


def _render_top(frame: Dict[str, Any], *, seq: int, addr: str) -> str:
    """Render one telemetry frame as the ``top`` one-screen view."""
    metrics = frame.get("metrics") or {}
    c: Dict[str, float] = metrics.get("counters") or {}
    hists: Dict[str, Any] = metrics.get("histograms") or {}
    requests = c.get("service.requests", 0)
    warm_hits = c.get("plan_cache.hits", 0)
    warm_total = warm_hits + c.get("plan_cache.misses", 0)
    lines = [
        f"planner daemon at {addr} — up {frame.get('uptime_s', 0.0):.1f}s, "
        f"frame {seq + 1}"
        + ("" if frame.get("running") else "  [NOT RUNNING]"),
        f"  queue      : {frame.get('queue_depth', 0)}/"
        f"{frame.get('queue_capacity', 0)} deep   "
        f"{frame.get('service_workers', 0)} service worker(s)",
        f"  hot tier   : {frame.get('hot_entries', 0)}/"
        f"{frame.get('hot_capacity', 0)} entries   hit ratio "
        f"{_hit_ratio(c.get('service.plans.hot', 0), requests)} hot / "
        f"{_hit_ratio(warm_hits, warm_total)} warm",
        f"  requests   : {requests:.0f} total   "
        f"{c.get('service.singleflight_merges', 0):.0f} merged "
        f"(single-flight)   "
        f"{c.get('service.rejected.queue_full', 0):.0f} shed   "
        f"{c.get('service.rejected.deadline', 0):.0f} deadline   "
        f"{c.get('service.plan_failures', 0):.0f} failed",
        f"  plan       : {_hist_line(hists, 'service.latency.plan')}",
        f"  queue wait : {_hist_line(hists, 'service.latency.queue')}",
        f"  end-to-end : {_hist_line(hists, 'service.request_seconds')}",
        f"  elastic    : {c.get('elastic.recoveries', 0):.0f} recoveries   "
        f"{c.get('elastic.degrades', 0):.0f} degrades   "
        f"{c.get('service.worker_crashes', 0):.0f} crash(es) / "
        f"{c.get('service.workers_respawned', 0):.0f} respawned",
        f"  flight     : {c.get('flight.spans', 0):.0f} spans   "
        f"{c.get('flight.events', 0):.0f} events   "
        f"{c.get('flight.dumps', 0):.0f} dump(s)",
    ]
    cluster = frame.get("cluster")
    if cluster:
        lines.append(f"  cluster    : {json.dumps(cluster, sort_keys=True)}")
    return "\n".join(lines)


def _run_top(args: argparse.Namespace) -> int:
    """The ``top`` subcommand: live telemetry view of a running daemon."""
    from .service.client import PlannerClient
    from .service.errors import ServiceRejection
    from .service.server import parse_address

    address = parse_address(args.addr)
    count = args.count if args.count > 0 else 1 << 30
    one_shot = args.count == 1
    try:
        # per-frame readline blocks interval seconds; pad the socket
        # timeout well past it so a healthy stream never times out
        with PlannerClient(address,
                           timeout=args.interval + 30.0) as client:
            for seq, frame in enumerate(
                    client.telemetry(count=count,
                                     interval_s=args.interval)):
                if args.json:
                    print(json.dumps(frame, sort_keys=True), flush=True)
                    continue
                if not one_shot:
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(_render_top(frame, seq=seq, addr=args.addr),
                      flush=True)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    except ServiceRejection as exc:
        print(f"error: daemon at {args.addr} rejected telemetry "
              f"({exc.code}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot watch planner daemon at {args.addr}: {exc}",
              file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .service.daemon import ServiceConfig

    service_defaults = ServiceConfig()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="KARMA planning service: plan models against memory "
                    "hierarchies, backed by a content-addressed plan "
                    "cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan one config or a batch manifest")
    p.add_argument("--model", help="registered model name "
                                   "(see repro.models.REGISTRY)")
    p.add_argument("--batch", type=int, default=16, help="batch size")
    p.add_argument("--manifest", help="JSON file with a list of configs")
    p.add_argument("--hierarchy", choices=HIERARCHIES, default="none",
                   help="memory hierarchy preset")
    p.add_argument("--link", choices=LINKS, default="calibrated",
                   help="host<->device swap link preset")
    # repro.core.blocking.BLOCKING_METHODS, spelled out so that parsing
    # arguments does not import the planner
    p.add_argument("--method", default="auto",
                   choices=("auto", "dp", "uniform"))
    p.add_argument("--placement", default="auto",
                   choices=("auto", "bandwidth", "pressure"))
    p.add_argument("--max-span", type=int, default=64)
    p.add_argument("--capacity", type=float, default=None,
                   help="device capacity override in bytes")
    p.add_argument("--no-recompute", action="store_true",
                   help="skip the Opt-2 recompute interleave")
    p.add_argument("--workers", type=int, default=1,
                   help="with --manifest: plan this many configs at a "
                        "time in separate processes")
    p.add_argument("--cache-dir", default=None,
                   help="plan cache directory (default: "
                        "$KARMA_PLAN_CACHE_DIR or "
                        "~/.cache/karma-repro/plans)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the plan cache entirely")
    p.add_argument("--json", action="store_true",
                   help="emit results as JSON instead of a table")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="record planner spans + the predicted timeline "
                        "and write a Perfetto/Chrome trace JSON "
                        "(single --model only)")
    p.add_argument("--metrics", metavar="PATH", default=None,
                   help="write the process metrics snapshot as JSON "
                        "('-' for stdout)")
    p.add_argument("--server", metavar="ADDR", default=None,
                   help="plan via a running daemon ('serve'): a unix "
                        "socket path or host:port")
    p.add_argument("--deadline", type=float, default=None,
                   help="with --server: seconds to wait before the "
                        "daemon sheds this request")
    p.add_argument("--retries", type=int, default=0,
                   help="with --server: extra attempts after a "
                        "retryable rejection (shed queue, crashed "
                        "worker), with exponential backoff")
    p.set_defaults(func=_run_plan)

    s = sub.add_parser(
        "serve",
        help="run the planner daemon (admission control, hot cache "
             "tier, single-flight, optional cluster placement)")
    s.add_argument("--socket", default=None,
                   help="unix socket path to bind (or reach, with "
                        "--ping/--stop)")
    s.add_argument("--port", type=int, default=None,
                   help="localhost TCP port instead of a unix socket")
    s.add_argument("--ping", action="store_true",
                   help="client mode: check whether a daemon answers")
    s.add_argument("--wait", type=float, default=None,
                   help="with --ping: wait up to this many seconds for "
                        "the daemon to come up")
    s.add_argument("--stop", action="store_true",
                   help="client mode: ask a running daemon to shut down")
    s.add_argument("--queue-depth", type=int,
                   default=service_defaults.queue_depth,
                   help="admission bound; beyond it requests are shed "
                        "with queue_full")
    s.add_argument("--service-workers", type=int,
                   default=service_defaults.service_workers,
                   help="daemon threads consuming the request queue; "
                        "each plans one request at a time")
    s.add_argument("--deadline", type=float,
                   default=service_defaults.default_deadline_s,
                   help="default per-request deadline in seconds")
    s.add_argument("--hot-capacity", type=int,
                   default=service_defaults.hot_capacity,
                   help="entries kept in the in-process hot LRU tier")
    s.add_argument("--cluster", choices=HIERARCHIES, default="none",
                   help="enable collocation-aware placement on this "
                        "shared hierarchy")
    s.add_argument("--devices", type=int, default=4,
                   help="device slots for cluster placement")
    s.add_argument("--cache-dir", default=None,
                   help="plan cache directory (the warm tier)")
    s.add_argument("--no-cache", action="store_true",
                   help="run without the on-disk warm tier")
    s.add_argument("--metrics", metavar="PATH", default=None,
                   help="write the service metrics snapshot as JSON "
                        "when the daemon stops ('-' for stdout)")
    s.add_argument("--chaos-rate", type=float, default=0.0,
                   help="chaos mode: probability a worker crashes per "
                        "dequeued request (served as a retryable "
                        "worker_crashed rejection + respawn)")
    s.add_argument("--chaos-first", type=int, default=0,
                   help="chaos mode: deterministically crash the first "
                        "N dequeued requests")
    s.add_argument("--chaos-seed", type=int, default=0,
                   help="seed for the chaos coin")
    s.set_defaults(func=_run_serve)

    e = sub.add_parser(
        "elastic",
        help="run a trace-driven churn scenario: preemptions/joins with "
             "checkpoint-backed recovery on a real data-parallel trainer")
    e.add_argument("--steps", type=int, default=12,
                   help="training steps")
    e.add_argument("--world", type=int, default=4,
                   help="starting world size")
    e.add_argument("--global-batch", type=int, default=12,
                   help="fixed global batch (must divide by every world "
                        "size the trace visits)")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--preemptions", type=int, default=2,
                   help="synthetic trace: preempt events")
    e.add_argument("--joins", type=int, default=1,
                   help="synthetic trace: join events")
    e.add_argument("--slowdowns", type=int, default=0,
                   help="synthetic trace: slowdown events")
    e.add_argument("--dirty-rate", type=float, default=0.0,
                   help="synthetic trace: probability a preemption is "
                        "dirty (mid-iteration; forces checkpoint restart)")
    e.add_argument("--trace-file", default=None,
                   help="drive a recorded JSON trace instead of a "
                        "synthetic one")
    e.add_argument("--save-trace", metavar="PATH", default=None,
                   help="record the trace that was run as JSON")
    e.add_argument("--checkpoint-interval", type=int, default=3,
                   help="periodic checkpoint cadence in steps")
    e.add_argument("--checkpoint-dir", default=None,
                   help="checkpoint directory (default: a temp dir)")
    e.add_argument("--mode", choices=("auto", "replan", "degrade"),
                   default="auto",
                   help="recovery policy for clean world changes")
    e.add_argument("--json", action="store_true",
                   help="emit the scenario result as JSON")
    e.add_argument("--metrics", metavar="PATH", default=None,
                   help="write the process metrics snapshot as JSON "
                        "('-' for stdout)")
    e.set_defaults(func=_run_elastic)

    c = sub.add_parser("cache", help="inspect or clear the plan cache")
    c.add_argument("cache_command", choices=("info", "clear"))
    c.add_argument("--cache-dir", default=None)
    c.set_defaults(func=_run_cache)

    v = sub.add_parser(
        "validate",
        help="compare simulator-predicted vs runtime-measured stall "
             "fractions per resource")
    v.add_argument("--config", nargs="*", default=None,
                   help="validation config names (default: cnn gpt)")
    v.add_argument("--target-wall", type=float, default=0.4,
                   help="emulated wall-clock seconds per measured "
                        "iteration (sets the pacer's time scale)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-error", type=float, default=None,
                   help="exit non-zero if any per-resource stall-fraction "
                        "error exceeds this")
    v.add_argument("--list", action="store_true",
                   help="list the available validation configs")
    v.add_argument("--json", action="store_true",
                   help="emit reports as JSON instead of tables")
    v.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Perfetto/Chrome trace JSON with planner "
                        "spans plus each config's predicted and measured "
                        "timelines")
    v.add_argument("--metrics", metavar="PATH", default=None,
                   help="write the process metrics snapshot as JSON "
                        "('-' for stdout)")
    v.add_argument("--calibration", metavar="PATH", default=None,
                   help="apply a calibration artifact (see 'calibrate') "
                        "when deriving each config's plan")
    v.set_defaults(func=_run_validate)

    cal = sub.add_parser(
        "calibrate",
        help="fit per-op compute scales and per-link latency/bandwidth "
             "from measured validation traces")
    cal.add_argument("--config", nargs="*", default=None,
                     help="validation config names (default: cnn gpt)")
    cal.add_argument("-o", "--output", default="calibration.json",
                     help="artifact path (default: calibration.json)")
    cal.add_argument("--target-wall", type=float, default=0.4,
                     help="emulated wall-clock seconds per measured "
                          "iteration (sets the pacer's time scale)")
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--check", action="store_true",
                     help="re-run validation with the fitted scales and "
                          "report the error before/after")
    cal.add_argument("--json", action="store_true",
                     help="emit the fit summary as JSON")
    cal.add_argument("--metrics", metavar="PATH", default=None,
                     help="write the process metrics snapshot as JSON "
                          "('-' for stdout)")
    cal.set_defaults(func=_run_calibrate)

    t = sub.add_parser(
        "trace",
        help="emit a Perfetto/Chrome trace JSON for one configuration")
    t.add_argument("config",
                   help="a validation config (cnn, gpt: full sim-vs-real "
                        "timelines) or a registered model name (planner "
                        "spans + predicted timeline)")
    t.add_argument("-o", "--output", default=None,
                   help="output path (default: trace_<config>.json)")
    t.add_argument("--batch", type=int, default=16,
                   help="batch size (registered-model configs)")
    t.add_argument("--hierarchy", choices=HIERARCHIES, default="none")
    t.add_argument("--link", choices=LINKS, default="calibrated")
    t.add_argument("--capacity", type=float, default=None,
                   help="device capacity override in bytes "
                        "(registered-model configs)")
    t.add_argument("--target-wall", type=float, default=0.4,
                   help="emulated wall-clock seconds for the measured "
                        "iteration (validation configs)")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--cache-dir", default=None)
    t.add_argument("--no-cache", action="store_true",
                   help="bypass the plan cache")
    t.add_argument("--metrics", metavar="PATH", default=None,
                   help="write the process metrics snapshot as JSON "
                        "('-' for stdout)")
    t.add_argument("--server", metavar="ADDR", default=None,
                   help="distributed mode: plan via a running daemon "
                        "('serve') and stitch the client and daemon "
                        "spans into one timeline "
                        "(registered-model configs)")
    t.add_argument("--deadline", type=float, default=None,
                   help="with --server: seconds to wait before the "
                        "daemon sheds this request")
    t.add_argument("--retries", type=int, default=0,
                   help="with --server: extra attempts after a "
                        "retryable rejection (shed queue, crashed "
                        "worker)")
    t.set_defaults(func=_run_trace)

    w = sub.add_parser(
        "top",
        help="live one-screen telemetry view of a running planner "
             "daemon (queue depth, hit ratios, latency percentiles)")
    w.add_argument("addr", help="daemon address: a unix socket path or "
                                "host:port")
    w.add_argument("--interval", type=float, default=1.0,
                   help="seconds between telemetry frames")
    w.add_argument("--count", type=int, default=0,
                   help="stop after N frames (0 = run until Ctrl-C)")
    w.add_argument("--json", action="store_true",
                   help="emit one JSON telemetry frame per line instead "
                        "of the screen view")
    w.set_defaults(func=_run_top)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module CLI convenience
    sys.exit(main())
