"""The KARMA planner: Fig. 1's five-step workflow in one call.

1. build + validate the dependency graph (caller supplies the LayerGraph);
2. extract metadata: analytic FLOPs, calibrated memory classes, device and
   link parameters (the CostModel);
3. solve Optimization Problem 1 — blocking for maximum occupancy;
4. solve Optimization Problem 2 — recompute interleave;
5. generate the execution plan (stage schedule + plan string).

:func:`plan` is the package's primary public entry point.  It doubles as
the planning *service*: pass ``cache=PlanCache(...)`` and the search
outcome (steps 3-4, the expensive part) is stored under a content address
of the planning inputs, so replanning the same (model, hardware, knobs)
configuration — in this process or any later one — skips the search
entirely.  The search runs in the calling process; callers that plan
many configurations parallelize across requests, not inside one
(``repro plan --manifest --workers N``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, TYPE_CHECKING

from ..costs.profiler import CostModel, profile_graph
from ..graph.layer_graph import LayerGraph
from ..hardware.interconnect import TransferModel
from ..hardware.spec import (
    DeviceSpec,
    HostSpec,
    abci_host,
    karma_swap_link,
    v100_sxm2_16gb,
)
from ..hardware.tiering import MemoryHierarchy
from ..obs.metrics import METRICS
from ..obs.trace import TRACER
from .blocking import BlockingResult, check_method, solve_blocking
from .recompute import RecomputeResult, apply_recompute
from .schedule import BlockPolicy, ExecutionPlan
from .stages import make_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..cache.plan_cache import PlanCache
    from ..sim.trainer_sim import StructureCache


@dataclass
class KarmaPlan:
    """A planned model: the executable schedule plus planner diagnostics."""

    plan: ExecutionPlan
    cost: CostModel
    blocking: BlockingResult
    recompute: Optional[RecomputeResult]
    capacity: float
    hierarchy: Optional[MemoryHierarchy] = None
    placement: Optional[object] = None  # tiering.PlacementResult
    cache_hit: bool = False
    cache_key: Optional[str] = None
    search_time: float = 0.0            # seconds spent in Opt-1 + Opt-2
    #: skeletons this search found already lowered by another plan in
    #: the structure table it was handed (0 with a fresh table)
    structure_hits: int = 0

    @property
    def is_out_of_core(self) -> bool:
        return bool(self.plan.swapped) or bool(self.plan.recomputed)

    @property
    def uses_storage(self) -> bool:
        return self.plan.uses_storage

    def describe(self) -> str:
        """Human-readable multi-line summary of the planned schedule."""
        lines = [
            f"KARMA plan for {self.plan.model_name!r} @ batch "
            f"{self.plan.batch_size}",
            f"  blocks      : {self.plan.num_blocks} "
            f"({self.blocking.method})",
            f"  swapped     : {sorted(self.plan.swapped)}",
            f"  recomputed  : {sorted(self.plan.recomputed)}",
            f"  resident    : {sorted(self.plan.resident)}",
            f"  plan string : {self.plan.plan_string()}",
        ]
        if self.recompute is not None:
            lines.append(
                f"  Opt-2 gain  : {self.recompute.improvement * 100:.1f}% "
                f"({len(self.recompute.flipped)} block(s) recomputed)")
        if self.placement is not None:
            demoted = sorted(b for b, t in self.plan.placements.items()
                             if t >= 2)
            lines.append(
                f"  placement   : {self.placement.policy} "
                f"(NVMe blocks {demoted})")
        if self.blocking.rejected:
            lines.append(
                f"  rejected    : {len(self.blocking.rejected)} grid "
                "point(s) skipped by placement-legality checks")
        if self.cache_key is not None:
            state = "hit" if self.cache_hit else "miss"
            lines.append(f"  plan cache  : {state} "
                         f"({self.cache_key[:16]}…)")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Cache payload (de)serialization
# --------------------------------------------------------------------------

def _encode_decisions(blocking: BlockingResult,
                      rec: Optional[RecomputeResult],
                      placement: Optional[object],
                      search_time: float) -> Dict[str, Any]:
    """The JSON-ready search outcome: everything needed to rebuild the
    plan without re-searching (the cost model is cheap to re-profile)."""
    payload: Dict[str, Any] = {
        "blocking": {
            "boundaries_segments": list(blocking.boundaries_segments),
            "blocks": [list(b) for b in blocking.blocks],
            "policies": [p.name for p in blocking.policies],
            "objective": blocking.objective,
            "method": blocking.method,
            "placements": {str(b): t
                           for b, t in sorted(blocking.placements.items())},
            "placement_policy": blocking.placement_policy,
            "rejected": list(blocking.rejected),
            "evaluated": blocking.evaluated,
        },
        "recompute": None,
        "placement": None,
        "search_time": search_time,
    }
    if rec is not None:
        payload["recompute"] = {
            "policies": [p.name for p in rec.policies],
            "flipped": list(rec.flipped),
            "makespan_before": rec.makespan_before,
            "makespan_after": rec.makespan_after,
        }
    if placement is not None:
        payload["placement"] = {
            "policy": placement.policy,
            "placements": {str(b): t
                           for b, t in sorted(placement.placements.items())},
            "tier_bytes": {str(t): n
                           for t, n in sorted(placement.tier_bytes.items())},
            "demoted": list(placement.demoted),
        }
    return payload


def _decode_decisions(payload: Dict[str, Any]):
    """Inverse of :func:`_encode_decisions`."""
    from ..tiering.placement import PlacementResult

    b = payload["blocking"]
    blocking = BlockingResult(
        boundaries_segments=list(b["boundaries_segments"]),
        blocks=[tuple(blk) for blk in b["blocks"]],
        policies=[BlockPolicy[name] for name in b["policies"]],
        objective=b["objective"],
        method=b["method"],
        placements={int(k): v for k, v in b["placements"].items()},
        placement_policy=b["placement_policy"],
        rejected=tuple(b.get("rejected", ())),
        evaluated=b.get("evaluated", 0),
    )
    rec = None
    if payload.get("recompute") is not None:
        r = payload["recompute"]
        rec = RecomputeResult(
            policies=[BlockPolicy[name] for name in r["policies"]],
            flipped=list(r["flipped"]),
            makespan_before=r["makespan_before"],
            makespan_after=r["makespan_after"],
        )
    placement = None
    if payload.get("placement") is not None:
        p = payload["placement"]
        placement = PlacementResult(
            placements={int(k): v for k, v in p["placements"].items()},
            policy=p["policy"],
            tier_bytes={int(k): v for k, v in p["tier_bytes"].items()},
            demoted=tuple(p["demoted"]),
        )
    return blocking, rec, placement, float(payload.get("search_time", 0.0))


def _digest_inputs(graph: LayerGraph, batch_size: int, device: DeviceSpec,
                   transfer: TransferModel, capacity: float,
                   hierarchy: Optional[MemoryHierarchy], cost: CostModel,
                   recompute: bool, method: str, max_span: int,
                   placement_policy: str) -> str:
    from ..cache.digest import plan_digest

    return plan_digest(
        graph, batch_size, device=device, transfer=transfer,
        capacity=capacity, hierarchy=hierarchy,
        knobs={
            "recompute": bool(recompute),
            "method": method,
            "max_span": int(max_span),
            "placement_policy": placement_policy,
            # cost-model scaling the calibration tables chose for this
            # graph — a calibration change must miss the cache
            "act_factor": cost.act_factor,
            "optimizer_slots": cost.optimizer_slots,
            "dtype_bytes": cost.dtype_bytes,
            # trace-fitted per-layer scale factors (empty without a
            # calibration artifact) — a recalibration must miss the cache
            "calibration": dict(cost.calibration),
        })


def plan(graph: LayerGraph, batch_size: int, *,
         device: Optional[DeviceSpec] = None,
         host: Optional[HostSpec] = None,
         transfer: Optional[TransferModel] = None,
         recompute: bool = True,
         method: str = "auto",
         max_span: int = 64,
         capacity: Optional[float] = None,
         hierarchy: Optional[MemoryHierarchy] = None,
         placement_policy: str = "auto",
         cache: "Optional[PlanCache]" = None,
         calibration: Optional[Dict[str, float]] = None,
         structure: "Optional[StructureCache]" = None) -> KarmaPlan:
    """Derive a KARMA execution plan for ``graph`` at ``batch_size``.

    Runs the paper's Fig. 1 workflow end to end: profile the graph into a
    cost model, solve Opt-1 (blocking), solve Opt-2 (recompute
    interleave), place stashes across the memory hierarchy, and emit the
    stage schedule.

    Args:
        graph: the validated model graph to plan over.
        batch_size: per-iteration batch size (drives the cost model).
        device/host: hardware specs; default to the paper's platform
            (V100 SXM2 16 GiB on an ABCI node).
        transfer: host<->device swap-path model; defaults to the
            calibrated :func:`repro.hardware.spec.karma_swap_link`.
            **Substitution note**: ABCI's host link is PCIe Gen3
            (16 GB/s), but with our roofline compute model that bandwidth
            makes every out-of-core method link-bound and collapses the
            relative differences Fig. 5 reports; modelling the
            UM-prefetch swap path at NVLink-class bandwidth restores the
            paper's compute-to-transfer ratio.  Pass
            ``transfer=TransferModel(link=pcie_gen3_x16(), ...)`` to
            study the PCIe regime.
        recompute: run the Opt-2 interleave; ``False`` yields the pure
            capacity-based strategy ("KARMA" vs "KARMA w/ recompute").
        method: Opt-1 search method (``'auto'``/``'dp'``/``'uniform'``,
            see :func:`repro.core.blocking.solve_blocking`); any other
            value raises ``ValueError`` before the cache is consulted.
        max_span: cap on block span in coarsened segments.
        capacity: device-capacity override in bytes (defaults to the
            device's usable memory).
        hierarchy: enables tiered offload — swapped stashes are placed
            across the hierarchy's tiers (DRAM first, NVMe overflow) and
            the plan carries tier-qualified swap ops; omitted, the
            planner keeps the classic unbounded-DRAM two-tier assumption.
        placement_policy: ``'bandwidth'``, ``'pressure'``, or ``'auto'``
            to let the blocking search pick.
        cache: a :class:`~repro.cache.plan_cache.PlanCache`; on a
            content-address hit the cached Opt-1/Opt-2 decisions are
            replayed and the returned plan is identical to a cold
            search's.
        calibration: per-layer compute scale factors (layer name ->
            multiplier on the analytic forward/backward times), typically
            the ``op_scales`` of a trace-fitted
            :class:`~repro.costs.trace_fit.CalibrationArtifact`.  The
            factors are part of the plan-cache digest, so a recalibrated
            planner never replays stale decisions.
        structure: a :class:`~repro.sim.trainer_sim.StructureCache` to
            lower the search's plans through and leave its new structure
            in, for a caller that plans many configurations (the planner
            daemon keeps one for its life); omitted, the search uses a
            fresh table that dies with the call.  Its keys name no
            model, batch size or byte count, so sharing it never changes
            a plan.

    Returns:
        A :class:`KarmaPlan`: the executable :class:`ExecutionPlan` plus
        the cost model and search diagnostics.
    """
    from ..tiering.placement import PlacementResult, assign_tiers

    check_method(method)
    device = device or v100_sxm2_16gb()
    host = host or abci_host()
    transfer = transfer or TransferModel(link=karma_swap_link(),
                                         device=device, host=host)
    capacity = device.usable_memory if capacity is None else capacity
    t_plan = TRACER.clock()
    METRICS.counter("planner.plans").inc()
    with TRACER.span("plan.profile", "planner", model=graph.name,
                     batch=batch_size):
        cost = profile_graph(graph, device, transfer, batch_size,
                             calibration=calibration)

    key: Optional[str] = None
    if cache is not None:
        with TRACER.span("plan.cache_lookup", "planner") as sp:
            key = _digest_inputs(graph, batch_size, device, transfer,
                                 capacity, hierarchy, cost, recompute,
                                 method, max_span, placement_policy)
            payload = cache.get(key)
            sp.set(hit=payload is not None)
        if payload is not None:
            with TRACER.span("plan.cache_replay", "planner"):
                blocking, rec_result, placement, cold_time = \
                    _decode_decisions(payload)
                policies = (rec_result.policies if rec_result is not None
                            else list(blocking.policies))
                placements = placement.placements \
                    if placement is not None else {}
                final = make_plan(graph.name, batch_size, blocking.blocks,
                                  policies, placements=placements)
            METRICS.counter("planner.cache_replays").inc()
            if TRACER.enabled:
                TRACER.record("plan", "planner", start=t_plan,
                              end=TRACER.clock(), model=graph.name,
                              batch=batch_size, cache="hit",
                              blocks=final.num_blocks)
            return KarmaPlan(plan=final, cost=cost, blocking=blocking,
                             recompute=rec_result, capacity=capacity,
                             hierarchy=hierarchy, placement=placement,
                             cache_hit=True, cache_key=key,
                             search_time=cold_time)

    t_search = time.perf_counter()
    # one lowering cache spans Opt-1 and Opt-2: the searches revisit the
    # same block partitions and policy structures, so sharing it prices
    # repeated grid points at lookup cost (see sim.trainer_sim)
    from ..sim.trainer_sim import LoweringCache

    lowering = LoweringCache(cost, capacity, hierarchy, structure=structure)
    with TRACER.span("plan.opt1_blocking", "planner",
                     method=method) as sp:
        blocking = solve_blocking(graph, cost, capacity, graph.name,
                                  batch_size, method=method,
                                  max_span=max_span, hierarchy=hierarchy,
                                  placement_policy=placement_policy,
                                  lowering=lowering)
        sp.set(method=blocking.method, blocks=len(blocking.blocks),
               evaluated=blocking.evaluated,
               rejected=len(blocking.rejected))
    METRICS.counter("planner.candidates_evaluated").inc(blocking.evaluated)
    METRICS.counter("planner.candidates_rejected").inc(
        len(blocking.rejected))
    policies = list(blocking.policies)
    rec_result: Optional[RecomputeResult] = None
    if recompute and any(p is BlockPolicy.SWAPPED for p in policies):
        with TRACER.span("plan.opt2_recompute", "planner") as sp:
            rec_result = apply_recompute(graph, cost, capacity, graph.name,
                                         batch_size, blocking.blocks,
                                         policies, hierarchy=hierarchy,
                                         placement_policy=blocking
                                         .placement_policy,
                                         lowering=lowering)
            sp.set(flipped=len(rec_result.flipped),
                   improvement=round(rec_result.improvement, 6))
        policies = rec_result.policies

    # Opt-2 may have flipped swapped blocks to recompute, shrinking the
    # swapped set — re-place the survivors with the policy the search chose
    placement: Optional[PlacementResult] = None
    placements = {}
    if hierarchy is not None:
        with TRACER.span("plan.assign_tiers", "planner"):
            placement = assign_tiers(blocking.blocks, policies, cost,
                                     hierarchy,
                                     policy=blocking.placement_policy
                                     or "bandwidth")
        placements = placement.placements
    search_time = time.perf_counter() - t_search
    METRICS.histogram("planner.search_seconds").observe(search_time)

    if cache is not None and key is not None:
        with TRACER.span("plan.cache_store", "planner"):
            cache.put(key, _encode_decisions(blocking, rec_result,
                                             placement, search_time))

    final = make_plan(graph.name, batch_size, blocking.blocks, policies,
                      placements=placements, lowering=lowering)
    if TRACER.enabled:
        TRACER.record("plan", "planner", start=t_plan, end=TRACER.clock(),
                      model=graph.name, batch=batch_size,
                      cache="miss" if cache is not None else "off",
                      blocks=final.num_blocks,
                      search_s=round(search_time, 6))
    return KarmaPlan(plan=final, cost=cost, blocking=blocking,
                     recompute=rec_result, capacity=capacity,
                     hierarchy=hierarchy, placement=placement,
                     cache_hit=False, cache_key=key,
                     search_time=search_time,
                     structure_hits=lowering.shared_hits)
