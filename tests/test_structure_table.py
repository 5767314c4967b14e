"""One structure table for many plans.

A :class:`~repro.sim.trainer_sim.StructureCache` holds what lowering
builds without reading the pricing context: stage schedules, prepared
skeletons and the pieces they are made of.  Its keys name no model,
batch size or byte count, which is what lets the planner daemon keep one
table for its life.  These tests hold that claim:

* a skeleton and a schedule built under one context equal, field for
  field, the ones built under another context for the same key, over
  registry models, batch sizes and hierarchies;
* a daemon whose two worker threads plan through one table, replaced in
  the middle of the stream or not, serves the records an in-process
  plan with no shared table produces.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Dict, List

from hypothesis import given
from hypothesis import strategies as st

from repro.cli import plan_config_full
from repro.core import make_plan
from repro.core.schedule import BlockPolicy
from repro.costs import profile_graph
from repro.hardware import TransferModel, abci_host, karma_swap_link
from repro.hardware.spec import v100_sxm2_16gb
from repro.hardware.tiering import abci_hierarchy
from repro.models.registry import REGISTRY, build
from repro.obs.metrics import METRICS
from repro.service import PlannerDaemon, ServiceConfig
from repro.sim.engine import Schedule
from repro.sim.trainer_sim import (
    LoweringCache,
    StructureCache,
    plan_structure_key,
)

POLICIES = tuple(BlockPolicy)
S = BlockPolicy.SWAPPED
TIMING = ("wall_s", "search_s")


@functools.lru_cache(maxsize=None)
def _cost(model: str, batch: int):
    device = v100_sxm2_16gb()
    transfer = TransferModel(link=karma_swap_link(), device=device,
                             host=abci_host())
    return profile_graph(build(model), device, transfer, batch)


@st.composite
def contexts(draw, k: int):
    """A registry model, one of its Fig. 5 batch sizes and a ``k``-block
    partition of it: blocks do not enter a structure key either."""
    model = draw(st.sampled_from(sorted(REGISTRY)))
    batch = draw(st.sampled_from(REGISTRY[model].fig5_batch_sizes))
    n = len(build(model))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k - 1,
                               max_size=k - 1)))
    bounds = [0] + cuts + [n]
    return model, batch, list(zip(bounds[:-1], bounds[1:]))


@st.composite
def vectors(draw):
    """One policy vector and placement map, priced in two contexts under
    one hierarchy."""
    k = draw(st.integers(1, 8))
    policies = draw(st.lists(st.sampled_from(POLICIES), min_size=k,
                             max_size=k))
    hierarchy = abci_hierarchy() if draw(st.booleans()) else None
    tiers = (1, 2) if hierarchy is not None else (1,)
    placements = {b: draw(st.sampled_from(tiers))
                  for b, p in enumerate(policies)
                  if p is S and draw(st.booleans())}
    return (policies, placements, hierarchy,
            [draw(contexts(k)) for _ in range(2)])


def _lower(model, batch, blocks, policies, placements, hierarchy,
           structure):
    cache = LoweringCache(_cost(model, batch), 16e9, hierarchy,
                          structure=structure)
    plan = make_plan(model, batch, blocks, policies, placements=placements,
                     lowering=cache)
    costs = cache.block_costs(plan)
    key = plan_structure_key(plan, costs)
    return key, plan, cache.lowered(plan, costs, key, 3)


def _fields(plan, lowered):
    """Everything a structure table keeps for one plan, as plain values:
    the stage schedule with its signature and checkpoints, the skeleton's
    roles and blocks, and every slot of its engine ``Schedule``."""
    roles, blocks, schedule = lowered
    return ([stage.label() for stage in plan.stages], plan.stages,
            plan.stages.signature, plan.checkpoints, roles, blocks,
            [getattr(schedule, slot) for slot in Schedule.__slots__])


@given(case=vectors())
def test_structure_is_the_same_in_every_context(case):
    policies, placements, hierarchy, both = case
    fresh = [_lower(*ctx, policies, placements, hierarchy, None)
             for ctx in both]
    (key, plan, lowered), (other_key, other_plan, other_lowered) = fresh
    assert key == other_key
    assert _fields(plan, lowered) == _fields(other_plan, other_lowered)
    structure = StructureCache()
    for ctx in both:   # the second context finds the first one's entries
        shared_key, shared_plan, shared_lowered = _lower(
            *ctx, policies, placements, hierarchy, structure)
        assert shared_key == key
        assert _fields(shared_plan, shared_lowered) == \
            _fields(plan, lowered)
    assert shared_lowered is structure.skeletons[key]
    assert len(structure.skeletons) == 1


# ---------------------------------------------------------------------------
# one table in a daemon with two worker threads
# ---------------------------------------------------------------------------

#: Distinct cold configs of one model, one stream per worker thread.
STREAMS = ([{"model": "resnet50", "batch": b} for b in (256, 272, 288, 304)],
           [{"model": "resnet50", "batch": b} for b in (264, 280, 296, 312)])


def _serve_streams(daemon: PlannerDaemon) -> Dict[int, Dict[str, Any]]:
    """Request each stream from its own thread, started together."""
    records: Dict[int, Dict[str, Any]] = {}
    start = threading.Barrier(len(STREAMS))

    def go(stream: List[Dict[str, Any]]) -> None:
        start.wait(10)
        for config in stream:
            response = daemon.request(config)
            assert response.tier == "cold"
            records[config["batch"]] = response.record

    threads = [threading.Thread(target=go, args=(stream,))
               for stream in STREAMS]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    return records


def _assert_in_process_records(records: Dict[int, Dict[str, Any]]) -> None:
    assert sorted(records) == sorted(c["batch"] for s in STREAMS for c in s)
    for stream in STREAMS:
        for config in stream:
            expected, _ = plan_config_full(config, use_cache=False)
            got = records[config["batch"]]
            assert {k: v for k, v in got.items() if k not in TIMING} == \
                {k: v for k, v in expected.items() if k not in TIMING}


def _skeleton_hits() -> float:
    return METRICS.snapshot()["counters"].get(
        "service.structure.skeleton_hits", 0.0)


def test_two_workers_plan_through_one_table():
    hits = _skeleton_hits()
    with PlannerDaemon(ServiceConfig(service_workers=2)) as daemon:
        records = _serve_streams(daemon)
        stats, frame = daemon.stats(), daemon.telemetry()
    assert stats["structure"]["generation"] == 0
    assert stats["structure"]["skeletons"] > 0
    assert frame["structure"] == stats["structure"]
    # later plans found the structure earlier ones lowered
    assert _skeleton_hits() > hits
    _assert_in_process_records(records)


def test_table_replaced_mid_stream_keeps_every_record():
    with PlannerDaemon(ServiceConfig(service_workers=2)) as daemon:
        daemon._structure = StructureCache(max_entries=8)
        records = _serve_streams(daemon)
        generation = daemon.stats()["structure"]["generation"]
    # every one of these plans lowers more than eight skeletons
    assert generation >= 2
    _assert_in_process_records(records)
