"""One stage schedule per policy vector within a ``plan()``, and no longer.

The blocking search builds a plan per priced candidate, but candidates
repeat policy vectors: resnet1001 b192 builds 275 plans from 43 distinct
(policies, placements).  The search's ``LoweringCache`` keeps each
validated schedule, so ``generate_stages`` and the validation stage walk
run once per distinct vector, while every plan is still built and
validated.  The layer dies with the cache: nothing survives ``plan()``.
"""

import pickle
from collections import Counter

import pytest

import repro.core.stages as stages_module
from repro.core import BlockPolicy, PlanValidationError, make_plan, plan
from repro.core.schedule import ExecutionPlan, Stages
from repro.costs import profile_graph
from repro.models import build
from repro.sim import LoweringCache, simulate_plan
from repro.sim.trainer_sim import plan_structure_key

R, S, C = BlockPolicy.RESIDENT, BlockPolicy.SWAPPED, BlockPolicy.RECOMPUTED


@pytest.fixture
def counted(monkeypatch):
    """Counts ``generate_stages`` calls, stage walks, ``make_plan`` calls
    and the distinct (policies, placements) those plans were built from."""
    counts: Counter = Counter()
    vectors = set()
    generate = stages_module.generate_stages
    walk = ExecutionPlan._validate_stages
    build_plan = stages_module.make_plan

    def counted_generate(*args, **kwargs):
        counts["generate"] += 1
        return generate(*args, **kwargs)

    def counted_walk(self, *args):
        counts["walk"] += 1
        return walk(self, *args)

    def counted_make_plan(*args, **kwargs):
        counts["make_plan"] += 1
        built = build_plan(*args, **kwargs)
        vectors.add((built.policies, tuple(sorted(built.placements.items()))))
        return built

    monkeypatch.setattr(stages_module, "generate_stages", counted_generate)
    monkeypatch.setattr(ExecutionPlan, "_validate_stages", counted_walk)
    for name in ("blocking", "recompute", "planner"):
        monkeypatch.setattr(f"repro.core.{name}.make_plan", counted_make_plan)
    return counts, vectors


def _deep_plan():
    return plan(build("resnet1001"), 192)


def test_one_plan_builds_each_schedule_once(counted):
    counts, vectors = counted
    _deep_plan()
    assert counts["generate"] == len(vectors)
    assert counts["walk"] == len(vectors)
    assert counts["make_plan"] > 6 * len(vectors)   # 275 plans, 43 vectors


def test_nothing_survives_plan(counted):
    counts, _ = counted
    first = _deep_plan()
    built = counts["generate"]
    second = _deep_plan()
    assert counts["generate"] == 2 * built
    assert second.plan == first.plan
    assert second.plan.stages is not first.plan.stages


@pytest.fixture
def small_context(small_cnn, platform):
    device, _, transfer = platform
    cost = profile_graph(small_cnn, device, transfer, 64)
    n = len(small_cnn)
    blocks = [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]
    return small_cnn.name, blocks, cost, LoweringCache(cost, 2 ** 40)


def test_candidates_share_one_schedule(small_context):
    name, blocks, cost, lowering = small_context
    a = make_plan(name, 64, blocks, [S, S, R], lowering=lowering)
    b = make_plan(name, 64, blocks, [S, S, R], lowering=lowering)
    fresh = make_plan(name, 64, blocks, [S, S, R])
    assert a.stages is b.stages
    assert a == b == fresh and a.checkpoints is not b.checkpoints
    assert isinstance(a.stages, Stages)
    assert a.stages.signature is b.stages.signature
    costs = lowering.block_costs(a)
    assert plan_structure_key(a, costs) == plan_structure_key(fresh, costs)
    assert (simulate_plan(a, cost, 2 ** 40, cache=lowering).makespan
            == simulate_plan(fresh, cost, 2 ** 40).makespan)


def test_invalid_schedule_raises_on_every_build(small_context, monkeypatch):
    name, blocks, _, lowering = small_context
    for _ in range(2):   # a placement on a resident block
        with pytest.raises(PlanValidationError, match="not swapped"):
            make_plan(name, 64, blocks, [S, S, R], placements={2: 2},
                      lowering=lowering)
    generate = stages_module.generate_stages

    def no_last_backward(*args, **kwargs):
        built, checkpoints = generate(*args, **kwargs)
        return Stages(built[:-1]), checkpoints

    monkeypatch.setattr(stages_module, "generate_stages", no_last_backward)
    for _ in range(2):   # a schedule whose stage walk fails
        with pytest.raises(PlanValidationError, match="never backward"):
            make_plan(name, 64, blocks, [S, S, R], lowering=lowering)
    assert lowering._schedules == {}


def test_a_walk_is_not_reused_for_other_policies(small_context):
    name, blocks, _, lowering = small_context
    walked = make_plan(name, 64, blocks, [S, S, R], lowering=lowering)
    other = ExecutionPlan(model_name=name, batch_size=64,
                          blocks=walked.blocks, policies=(S, C, R),
                          stages=walked.stages, checkpoints={1: 0})
    with pytest.raises(PlanValidationError, match="before its recompute"):
        other.validate()
    walked.validate()


def test_lowering_cache_with_schedules_pickles(small_context, counted):
    counts, _ = counted
    name, blocks, _, lowering = small_context
    original = make_plan(name, 64, blocks, [S, C, R], lowering=lowering)
    copy = pickle.loads(pickle.dumps(lowering))
    again = make_plan(name, 64, blocks, [S, C, R], lowering=copy)
    assert counts["generate"] == 1 and counts["walk"] == 1
    assert type(again.stages) is Stages and again == original
    assert again.stages.signature == original.stages.signature
