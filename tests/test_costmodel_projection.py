"""``CostModel``, the array projection of a graph's static profile, against
the per-layer loop it replaced (``tests/_reference_costmodel.py``).

The projection promises the same float operations in the same order as
the scalar formulas, so everything is compared exactly: the ``repr`` of
every per-layer record, every prefix and per-layer array as a list (and
its dtype), the totals and ``persistent_bytes()``.  The grid is every
registry model at its Fig. 5 batches plus 1, 7 and 1000, and the two
``eval/validation.py`` graphs, each at its stash and in-core activation
factor, without calibration and with a two-layer one.
"""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from repro.costs.calibration import (act_factor_for, optimizer_slots_for,
                                    stash_factor_for)
from repro.costs.profiler import CostModel, profile_graph
from repro.eval.validation import VALIDATION_CONFIGS
from repro.models.registry import REGISTRY, build
from tests._reference_costmodel import ReferenceCostModel

EXTRA_BATCHES = (1, 7, 1000)

GRAPHS = (
    [(name, REGISTRY[name].fig5_batch_sizes) for name in sorted(REGISTRY)]
    + [(f"val_{key}", (cfg.batch_size,))
       for key, cfg in sorted(VALIDATION_CONFIGS.items())])


def graph_named(name):
    if name.startswith("val_"):
        return VALIDATION_CONFIGS[name[len("val_"):]].builder()
    return build(name)


def two_layer_calibration(graph):
    """Scale two real layers; a name the graph lacks must be ignored."""
    return {graph[1].name: 1.37, graph[len(graph) - 2].name: 0.61,
            "no_such_layer": 9.0}


#: (projection attribute, reference attribute) pairs
ARRAYS = (
    ("_fw_prefix", "_fw_prefix"), ("_bw_prefix", "_bw_prefix"),
    ("_w_prefix", "_w_prefix"), ("_w_prefix", "_wg_prefix"),
    ("_a_prefix", "_a_prefix"), ("_acts", "_act_grads"),
    ("_workspaces", "_workspaces"), ("_inputs", "_inputs"),
)


@pytest.mark.parametrize("calibrated", [False, True],
                         ids=["uncalibrated", "calibrated"])
@pytest.mark.parametrize("factor", [stash_factor_for, act_factor_for],
                         ids=["stash", "act"])
@pytest.mark.parametrize("name,batches", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_projection_equals_per_layer_loop(name, batches, factor, calibrated,
                                          platform):
    device, _, transfer = platform
    graph = graph_named(name)
    calibration = two_layer_calibration(graph) if calibrated else None
    # profile_graph's default is the stash factor; the in-core act factors
    # (0.7 for resnet50/resnet1001) are the ones whose products land on
    # integers, where a reordered multiply truncates differently
    act_factor = factor(graph.name)
    for batch in sorted(set(batches) | set(EXTRA_BATCHES)):
        cm = profile_graph(graph, device, transfer, batch,
                           calibration=calibration, act_factor=act_factor)
        ref = ReferenceCostModel(
            graph, device, transfer, batch, calibration=calibration,
            act_factor=act_factor,
            optimizer_slots=optimizer_slots_for(graph.name))
        where = f"{name} b{batch}"
        assert len(cm) == len(ref) == len(graph), where
        for i in range(len(ref)):
            assert repr(cm.layer(i)) == repr(ref.layer(i)), (where, i)
            assert repr(cm.layer_mem(i)) == repr(ref.layer_mem(i)), (where, i)
        for mine, theirs in ARRAYS:
            a, b = getattr(cm, mine), getattr(ref, theirs)
            assert a.dtype == b.dtype, (where, mine)
            assert a.tolist() == b.tolist(), (where, mine)
        for total in ("total_fw_time", "total_bw_time",
                      "total_weight_bytes", "total_activation_bytes"):
            assert repr(getattr(cm, total)) == repr(getattr(ref, total)), \
                (where, total)
        assert cm.persistent_bytes() == ref.persistent_bytes(), where


def test_layer_accepts_negative_index(platform):
    device, _, transfer = platform
    graph = build("unet")
    cm = profile_graph(graph, device, transfer, 8)
    ref = ReferenceCostModel(graph, device, transfer, 8,
                             act_factor=stash_factor_for("unet"))
    assert repr(cm.layer(-1)) == repr(ref.layer(-1))
    with pytest.raises(IndexError):
        cm.layer(len(graph))


@pytest.mark.parametrize("kwargs", [
    {"batch_size": 0}, {"act_factor": 0.0}, {"act_factor": -1.0},
    {"act_factor": math.nan}, {"act_factor": math.inf}])
def test_invalid_projection_inputs_raise(kwargs, platform):
    device, _, transfer = platform
    args = {"batch_size": 8, **kwargs}
    with pytest.raises(ValueError):
        CostModel(build("unet"), device, transfer, **args)


def test_array_roofline_equals_scalar(platform):
    device = platform[0]
    rng = np.random.default_rng(0)
    flops = np.concatenate([[0.0, -1.0, 1.0, 3e13],
                            rng.uniform(0, 1e12, 200)])
    nbytes = np.concatenate([[0, 5, -3, 0],
                             rng.integers(0, 1 << 40, 200)])
    arr = device.compute_times(flops, nbytes)
    assert arr.tolist() == [device.compute_time(float(f), int(b))
                            for f, b in zip(flops, nbytes)]


def test_second_profile_allocates_no_per_layer_objects(platform):
    """A repeat profile of a built graph is array work: the per-layer
    loop created ~6.7k GC-tracked records for resnet1001."""
    device, _, transfer = platform
    graph = build("resnet1001")
    profile_graph(graph, device, transfer, 256)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        cm = profile_graph(graph, device, transfer, 256)
        created = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(cm) == len(graph)
    assert created < 100


#: Scales ``fit_op_scales`` would never emit: not finite, or not > 0.
BAD_SCALES = [math.nan, math.inf, -math.inf, 0.0, -1.0]


@pytest.mark.parametrize("scale", BAD_SCALES)
def test_bad_calibration_scale_raises_naming_the_layer(scale, platform):
    """A NaN scale used to price its layer as free (resnet50 b512's
    objective fell from 1.5863 to 0.4649 s), -1.0 shaved it silently and
    inf surfaced as "no feasible blocking found"."""
    from repro.core import plan

    device, _, transfer = platform
    graph = build("resnet50")
    with pytest.raises(ValueError, match="'conv1x1a'"):
        CostModel(graph, device, transfer, 8,
                  calibration={"stem_conv": 1.5, "conv1x1a": scale})
    with pytest.raises(ValueError, match="'conv1x1a'"):
        plan(graph, 512, calibration={"conv1x1a": scale})
