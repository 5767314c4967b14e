"""Golden Opt-1 answers: any change to the blocking DP or the planner that
moves a plan shows up here as an exact mismatch.

``tests/golden/opt1_plans.json`` holds two kinds of entry:

* ``plans`` — ``plan_string``, ``repr`` of the final makespan and the
  segment boundaries from ``plan_config_full(cfg, use_cache=False)`` for
  the seven cold-plan configs of the end-to-end benchmark;
* ``dp`` — ``solve_dp(make_problem(build_inputs(...), max_span))``
  boundaries (``null`` where the DP finds no feasible partition) for every
  registry model x its Fig. 5 batch sizes that does not fit in core, at
  ``max_span`` 3, 8 and 64.

A change that means to move plans regenerates the file (and bumps
``SOLVER_VERSION``)::

    PYTHONPATH=src python tests/test_opt1_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

GOLDEN = Path(__file__).parent / "golden" / "opt1_plans.json"

PLAN_COLD_CONFIGS = (
    [{"model": "resnet200", "batch": b, "hierarchy": "abci"}
     for b in (12, 16, 20, 24)]
    + [{"model": "resnet1001", "batch": b, "hierarchy": "none"}
       for b in (128, 192, 256)])

MAX_SPANS = (3, 8, 64)


def plan_key(cfg: Dict) -> str:
    return f"{cfg['model']}/b{cfg['batch']}/{cfg['hierarchy']}"


def plan_entry(cfg: Dict) -> Dict:
    from repro.cli import plan_config_full

    record, kp = plan_config_full(cfg, use_cache=False)
    makespan = (kp.recompute.makespan_after if kp.recompute is not None
                else kp.blocking.objective)
    return {"plan_string": record["plan_string"],
            "makespan": repr(makespan),
            "boundaries_segments": list(kp.blocking.boundaries_segments)}


def dp_entries(model: str) -> Iterator[Tuple[str, Optional[List[int]]]]:
    """``(key, boundaries or None)`` for one model's out-of-core Fig. 5
    batch sizes at every span cap."""
    from repro.core.blocking import (
        build_inputs,
        fits_without_swapping,
        make_problem,
    )
    from repro.core.solver import solve_dp
    from repro.costs import profile_graph
    from repro.eval.experiments import default_platform
    from repro.models.registry import REGISTRY

    device, _, transfer = default_platform()
    entry = REGISTRY[model]
    graph = entry.builder()
    for batch in entry.fig5_batch_sizes:
        cost = profile_graph(graph, device, transfer, batch)
        inputs = build_inputs(graph, cost, device.usable_memory)
        if fits_without_swapping(inputs):
            continue  # the planner never runs the DP in core
        for span in MAX_SPANS:
            try:
                bounds: Optional[List[int]] = solve_dp(
                    make_problem(inputs, max_span=span))
            except ValueError:
                bounds = None
            yield f"{model}/b{batch}/span{span}", bounds


def fig5_model_names() -> List[str]:
    from repro.models.registry import fig5_models

    return [e.name for e in fig5_models()]


def generate() -> Dict:
    return {"plans": {plan_key(cfg): plan_entry(cfg)
                      for cfg in PLAN_COLD_CONFIGS},
            "dp": {key: bounds for model in fig5_model_names()
                   for key, bounds in dp_entries(model)}}


def dump(golden: Dict) -> str:
    """JSON with one entry per line, so a regenerated file diffs by case."""
    sections = [
        f' "{name}": {{\n' + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
            for key, entry in sorted(golden[name].items())) + "\n }"
        for name in sorted(golden)]
    return "{\n" + ",\n".join(sections) + "\n}\n"


@pytest.fixture(scope="module")
def golden() -> Dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden["plans"]) == sorted(map(plan_key, PLAN_COLD_CONFIGS))
    assert len(golden["dp"]) == 78


@pytest.mark.parametrize("cfg", PLAN_COLD_CONFIGS, ids=plan_key)
def test_cold_plan_matches_golden(cfg, golden):
    assert plan_entry(cfg) == golden["plans"][plan_key(cfg)]


@pytest.mark.parametrize("model", fig5_model_names())
def test_registry_dp_matches_golden(model, golden):
    want = {k: v for k, v in golden["dp"].items()
            if k.startswith(f"{model}/")}
    assert dict(dp_entries(model)) == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(generate()))
    print(f"wrote {GOLDEN}")
