"""Smoke test of the end-to-end benchmark: every workload at 2% size.

Collected by ``pytest benchmarks/`` (the heavy modules are ``run.py`` /
``workloads.py`` / ``layers.py``, which no pattern collects, so CI never
launches the full run).  Checks the contract between ``run.py`` and
``BENCHMARK.json``, not performance.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--scale", "0.02",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def check(result, declared):
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, trace=0)
    check(result, SPEC["end_to_end"])
    # every end-to-end metric is a positive measurement on every workload
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_partition_the_op():
    result = run("serve_cold", trace=1)
    check(result, SPEC["per_layer"])
    value = {k: v["value"] for k, v in result["metrics"].items()}
    # tier counts equal op counts (run.py also fails the run otherwise)
    assert value["service.daemon.plans.cold"] == result["attempted"]
    assert value["service.daemon.plans.hot"] == 0
    assert value["service.daemon.plans.warm"] == 0
    # self times plus the unattributed remainder are the op wall
    attributed = sum(v for k, v in value.items() if k.endswith(".self_ms"))
    assert attributed + value["trace.unattributed_ms"] == pytest.approx(
        value["trace.op_wall_ms"], rel=1e-6)
    assert value["trace.coverage"] > 0.9
