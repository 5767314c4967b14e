"""Import budget: each entry point loads only what it uses.

Every check runs in a fresh interpreter, because this test session has
long since imported everything.  ``import repro`` loads no subpackage;
planning a model loads neither SciPy nor networkx, nor the numeric,
distributed, elastic, evaluation or baseline subpackages; a planning
service client loads no planner.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: What a plan must not import: top-level packages and ``repro``
#: subpackages, each matched with its submodules.
OFF_PLAN_PATH = ("scipy", "networkx", "repro.baselines", "repro.eval",
                 "repro.nn", "repro.runtime", "repro.distributed",
                 "repro.elastic")

LOADED = """
import json
print(json.dumps(sorted(sys.modules)))
"""


def run_fresh(code: str, tmp_path: Path) -> list:
    """Run ``code`` (``sys`` already imported) in a new interpreter and
    return the names in its ``sys.modules`` afterwards."""
    env = {**os.environ, "PYTHONPATH": SRC,
           "KARMA_PLAN_CACHE_DIR": str(tmp_path / "cache")}
    out = subprocess.run([sys.executable, "-c",
                          "import sys\n" + code + LOADED],
                         capture_output=True, text=True, env=env,
                         cwd=str(tmp_path), timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def loaded_under(modules: list, prefixes) -> list:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_import_repro_loads_no_subpackage(tmp_path):
    modules = run_fresh("import repro\n", tmp_path)
    assert loaded_under(modules, ["repro"]) == ["repro"]


def test_subpackages_resolve_on_first_use(tmp_path):
    code = """
import repro
assert repro.sim.simulate is not None
assert "repro.sim" in sys.modules and "repro.nn" not in sys.modules
names = dir(repro)
assert set(repro.__all__) <= set(names), names
ns = {}
exec("from repro import *", ns)
assert {n for n in repro.__all__ if n != "__version__"} <= set(ns)
assert ns["nn"] is sys.modules["repro.nn"]
try:
    repro.no_such_subpackage
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
"""
    run_fresh(code, tmp_path)


def test_plan_config_full_stays_off_scipy_and_networkx(tmp_path):
    modules = run_fresh("""
from repro.cli import plan_config_full
record, _ = plan_config_full({"model": "resnet50", "batch": 256},
                             use_cache=False)
assert record["batch"] == 256
""", tmp_path)
    assert "repro.core.planner" in modules
    assert loaded_under(modules, OFF_PLAN_PATH) == []


def test_daemon_plans_off_scipy_and_networkx(tmp_path):
    modules = run_fresh("""
from repro.service.daemon import PlannerDaemon
loaded_before = set(sys.modules)
daemon = PlannerDaemon(cache=None).start()
try:
    response = daemon.request({"model": "resnet50", "batch": 256})
finally:
    daemon.stop()
assert response.record["batch"] == 256
# the default planner's modules came with the daemon, not the request
new = sorted(m for m in set(sys.modules) - loaded_before
             if m.startswith("repro."))
assert new == [], new
""", tmp_path)
    assert loaded_under(modules, OFF_PLAN_PATH) == []


def test_pure_client_loads_no_planner(tmp_path):
    modules = run_fresh("import repro.service.client\n", tmp_path)
    assert "repro.service.client" in modules
    assert loaded_under(modules, ["repro.core", "repro.sim",
                                  "repro.service.daemon"]) == []
    # the package's names still resolve, on first access
    modules = run_fresh("""
from repro.service import PlannerDaemon
assert PlannerDaemon.__module__ == "repro.service.daemon"
""", tmp_path)
    assert "repro.core.planner" in modules


def test_checkmate_still_plans_with_scipy(tmp_path):
    modules = run_fresh("""
from repro.baselines import checkmate_plan
from repro.costs.profiler import profile_graph
from repro.hardware import (TransferModel, abci_host, karma_swap_link,
                            v100_sxm2_16gb)
from repro.models import build
graph = build("resnet50")
device = v100_sxm2_16gb()
transfer = TransferModel(link=karma_swap_link(), device=device,
                         host=abci_host())
cost = profile_graph(graph, device, transfer, 64)
cap = (cost.persistent_bytes() + int(0.5 * cost.total_activation_bytes)
       + 2 * cost.block_memory(0, len(graph)).peak_workspace)
plan = checkmate_plan(graph, cost, cap, 64)
plan.validate(graph)
""", tmp_path)
    assert "scipy.optimize" in modules
