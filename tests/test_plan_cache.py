"""Plan-cache coverage: digest stability, versioned invalidation,
parallel-vs-serial search equality, and the CLI service layer."""

import json
import math
import subprocess
import sys

import pytest

from repro.cache import (
    PlanCache,
    canonical_json,
    plan_digest,
    stable_digest,
)
from repro.cache.digest import CACHE_FORMAT_VERSION
from repro.cli import main as cli_main
from repro.cli import plan_config
from repro.core import plan, portfolio_search
from repro.costs import profile_graph
from repro.hardware import (
    TransferModel,
    abci_host,
    karma_swap_link,
    tiny_test_device,
)
from repro.hardware.spec import canonical_spec, v100_sxm2_16gb
from repro.hardware.tiering import (
    abci_hierarchy,
    three_tier_hierarchy,
    tiny_test_hierarchy,
    two_tier_hierarchy,
)
from repro.models import REGISTRY, build
from repro.models.builder import GraphBuilder
from repro.tiering import PlacementError


def small_cnn(width: int = 8) -> object:
    b = GraphBuilder("cache_test_cnn")
    b.input((3, 16, 16))
    for w in (width, width, 2 * width):
        b.conv(w, 3)
        b.relu()
    b.pool(2, 2)
    b.conv(2 * width, 3)
    b.relu()
    b.global_avg_pool()
    b.flatten()
    b.linear(5)
    b.softmax()
    b.loss()
    return b.finish()


@pytest.fixture()
def tiny_platform():
    graph = small_cnn()
    device = tiny_test_device(memory=500_000)
    transfer = TransferModel(link=karma_swap_link(), device=device,
                             host=abci_host())
    cost = profile_graph(graph, device, transfer, batch_size=8)
    return graph, device, transfer, cost


def digest_of_unet() -> str:
    graph = build("unet")
    device = v100_sxm2_16gb()
    transfer = TransferModel(link=karma_swap_link(), device=device,
                             host=abci_host())
    return plan_digest(graph, 16, device=device, transfer=transfer,
                       capacity=device.usable_memory,
                       hierarchy=two_tier_hierarchy(),
                       knobs={"method": "auto", "recompute": True})


# --------------------------------------------------------------------------
# Digests
# --------------------------------------------------------------------------

class TestDigest:
    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_canonical_json_rejects_non_json_values(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_canonical_spec_nested_and_sorted(self):
        spec = canonical_spec(v100_sxm2_16gb())
        assert spec["spec"] == "DeviceSpec"
        assert list(spec.keys())[1:] == sorted(list(spec.keys())[1:])
        hier = two_tier_hierarchy().canonical_dict()
        assert hier["spec"] == "MemoryHierarchy"
        assert [t["spec"] for t in hier["tiers"]] == ["TierSpec", "TierSpec"]

    def test_digest_stable_within_process(self):
        assert digest_of_unet() == digest_of_unet()

    def test_digest_stable_across_process_restarts(self):
        """The acceptance property: a fresh interpreter reproduces the key."""
        code = ("import sys; sys.path.insert(0, 'src'); "
                "from tests.test_plan_cache import digest_of_unet; "
                "print(digest_of_unet())")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             cwd=str(__import__("pathlib").Path(
                                 __file__).resolve().parent.parent))
        assert out.stdout.strip() == digest_of_unet()

    def test_digest_sensitive_to_graph_and_batch(self, tiny_platform):
        graph, device, transfer, _ = tiny_platform
        base = dict(device=device, transfer=transfer, capacity=1e6,
                    hierarchy=None, knobs={})
        d1 = plan_digest(graph, 8, **base)
        assert plan_digest(graph, 9, **base) != d1
        assert plan_digest(small_cnn(width=16), 8, **base) != d1

    def test_digest_invalidated_by_hierarchy_change(self, tiny_platform):
        graph, device, transfer, _ = tiny_platform
        base = dict(device=device, transfer=transfer, capacity=1e6,
                    knobs={})
        two = plan_digest(graph, 8, hierarchy=two_tier_hierarchy(), **base)
        three = plan_digest(graph, 8, hierarchy=three_tier_hierarchy(),
                            **base)
        tiny = plan_digest(graph, 8, hierarchy=tiny_test_hierarchy(), **base)
        none = plan_digest(graph, 8, hierarchy=None, **base)
        assert len({two, three, tiny, none}) == 4

    def test_digest_invalidated_by_solver_version(self, tiny_platform,
                                                  monkeypatch):
        graph, device, transfer, _ = tiny_platform
        base = dict(device=device, transfer=transfer, capacity=1e6,
                    hierarchy=None, knobs={})
        before = plan_digest(graph, 8, **base)
        import repro.core.solver as solver
        monkeypatch.setattr(solver, "SOLVER_VERSION", "999.test")
        assert plan_digest(graph, 8, **base) != before

    @pytest.mark.parametrize("hierarchy", [None, "abci"])
    @pytest.mark.parametrize("model", sorted(REGISTRY))
    def test_digest_equals_whole_payload_digest(self, model, hierarchy):
        """Splicing the graph's cached bytes into the payload keeps every
        key equal to the one-shot digest of the whole payload."""
        from repro.core.planner import _digest_inputs
        from repro.core.solver import SOLVER_VERSION

        graph = build(model)
        device = v100_sxm2_16gb()
        transfer = TransferModel(link=karma_swap_link(), device=device,
                                 host=abci_host())
        hier = abci_hierarchy() if hierarchy else None
        cost = profile_graph(graph, device, transfer, 16,
                             calibration={graph[2].name: 1.5})
        knobs = {"recompute": True, "method": "auto", "max_span": 64,
                 "placement_policy": "auto", "act_factor": cost.act_factor,
                 "optimizer_slots": cost.optimizer_slots,
                 "dtype_bytes": cost.dtype_bytes,
                 "calibration": dict(cost.calibration)}
        whole = stable_digest({
            "format_version": CACHE_FORMAT_VERSION,
            "solver_version": SOLVER_VERSION,
            "graph": graph.canonical_dict(),
            "batch_size": 16,
            "device": canonical_spec(device),
            "transfer": transfer.canonical_dict(),
            "capacity": float(device.usable_memory),
            "hierarchy": hier.canonical_dict() if hier else None,
            "knobs": knobs,
        })
        assert plan_digest(graph, 16, device=device, transfer=transfer,
                           capacity=device.usable_memory, hierarchy=hier,
                           knobs=knobs) == whole
        assert _digest_inputs(graph, 16, device, transfer,
                              device.usable_memory, hier, cost, True, "auto",
                              64, "auto") == whole

    def test_digest_sensitive_to_knobs(self, tiny_platform):
        graph, device, transfer, _ = tiny_platform
        base = dict(device=device, transfer=transfer, capacity=1e6,
                    hierarchy=None)
        assert plan_digest(graph, 8, knobs={"method": "auto"}, **base) \
            != plan_digest(graph, 8, knobs={"method": "dp"}, **base)


# --------------------------------------------------------------------------
# PlanCache store
# --------------------------------------------------------------------------

class TestPlanCache:
    def test_memory_roundtrip_and_stats(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        key = stable_digest({"k": 1})
        assert cache.get(key) is None
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_disk_persistence_across_instances(self, tmp_path):
        key = stable_digest({"k": 2})
        PlanCache(cache_dir=tmp_path).put(key, {"plan": [1, 2, 3]})
        fresh = PlanCache(cache_dir=tmp_path)
        assert fresh.get(key) == {"plan": [1, 2, 3]}
        assert fresh.stats.disk_hits == 1

    def test_no_persist_mode(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path, persist=False)
        cache.put("a" * 64, {"x": 1})
        assert not list(tmp_path.glob("*.json"))
        assert PlanCache(cache_dir=tmp_path).get("a" * 64) is None

    def test_lru_eviction(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path, capacity=2, persist=False)
        for i in range(3):
            cache.put(f"key{i}", {"i": i})
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("key0") is None      # evicted (oldest)
        assert cache.get("key2") == {"i": 2}

    def test_solver_version_mismatch_invalidates_on_load(self, tmp_path,
                                                         monkeypatch):
        cache = PlanCache(cache_dir=tmp_path)
        key = stable_digest({"k": 3})
        cache.put(key, {"x": 1})
        path = cache.path_for(key)
        assert path.is_file()
        import repro.core.solver as solver
        monkeypatch.setattr(solver, "SOLVER_VERSION", "999.test")
        fresh = PlanCache(cache_dir=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.invalidated == 1
        assert not path.is_file()             # stale entry dropped

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        key = "f" * 64
        cache.cache_dir.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        cache.put("a" * 64, {"x": 1})
        cache.put("b" * 64, {"x": 2})
        assert cache.clear() >= 2
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.json"))


# --------------------------------------------------------------------------
# Planner integration
# --------------------------------------------------------------------------

def assert_plans_equal(a, b):
    assert a.plan.plan_string() == b.plan.plan_string()
    assert a.plan.placements == b.plan.placements
    assert a.blocking.boundaries_segments == b.blocking.boundaries_segments
    assert a.blocking.objective == b.blocking.objective
    assert [p.name for p in a.blocking.policies] \
        == [p.name for p in b.blocking.policies]
    if a.recompute is None:
        assert b.recompute is None
    else:
        assert a.recompute.flipped == b.recompute.flipped
        assert a.recompute.makespan_after == b.recompute.makespan_after


class TestPlannerCache:
    def test_warm_hit_reproduces_cold_plan(self, tiny_platform, tmp_path):
        graph, device, transfer, _ = tiny_platform
        cache = PlanCache(cache_dir=tmp_path)
        cold = plan(graph, batch_size=8, device=device, transfer=transfer,
                    cache=cache)
        warm = plan(graph, batch_size=8, device=device, transfer=transfer,
                    cache=cache)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.cache_key == warm.cache_key
        assert_plans_equal(cold, warm)

    def test_disk_hit_across_cache_instances(self, tiny_platform, tmp_path):
        graph, device, transfer, _ = tiny_platform
        cold = plan(graph, batch_size=8, device=device, transfer=transfer,
                    cache=PlanCache(cache_dir=tmp_path))
        warm = plan(graph, batch_size=8, device=device, transfer=transfer,
                    cache=PlanCache(cache_dir=tmp_path))
        assert warm.cache_hit
        assert_plans_equal(cold, warm)
        # the cached record reports the cold search's wall time
        assert warm.search_time == pytest.approx(cold.search_time)

    def test_tiered_plan_roundtrips_placements(self, tiny_platform,
                                               tmp_path):
        graph, device, transfer, cost = tiny_platform
        hier = tiny_test_hierarchy(dram=max(
            1024 * 1024,
            sum(cost.block_activation_bytes(i, i + 1)
                for i in range(len(cost))) // 2))
        cache = PlanCache(cache_dir=tmp_path)
        cold = plan(graph, batch_size=8, device=device, transfer=transfer,
                    hierarchy=hier, cache=cache)
        warm = plan(graph, batch_size=8, device=device, transfer=transfer,
                    hierarchy=hier, cache=cache)
        assert warm.cache_hit
        assert_plans_equal(cold, warm)
        if cold.placement is not None:
            assert warm.placement is not None
            assert warm.placement.placements == cold.placement.placements
            assert warm.placement.tier_bytes == cold.placement.tier_bytes

    def test_different_hierarchy_misses(self, tiny_platform, tmp_path):
        graph, device, transfer, _ = tiny_platform
        cache = PlanCache(cache_dir=tmp_path)
        plan(graph, batch_size=8, device=device, transfer=transfer,
             cache=cache)
        tiered = plan(graph, batch_size=8, device=device, transfer=transfer,
                      hierarchy=tiny_test_hierarchy(), cache=cache)
        assert not tiered.cache_hit


# --------------------------------------------------------------------------
# Portfolio search
# --------------------------------------------------------------------------

def grid_objective(cand, margin, policy):
    """Toy objective with deliberate ties."""
    if policy == "reject":
        raise PlacementError(f"policy rejected for {cand}")
    return round(sum(cand) * margin, 6)


class TestParallelSearch:
    """The portfolio sweep's contract: serial-order tie-break, recorded
    rejections, and the legacy ``(best, dims, value)`` unpacking."""

    CANDS = [[1, 4], [2, 4], [1, 2, 4], [4]]
    DIMS = ([0.5, 1.0], ["a", "b"])

    def test_tie_break_matches_serial_first_seen(self):
        # [1, 4] and [2, 4] tie at margin 0.5 vs 1.0 crossings; the winner
        # must be the earliest grid index, same as the serial strict-<.
        res = portfolio_search([[3], [1, 2], [2, 1]], ([1.0], ["a"]),
                               lambda c, m, p: 3.0)
        assert res.best_candidate == [3]
        assert res.n_workers == 1

    def test_rejections_recorded_not_fatal(self):
        res = portfolio_search(self.CANDS, ([1.0], ["a", "reject"]),
                               grid_objective,
                               reject_on=(PlacementError,))
        assert res.best_candidate is not None
        assert len(res.rejected) == len(self.CANDS)
        assert all(r.error_type == "PlacementError" for r in res.rejected)
        assert res.evaluated == 2 * len(self.CANDS)

    def test_all_rejected_returns_none(self):
        res = portfolio_search(self.CANDS, ([1.0], ["reject"]),
                               grid_objective,
                               reject_on=(PlacementError,))
        assert res.best_candidate is None
        assert math.isinf(res.best_value)

    def test_legacy_tuple_unpacking(self):
        best, dims, value = portfolio_search(
            self.CANDS, self.DIMS, grid_objective)
        assert best == [4]
        assert value == pytest.approx(2.0)


# --------------------------------------------------------------------------
# CLI service layer
# --------------------------------------------------------------------------

class TestCli:
    def test_plan_config_miss_then_hit(self, tmp_path):
        cfg = {"model": "unet", "batch": 16}
        first = plan_config(cfg, cache_dir=str(tmp_path))
        second = plan_config(cfg, cache_dir=str(tmp_path))
        assert first["cache"] == "miss" and second["cache"] == "hit"
        assert first["plan_string"] == second["plan_string"]
        assert second["wall_s"] < first["wall_s"]

    def test_cli_plan_json_output(self, tmp_path, capsys):
        rc = cli_main(["plan", "--model", "unet", "--batch", "16",
                       "--cache-dir", str(tmp_path), "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["model"] == "unet" and out[0]["cache"] == "miss"

    def test_cli_manifest_and_cache_commands(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"model": "unet", "batch": 16},
            {"model": "unet", "batch": 24},
        ]))
        rc = cli_main(["plan", "--manifest", str(manifest),
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert "2 configuration(s)" in capsys.readouterr().out
        rc = cli_main(["cache", "info",
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert "2 entr(ies)" in capsys.readouterr().out
        rc = cli_main(["cache", "clear",
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert "cleared 2" in capsys.readouterr().out

    def test_cli_error_isolation_in_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"model": "no_such_model", "batch": 4},
            {"model": "unet", "batch": 16},
        ]))
        rc = cli_main(["plan", "--manifest", str(manifest),
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 1   # failure reported, but the good config planned

    def test_cli_no_cache(self, tmp_path, capsys):
        rc = cli_main(["plan", "--model", "unet", "--batch", "16",
                       "--no-cache", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert not list(tmp_path.glob("*.json"))
