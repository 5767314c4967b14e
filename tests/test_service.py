"""The multi-tenant planning service: daemon, single-flight, cluster.

Concurrency tests gate the fake planner on events rather than relying
on timing: real tiny plans finish in milliseconds, far too fast for
threads to overlap naturally, so every stampede/saturation scenario
holds the planner open until the test has asserted the intermediate
state (merges attached, queue full) and only then releases it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import threading
import time
from typing import Any, Dict, List

import pytest

from repro.cache.plan_cache import PlanCache
from repro.hardware.tiering import MiB, tiny_test_hierarchy
from repro.obs.metrics import METRICS
from repro.service import (
    BadRequest,
    ClusterArbiter,
    DeadlineExpired,
    JobDemand,
    PlacementDenied,
    PlannerDaemon,
    PlanningFailed,
    QueueFull,
    ServiceClosed,
    ServiceConfig,
    request_key,
)
from repro.service.client import PlannerClient, wait_for_server
from repro.service.cluster import demand_from_record, place_jobs
from repro.service.server import MAX_FRAME_BYTES, PlannerServer, parse_address


def _counter(name: str) -> float:
    return METRICS.snapshot()["counters"].get(name, 0.0)


def _fake_planner(gate: threading.Event, calls: List[Dict[str, Any]]):
    """A planner that blocks on ``gate`` and logs the configs it plans."""

    def planner(config: Dict[str, Any]) -> Dict[str, Any]:
        calls.append(config)
        assert gate.wait(10), "test gate never opened"
        return {"cache": "miss", "model": config.get("model"),
                "batch": config.get("batch")}

    return planner


# ---------------------------------------------------------------------------
# request keys
# ---------------------------------------------------------------------------

class TestRequestKey:
    def test_none_values_do_not_change_the_key(self):
        assert request_key({"model": "unet", "batch": 8}) == \
            request_key({"model": "unet", "batch": 8, "capacity": None})

    def test_meaningful_fields_do(self):
        base = request_key({"model": "unet", "batch": 8})
        assert request_key({"model": "unet", "batch": 16}) != base
        assert request_key({"model": "unet", "batch": 8,
                            "hierarchy": "tiny"}) != base

    def test_key_is_a_stable_hex_digest(self):
        k = request_key({"model": "unet", "batch": 8})
        assert len(k) == 64 and int(k, 16) >= 0


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_queue_full_sheds_immediately_with_typed_rejection(self):
        gate = threading.Event()
        calls: List[Dict[str, Any]] = []
        daemon = PlannerDaemon(
            ServiceConfig(queue_depth=1, service_workers=1),
            planner=_fake_planner(gate, calls))
        with daemon:
            # saturate deterministically: first request occupies the one
            # worker (wait until the planner is actually invoked), then a
            # second fills the one queue slot
            t_worker = threading.Thread(
                target=lambda: daemon.request({"model": "m", "batch": 0}))
            t_worker.start()
            deadline = time.monotonic() + 5
            while not calls and time.monotonic() < deadline:
                time.sleep(0.005)
            assert calls, "worker never picked up the first request"
            t_queued = threading.Thread(
                target=lambda: daemon.request({"model": "m", "batch": 1}))
            t_queued.start()
            deadline = time.monotonic() + 5
            while daemon._queue.qsize() < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert daemon._queue.qsize() == 1, "queue slot never filled"
            # worker busy + queue full: the next distinct request must
            # shed immediately with the typed rejection — never a hang
            t0 = time.perf_counter()
            with pytest.raises(QueueFull):
                daemon.request({"model": "m", "batch": 99})
            assert time.perf_counter() - t0 < 1.0
            gate.set()
            t_worker.join()
            t_queued.join()
        assert _counter("service.rejected.queue_full") >= 1

    def test_deadline_expires_while_waiting(self):
        gate = threading.Event()
        daemon = PlannerDaemon(
            ServiceConfig(queue_depth=4, service_workers=1),
            planner=_fake_planner(gate, []))
        with daemon:
            blocker = threading.Thread(
                target=lambda: daemon.request({"model": "m", "batch": 0}))
            blocker.start()
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExpired):
                daemon.request({"model": "m", "batch": 1},
                               deadline_s=0.05)
            assert time.perf_counter() - t0 < 2.0
            gate.set()
            blocker.join()
        assert _counter("service.rejected.deadline") >= 1

    def test_deadline_expires_for_a_queued_job(self):
        gate = threading.Event()
        calls: List[Dict[str, Any]] = []
        daemon = PlannerDaemon(
            ServiceConfig(queue_depth=4, service_workers=1),
            planner=_fake_planner(gate, calls))
        with daemon:
            blocker = threading.Thread(
                target=lambda: daemon.request({"model": "m", "batch": 0}))
            blocker.start()
            deadline = time.monotonic() + 5
            while not calls and time.monotonic() < deadline:
                time.sleep(0.005)   # blocker owns the single worker
            errors: List[Exception] = []

            def expired():
                try:
                    daemon.request({"model": "m", "batch": 1},
                                   deadline_s=0.05)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            t = threading.Thread(target=expired)
            t.start()
            time.sleep(0.2)   # deadline passes while the job sits queued
            gate.set()
            t.join()
            blocker.join()
            assert len(errors) == 1
            assert isinstance(errors[0], DeadlineExpired)
            # the worker never planned the expired job
            assert len(calls) == 1

    def test_default_deadline_from_service_config(self):
        gate = threading.Event()
        daemon = PlannerDaemon(
            ServiceConfig(queue_depth=4, service_workers=1,
                          default_deadline_s=0.05),
            planner=_fake_planner(gate, []))
        with daemon:
            blocker = threading.Thread(
                target=lambda: daemon.request({"model": "m", "batch": 0},
                                              deadline_s=30.0))
            blocker.start()
            time.sleep(0.05)
            with pytest.raises(DeadlineExpired):
                daemon.request({"model": "m", "batch": 1})
            gate.set()
            blocker.join()

    def test_closed_daemon_rejects(self):
        daemon = PlannerDaemon(planner=lambda c: {"cache": "miss"})
        with pytest.raises(ServiceClosed):
            daemon.request({"model": "m", "batch": 1})
        daemon.start()
        daemon.stop()
        with pytest.raises(ServiceClosed):
            daemon.request({"model": "m", "batch": 1})

    def test_planner_exception_becomes_planning_failed(self):
        def boom(config: Dict[str, Any]) -> Dict[str, Any]:
            raise ValueError("infeasible capacity")

        with PlannerDaemon(planner=boom) as daemon:
            with pytest.raises(PlanningFailed, match="infeasible"):
                daemon.request({"model": "m", "batch": 1})


# ---------------------------------------------------------------------------
# single-flight stampede protection
# ---------------------------------------------------------------------------

class TestSingleFlight:
    def test_k_identical_requests_plan_exactly_once(self):
        """K concurrent identical requests -> one planner invocation,
        all K responses bit-identical (the headline stampede assert)."""
        K = 8
        gate = threading.Event()
        calls: List[Dict[str, Any]] = []
        merges0 = _counter("service.singleflight_merges")
        daemon = PlannerDaemon(
            ServiceConfig(queue_depth=16, service_workers=2),
            planner=_fake_planner(gate, calls))
        with daemon:
            results: List[Any] = []
            lock = threading.Lock()

            def go():
                r = daemon.request({"model": "stampede", "batch": 4})
                with lock:
                    results.append(r)

            threads = [threading.Thread(target=go) for _ in range(K)]
            for t in threads:
                t.start()
            # wait until all K-1 waiters have attached to the flight,
            # then release the planner
            deadline = time.monotonic() + 10
            while (_counter("service.singleflight_merges") - merges0
                   < K - 1) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert _counter("service.singleflight_merges") - merges0 \
                == K - 1
            gate.set()
            for t in threads:
                t.join()

        assert len(calls) == 1, f"stampede planned {len(calls)} times"
        assert len(results) == K
        blobs = {json.dumps(r.record, sort_keys=True) for r in results}
        assert len(blobs) == 1, "waiters saw non-identical plans"
        assert sum(1 for r in results if r.merged) == K - 1
        assert sum(1 for r in results if not r.merged) == 1

    def test_distinct_requests_do_not_merge(self):
        gate = threading.Event()
        gate.set()
        calls: List[Dict[str, Any]] = []
        with PlannerDaemon(planner=_fake_planner(gate, calls)) as daemon:
            daemon.request({"model": "a", "batch": 1})
            daemon.request({"model": "a", "batch": 2})
        assert len(calls) == 2

    def test_hot_tier_serves_repeats_without_queueing(self):
        gate = threading.Event()
        gate.set()
        calls: List[Dict[str, Any]] = []
        with PlannerDaemon(planner=_fake_planner(gate, calls)) as daemon:
            first = daemon.request({"model": "a", "batch": 1})
            again = daemon.request({"model": "a", "batch": 1})
        assert first.tier == "cold" and again.tier == "hot"
        assert len(calls) == 1

    def test_hot_lru_evicts_at_capacity(self):
        gate = threading.Event()
        gate.set()
        calls: List[Dict[str, Any]] = []
        cfg = ServiceConfig(hot_capacity=2)
        with PlannerDaemon(cfg, planner=_fake_planner(gate, calls)) \
                as daemon:
            for b in (1, 2, 3):   # batch=1 is evicted by batch=3
                daemon.request({"model": "a", "batch": b})
            assert daemon.request({"model": "a", "batch": 3}).tier == "hot"
            assert daemon.request({"model": "a",
                                   "batch": 1}).tier == "cold"
        assert len(calls) == 4

    def test_warm_tier_reported_for_cache_hits(self):
        def cached(config: Dict[str, Any]) -> Dict[str, Any]:
            return {"cache": "hit", "batch": config["batch"]}

        with PlannerDaemon(planner=cached) as daemon:
            assert daemon.request({"model": "a",
                                   "batch": 1}).tier == "warm"


# ---------------------------------------------------------------------------
# cluster arbitration
# ---------------------------------------------------------------------------

class TestClusterArbiter:
    def make(self, n_devices: int = 2) -> ClusterArbiter:
        return ClusterArbiter(tiny_test_hierarchy(), n_devices=n_devices)

    def test_fitting_demand_is_reserved_without_spill(self):
        arb = self.make()
        p = arb.place(JobDemand("j1", {1: 200 * MiB}))
        assert p.device == 0
        assert p.reserved[1] == pytest.approx(200 * MiB)
        assert p.spilled_bytes == 0 and p.spill_penalty_s == 0

    def test_pressure_spills_to_lower_tier_with_penalty(self):
        # tiny dram budget = 256 MiB * 0.9 = 230.4 MiB
        arb = self.make()
        arb.place(JobDemand("j1", {1: 200 * MiB}))
        p2 = arb.place(JobDemand("j2", {1: 100 * MiB}))
        assert p2.spilled_bytes == pytest.approx((100 - 30.4) * MiB,
                                                 rel=1e-3)
        assert p2.reserved[2] == pytest.approx(p2.spilled_bytes)
        assert p2.spill_penalty_s > 0
        util = arb.utilization_by_tier()
        assert util[1] == pytest.approx(1.0)   # DRAM saturated

    def test_denial_past_last_tier_leaves_reservations_untouched(self):
        arb = self.make()
        arb.place(JobDemand("j1", {1: 100 * MiB}))
        before = arb.snapshot()
        with pytest.raises(PlacementDenied, match="overflow past"):
            arb.place(JobDemand("big", {2: 5000 * MiB}))
        after = arb.snapshot()
        assert before["tiers"] == after["tiers"]
        assert after["jobs"] == ["j1"]
        assert after["devices_free"] == 1   # the denial freed no slot

    def test_device_exhaustion_denies(self):
        arb = self.make(n_devices=1)
        arb.place(JobDemand("j1", {1: 1 * MiB}))
        with pytest.raises(PlacementDenied, match="no free device"):
            arb.place(JobDemand("j2", {1: 1 * MiB}))

    def test_release_credits_reservations_and_device(self):
        arb = self.make(n_devices=1)
        arb.place(JobDemand("j1", {1: 200 * MiB}))
        arb.release("j1")
        snap = arb.snapshot()
        assert snap["devices_free"] == 1
        assert snap["tiers"]["1"]["reserved_bytes"] == 0
        p = arb.place(JobDemand("j2", {1: 200 * MiB}))
        assert p.spilled_bytes == 0

    def test_duplicate_and_unknown_jobs_are_bad_requests(self):
        arb = self.make()
        arb.place(JobDemand("j1", {}))
        with pytest.raises(BadRequest, match="already placed"):
            arb.place(JobDemand("j1", {}))
        with pytest.raises(BadRequest, match="not placed"):
            arb.release("ghost")

    def test_negative_or_device_tier_demand_rejected(self):
        arb = self.make()
        with pytest.raises(BadRequest):
            arb.place(JobDemand("j1", {0: 1 * MiB}))
        with pytest.raises(BadRequest):
            arb.place(JobDemand("j2", {1: -5.0}))

    def test_demand_from_record_and_batch_placement(self):
        demand = demand_from_record(
            {"tier_bytes": {"1": 64 * MiB, "2": 0}}, "job-a")
        assert demand.tier_bytes == {1: 64 * MiB}
        arb = self.make()
        report = place_jobs(arb, [
            demand,
            JobDemand("job-b", {2: 5000 * MiB}),   # denied, not raised
        ])
        assert report["jobs"][0]["placed"] is True
        assert report["jobs"][1]["placed"] is False
        assert report["jobs"][1]["error"]["type"] == "placement_denied"
        assert report["cluster"]["jobs"] == ["job-a"]


# ---------------------------------------------------------------------------
# real-planner integration
# ---------------------------------------------------------------------------

class TestDaemonWithRealPlanner:
    def test_cold_then_hot_with_tier_bytes(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path / "plans")
        with PlannerDaemon(cache=cache) as daemon:
            cold = daemon.request({"model": "unet", "batch": 8})
            hot = daemon.request({"model": "unet", "batch": 8})
        assert cold.tier == "cold" and hot.tier == "hot"
        assert cold.record == hot.record
        assert "tier_bytes" in cold.record

    def test_unknown_method_fails_naming_it(self):
        with PlannerDaemon() as daemon:
            with pytest.raises(PlanningFailed, match="unknown method 'aco'"):
                daemon.request({"model": "unet", "batch": 16,
                                "method": "aco"})

    def test_warm_tier_after_daemon_restart(self, tmp_path):
        with PlannerDaemon(cache=PlanCache(cache_dir=tmp_path / "p")) as d:
            assert d.request({"model": "unet", "batch": 8}).tier == "cold"
        # a fresh daemon has an empty hot tier but shares the disk cache
        with PlannerDaemon(cache=PlanCache(cache_dir=tmp_path / "p")) as d:
            assert d.request({"model": "unet", "batch": 8}).tier == "warm"

    def test_concurrent_cold_plans_match_in_process(self, tmp_path):
        """Two distinct cold configs planned at once on the daemon's two
        request threads: each record equals the in-process plan, and no
        child process is left behind."""
        from repro.cli import plan_config_full

        configs = [{"model": "unet", "batch": 24, "hierarchy": "abci"},
                   {"model": "resnet50", "batch": 256}]
        timing = ("wall_s", "search_s")
        replies: Dict[int, Any] = {}
        start = threading.Barrier(len(configs))
        with PlannerDaemon(ServiceConfig(service_workers=2),
                           cache=PlanCache(cache_dir=tmp_path / "d")) \
                as daemon:
            def go(i: int) -> None:
                start.wait(10)
                replies[i] = daemon.request(configs[i])

            threads = [threading.Thread(target=go, args=(i,))
                       for i in range(len(configs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        for i, config in enumerate(configs):
            expected, _ = plan_config_full(
                config, cache=PlanCache(cache_dir=tmp_path / f"p{i}"))
            got = replies[i]
            assert got.tier == "cold"
            assert got.record["swapped"] > 0     # the sweep really ran
            assert {k: v for k, v in got.record.items()
                    if k not in timing} == \
                {k: v for k, v in expected.items() if k not in timing}
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# socket protocol: server + client round trip
# ---------------------------------------------------------------------------

@pytest.fixture()
def served_daemon(tmp_path):
    """A daemon with a cluster, served over a unix socket."""
    sock = str(tmp_path / "karma.sock")
    cluster = ClusterArbiter(tiny_test_hierarchy(), n_devices=2)
    gate = threading.Event()
    gate.set()
    calls: List[Dict[str, Any]] = []
    daemon = PlannerDaemon(planner=_fake_planner(gate, calls),
                           cluster=cluster)
    daemon.start()
    server = PlannerServer(daemon, sock).start()
    assert wait_for_server(sock, timeout=10)
    yield sock, daemon, calls
    server.stop()
    daemon.stop()


class TestSocketProtocol:
    def test_parse_address(self):
        assert parse_address("/tmp/x.sock") == "/tmp/x.sock"
        assert parse_address("5123") == ("127.0.0.1", 5123)
        assert parse_address("localhost:5123") == ("localhost", 5123)

    def test_round_trip_plan_place_stats(self, served_daemon):
        sock, _, calls = served_daemon
        with PlannerClient(sock, timeout=30) as c:
            assert c.ping()
            r1 = c.plan({"model": "unet", "batch": 8})
            r2 = c.plan({"model": "unet", "batch": 8})
            assert r1["tier"] == "cold" and r2["tier"] == "hot"
            assert r1["record"] == r2["record"]
            assert len(calls) == 1

            placement = c.place("job-a", {1: 100 * MiB})
            assert placement["device"] == 0
            stats = c.stats()
            assert stats["cluster"]["jobs"] == ["job-a"]
            assert stats["counters"]["service.requests"] >= 2
            released = c.release("job-a")
            assert released["job_id"] == "job-a"

    def test_typed_errors_cross_the_wire(self, served_daemon):
        sock, _, _ = served_daemon
        with PlannerClient(sock, timeout=30) as c:
            with pytest.raises(BadRequest):
                c.release("never-placed")
            with pytest.raises(PlacementDenied):
                c.place("huge", {2: 5000 * MiB})
            with pytest.raises(BadRequest):
                c.call("frobnicate")
            with pytest.raises(BadRequest):
                c.call("plan")   # missing config

    def test_malformed_line_is_rejected_not_fatal(self, served_daemon):
        sock, _, _ = served_daemon
        with PlannerClient(sock, timeout=30) as c:
            c._sock.sendall(b"this is not json\n")
            reply = json.loads(c._rfile.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad_request"
            assert c.ping()   # connection survives

    def test_oversized_line_is_rejected_then_connection_closed(
            self, served_daemon):
        sock, _, _ = served_daemon
        with PlannerClient(sock, timeout=30) as c:
            c._sock.sendall(b"x" * (MAX_FRAME_BYTES + 1))   # no newline
            reply = json.loads(c._rfile.readline())
            assert reply["ok"] is False
            assert reply["error"]["code"] == BadRequest.code
            assert c._rfile.readline() == b""   # then EOF
        with PlannerClient(sock, timeout=30) as c:   # server unaffected
            assert c.plan({"model": "unet", "batch": 8})["tier"] == "cold"

    def test_line_at_the_cap_is_served(self, served_daemon):
        sock, _, _ = served_daemon
        with PlannerClient(sock, timeout=30) as c:
            ping = json.dumps({"op": "ping"}).encode("utf-8")
            # JSON allows trailing whitespace: pad to exactly the cap
            c._sock.sendall(ping.ljust(MAX_FRAME_BYTES) + b"\n")
            assert json.loads(c._rfile.readline())["pong"] is True
            assert c.ping()   # connection survives

    def test_shutdown_op_stops_the_server(self, tmp_path):
        sock = str(tmp_path / "k.sock")
        daemon = PlannerDaemon(planner=lambda c: {"cache": "miss"})
        daemon.start()
        server = PlannerServer(daemon, sock).start()
        assert wait_for_server(sock, timeout=10)
        with PlannerClient(sock, timeout=10) as c:
            c.shutdown()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                PlannerClient(sock, timeout=0.2).close()
            except OSError:
                break
            time.sleep(0.02)
        else:
            pytest.fail("server still accepting after shutdown op")
        server.stop()   # idempotent
        daemon.stop()

    def test_concurrent_stop_and_shutdown_op(self, tmp_path):
        """Racing ``stop()`` calls plus a ``shutdown`` op all return
        cleanly and leave no socket file behind."""
        daemon = PlannerDaemon(planner=lambda c: {"cache": "miss"})
        daemon.start()
        try:
            for trial in range(20):
                sock = str(tmp_path / f"k{trial}.sock")
                server = PlannerServer(daemon, sock).start()
                assert wait_for_server(sock, timeout=10)
                client = PlannerClient(sock, timeout=10)
                assert client.ping()   # accepted before the race starts
                barrier = threading.Barrier(9)
                errors: List[BaseException] = []

                def race(fn):
                    barrier.wait()
                    try:
                        fn()
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [threading.Thread(target=race, args=(server.stop,))
                           for _ in range(8)]
                threads.append(threading.Thread(target=race,
                                                args=(client.shutdown,)))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                client.close()
                assert not any(t.is_alive() for t in threads)
                assert errors == [], f"trial {trial}: {errors!r}"
                assert not os.path.exists(sock)
        finally:
            daemon.stop()


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

class TestServeCli:
    def test_serve_flag_defaults_are_service_config_defaults(self):
        from repro.cli import _service_config, build_parser

        args = build_parser().parse_args(["serve", "--socket", "x"])
        assert _service_config(args) == ServiceConfig()

    def test_plan_method_choices_are_blocking_methods(self):
        from repro.cli import build_parser
        from repro.core.blocking import BLOCKING_METHODS

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in sub.choices["plan"]._actions
                      if a.dest == "method")
        assert tuple(method.choices) == BLOCKING_METHODS

    def test_serve_roundtrip_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        sock = str(tmp_path / "cli.sock")
        server_rc: List[int] = []

        def serve():
            server_rc.append(main([
                "serve", "--socket", sock, "--no-cache",
                "--service-workers", "1"]))

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert wait_for_server(sock, timeout=15)

        rc1 = main(["plan", "--model", "unet", "--batch", "8",
                    "--server", sock])
        rc2 = main(["plan", "--model", "unet", "--batch", "8",
                    "--server", sock])
        out = capsys.readouterr().out
        assert rc1 == 0 and rc2 == 0
        assert "tier=cold" in out and "tier=hot" in out

        assert main(["serve", "--socket", sock, "--ping",
                     "--wait", "5"]) == 0
        assert main(["serve", "--socket", sock, "--stop"]) == 0
        t.join(timeout=15)
        assert not t.is_alive() and server_rc == [0]

    def test_plan_server_rejection_reports_error(self, tmp_path, capsys):
        from repro.cli import main

        sock = str(tmp_path / "missing.sock")
        rc = main(["plan", "--model", "unet", "--batch", "8",
                   "--server", sock])
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_requires_exactly_one_address(self, capsys):
        from repro.cli import main

        assert main(["serve"]) == 2
        assert main(["serve", "--socket", "/tmp/x", "--port",
                     "5000"]) == 2


# ---------------------------------------------------------------------------
# stats sidecar: concurrent-writer tolerance (the cache-info fix)
# ---------------------------------------------------------------------------

class TestCumulativeStatsRetry:
    def test_torn_sidecar_heals_on_retry(self, tmp_path, monkeypatch):
        import repro.cache.plan_cache as pc

        cache = PlanCache(cache_dir=tmp_path)
        cache.cache_dir.mkdir(parents=True, exist_ok=True)
        good = json.dumps({f: 1 for f in pc._STAT_FIELDS})
        cache.stats_path().write_text(good[: len(good) // 2])   # torn

        def heal(_seconds: float) -> None:
            cache.stats_path().write_text(good)   # the writer finishes

        monkeypatch.setattr(pc.time, "sleep", heal)
        stats = cache.cumulative_stats()
        assert stats == {f: 1 for f in pc._STAT_FIELDS}

    def test_torn_twice_reports_zeros_not_crash(self, tmp_path,
                                                monkeypatch):
        import repro.cache.plan_cache as pc

        cache = PlanCache(cache_dir=tmp_path)
        cache.cache_dir.mkdir(parents=True, exist_ok=True)
        cache.stats_path().write_text('{"hits": ')
        monkeypatch.setattr(pc.time, "sleep", lambda s: None)
        assert cache.cumulative_stats() == {f: 0
                                            for f in pc._STAT_FIELDS}
