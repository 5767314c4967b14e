"""End-to-end distributed observability: trace propagation, flight
recorder, live telemetry.

Socket tests run a real ``PlannerServer`` over a unix socket with a
fast fake planner; the one real-planner test (``trace --server``) uses
the config proven to fan its portfolio sweep across >= 2 pool-worker
processes, so the stitched Chrome trace carries client, daemon, and
worker process rows under a single trace id.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List

import pytest

from repro.obs.export import (
    chrome_trace,
    stitched_trace_events,
    validate_chrome_trace,
)
from repro.obs.flight import DUMP_SCHEMA, FLIGHT, FlightRecorder
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER, Span, TraceContext, span_from_dict
from repro.service.client import PlannerClient, wait_for_server
from repro.service.daemon import PlannerDaemon, ServiceConfig
from repro.service.errors import BadRequest
from repro.service.server import PlannerServer


def _planner(gate: threading.Event):
    def plan(config: Dict[str, Any]) -> Dict[str, Any]:
        assert gate.wait(10), "test gate never opened"
        return {"cache": "miss", "model": config.get("model"),
                "batch": config.get("batch")}
    return plan


@pytest.fixture()
def traced_server(tmp_path):
    """Unix-socket server over a gate-controlled fake planner."""
    sock = str(tmp_path / "karma.sock")
    gate = threading.Event()
    gate.set()
    daemon = PlannerDaemon(ServiceConfig(service_workers=2),
                           planner=_planner(gate))
    daemon.start()
    server = PlannerServer(daemon, sock).start()
    assert wait_for_server(sock, timeout=10)
    yield sock, daemon, gate
    server.stop()
    daemon.stop()


# ---------------------------------------------------------------------------
# trace propagation over the wire
# ---------------------------------------------------------------------------


class TestWireTracePropagation:
    def test_plan_reply_ships_spans_under_the_request_trace(
            self, traced_server):
        sock, _, _ = traced_server
        ctx = TraceContext.new()
        with PlannerClient(sock, timeout=30) as c:
            reply = c.plan({"model": "unet", "batch": 8}, trace=ctx,
                           collect_spans=True)
        spans = [span_from_dict(d) for d in reply["spans"]]
        assert spans, "traced reply must carry daemon spans"
        assert {s.trace_id for s in spans} == {ctx.trace_id}
        assert {s.proc for s in spans} == {"daemon"}
        assert {"service.request", "service.plan"} <= {s.name
                                                       for s in spans}

    def test_untraced_plan_ships_no_spans(self, traced_server):
        sock, _, _ = traced_server
        with PlannerClient(sock, timeout=30) as c:
            reply = c.plan({"model": "unet", "batch": 9})
        assert reply.get("spans") is None

    def test_k_parallel_clients_get_k_distinct_traces(self, traced_server):
        sock, _, _ = traced_server
        k = 4
        contexts = [TraceContext.new() for _ in range(k)]
        replies: List[Dict[str, Any]] = [{} for _ in range(k)]

        def go(i: int) -> None:
            with PlannerClient(sock, timeout=30) as c:
                replies[i] = c.plan({"model": "unet", "batch": 100 + i},
                                    trace=contexts[i], collect_spans=True)

        threads = [threading.Thread(target=go, args=(i,))
                   for i in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        ids = set()
        for i, reply in enumerate(replies):
            got = {span_from_dict(d).trace_id for d in reply["spans"]}
            assert got == {contexts[i].trace_id}, \
                "spans must not leak across concurrent traces"
            ids |= got
        assert len(ids) == k

    def test_singleflight_waiter_inherits_leader_spans(self, traced_server):
        sock, daemon, gate = traced_server
        gate.clear()
        leader_ctx, waiter_ctx = TraceContext.new(), TraceContext.new()
        config = {"model": "unet", "batch": 77}
        out: Dict[str, Dict[str, Any]] = {}

        def leader() -> None:
            with PlannerClient(sock, timeout=30) as c:
                out["leader"] = c.plan(config, trace=leader_ctx,
                                       collect_spans=True)

        merge_base = METRICS.snapshot()["counters"].get(
            "service.singleflight_merges", 0)
        t_leader = threading.Thread(target=leader)
        t_leader.start()
        # wait until the leader's flight is registered, then join it
        pause = threading.Event()
        for _ in range(500):
            with daemon._flights_lock:
                if daemon._flights:
                    break
            pause.wait(0.01)
        else:
            pytest.fail("leader flight never appeared")

        def waiter() -> None:
            with PlannerClient(sock, timeout=30) as c:
                out["waiter"] = c.plan(config, trace=waiter_ctx,
                                       collect_spans=True)

        t_waiter = threading.Thread(target=waiter)
        t_waiter.start()
        for _ in range(500):
            if METRICS.snapshot()["counters"].get(
                    "service.singleflight_merges", 0) > merge_base:
                break
            pause.wait(0.01)
        gate.set()
        t_leader.join(30)
        t_waiter.join(30)

        assert not out["leader"]["merged"]
        assert out["waiter"]["merged"]
        waiter_spans = [span_from_dict(d)
                        for d in out["waiter"]["spans"]]
        merged = [s for s in waiter_spans if s.name == "service.merged"]
        assert merged and merged[0].args["merged_into"] == \
            leader_ctx.trace_id
        # the leader's planning spans ride along under the leader's trace
        plan_spans = [s for s in waiter_spans if s.name == "service.plan"]
        assert plan_spans and plan_spans[0].trace_id == leader_ctx.trace_id


# ---------------------------------------------------------------------------
# stitched export
# ---------------------------------------------------------------------------


def _span(name: str, start: float, end: float, *, proc: str = "",
          trace_id: str = "t1", track: str = "svc",
          **args: Any) -> Span:
    return Span(name=name, category="service", start=start, end=end,
                track=track, args=dict(args), trace_id=trace_id, proc=proc)


class TestStitchedExport:
    def test_processes_ranked_client_daemon_workers(self):
        spans = [
            _span("client.plan", 0.0, 4.0),
            _span("service.request", 1.0, 3.0, proc="daemon"),
            _span("opt1.eval[0]", 1.5, 2.0, proc="worker-9"),
            _span("opt1.eval[1]", 1.5, 2.0, proc="worker-8"),
        ]
        events = stitched_trace_events(spans)
        names = {e["args"]["name"]: e["pid"] for e in events
                 if e.get("ph") == "M" and e["name"] == "process_name"}
        assert names == {"client": 1, "daemon": 2, "worker-8": 3,
                         "worker-9": 4}

    def test_single_shared_t0_keeps_rows_aligned(self):
        spans = [_span("a", 10.0, 11.0),
                 _span("b", 10.5, 12.0, proc="daemon")]
        events = [e for e in stitched_trace_events(spans)
                  if e.get("ph") == "X"]
        by_name = {e["name"]: e for e in events}
        assert by_name["a"]["ts"] == 0.0
        assert by_name["b"]["ts"] == pytest.approx(0.5e6)

    def test_trace_id_surfaces_in_event_args(self):
        events = stitched_trace_events([_span("a", 0.0, 1.0,
                                              trace_id="feed")])
        xs = [e for e in events if e.get("ph") == "X"]
        assert xs[0]["args"]["trace_id"] == "feed"

    def test_singleflight_merge_renders_flow_arrows(self):
        spans = [
            _span("service.plan", 0.0, 2.0, proc="daemon",
                  trace_id="leader"),
            _span("service.merged", 0.5, 2.1, proc="daemon",
                  trace_id="waiter", merged_into="leader"),
        ]
        events = stitched_trace_events(spans)
        flows = [e for e in events if e.get("ph") in ("s", "f")]
        assert len(flows) == 2
        start = next(e for e in flows if e["ph"] == "s")
        finish = next(e for e in flows if e["ph"] == "f")
        assert start["ts"] == pytest.approx(2.0e6)
        assert finish["ts"] == pytest.approx(2.1e6)
        assert finish["bp"] == "e"
        assert start["id"] == finish["id"]
        assert validate_chrome_trace(chrome_trace(events)) == []

    def test_stitched_document_validates(self):
        spans = [_span("client.plan", 0.0, 3.0),
                 _span("service.request", 1.0, 2.0, proc="daemon"),
                 _span("opt1.eval[0]", 1.2, 1.8, proc="worker-1")]
        assert validate_chrome_trace(
            chrome_trace(stitched_trace_events(spans))) == []

    def test_empty_spans_render_nothing(self):
        assert stitched_trace_events([]) == []


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        fr = FlightRecorder(capacity=3, clock=lambda: 1.0)
        for i in range(5):
            fr.note("e", i=i)
        assert len(fr) == 3
        snap = fr.snapshot()
        assert snap["dropped"] == 2
        assert [e["i"] for e in snap["entries"]] == [2, 3, 4]

    def test_snapshot_shape(self):
        fr = FlightRecorder(capacity=4, clock=lambda: 7.5)
        fr.note("worker_crashed", worker="plan-worker-0")
        snap = fr.snapshot("worker_crashed", {"worker": "plan-worker-0"})
        assert snap["schema"] == DUMP_SCHEMA
        assert snap["reason"] == "worker_crashed"
        assert snap["detail"] == {"worker": "plan-worker-0"}
        assert snap["ts"] == 7.5
        assert snap["metrics"]["schema"] >= 2
        entry = snap["entries"][0]
        assert entry["kind"] == "event"
        assert entry["event"] == "worker_crashed"

    def test_dump_writes_atomic_artifact(self, tmp_path):
        fr = FlightRecorder(capacity=4)
        fr.note("boom")
        path = fr.dump("worker_crashed", detail={"worker": "w0"},
                       directory=str(tmp_path))
        assert path.name.startswith("flight_worker_crashed_")
        doc = json.loads(path.read_text())
        assert doc["schema"] == DUMP_SCHEMA
        assert doc["detail"] == {"worker": "w0"}
        assert not list(tmp_path.glob("*.tmp*")), "no torn temp files"

    def test_dump_rotation_keeps_newest(self, tmp_path):
        fr = FlightRecorder(capacity=4, keep=2)
        paths = [fr.dump("on_demand", directory=str(tmp_path))
                 for _ in range(5)]
        left = sorted(p.name for p in tmp_path.glob("flight_*.json"))
        assert len(left) == 2
        assert paths[-1].name in left

    def test_tracer_sink_feeds_the_ring(self):
        FLIGHT.clear()
        ctx = TraceContext.new()
        with TRACER.activate(ctx):
            with TRACER.span("probe.flight", "test", track="t"):
                pass
        snap = FLIGHT.snapshot()
        probes = [e for e in snap["entries"]
                  if e["kind"] == "span" and e["name"] == "probe.flight"]
        assert probes and probes[0]["trace_id"] == ctx.trace_id

    def test_worker_crash_dumps_and_names_the_worker(
            self, traced_server, tmp_path, monkeypatch):
        sock, daemon, _ = traced_server
        flight_dir = tmp_path / "crashdumps"
        monkeypatch.setenv("KARMA_FLIGHT_DIR", str(flight_dir))
        from repro.elastic.faults import ChaosMonkey

        daemon.chaos = ChaosMonkey(0.0, crash_first=1)
        with PlannerClient(sock, timeout=30) as c:
            reply = c.plan({"model": "unet", "batch": 55}, retries=2)
        assert reply["record"]["model"] == "unet"
        dumps = list(flight_dir.glob("flight_worker_crashed_*.json"))
        assert len(dumps) == 1
        doc = json.loads(dumps[0].read_text())
        assert doc["reason"] == "worker_crashed"
        assert doc["detail"]["worker"].startswith("plan-worker")


# ---------------------------------------------------------------------------
# telemetry + dump protocol ops
# ---------------------------------------------------------------------------


class TestTelemetryOps:
    def test_telemetry_streams_count_frames(self, traced_server):
        sock, _, _ = traced_server
        with PlannerClient(sock, timeout=30) as c:
            frames = list(c.telemetry(count=3, interval_s=0.0))
        assert len(frames) == 3
        for frame in frames:
            assert frame["running"] is True
            assert frame["queue_capacity"] >= 1
            assert frame["metrics"]["schema"] >= 2
        assert frames[0]["ts"] <= frames[-1]["ts"]

    def test_telemetry_connection_usable_after_stream(self, traced_server):
        sock, _, _ = traced_server
        with PlannerClient(sock, timeout=30) as c:
            list(c.telemetry(count=2, interval_s=0.0))
            assert c.ping()   # same connection, next op still works

    def test_telemetry_validates_arguments(self, traced_server):
        sock, _, _ = traced_server
        # error replies are single-line, so the raw call op reads them
        with PlannerClient(sock, timeout=30) as c:
            with pytest.raises(BadRequest):
                c.call("telemetry", count=0)
            with pytest.raises(BadRequest):
                c.call("telemetry", count=1, interval_s=-1.0)

    def test_dump_op_returns_snapshot_and_artifact(self, traced_server,
                                                   tmp_path, monkeypatch):
        sock, _, _ = traced_server
        flight_dir = tmp_path / "ondemand"
        monkeypatch.setenv("KARMA_FLIGHT_DIR", str(flight_dir))
        with PlannerClient(sock, timeout=30) as c:
            plain = c.dump()
            assert plain["flight"]["schema"] == DUMP_SCHEMA
            assert "path" not in plain
            written = c.dump(write=True)
        path = written["path"]
        assert json.loads(open(path).read())["reason"] == "on_demand"

    def test_daemon_telemetry_gauges(self, traced_server):
        _, daemon, _ = traced_server
        frame = daemon.telemetry()
        assert frame["service_workers"] == 2
        assert frame["hot_capacity"] >= 1
        assert frame["uptime_s"] >= 0.0


# ---------------------------------------------------------------------------
# CLI: trace --server and top
# ---------------------------------------------------------------------------


@pytest.fixture()
def real_planner_server(tmp_path):
    """A daemon running the *real* planner (no cache: plans stay cold)."""
    sock = str(tmp_path / "real.sock")
    daemon = PlannerDaemon()
    daemon.start()
    server = PlannerServer(daemon, sock).start()
    assert wait_for_server(sock, timeout=10)
    yield sock
    server.stop()
    daemon.stop()


class TestCli:
    def test_trace_server_round_trip_stitches_worker_rows(
            self, real_planner_server, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "stitched.json"
        # unet/abci sweeps its portfolio on the daemon's request thread
        rc = main(["trace", "unet", "--hierarchy", "abci",
                   "--server", real_planner_server, "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        procs = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "process_name"}
        assert "client" in procs and "daemon" in procs
        assert not any(p.startswith("worker-") for p in procs)
        pid_of = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
                  if e.get("ph") == "M" and e["name"] == "process_name"}
        # the sweep's per-candidate spans ship back in the daemon's row
        evals = [e for e in doc["traceEvents"] if e.get("ph") == "X"
                 and e["pid"] == pid_of["daemon"]
                 and e["name"].startswith("opt1.eval[")]
        assert evals
        # the in-process daemon's spans are not reported twice
        assert not [e for e in doc["traceEvents"] if e.get("ph") == "X"
                    and e["pid"] == pid_of["client"]
                    and e["name"].startswith("opt1.eval[")]
        ids = {e["args"]["trace_id"] for e in doc["traceEvents"]
               if e.get("ph") == "X" and "trace_id" in e.get("args", {})}
        assert len(ids) == 1
        assert {e["args"]["trace_id"] for e in evals} == ids
        assert "distributed trace" in capsys.readouterr().out

    def test_trace_server_rejects_unknown_model(self, capsys):
        from repro.cli import main

        rc = main(["trace", "cnn", "--server", "/tmp/nowhere.sock"])
        assert rc == 2
        assert "registered models" in capsys.readouterr().err

    def test_top_json_emits_frames(self, traced_server, capsys):
        from repro.cli import main

        sock, _, _ = traced_server
        rc = main(["top", sock, "--count", "2", "--interval", "0",
                   "--json"])
        assert rc == 0
        lines = [line for line in
                 capsys.readouterr().out.strip().splitlines() if line]
        assert len(lines) == 2
        frame = json.loads(lines[0])
        assert "queue_depth" in frame and "metrics" in frame

    def test_top_screen_render_shows_percentiles(self):
        from repro.cli import _render_top

        METRICS.histogram("service.latency.plan").observe(0.05)
        frame = {"uptime_s": 3.0, "running": True, "queue_depth": 1,
                 "queue_capacity": 16, "service_workers": 2,
                 "hot_entries": 5, "hot_capacity": 128,
                 "metrics": METRICS.snapshot()}
        text = _render_top(frame, seq=0, addr="x.sock")
        assert "queue" in text and "p95=" in text and "p99=" in text
        assert "2 service worker(s)" in text

    def test_top_unreachable_daemon_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["top", str(tmp_path / "gone.sock"), "--count", "1"])
        assert rc == 2
        assert "cannot watch" in capsys.readouterr().err
