"""Observability: the span recorder, metrics registry, Chrome-trace
exporter, cumulative cache counters, and stall-interval attribution.

The exporter contract is the load-bearing piece — the acceptance
criterion is a single command emitting Perfetto-loadable JSON — so the
schema checks here mirror what the viewers actually require
(``ph``/``ts``/``dur``/``pid``/``tid``), and a hypothesis round-trip
holds that every recorded span appears in the export exactly once.
"""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.plan_cache import PlanCache, STATS_FILENAME
from repro.core import BlockPolicy, make_plan
from repro.hardware import GiB, TieredMemorySpace
from repro.nn import ExecutableModel
from repro.obs.export import (
    chrome_trace,
    runtime_track_events,
    sim_track_events,
    span_track_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import TRACER, Tracer
from repro.runtime import AsyncOutOfCoreExecutor
from repro.sim import SimOp, simulate
from repro.sim.stall import stall_intervals, top_stall_intervals

from tests.helpers import build_small_cnn, uniform_blocks

R, S = BlockPolicy.RESIDENT, BlockPolicy.SWAPPED


@pytest.fixture(autouse=True)
def _quiet_tracer():
    """Every test starts and ends with the global tracer off and empty."""
    TRACER.disable()
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_disabled_records_nothing(self):
        t = Tracer()
        with t.span("work", "cat", arg=1) as sp:
            sp.set(more=2)
        t.record("post", start=0.0, end=1.0)
        assert len(t) == 0 and t.drain() == []

    def test_disabled_span_handle_is_shared(self):
        t = Tracer()
        assert t.span("a") is t.span("b")

    def test_span_context_manager_records(self):
        ticks = iter([1.0, 3.5])
        t = Tracer(clock=lambda: next(ticks))
        t.enable()
        with t.span("solve", "planner", method="dp") as sp:
            sp.set(evaluated=7)
        (span,) = t.drain()
        assert span.name == "solve" and span.category == "planner"
        assert span.start == 1.0 and span.end == 3.5
        assert span.duration == 2.5
        assert span.args == {"method": "dp", "evaluated": 7}
        assert span.track == "MainThread"

    def test_record_clamps_negative_duration(self):
        t = Tracer()
        t.enable()
        t.record("backwards", start=5.0, end=4.0, track="x")
        (span,) = t.drain()
        assert span.start == 5.0 and span.end == 5.0

    def test_drain_merges_threads_start_sorted(self):
        t = Tracer()
        t.enable()

        def worker(offset):
            t.record(f"w{offset}", start=float(offset),
                     end=float(offset) + 1, track=f"worker-{offset}")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in (3, 1, 2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        t.record("main", start=0.0, end=0.5)
        spans = t.drain()
        assert [s.name for s in spans] == ["main", "w1", "w2", "w3"]
        assert len(t) == 0  # drained buffers are empty

    def test_clear_discards(self):
        t = Tracer()
        t.enable()
        t.record("x", start=0.0, end=1.0)
        t.clear()
        assert t.drain() == []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(7)
        for v in (1.0, 3.0, 2.0):
            reg.histogram("h").observe(v)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 7.0
        h = snap["histograms"]["h"]
        assert h["count"] == 3 and h["min"] == 1.0 and h["max"] == 3.0
        assert h["mean"] == 2.0
        json.dumps(snap, allow_nan=False)  # JSON-ready

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_snapshot_is_stamped_and_versioned(self):
        from repro.obs.metrics import SNAPSHOT_SCHEMA

        reg = MetricsRegistry()
        snap = reg.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert isinstance(snap["ts"], float) and snap["ts"] > 0

    def test_histogram_quantiles_exact_under_reservoir(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(100):
            h.observe(float(v))
        s = h.summary()
        assert s["p50"] == 50.0 and s["p95"] == 95.0 and s["p99"] == 99.0

    def test_histogram_quantiles_deterministic_past_reservoir(self):
        from repro.obs.metrics import RESERVOIR_SIZE, Histogram

        def run():
            h = Histogram()
            for v in range(RESERVOIR_SIZE * 4):
                h.observe(float(v))
            return h.summary()

        a, b = run(), run()
        assert a == b
        # sampled quantiles stay ordered and within the observed range
        assert 0.0 <= a["p50"] <= a["p95"] <= a["p99"] <= a["max"]

    def test_empty_histogram_quantiles_are_zero(self):
        from repro.obs.metrics import Histogram

        s = Histogram().summary()
        assert s["p50"] == s["p95"] == s["p99"] == 0.0

    def test_snapshot_never_torn_under_concurrent_observe(self):
        """count and sum always agree: snapshot holds the locks."""
        reg = MetricsRegistry()
        stop = threading.Event()

        def writer():
            h = reg.histogram("h")
            while not stop.is_set():
                h.observe(1.0)

        th = threading.Thread(target=writer)
        th.start()
        try:
            for _ in range(200):
                s = reg.snapshot()["histograms"].get("h")
                if s is None:
                    continue
                assert s["count"] == s["sum"]  # every observation is 1.0
        finally:
            stop.set()
            th.join()


# ---------------------------------------------------------------------------
# Exporter schema
# ---------------------------------------------------------------------------

def _x_events(events):
    return [e for e in events if e["ph"] == "X"]


class TestExporter:
    def test_span_track_schema(self):
        t = Tracer()
        t.enable()
        t.record("a", "cat", start=10.0, end=10.5, track="gpu", block=3)
        t.record("b", "cat", start=10.2, end=10.3, track="stream-h2d",
                 weird=float("inf"))
        doc = chrome_trace(span_track_events(t.drain(), pid=1))
        assert validate_chrome_trace(doc) == []
        xs = _x_events(doc["traceEvents"])
        assert len(xs) == 2
        # timeline shifted to ts=0, microsecond units, non-negative
        assert min(e["ts"] for e in xs) == 0.0
        assert all(e["dur"] >= 0 for e in xs)
        a = next(e for e in xs if e["name"] == "a")
        assert a["dur"] == pytest.approx(0.5e6)
        # non-finite args are clamped so strict JSON round-trips
        b = next(e for e in xs if e["name"] == "b")
        assert b["args"]["weird"] is None
        json.dumps(doc, allow_nan=False)

    def test_track_metadata_and_ordering(self):
        t = Tracer()
        t.enable()
        t.record("x", start=0.0, end=1.0, track="stream-h2d")
        t.record("y", start=0.0, end=1.0, track="gpu")
        events = span_track_events(t.drain(), pid=4)
        names = {e["args"]["name"]: e["tid"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        # gpu sorts before the link streams
        assert names["gpu"] < names["stream-h2d"]
        procs = [e for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert procs[0]["args"]["name"] == "planner"
        assert all(e["pid"] == 4 for e in events)

    def test_write_rejects_malformed(self, tmp_path):
        bad = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1,
                                "name": "n", "ts": -5.0, "dur": 1.0}]}
        assert validate_chrome_trace(bad)
        with pytest.raises(ValueError):
            write_chrome_trace(tmp_path / "bad.json", bad)

    def test_write_round_trips(self, tmp_path):
        t = Tracer()
        t.enable()
        t.record("a", start=0.0, end=1.0, track="gpu")
        doc = chrome_trace(span_track_events(t.drain(), pid=1))
        path = write_chrome_trace(tmp_path / "ok.json", doc)
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert loaded["displayTimeUnit"] == "ms"

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e3),
                              st.floats(min_value=0, max_value=10),
                              st.sampled_from(["gpu", "stream-h2d",
                                               "stream-d2h", "cpu"])),
                    min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_every_span_exactly_once(self, raw):
        """Every recorded span appears in the export exactly once."""
        t = Tracer()
        t.enable()
        for i, (start, width, track) in enumerate(raw):
            t.record(f"s{i}", "cat", start=start, end=start + width,
                     track=track)
        spans = t.drain()
        doc = chrome_trace(span_track_events(spans, pid=1))
        assert validate_chrome_trace(doc) == []
        xs = _x_events(doc["traceEvents"])
        assert sorted(e["name"] for e in xs) == \
            sorted(s.name for s in spans)
        # durations survive the shift to ts=0 (to rounding)
        by_name = {e["name"]: e for e in xs}
        for s in spans:
            assert by_name[s.name]["dur"] == \
                pytest.approx(s.duration * 1e6, abs=1e-2)

    def test_empty_inputs_render_empty(self):
        assert span_track_events([], pid=1) == []
        doc = chrome_trace([])
        assert validate_chrome_trace(doc) == []


# ---------------------------------------------------------------------------
# Sim + runtime tracks: parity on a small plan
# ---------------------------------------------------------------------------

def _small_swapping_case():
    g = build_small_cnn()
    blocks = uniform_blocks(g, 4)
    policies = [R, S, S, R][:len(blocks)]
    plan = make_plan(g.name, 4, blocks, policies)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 16, 16))
    y = rng.integers(0, 5, 4)
    return g, plan, x, y


def _thread_names(events, pid):
    return {e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["pid"] == pid}


class TestTimelineTracks:
    def test_sim_tracks_one_per_resource(self):
        ops = [
            SimOp(0, "gpu", 1.0, label="F1", mem_acquire=8),
            SimOp(1, "d2h", 2.0, deps=(0,), label="Sout1", mem_release=8),
            SimOp(2, "gpu", 1.0, deps=(1,), label="B1"),
        ]
        sim = simulate(ops, memory_capacity=16)
        events = sim_track_events(sim, pid=7)
        doc = chrome_trace(events)
        assert validate_chrome_trace(doc) == []
        assert _thread_names(events, 7) == {"gpu", "d2h"}
        xs = _x_events(events)
        assert {e["name"] for e in xs} == {"F1", "Sout1", "B1"}
        b1 = next(e for e in xs if e["name"] == "B1")
        assert b1["args"]["op_id"] == 2

    def test_runtime_and_sim_track_parity(self):
        """The measured iteration exposes the same resource rows the
        simulator predicts (gpu + the links the plan actually uses)."""
        from repro.sim.engine import simulate as sim_fn
        from repro.sim.trainer_sim import compile_plan

        g, plan, x, y = _small_swapping_case()
        model = ExecutableModel(g, dtype=np.float64, seed=7)
        space = TieredMemorySpace([2 * GiB, 2 * GiB])
        ex = AsyncOutOfCoreExecutor(model, plan, space)
        model.zero_grad()
        ex.run_iteration(x, y, step=0)
        assert ex.trace is not None

        from repro.costs.profiler import profile_graph
        from repro.hardware.interconnect import TransferModel
        from repro.hardware.spec import abci_host, karma_swap_link, \
            tiny_test_device
        from repro.sim.trainer_sim import block_costs

        device = tiny_test_device()
        transfer = TransferModel(link=karma_swap_link(), device=device,
                                 host=abci_host())
        cost = profile_graph(g, device, transfer, 4)
        costs = block_costs(plan.blocks, cost)
        sim = sim_fn(compile_plan(plan, costs))

        sim_events = sim_track_events(sim, pid=1)
        rt_events = runtime_track_events(ex.trace, pid=2)
        sim_tracks = _thread_names(sim_events, 1)
        rt_tracks = _thread_names(rt_events, 2)
        assert sim_tracks == rt_tracks == {"gpu", "h2d", "d2h"}

        doc = chrome_trace(sim_events + rt_events)
        assert validate_chrome_trace(doc) == []
        # both timelines are zero-based: the sim starts exactly at 0, the
        # runtime within scheduling noise of its wall_start
        sim_xs = [e for e in _x_events(doc["traceEvents"]) if e["pid"] == 1]
        assert min(e["ts"] for e in sim_xs) == 0.0
        rt_xs = [e for e in _x_events(doc["traceEvents"]) if e["pid"] == 2]
        assert min(e["ts"] for e in rt_xs) >= 0.0

    def test_traced_runtime_spans_cover_gpu_and_streams(self):
        """With the tracer on, the async iteration records GPU op spans
        and per-link transfer spans the exporter can render."""
        g, plan, x, y = _small_swapping_case()
        model = ExecutableModel(g, dtype=np.float64, seed=7)
        space = TieredMemorySpace([2 * GiB, 2 * GiB])
        ex = AsyncOutOfCoreExecutor(model, plan, space)
        model.zero_grad()
        TRACER.enable()
        try:
            ex.run_iteration(x, y, step=0)
            spans = TRACER.drain()
        finally:
            TRACER.disable()
        tracks = {s.track for s in spans}
        assert "gpu" in tracks
        assert any(t.startswith("stream-") for t in tracks)
        names = {s.name for s in spans}
        assert any(n.startswith("B") for n in names)     # backward spans
        assert any(n.startswith("Sout") for n in names)  # transfers
        doc = chrome_trace(span_track_events(spans, pid=1))
        assert validate_chrome_trace(doc) == []


# ---------------------------------------------------------------------------
# Engine + planner instrumentation is observation-only
# ---------------------------------------------------------------------------

class TestInstrumentationNeutrality:
    @pytest.mark.parametrize("capacity", [12, None])
    def test_simulate_identical_with_tracing(self, capacity):
        """Traced and untraced runs give the same timings, with and
        without a ledger; only a ledgered run observes ledger events."""
        ops = [
            SimOp(0, "gpu", 1.0, label="F1", mem_acquire=8),
            SimOp(1, "d2h", 2.0, deps=(0,), label="Sout1", mem_release=8),
            SimOp(2, "h2d", 2.0, deps=(1,), label="Sin1", mem_acquire=8),
            SimOp(3, "gpu", 1.5, deps=(2,), label="B1", mem_release=8),
        ]
        base = simulate(ops, memory_capacity=capacity)
        ledger_events = METRICS.histogram("sim.ledger_events")
        observed = ledger_events.count
        TRACER.enable()
        try:
            traced = simulate(ops, memory_capacity=capacity)
        finally:
            TRACER.disable()
        assert traced.makespan == base.makespan
        for op_id, t in base.timings.items():
            tt = traced.timings[op_id]
            assert (tt.start, tt.finish) == (t.start, t.finish)
        spans = TRACER.drain()
        sim_spans = [s for s in spans if s.name == "sim.simulate"]
        assert len(sim_spans) == 1
        assert sim_spans[0].args["events"] == len(ops)
        ledgered = capacity is not None
        assert ledger_events.count - observed == ledgered
        assert ("ledger_events" in sim_spans[0].args) == ledgered


# ---------------------------------------------------------------------------
# Cumulative plan-cache counters (the `cache info` sidecar)
# ---------------------------------------------------------------------------

class TestCumulativeCacheStats:
    def test_flush_and_accumulate_across_instances(self, tmp_path):
        c1 = PlanCache(cache_dir=tmp_path, capacity=4)
        assert c1.get("a" * 64) is None          # miss
        c1.put("a" * 64, {"p": 1})               # store
        assert c1.get("a" * 64) is not None      # memory hit
        c1.flush_session_stats()

        c2 = PlanCache(cache_dir=tmp_path, capacity=4)
        assert c2.get("a" * 64) is not None      # disk hit
        c2.get("b" * 64)                         # miss
        c2.flush_session_stats()

        cum = PlanCache(cache_dir=tmp_path).cumulative_stats()
        assert cum["hits"] == 2 and cum["misses"] == 2
        assert cum["memory_hits"] == 1 and cum["disk_hits"] == 1
        assert cum["stores"] == 1

    def test_flush_is_delta_not_absolute(self, tmp_path):
        c = PlanCache(cache_dir=tmp_path)
        c.get("a" * 64)
        c.flush_session_stats()
        c.flush_session_stats()  # nothing new: must not double-count
        c.get("b" * 64)
        c.flush_session_stats()
        assert c.cumulative_stats()["misses"] == 2

    def test_sidecar_never_a_cache_key(self, tmp_path):
        c = PlanCache(cache_dir=tmp_path)
        c.put("a" * 64, {"p": 1})
        c.flush_session_stats()
        assert (tmp_path / STATS_FILENAME).is_file()
        assert set(c.keys()) == {"a" * 64}

    def test_clear_resets_counters(self, tmp_path):
        c = PlanCache(cache_dir=tmp_path)
        c.put("a" * 64, {"p": 1})
        c.get("b" * 64)
        c.flush_session_stats()
        removed = c.clear()
        # memory copy + disk copy of the one entry; the sidecar is not
        # counted as a removed plan
        assert removed == 2
        assert PlanCache(cache_dir=tmp_path).cumulative_stats() == {
            "hits": 0, "misses": 0, "memory_hits": 0, "disk_hits": 0,
            "stores": 0, "evictions": 0, "invalidated": 0}

    def test_memory_only_cache_noops(self):
        c = PlanCache(persist=False)
        c.get("a" * 64)
        c.flush_session_stats()  # must not touch disk or raise
        assert c.cumulative_stats()["misses"] == 0


# ---------------------------------------------------------------------------
# Stall intervals (validation enrichment)
# ---------------------------------------------------------------------------

class TestStallIntervals:
    def _ops(self):
        # F1 [0,1] gpu; Sin2 on h2d [0,3]; B2 deps both -> waits 1..3 on
        # h2d; B1 dep B2 -> back-to-back, no gap
        return [
            SimOp(0, "gpu", 1.0, label="F1"),
            SimOp(1, "h2d", 3.0, label="Sin2"),
            SimOp(2, "gpu", 1.0, deps=(0, 1), label="B2"),
            SimOp(3, "gpu", 1.0, deps=(2,), label="B1"),
        ]

    def test_intervals_name_the_waiting_op(self):
        ops = self._ops()
        sim = simulate(ops)
        intervals = stall_intervals(ops, sim)
        assert set(intervals) == {"h2d"}
        (iv,) = intervals["h2d"]
        assert iv["op"] == "B2"
        assert iv["start"] == pytest.approx(1.0)
        assert iv["end"] == pytest.approx(3.0)
        assert iv["width"] == pytest.approx(2.0)

    def test_interval_sum_matches_profile(self):
        from repro.sim.stall import stall_profile

        ops = self._ops()
        sim = simulate(ops)
        profile = stall_profile(ops, sim)
        intervals = stall_intervals(ops, sim)
        for resource, total in profile.stalls.items():
            got = sum(iv["width"] for iv in intervals.get(resource, []))
            assert got == pytest.approx(total)

    def test_top_k_widest_first(self):
        ops = [SimOp(0, "gpu", 1.0, label="F1"),
               SimOp(1, "h2d", 2.0, label="Sin2"),
               SimOp(2, "gpu", 1.0, deps=(0, 1), label="B2"),
               SimOp(3, "h2d", 6.0, deps=(1,), label="Sin3"),
               SimOp(4, "gpu", 1.0, deps=(2, 3), label="B3"),
               SimOp(5, "gpu", 1.0, deps=(4,), label="B1")]
        sim = simulate(ops)
        top = top_stall_intervals(ops, sim, k=1)
        assert len(top["h2d"]) == 1
        assert top["h2d"][0]["op"] == "B3"  # the widest wins

    def test_validation_report_carries_top_stalls(self):
        from repro.eval.validation import validate_config

        report = validate_config("cnn", target_wall_s=0.05)
        assert report.top_stalls, "tight cnn config must stall somewhere"
        for intervals in report.top_stalls.values():
            assert len(intervals) <= 3
            widths = [iv["width"] for iv in intervals]
            assert widths == sorted(widths, reverse=True)
        detail = report.stall_detail()
        assert "widest predicted stall intervals" in detail
        as_json = report.to_dict()
        assert "top_stalls" in as_json
        json.dumps(as_json, allow_nan=False)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_plan_trace_writes_perfetto_json(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("KARMA_PLAN_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "plan_trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["plan", "--model", "resnet50", "--batch", "8",
                   "--trace", str(out), "--metrics", str(metrics)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "plan" in names              # planner summary span
        assert any(n.startswith("plan.") for n in names)  # phase spans
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["planner.plans"] >= 1

    def test_plan_trace_rejects_manifest(self, tmp_path):
        from repro.cli import main

        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"model": "resnet50", "batch": 8}]))
        rc = main(["plan", "--manifest", str(manifest),
                   "--trace", str(tmp_path / "t.json")])
        assert rc == 2

    def test_trace_subcommand_unknown_config(self, capsys):
        from repro.cli import main

        assert main(["trace", "nope"]) == 2
        assert "unknown config" in capsys.readouterr().err

    def test_trace_subcommand_validation_config(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("KARMA_PLAN_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "cnn.json"
        rc = main(["trace", "cnn", "-o", str(out), "--target-wall", "0.05"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        procs = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert procs == {"planner", "predicted (sim) [cnn]",
                         "measured (runtime) [cnn]"}

    def test_cache_info_reports_cumulative(self, tmp_path, capsys,
                                           monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("KARMA_PLAN_CACHE_DIR", str(tmp_path / "cache"))
        for _ in range(2):
            rc = main(["plan", "--model", "resnet50", "--batch", "8"])
            assert rc == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        text = capsys.readouterr().out
        assert "session totals" in text
        assert "1 hit(s)" in text and "1 miss(es)" in text
