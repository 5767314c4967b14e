"""The seven end-to-end workloads.

Every workload is a closed loop: a caller sends its next op only when
the last one returned.  A workload sets up once, then runs **rounds**;
a round always holds the same mix of ops (only their order is drawn
from the seed), so any two rounds are comparable and the runner may run
as many as fit ``--seconds``.  ``repro`` receives only the generated
inputs, never the seed.

``repro`` modules are imported inside ``setup`` so that ``setup_s``
charges each workload the imports its user pays, not everybody's.  The
workloads keep the *modules* and look functions up at call time: the
traced run rebinds names in ``repro.*`` namespaces, and a function
object captured here beforehand would escape it.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from layers import Recorder, config_key


def small_model_grid() -> List[Dict[str, Any]]:
    """The 189 small-model configs ``serve_warm``/``serve_cold`` draw from.

    Every point plans with ``method == "auto"`` (a real out-of-core
    search, 15-150 ms) and is feasible at the commit that added this
    file.  The ranges stop where that stops being true:

    * unet batch >= 26 has no feasible blocking on the 16 GiB V100 and
      comes back as ``PlanningFailed``; below 16 the steps are too few to
      matter, so 16-24 it is;
    * wrn28_10 below batch 512 fits in core: ``plan()`` returns the
      trivial one-block plan in ~2 ms without searching, which is not
      the path these workloads measure;
    * resnet50 and vgg16 are out of core over the whole range; the steps
      (8 and 4) are what gives 130 + 25 distinct digests.
    """
    grid: List[Dict[str, Any]] = []
    for batch in range(256, 776, 8):
        for hierarchy in ("none", "abci"):
            grid.append({"model": "resnet50", "batch": batch,
                         "hierarchy": hierarchy})
    grid += [{"model": "vgg16", "batch": b} for b in range(64, 164, 4)]
    grid += [{"model": "unet", "batch": b} for b in range(16, 25)]
    grid += [{"model": "wrn28_10", "batch": b} for b in range(512, 1281, 32)]
    return grid


#: Working-set size of ``serve_warm``/``serve_cold``: more than the
#: daemon's ``hot_capacity`` (128) and ``PlanCache.capacity`` (128), so
#: cycling through it evicts every entry from both LRUs before its reuse.
WORKING_SET = 136

#: The hit tiers a reply can name, and the record fields that
#: legitimately differ between them.
TIERS = ("hot", "warm", "cold")
TIER_DEPENDENT = ("cache", "wall_s", "search_s")


def tier_free(record: Dict[str, Any]) -> Dict[str, Any]:
    """A plan record without its tier-dependent fields."""
    return {k: v for k, v in record.items() if k not in TIER_DEPENDENT}


def describe(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


@dataclass
class Round:
    """What one round measured."""

    wall_s: float                 # host time the units took
    units: int                    # plans, requests, steps or points done
    latencies_ms: List[float]     # one per successful latency op
    attempted: int
    failed: int


@dataclass
class Workload:
    """Base: seeded inputs, op timing, failure accounting."""

    seed: int
    scale: float
    workdir: Path
    rec: Optional[Recorder]
    exhausted: bool = False
    problems: List[str] = field(default_factory=list)

    name = ""
    unit = ""          # what ``throughput_per_s`` counts
    latency_of = ""    # what ``latency_ms.*`` times

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def scaled(self, n: int, floor: int = 1) -> int:
        return max(floor, round(n * self.scale))

    def timed(self, key: Optional[Hashable], fn: Callable[..., Any],
              *args: Any, units: Callable[[Any], int] = lambda out: 1,
              **kwargs: Any) -> Tuple[Any, Optional[Exception], float]:
        """Run one op; returns ``(result, error, seconds)``.

        An op that raises is a failed op — counted and reported by the
        caller, never skipped.
        """
        rec = self.rec
        if rec is not None:
            rec.begin_op(key)
        start = perf_counter()
        try:
            out, err = fn(*args, **kwargs), None
        except Exception as exc:  # noqa: BLE001 - any raise fails the op
            out, err = None, exc
        end = perf_counter()
        if rec is not None:
            rec.end_op(key, start, end, units(out) if err is None else 1)
        return out, err, end - start

    def fail(self, what: Any, why: str) -> None:
        self.problems.append(f"{self.name} {what}: {why}")

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def finish(self) -> Dict[str, float]:
        """Post-measurement checks (into ``problems``) and the layer
        metrics that are not spans."""
        return {}

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def teardown(self) -> None:
        pass


# -- cold planning -----------------------------------------------------------


class PlanCold(Workload):
    """In-process ``plan_config_full(cfg, use_cache=False)``, the CLI's
    default ``n_workers=1``; the configs are Fig. 5 grid points and do
    not vary with the seed, only their order within a round does."""

    unit = "plans"
    latency_of = "plan_config_full wall"
    model, batches, hierarchy = "", (), "none"

    def setup(self) -> None:
        from repro import cli
        from repro.sim import trainer_sim

        self._cli, self._trainer_sim = cli, trainer_sim
        self.configs = [{"model": self.model, "batch": b,
                         "hierarchy": self.hierarchy}
                        for b in self.batches[:self.scaled(len(self.batches))]]
        self.plan_strings: Dict[int, str] = {}
        self.makespans: Dict[int, float] = {}
        self.lowering: Dict[int, Dict[str, int]] = {}

    def round(self) -> Round:
        order = list(self.configs)
        self.rng.shuffle(order)
        latencies, wall, failed = [], 0.0, 0
        for cfg in order:
            out, err, took = self.timed(None, self._cli.plan_config_full,
                                        cfg, use_cache=False)
            wall += took
            why = (describe(err) if err is not None
                   else self._check(cfg["batch"], out[1]))
            if why:
                failed += 1
                self.fail(cfg, why)
            else:
                latencies.append(took * 1e3)
        return Round(wall, len(latencies), latencies, len(order), failed)

    def _check(self, batch: int, kp: Any) -> str:
        from repro.core.schedule import PlanValidationError

        try:
            kp.plan.validate()
        except PlanValidationError as exc:
            return f"plan does not validate: {exc}"
        # the record's makespan_s is the pre-Opt-2 objective, so the
        # returned plan is re-simulated here and held to what the last
        # search stage claimed for it, to exact float equality
        makespan = self._trainer_sim.simulate_plan(
            kp.plan, kp.cost, kp.capacity, hierarchy=kp.hierarchy).makespan
        claimed = (kp.recompute.makespan_after if kp.recompute is not None
                   else kp.blocking.objective)
        if makespan != claimed:
            return f"re-simulated makespan {makespan!r} != {claimed!r}"
        plan_string = kp.plan.plan_string()
        if self.plan_strings.setdefault(batch, plan_string) != plan_string:
            return "plan_string differs from an earlier round's"
        self.makespans[batch] = makespan
        self.lowering[batch] = dict(kp.blocking.sim_cache)
        return ""

    def finish(self) -> Dict[str, float]:
        stats = list(self.lowering.values())
        hits = sum(s.get("result_hits", 0) for s in stats)
        misses = sum(s.get("result_misses", 0) for s in stats)
        skel_hits = sum(s.get("skeleton_hits", 0) for s in stats)
        skel_new = sum(s.get("skeletons", 0) for s in stats)
        return {
            "sim.plan_makespan_s": sum(self.makespans.values()),
            "sim.trainer_sim.lowering.result_hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
            "sim.trainer_sim.lowering.skeleton_hit_ratio":
                skel_hits / (skel_hits + skel_new)
                if skel_hits + skel_new else 0.0,
        }


class PlanColdWide(PlanCold):
    name = "plan_cold_wide"
    model, batches, hierarchy = "resnet200", (12, 16, 20, 24), "abci"


class PlanColdDeep(PlanCold):
    name = "plan_cold_deep"
    model, batches, hierarchy = "resnet1001", (128, 192, 256), "none"


# -- the planning service over a socket --------------------------------------


class Daemon:
    """``python -m repro serve --socket`` with default flags.

    A subprocess for the end-to-end numbers.  The traced run hosts the
    same ``PlannerDaemon`` + ``PlannerServer`` in the runner process
    instead, so one recorder sees client, server and planner sides.
    Cache, flight-recorder dumps and the socket all live under
    ``workdir``.
    """

    def __init__(self, workdir: Path, in_process: bool) -> None:
        self.cache_dir = workdir / "cache"
        self.in_process = in_process
        # AF_UNIX paths are capped near 107 bytes; a relative path stays
        # short however deep the checkout sits
        self.socket = os.path.relpath(workdir / "planner.sock")
        self.log = workdir / "daemon.log"
        self.proc: Optional[subprocess.Popen] = None
        self.daemon: Any = None
        self.server: Any = None

    def start(self) -> "Daemon":
        from repro.service.client import wait_for_server

        if self.in_process:
            from repro.cache.plan_cache import PlanCache
            from repro.service.daemon import PlannerDaemon
            from repro.service.server import PlannerServer

            self.daemon = PlannerDaemon(
                cache=PlanCache(cache_dir=self.cache_dir)).start()
            self.server = PlannerServer(self.daemon, self.socket).start()
        else:
            with open(self.log, "w") as log:
                self.proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve",
                     "--socket", self.socket,
                     "--cache-dir", str(self.cache_dir)],
                    stdout=subprocess.DEVNULL, stderr=log,
                    start_new_session=True)
        if not wait_for_server(self.socket, timeout=60.0):
            self.stop()
            raise RuntimeError(f"planner daemon did not come up; see "
                               f"{self.log}")
        return self

    def client(self) -> Any:
        from repro.service.client import PlannerClient

        return PlannerClient(self.socket, timeout=120.0)

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/<daemon>/status")

    def stop(self) -> None:
        """``shutdown`` op, then wait; kill the process group on any
        failure so no planner pool worker outlives the run."""
        if self.in_process:
            if self.server is not None:
                self.server.stop()
                self.daemon.stop()
                self.server = None
            return
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                with self.client() as client:
                    client.shutdown()
            proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - cleanup must not mask the cause
            pass
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


class Serve(Workload):
    """Base for the three tiers: every reply must come from ``tier``
    and carry the record first seen for its config."""

    unit = "requests"
    latency_of = "PlannerClient.plan round trip"
    tier = ""

    def draw(self, n: int = WORKING_SET) -> List[Dict[str, Any]]:
        """``n`` grid configs: the seed picks the members, not the mix.

        Request cost differs by model family (a resnet50 cold plan takes
        twice a unet one), so each (model, hierarchy) family contributes
        its share of the grid at every seed, and families are interleaved
        so that every slice of the result holds the same mix too.
        """
        families: Dict[Hashable, List[Dict[str, Any]]] = {}
        grid = small_model_grid()
        for cfg in grid:
            families.setdefault(config_key(cfg)[::2], []).append(cfg)
        placed = []
        for members in families.values():
            k = round(n * len(members) / len(grid))
            placed += [((i + 0.5) / k, cfg)
                       for i, cfg in enumerate(self.rng.sample(members, k))]
        return [cfg for _, cfg in sorted(placed, key=lambda p: p[0])]

    def pin(self) -> None:
        """One caller and the daemon take strict turns, so they lose
        nothing on one CPU, and whether the scheduler would place them on
        one or on two decides between a context switch and a cross-CPU
        wake-up per hop: 70 us or 145 us a round trip on the same code.
        Pinning both to one CPU measures the code, not the placement."""
        if not hasattr(os, "sched_setaffinity"):
            return
        allowed = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {max(allowed)})
        except OSError:   # a sandbox may forbid it; measure unpinned
            return
        self.affinity = allowed

    def start_daemon(self) -> None:
        self.daemon = Daemon(self.workdir, in_process=self.rec is not None)
        self.daemon.start()
        self.client = self.daemon.client()
        self.canon: Dict[Hashable, Dict[str, Any]] = {}
        self.sent = 0

    def mark(self) -> None:
        """End of set-up: later counter deltas are the measured ops."""
        self.counters0 = self.client.stats()["counters"]

    def request(self, client: Any, cfg: Dict[str, Any]) -> Tuple:
        return (cfg, *self.timed(config_key(cfg), client.plan, cfg))

    def verify(self, cfg: Dict[str, Any], reply: Dict[str, Any],
               tier: str) -> str:
        if reply["tier"] != tier:
            return f"served from tier {reply['tier']!r}, expected {tier!r}"
        record = tier_free(reply["record"])
        if self.canon.setdefault(config_key(cfg), record) != record:
            return "record differs from the first one seen for this config"
        return ""

    def judge(self, results: List[Tuple],
              wall_s: Optional[float] = None) -> Round:
        """Replies are checked after the round, outside its timing."""
        latencies, failed = [], 0
        for cfg, reply, err, took in results:
            why = (describe(err) if err is not None
                   else self.verify(cfg, reply, self.tier))
            if why:
                failed += 1
                self.fail(cfg, why)
            else:
                latencies.append(took * 1e3)
        self.sent += len(results)
        if wall_s is None:
            wall_s = sum(took for *_, took in results)
        return Round(wall_s, len(latencies), latencies, len(results), failed)

    def finish(self) -> Dict[str, float]:
        now = self.client.stats()["counters"]
        # daemon counter "service.X" since set-up -> "service.daemon.X"
        before = self.counters0
        out = {f"service.daemon.{k}":
               now.get(f"service.{k}", 0) - before.get(f"service.{k}", 0)
               for k in (*(f"plans.{t}" for t in TIERS),
                         "singleflight_merges", "rejected.queue_full",
                         "plan_failures")}
        for tier in TIERS:
            served = out[f"service.daemon.plans.{tier}"]
            want = self.sent if tier == self.tier else 0
            if served != want:
                self.fail("stats", f"daemon counted {served:g} {tier} "
                                   f"plans, the workload sent {want}")
        if self.rec is not None:
            frame = next(iter(self.client.telemetry(count=1)))
            queue = frame["metrics"]["histograms"].get(
                "service.latency.queue", {})
            out["service.daemon.queue_wait_ms.p50"] = \
                queue.get("p50", 0.0) * 1e3
            stats = self.daemon.daemon.cache.stats
            out["cache.hit_ratio"] = stats.hit_rate
            out["cache.disk_hit_ratio"] = \
                stats.disk_hits / stats.hits if stats.hits else 0.0
        return out

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def teardown(self) -> None:
        if hasattr(self, "client"):
            self.client.close()
        if hasattr(self, "daemon"):
            self.daemon.stop()
        if hasattr(self, "affinity"):
            os.sched_setaffinity(0, self.affinity)


class ServeHot(Serve):
    """Eight configs planned in set-up, then requested round-robin on
    one connection: the planner does nothing, so client JSON, the unix
    socket, server JSON and the hot LRU are all the work."""

    name, tier = "serve_hot", "hot"

    def setup(self) -> None:
        self.pin()
        self.start_daemon()
        self.hot = self.draw(8)[:self.scaled(8)]
        for cfg in self.hot:
            why = self.verify(cfg, self.client.plan(cfg), "cold")
            if why:
                raise RuntimeError(f"set-up plan of {cfg}: {why}")
        self.per_round = self.scaled(1000, floor=len(self.hot))
        self.mark()

    def round(self) -> Round:
        hot, client = self.hot, self.client
        return self.judge([self.request(client, hot[i % len(hot)])
                           for i in range(self.per_round)])


class ServeWarm(Serve):
    """136 configs written to the cache dir in set-up (by the CLI's
    manifest path, as a user would), then cycled on one connection.
    Cyclic access over a set larger than both LRUs evicts every entry
    before its reuse, so each request pays queue -> worker ->
    profile_graph + plan_digest + PlanCache.get from disk + make_plan
    replay: what a restarted daemon or an elastic replan pays."""

    name, tier = "serve_warm", "warm"

    def setup(self) -> None:
        self.working_set = self.draw()
        manifest = self.workdir / "manifest.json"
        manifest.write_text(json.dumps(self.working_set))
        cache_dir = self.workdir / "cache"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "plan", "--manifest",
             str(manifest), "--workers", str(os.cpu_count() or 1),
             "--cache-dir", str(cache_dir), "--json"],
            capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"cache pre-fill failed:\n{done.stderr}")
        self.pin()
        self.start_daemon()
        for cfg, record in zip(self.working_set, json.loads(done.stdout)):
            self.canon[config_key(cfg)] = tier_free(record)
        self.per_round = self.scaled(len(self.working_set))
        self.mark()

    def round(self) -> Round:
        ws, client = self.working_set, self.client
        return self.judge([self.request(client, ws[(self.sent + i) % len(ws)])
                           for i in range(self.per_round)])


class ServeCold(Serve):
    """Empty cache dir; the same 136 configs, each requested exactly
    once, from two connections on two threads: admission queue,
    WorkerBudget lease -> n_workers=2 process-pool sweep, PlanCache.put
    + atomic disk store.  The one contended workload.  Its ops cannot
    repeat, so the set is dealt into four rounds and then exhausted."""

    name, tier = "serve_cold", "cold"
    callers = 2
    rounds = 4

    def setup(self) -> None:
        self.start_daemon()
        todo = self.draw()[:self.scaled(WORKING_SET, floor=self.rounds)]
        self.chunks = [todo[i::self.rounds] for i in range(self.rounds)]
        self.clients = [self.daemon.client() for _ in range(self.callers)]
        self.served: List[Dict[str, Any]] = []
        self.mark()

    def round(self) -> Round:
        chunk = self.chunks.pop()
        self.exhausted = not self.chunks
        results: List[List[Tuple]] = [[] for _ in self.clients]

        def caller(client: Any, cfgs: List[Dict[str, Any]],
                   out: List[Tuple]) -> None:
            for cfg in cfgs:
                out.append(self.request(client, cfg))

        threads = [threading.Thread(target=caller,
                                    args=(c, chunk[i::self.callers], out))
                   for i, (c, out) in enumerate(zip(self.clients, results))]
        start = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = perf_counter() - start
        self.served += chunk
        return self.judge([r for out in results for r in out], wall_s=wall)

    def finish(self) -> Dict[str, float]:
        out = super().finish()
        # identical across tiers: the latest few again, now hot (the
        # earliest may already have left the 128-entry hot LRU)
        for cfg in self.served[-8:]:
            why = self.verify(cfg, self.client.plan(cfg), "hot")
            if why:
                self.fail(cfg, why)
        return out

    def teardown(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        super().teardown()


# -- elastic training under churn --------------------------------------------

#: The fleet's walk from world 4, repeated: every size divides the global
#: batch of 12; 5 does not, so 4 <-> 6 is one two-node event.
WORLD_WALK = (3, 2, 1, 2, 3, 4, 6, 4)


class ElasticChurn(Workload):
    """A real data-parallel trainer driven through a generated fault
    trace of 60 preempt/join events, a third of the preemptions dirty
    (``synthetic_trace`` cannot place this many events legally).
    The only workload where ``nn``, ``runtime``, ``distributed`` and
    ``runtime.checkpoint`` do the work; the planner is reached only
    through warm ``plan(method="dp", cache=...)`` replans.  One round is
    one full scenario run."""

    name = "elastic_churn"
    unit = "steps"
    latency_of = "RecoveryReport.time_to_recover_s"

    def setup(self) -> None:
        from repro.elastic.faults import FaultEvent, FaultKind, FaultTrace
        from repro.elastic.scenario import ChurnScenario, ScenarioConfig

        # A step costs more at world 6 than at world 1 and a restart more
        # than a replan, so the walk and the share of dirty preemptions
        # (every third) are fixed; the seed moves each event within its
        # slot and picks which third is dirty.
        steps = self.scaled(1500, floor=30)
        count = self.scaled(60, floor=2)
        slot = steps / count
        dirty_phase = self.rng.randrange(3)
        events, world, preempts = [], 4, 0
        for i in range(count):
            step = max(1, int((i + 0.5 + self.rng.uniform(-0.25, 0.25))
                              * slot))
            target = WORLD_WALK[i % len(WORLD_WALK)]
            if target < world:
                events.append(FaultEvent(
                    step=step, kind=FaultKind.PREEMPT, nodes=world - target,
                    dirty=preempts % 3 == dirty_phase))
                preempts += 1
            else:
                events.append(FaultEvent(step=step, kind=FaultKind.JOIN,
                                         nodes=target - world))
            world = target
        self.trace = FaultTrace(events=tuple(events))
        self.config = ScenarioConfig(steps=steps, world=4, global_batch=12,
                                     checkpoint_interval=25)
        self._scenario = ChurnScenario
        self.runs = 0
        self.first: Any = None
        self.last: Any = None

    def round(self) -> Round:
        self.runs += 1
        scenario = self._scenario(self.config,
                                  str(self.workdir / f"ckpt-{self.runs}"),
                                  trace=self.trace)
        # run() ends with assert_replicas_identical()
        result, err, took = self.timed(None, scenario.run,
                                       units=lambda r: r.steps_run)
        if err is not None:
            self.fail("run", describe(err))
            return Round(took, 0, [], self.config.steps, self.config.steps)
        self.first = self.first or result
        self.last = result
        attempted = result.steps_run + len(result.reports)
        if (result.losses, result.lost_steps) != \
                (self.first.losses, self.first.lost_steps):
            self.fail("run", "per-step losses or lost_steps differ from "
                             "the first repetition's")
            return Round(took, 0, [], attempted, attempted)
        recover_ms = [r.time_to_recover_s * 1e3 for r in result.reports]
        return Round(took, result.steps_run, recover_ms, attempted, 0)

    def finish(self) -> Dict[str, float]:
        if self.last is None:
            return {}
        decisions = [r.decision for r in self.last.reports]
        out = {f"elastic.recoveries.{d}": float(decisions.count(d))
               for d in ("replan", "restart", "degrade")}
        out["elastic.lost_steps"] = float(self.last.lost_steps)
        return out


# -- the paper-evaluation sweeps ----------------------------------------------


class EvalSweep(Workload):
    """One-shot simulators as the paper-evaluation benches call them,
    no planner search: (a) ``run_method`` for four baselines x the six
    registry models x their Fig. 5 batch sizes (ledgered engine, no
    ``LoweringCache``) and (b) ``simulate_dp_karma_lm`` for the Fig. 8
    language models x GPU counts (heap engine via ``ScheduleBuilder``).
    Collapsing engines or making lowering incremental for ``plan()``
    must not cost these paths.

    The repeats place the percentiles: with 360 of 616 points the median
    lies inside the LM points (1.5-3 ms, heap engine), and the 90th
    percentile inside the twice-run resnet200 baseline points (15-19 ms,
    ledgered engine), each several ranks from the next group of points,
    so each path has a gated metric of its own."""

    name = "eval_sweep"
    unit = "points"
    latency_of = "one simulated point"
    methods = ("in-core", "vdnn++", "superneurons", "checkmate")
    gpus = (64, 128, 256, 512, 1024, 2048)
    fig5_repeats = 2
    lm_repeats = 10

    def setup(self) -> None:
        from repro.eval import experiments
        from repro.models.registry import fig5_models
        from repro.models.transformer import MEGATRON_CONFIGS, TURING_NLG
        from repro.sim import distributed_sim

        self._experiments, self._distributed_sim = experiments, distributed_sim
        self.device, _, self.transfer = experiments.default_platform()
        entries = fig5_models()[:self.scaled(6)]
        self.graphs = {e.name: e.builder() for e in entries}
        self.fig5 = [(e.name, method, batch) for e in entries
                     for batch in e.fig5_batch_sizes
                     for method in self.methods] \
            * self.scaled(self.fig5_repeats)
        # per-GPU batch as bench_fig8_scaling.py sets it
        lms = [(cfg, 8) for cfg in MEGATRON_CONFIGS.values()] \
            + [(TURING_NLG, 128)]
        self.lm = [(cfg, n, batch) for cfg, batch in lms for n in self.gpus] \
            * self.scaled(self.lm_repeats)
        self.outputs: Dict[Hashable, Any] = {}
        self.makespans: Dict[Hashable, float] = {}

    def round(self) -> Round:
        fig5, lm = list(self.fig5), list(self.lm)
        self.rng.shuffle(fig5)
        self.rng.shuffle(lm)
        latencies, wall, failed = [], 0.0, 0

        def account(key: Hashable, out: Any, err: Optional[Exception],
                    took: float, makespan: Callable[[Any], float]) -> None:
            nonlocal wall, failed
            wall += took
            if err is not None:
                why = describe(err)
            elif self.outputs.setdefault(key, out) != out:
                why = "output differs from an earlier pass's"
            else:
                latencies.append(took * 1e3)
                self.makespans[key] = makespan(out)
                return
            failed += 1
            self.fail(key, why)

        for name, method, batch in fig5:
            out, err, took = self.timed(
                None, self._experiments.run_method, self.graphs[name],
                method, batch, device=self.device, transfer=self.transfer)
            # an infeasible point is a result, not a failure
            account((name, method, batch), out, err, took,
                    lambda p: p.batch_size / p.samples_per_sec
                    if p.feasible else 0.0)
        for cfg, n, batch in lm:
            out, err, took = self.timed(
                None, self._distributed_sim.simulate_dp_karma_lm, cfg, n,
                batch)
            account((cfg.name, n), out, err, took,
                    lambda r: r.iteration_time)
        return Round(wall, len(latencies), latencies,
                     len(fig5) + len(lm), failed)

    def finish(self) -> Dict[str, float]:
        return {"sim.eval_makespan_sum_s": sum(self.makespans.values())}


WORKLOADS = {w.name: w for w in (PlanColdWide, PlanColdDeep, ServeHot,
                                 ServeWarm, ServeCold, ElasticChurn,
                                 EvalSweep)}
