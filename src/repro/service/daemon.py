"""The planner daemon: admission control, hot cache tier, single-flight.

``python -m repro plan`` pays the full import-plan-exit cycle per call;
a fleet of examples, benchmarks and schedulers asking for plans turns
that into the dominant cost.  :class:`PlannerDaemon` keeps one process
resident and turns planning into a *service*:

* **admission control** — requests enter a bounded queue; at depth the
  request is shed immediately with a typed
  :class:`~repro.service.errors.QueueFull` (never a hang), and a
  per-request deadline is enforced both while waiting and after being
  queued (:class:`~repro.service.errors.DeadlineExpired`);
* **hot tier** — an in-process LRU of finished plan *records* in front
  of the content-addressed :class:`~repro.cache.plan_cache.PlanCache`
  (which remains the warm, on-disk tier); a hot hit never touches the
  queue;
* **single-flight** — identical concurrent requests collapse onto one
  planner invocation: the first becomes the *leader*, the rest attach as
  *waiters* and share the leader's bit-identical result (classic
  cache-stampede protection).

Requests are served by a small pool of daemon worker threads, and each
request is planned start to finish on the thread that dequeued it: the
request is the unit of parallelism, so the planner never forks.  Every
cold search lowers through one
:class:`~repro.sim.trainer_sim.StructureCache` the daemon keeps for its
life, so a plan lowers only the structure no earlier plan had; pricing
stays per plan.
Everything lands in :data:`~repro.obs.metrics.METRICS`
(``service.*`` names) and, when enabled, :data:`~repro.obs.trace.TRACER`
spans — see ``docs/service.md`` for the name tables.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..cache.digest import stable_digest
from ..cache.plan_cache import PlanCache
# The default planner and the modules it loads on first use, imported
# with the daemon so that its first cold request pays for planning only.
from ..cli import plan_config_full
from ..core import planner as _planner  # noqa: F401
from ..models import registry as _registry  # noqa: F401
from ..sim.trainer_sim import StructureCache
from ..tiering import placement as _placement  # noqa: F401
from ..obs.flight import FLIGHT
from ..obs.metrics import METRICS
from ..obs.trace import Span, TRACER, TraceContext, span_to_dict
from .cluster import ClusterArbiter, JobDemand, JobPlacement
from .errors import (
    BadRequest,
    DeadlineExpired,
    PlanningFailed,
    QueueFull,
    ServiceClosed,
    ServiceRejection,
    WorkerCrashed,
)

__all__ = ["ServiceConfig", "PlanResponse", "PlannerDaemon", "request_key"]

#: Queue sentinel telling a worker thread to exit.
_STOP = object()

#: The hit tiers a response can report, hottest first.
TIERS = ("hot", "warm", "cold")


def request_key(config: Mapping[str, Any]) -> str:
    """Content address of one planning request.

    ``None``-valued keys are dropped before digesting so a client that
    spells a default explicitly (``{"capacity": None}``) merges with one
    that omits it — single-flight and the hot tier key on *meaning*, not
    spelling.  Everything else flows through the same canonical-JSON
    digest the plan cache uses.
    """
    cleaned = {k: v for k, v in config.items() if v is not None}
    return stable_digest({"service_request": cleaned})


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`PlannerDaemon`.

    Args:
        queue_depth: admission bound; requests beyond it are shed with
            :class:`~repro.service.errors.QueueFull`.
        service_workers: daemon threads consuming the request queue.
        default_deadline_s: deadline applied to requests that do not
            carry their own (``None`` = wait forever).
        hot_capacity: entries kept in the in-process hot LRU tier.
    """

    queue_depth: int = 16
    service_workers: int = 2
    default_deadline_s: Optional[float] = None
    hot_capacity: int = 128

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.service_workers < 1:
            raise ValueError("service_workers must be >= 1")
        if self.hot_capacity < 1:
            raise ValueError("hot_capacity must be >= 1")


@dataclass(frozen=True)
class PlanResponse:
    """One served plan: the record plus how it was served.

    ``tier`` is where the plan came from (``hot``: in-process LRU,
    ``warm``: on-disk plan cache, ``cold``: freshly planned); ``merged``
    marks a waiter that shared a leader's single-flight result.
    """

    record: Dict[str, Any]
    tier: str
    merged: bool
    wall_s: float
    #: Wire-rendered spans of this request's trace (traced requests
    #: asking for them only); waiters carry the leader's spans too.
    spans: Optional[List[Dict[str, Any]]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering for the socket protocol."""
        out = {"record": self.record, "tier": self.tier,
               "merged": self.merged, "wall_s": round(self.wall_s, 6)}
        if self.spans is not None:
            out["spans"] = self.spans
        return out


class _Flight:
    """One in-flight planning key: leader's result shared with waiters.

    ``trace_id`` is the leader's trace (empty when untraced); ``spans``
    snapshots the leader's collected spans at resolve time so waiters
    can ship the planning work they merged onto.
    """

    __slots__ = ("key", "event", "response", "error", "waiters",
                 "trace_id", "spans")

    def __init__(self, key: str, trace_id: str = "") -> None:
        self.key = key
        self.event = threading.Event()
        self.response: Optional[PlanResponse] = None
        self.error: Optional[ServiceRejection] = None
        self.waiters = 0
        self.trace_id = trace_id
        self.spans: List[Span] = []


@dataclass
class _Job:
    """One queued unit of work (the leader's side of a flight)."""

    key: str
    config: Dict[str, Any]
    flight: _Flight
    deadline: Optional[float] = None   # monotonic, None = no deadline
    enqueued_at: float = field(default_factory=time.monotonic)
    trace: Optional[TraceContext] = None   # the leader's request trace


#: A planner callable: config -> plan record.
PlannerFn = Callable[[Dict[str, Any]], Dict[str, Any]]


class PlannerDaemon:
    """Long-lived planning service over the content-addressed cache.

    Thread-safe: :meth:`request`, :meth:`place`, :meth:`release` and
    :meth:`stats` may be called from any number of client threads (the
    socket server's connection handlers do exactly that).

    Args:
        config: service tunables (:class:`ServiceConfig`).
        cache: the warm tier; ``None`` disables plan caching entirely
            (every non-hot, non-merged request plans cold).
        planner: override for the planning callable — primarily for
            tests; defaults to :func:`repro.cli.plan_config_full`
            against ``cache``.
        cluster: optional :class:`~repro.service.cluster.ClusterArbiter`
            backing :meth:`place`/:meth:`release`.
        chaos: chaos-mode hook, typically a
            :class:`~repro.elastic.faults.ChaosMonkey` — called once per
            dequeued job; ``True`` makes the worker thread "crash": the
            request resolves with a retryable
            :class:`~repro.service.errors.WorkerCrashed` rejection, the
            thread exits, and a replacement worker is respawned.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, *,
                 cache: Optional[PlanCache] = None,
                 planner: Optional[PlannerFn] = None,
                 cluster: Optional[ClusterArbiter] = None,
                 chaos: Optional[Callable[[], bool]] = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = cache
        self.cluster = cluster
        self.chaos = chaos
        self._respawned = 0
        self._planner: PlannerFn = planner or self._default_planner
        self._queue: "queue.Queue[Any]" = queue.Queue(
            maxsize=self.config.queue_depth)
        self._hot: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._hot_lock = threading.Lock()
        self._flights: Dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._running = False
        self._started_at = 0.0
        # the structure table every cold search lowers through; replaced
        # (never cleared) once full, see _structure_table
        self._structure = StructureCache()
        self._structure_generation = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "PlannerDaemon":
        """Spawn the worker threads and begin admitting requests."""
        with self._state_lock:
            if self._running:
                return self
            self._running = True
            self._started_at = time.monotonic()
            self._threads = [
                threading.Thread(target=self._worker, daemon=True,
                                 name=f"plan-worker-{i}")
                for i in range(self.config.service_workers)]
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        """Drain the queue, stop the workers, flush cache counters.

        Jobs already admitted are still served; requests arriving after
        ``stop`` raise :class:`~repro.service.errors.ServiceClosed`, and
        any job that raced past the closed check is resolved with the
        same rejection rather than left hanging.
        """
        with self._state_lock:
            if not self._running:
                return
            self._running = False
            threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(_STOP)
        for t in threads:
            t.join()
        while True:   # resolve stragglers that raced the closed check
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not _STOP:
                self._resolve(job.flight,
                              error=ServiceClosed("daemon stopped"))
        if self.cache is not None:
            self.cache.flush_session_stats()

    def __enter__(self) -> "PlannerDaemon":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """Whether the daemon is admitting requests."""
        return self._running

    # -- the request path --------------------------------------------------

    def request(self, config: Mapping[str, Any], *,
                deadline_s: Optional[float] = None,
                trace: Optional[TraceContext] = None,
                collect_spans: bool = False) -> PlanResponse:
        """Serve one planning request (blocking).

        Resolution order: hot LRU hit (no queue), single-flight merge
        onto an identical in-flight request, else admission into the
        bounded queue as a new leader.  Raises the typed rejections from
        :mod:`repro.service.errors`; never hangs past the deadline.

        Args:
            config: the same configuration dict ``python -m repro plan``
                takes (``model``, ``batch``, ``hierarchy``, ...).
            deadline_s: seconds this caller is willing to wait
                (overrides the service default; ``None`` defers to it).
            trace: distributed trace context to serve the request under;
                the daemon's spans are sampled for it even when
                global tracing is off.  Single-flight waiters keep their
                own trace but inherit the leader's planning spans.
            collect_spans: attach the trace's wire-rendered spans to the
                response (requires ``trace``).
        """
        if not self._running:
            raise ServiceClosed("daemon is not running")
        METRICS.counter("service.requests").inc()
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        deadline = (None if deadline_s is None
                    else time.monotonic() + float(deadline_s))
        key = request_key(config)
        if trace is not None and trace.trace_id:
            with TRACER.collect(trace.trace_id) as collected:
                with TRACER.activate(trace):
                    return self._serve(
                        key, config, deadline, deadline_s, trace,
                        collected if collect_spans else None)
        return self._serve(key, config, deadline, deadline_s, None, None)

    def _serve(self, key: str, config: Mapping[str, Any],
               deadline: Optional[float], deadline_s: Optional[float],
               trace: Optional[TraceContext],
               collected: Optional[List[Span]]) -> PlanResponse:
        """The request path proper (tracing scope set up by ``request``)."""
        t0 = time.perf_counter()
        flight: Optional[_Flight] = None
        with TRACER.span("service.request", "service", track="service",
                         key=key[:16]):
            hot = self._hot_get(key)
            if hot is not None:
                METRICS.counter("service.plans.hot").inc()
                wall = time.perf_counter() - t0
                METRICS.histogram("service.request_seconds").observe(wall)
                resp = PlanResponse(record=hot, tier="hot", merged=False,
                                    wall_s=wall)
            else:
                resp, flight = self._serve_queued(key, config, deadline,
                                                  deadline_s, trace, t0)
        return self._attach_spans(resp, collected,
                                  flight if resp.merged else None)

    def _serve_queued(self, key: str, config: Mapping[str, Any],
                      deadline: Optional[float],
                      deadline_s: Optional[float],
                      trace: Optional[TraceContext],
                      t0: float) -> Tuple[PlanResponse, _Flight]:
        """Queue-or-merge path of :meth:`_serve` (non-hot requests)."""
        flight, leader = self._join_flight(key, trace)
        if leader:
            job = _Job(key=key, config=dict(config), flight=flight,
                       deadline=deadline, trace=trace)
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                with self._flights_lock:
                    self._flights.pop(key, None)
                METRICS.counter("service.rejected.queue_full").inc()
                raise QueueFull(
                    f"admission queue at depth "
                    f"{self.config.queue_depth}; request shed") \
                    from None
            METRICS.gauge("service.queue_depth").add(1)
        t_wait = time.perf_counter()
        remaining = (None if deadline is None
                     else deadline - time.monotonic())
        if not flight.event.wait(timeout=remaining):
            METRICS.counter("service.rejected.deadline").inc()
            raise DeadlineExpired(
                f"deadline of {deadline_s}s expired waiting for plan "
                f"{key[:16]}")
        if flight.error is not None:
            raise flight.error
        served = flight.response
        assert served is not None
        if not leader and trace is not None and flight.trace_id:
            # waiter: a span covering the merged wait, pointing at the
            # leader's trace — the stitched exporter renders it as a
            # single-flight flow arrow
            TRACER.record("service.merged", "service", start=t_wait,
                          end=time.perf_counter(), track="service",
                          key=key[:16], merged_into=flight.trace_id)
        wall = time.perf_counter() - t0
        METRICS.histogram("service.request_seconds").observe(wall)
        return PlanResponse(record=served.record, tier=served.tier,
                            merged=not leader, wall_s=wall), flight

    @staticmethod
    def _attach_spans(resp: PlanResponse, collected: Optional[List[Span]],
                      flight: Optional[_Flight]) -> PlanResponse:
        """Wire-render a traced request's spans onto its response.

        Spans recorded daemon-side carry no ``proc`` label; they are
        stamped ``daemon`` here so the client's stitched export groups
        them into the daemon's process row.  A merged waiter also ships
        the leader's resolved flight spans.
        """
        if collected is None:
            return resp
        spans = list(collected)
        if flight is not None:
            spans.extend(flight.spans)
        wire = []
        for span in spans:
            data = span_to_dict(span)
            if not data["proc"]:
                data["proc"] = "daemon"
            wire.append(data)
        return replace(resp, spans=wire)

    # -- cluster delegation ------------------------------------------------

    def place(self, job_id: str,
              tier_bytes: Mapping[Any, Any]) -> JobPlacement:
        """Place a job on the shared cluster tiers (cluster mode only).

        ``tier_bytes`` maps shared tier index -> bytes (keys may be
        strings, as delivered by the JSON protocol).
        """
        if self.cluster is None:
            raise BadRequest("cluster mode is not enabled on this daemon")
        demand = JobDemand(job_id=str(job_id),
                           tier_bytes={int(t): float(b)
                                       for t, b in tier_bytes.items()})
        return self.cluster.place(demand)

    def release(self, job_id: str) -> JobPlacement:
        """Release a placed job's reservations (cluster mode only)."""
        if self.cluster is None:
            raise BadRequest("cluster mode is not enabled on this daemon")
        return self.cluster.release(job_id)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-ready service state for the ``stats`` protocol op."""
        snap = METRICS.snapshot()
        out: Dict[str, Any] = {
            "running": self._running,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_depth,
            "hot_entries": len(self._hot),
            "hot_capacity": self.config.hot_capacity,
            "service_workers": self.config.service_workers,
            "structure": self._structure_stats(),
            "counters": {k: v for k, v in snap["counters"].items()
                         if k.startswith(("service.", "cluster.",
                                          "plan_cache."))},
        }
        if self.cache is not None:
            out["cache"] = {"in_memory": len(self.cache),
                            "hits": self.cache.stats.hits,
                            "misses": self.cache.stats.misses}
        if self.cluster is not None:
            out["cluster"] = self.cluster.snapshot()
        return out

    def _structure_stats(self) -> Dict[str, int]:
        """Size and generation of the structure table."""
        return {"skeletons": len(self._structure.skeletons),
                "generation": self._structure_generation}

    def telemetry(self) -> Dict[str, Any]:
        """One live telemetry frame for the ``telemetry`` protocol op.

        Unlike :meth:`stats` (a filtered counter view), this carries the
        *full* :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` —
        histograms included, so consumers (``python -m repro top``) can
        render p50/p95/p99 latencies — plus the service gauges.
        """
        out: Dict[str, Any] = {
            "ts": time.time(),
            "uptime_s": (round(time.monotonic() - self._started_at, 3)
                         if self._started_at else 0.0),
            "running": self._running,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_depth,
            "hot_entries": len(self._hot),
            "hot_capacity": self.config.hot_capacity,
            "service_workers": self.config.service_workers,
            "structure": self._structure_stats(),
            "metrics": METRICS.snapshot(),
        }
        if self.cluster is not None:
            out["cluster"] = self.cluster.snapshot()
        return out

    # -- internals ---------------------------------------------------------

    def _join_flight(self, key: str,
                     trace: Optional[TraceContext] = None
                     ) -> Tuple[_Flight, bool]:
        """Attach to an in-flight plan for ``key``, or lead a new one.

        A new flight adopts the leader's trace id (when traced) so
        waiters can inherit the leader's planning spans at resolve time.
        """
        with self._flights_lock:
            flight = self._flights.get(key)
            if flight is not None:
                flight.waiters += 1
                METRICS.counter("service.singleflight_merges").inc()
                return flight, False
            flight = _Flight(key, trace_id=trace.trace_id if trace else "")
            self._flights[key] = flight
            return flight, True

    def _resolve(self, flight: _Flight, *,
                 response: Optional[PlanResponse] = None,
                 error: Optional[ServiceRejection] = None) -> None:
        """Publish a flight's outcome and wake every attached request."""
        if flight.trace_id:
            # snapshot the leader's collected spans before waking anyone:
            # waiters ship these as the planning work they merged onto
            flight.spans = TRACER.peek_collected(flight.trace_id)
        with self._flights_lock:
            self._flights.pop(flight.key, None)
        flight.response = response
        flight.error = error
        flight.event.set()

    def _worker(self) -> None:
        """One daemon thread: drain the queue, plan, resolve flights."""
        while True:
            job = self._queue.get()
            try:
                if job is _STOP:
                    return
                METRICS.gauge("service.queue_depth").add(-1)
                METRICS.histogram("service.latency.queue").observe(
                    max(0.0, time.monotonic() - job.enqueued_at))
                if job.deadline is not None \
                        and time.monotonic() > job.deadline:
                    METRICS.counter("service.rejected.deadline").inc()
                    self._resolve(job.flight, error=DeadlineExpired(
                        f"deadline expired while plan {job.key[:16]} "
                        "was queued"))
                    continue
                if self.chaos is not None and self.chaos():
                    # chaos mode: this worker "crashes" mid-plan — the
                    # flight resolves with a retryable rejection instead
                    # of hanging its waiters, and a fresh worker replaces
                    # this thread before it exits
                    worker_name = threading.current_thread().name
                    METRICS.counter("service.worker_crashes").inc()
                    FLIGHT.note("worker_crashed", worker=worker_name,
                                key=job.key[:16])
                    FLIGHT.dump("worker_crashed",
                                detail={"worker": worker_name,
                                        "key": job.key[:16]})
                    self._resolve(job.flight, error=WorkerCrashed(
                        f"worker {worker_name} "
                        f"crashed while serving plan {job.key[:16]}; "
                        "retry against the respawned worker"))
                    self._respawn()
                    return
                try:
                    with TRACER.activate(job.trace):
                        t_plan = time.perf_counter()
                        with TRACER.span("service.plan", "service",
                                         key=job.key[:16]):
                            record = self._planner(job.config)
                        METRICS.histogram("service.latency.plan").observe(
                            time.perf_counter() - t_plan)
                    tier = ("warm" if record.get("cache") == "hit"
                            else "cold")
                    self._hot_insert(job.key, record)
                    METRICS.counter(f"service.plans.{tier}").inc()
                    self._resolve(job.flight, response=PlanResponse(
                        record=record, tier=tier, merged=False,
                        wall_s=0.0))
                except ServiceRejection as exc:
                    self._resolve(job.flight, error=exc)
                except Exception as exc:  # noqa: BLE001 - typed to client
                    METRICS.counter("service.plan_failures").inc()
                    self._resolve(job.flight, error=PlanningFailed(
                        f"{type(exc).__name__}: {exc}"))
            finally:
                self._queue.task_done()

    def _respawn(self) -> None:
        """Replace a crashed worker thread (no-op once stopping).

        Runs under ``_state_lock`` so it cannot race :meth:`stop`: either
        the replacement lands in ``_threads`` before stop snapshots the
        list (and receives its own ``_STOP``), or the daemon is already
        stopping and no replacement is spawned.
        """
        with self._state_lock:
            if not self._running:
                return
            self._respawned += 1
            thread = threading.Thread(
                target=self._worker, daemon=True,
                name=f"plan-worker-respawn-{self._respawned}")
            self._threads.append(thread)
        thread.start()
        METRICS.counter("service.workers_respawned").inc()

    def _default_planner(self, config: Dict[str, Any]) -> Dict[str, Any]:
        """Plan through the CLI's service entry against our cache tier
        and structure table."""
        record, kp = plan_config_full(config,
                                      use_cache=self.cache is not None,
                                      cache=self.cache,
                                      structure=self._structure_table())
        METRICS.counter("service.structure.skeleton_hits").inc(
            kp.structure_hits)
        return record

    def _structure_table(self) -> StructureCache:
        """The structure table for the next plan: the daemon's, replaced
        by a fresh one once full.  The swap is one reference store, so
        worker threads need no lock; plans already running finish on the
        table they were handed."""
        structure = self._structure
        if structure.full:
            structure = self._structure = StructureCache(
                structure.max_entries)
            self._structure_generation += 1
        return structure

    def _hot_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._hot_lock:
            record = self._hot.get(key)
            if record is not None:
                self._hot.move_to_end(key)
                METRICS.counter("service.hot_hits").inc()
            return record

    def _hot_insert(self, key: str, record: Dict[str, Any]) -> None:
        with self._hot_lock:
            self._hot[key] = record
            self._hot.move_to_end(key)
            while len(self._hot) > self.config.hot_capacity:
                self._hot.popitem(last=False)
                METRICS.counter("service.hot_evictions").inc()
