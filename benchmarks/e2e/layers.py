"""Benchmark-side tracing: one span around each layer's public callables.

Nothing here runs unless the runner is started with ``--trace 1``.
:meth:`Recorder.install` then rebinds every callable in :data:`SPANS`
to a wrapper that records ``(name, start, end, parent, op, thread)`` in
memory.  ``from .stages import make_plan`` binds a *local* name in the
importing module, so patching the defining module alone would miss
those call sites: install rebinds the name in every loaded ``repro.*``
namespace that holds the original object.

A span's **self time** is its duration minus the part of that interval
its child spans cover, so the self times of one op partition the op's
wall by construction; what the top-level spans do not cover is reported
as ``trace.unattributed_ms``.  No span lives inside ``src/`` and
``repro.obs.TRACER`` stays off.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

#: (span name, module, attribute).  ``Class.method`` attributes are
#: patched on the class; plain names in every ``repro.*`` namespace.
#: Layer names are module names.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.plan_config_full", "repro.cli", "plan_config_full"),
    ("models.build", "repro.models.registry", "build"),
    ("costs.profile_graph", "repro.costs.profiler", "profile_graph"),
    ("core.blocking.solve_blocking", "repro.core.blocking", "solve_blocking"),
    # CandidateEvaluator.safe calls self(...), so __call__ sees both
    ("core.blocking.evaluate", "repro.core.blocking",
     "CandidateEvaluator.__call__"),
    ("core.solver.solve_dp", "repro.core.solver", "solve_dp"),
    ("core.solver.portfolio_search", "repro.core.solver", "portfolio_search"),
    ("core.solver.local_search", "repro.core.solver", "local_search"),
    ("core.recompute.apply_recompute", "repro.core.recompute",
     "apply_recompute"),
    ("core.stages.make_plan", "repro.core.stages", "make_plan"),
    ("core.schedule.validate", "repro.core.schedule",
     "ExecutionPlan.validate"),
    ("tiering.assign_tiers", "repro.tiering.placement", "assign_tiers"),
    ("sim.trainer_sim.simulate_plan", "repro.sim.trainer_sim",
     "simulate_plan"),
    ("sim.trainer_sim.block_costs", "repro.sim.trainer_sim", "block_costs"),
    ("sim.trainer_sim.compile_skeleton", "repro.sim.trainer_sim",
     "compile_skeleton"),
    ("sim.trainer_sim.bind_costs", "repro.sim.trainer_sim", "bind_costs"),
    ("sim.engine.simulate", "repro.sim.engine", "simulate"),
    ("sim.distributed_sim.simulate_dp_karma_lm", "repro.sim.distributed_sim",
     "simulate_dp_karma_lm"),
    ("eval.run_method", "repro.eval.experiments", "run_method"),
    ("cache.plan_digest", "repro.cache.digest", "plan_digest"),
    ("cache.get", "repro.cache.plan_cache", "PlanCache.get"),
    ("cache.put", "repro.cache.plan_cache", "PlanCache.put"),
    ("service.client.call", "repro.service.client", "PlannerClient.call"),
    ("service.server.handle_request", "repro.service.server",
     "PlannerServer.handle_request"),
    ("service.daemon.request", "repro.service.daemon",
     "PlannerDaemon.request"),
    ("elastic.controller.recover", "repro.elastic.controller",
     "RecoveryController.recover"),
    ("elastic.scenario.plan_for", "repro.elastic.scenario",
     "ChurnScenario.plan_for"),
    ("runtime.checkpoint.save", "repro.runtime.checkpoint",
     "CheckpointManager.save"),
    ("runtime.checkpoint.wait", "repro.runtime.checkpoint",
     "CheckpointManager.wait"),
    ("runtime.checkpoint.restore_latest", "repro.runtime.checkpoint",
     "CheckpointManager.restore_latest"),
    ("distributed.dp_trainer.train_step", "repro.distributed.dp_trainer",
     "DataParallelKarmaTrainer.train_step"),
    ("distributed.dp_trainer.resize", "repro.distributed.dp_trainer",
     "DataParallelKarmaTrainer.shrink_world"),
    ("distributed.dp_trainer.resize", "repro.distributed.dp_trainer",
     "DataParallelKarmaTrainer.grow_world"),
    ("distributed.dp_trainer.resize", "repro.distributed.dp_trainer",
     "DataParallelKarmaTrainer.apply_plan"),
)

#: The baseline schedulers are reached through ``SCHEDULERS[m].build``,
#: a field of a frozen dataclass, not a module attribute.
BASELINES_SPAN = "baselines.build"


def config_key(config: Any) -> Hashable:
    """What identifies one in-flight planning request on every thread."""
    return (config["model"], config["batch"], config.get("hierarchy", "none"))


def _engine_variant(args: tuple, kwargs: dict) -> str:
    ledgered = kwargs.get("memory_capacity") is not None or len(args) > 1
    return ".ledgered" if ledgered else ".heap"


#: Span name -> suffix chosen from the call's arguments.
VARIANTS: Dict[str, Callable[[tuple, dict], str]] = {
    "sim.engine.simulate": _engine_variant,
}

#: Span name -> counts read off one finished call, by full metric name.
TALLIES: Dict[str, Callable[[tuple, dict, Any], Dict[str, float]]] = {
    "core.solver.portfolio_search": lambda a, kw, r: {
        "core.solver.portfolio_search.evaluated": r.evaluated,
        "core.solver.portfolio_search.rejected": len(r.rejected),
        "core.solver.portfolio_search.workers": r.n_workers},
    "core.recompute.apply_recompute": lambda a, kw, r: {
        "core.recompute.flipped": len(r.flipped)},
    "sim.engine.simulate": lambda a, kw, r: {
        "sim.engine.simulate.ops": len(a[0])},
    # the protocol is ASCII JSON lines, so characters are bytes
    "service.server.handle_request": lambda a, kw, r: {
        "service.wire.request_bytes": len(a[1]) + 1,
        "service.wire.reply_bytes": len(r) + 1 if isinstance(r, str) else 0},
}

#: Span name -> request key from the call's arguments.  A daemon thread
#: has no op of its own; it adopts the op its request key is in flight
#: under, so two concurrent callers keep separate ledgers.
KEYS: Dict[str, Callable[[tuple, dict], Hashable]] = {
    "cli.plan_config_full": lambda a, kw: config_key(a[0]),
    "service.daemon.request": lambda a, kw: config_key(a[1]),
}

#: Chrome traces keep the first spans only; a hot run records 100 000+.
MAX_TRACE_EVENTS = 20000


class Span:
    """One recorded call."""

    __slots__ = ("name", "start", "end", "parent", "op", "tid", "counts")

    def __init__(self, name: str, start: float, parent: "Optional[Span]",
                 op: Optional[int], tid: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tid = tid
        self.counts: Optional[Dict[str, float]] = None


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.op: Optional[int] = None


class Recorder:
    """Collects spans and op boundaries for one traced workload run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (op id, start, end, units) of every traced op
        self.ops: List[Tuple[int, float, float, int]] = []
        self.installed = False
        self._tls = _ThreadState()
        self._inflight: Dict[Hashable, int] = {}
        self._op_ids = itertools.count(1)   # next() is atomic; += is not

    # -- op boundaries (called by the workload around each timed op) -------

    def begin_op(self, key: Optional[Hashable]) -> None:
        self._tls.op = next(self._op_ids)
        if key is not None:
            self._inflight[key] = self._tls.op

    def end_op(self, key: Optional[Hashable], start: float, end: float,
               units: int) -> None:
        op = self._tls.op
        self._tls.op = None
        if key is not None:
            self._inflight.pop(key, None)
        if self.installed and op is not None:
            self.ops.append((op, start, end, units))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every callable in :data:`SPANS` to a recording wrapper."""
        for name, module_name, attr in SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method,
                        self._wrap(name, getattr(owner, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for local, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, local, wrapper)
        registry = importlib.import_module("repro.baselines.registry")
        for method, entry in list(registry.SCHEDULERS.items()):
            if entry.build is not None:
                registry.SCHEDULERS[method] = dataclasses.replace(
                    entry, build=self._wrap(BASELINES_SPAN, entry.build))
        self.installed = True

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tls = self._tls
        spans = self.spans
        inflight = self._inflight
        variant = VARIANTS.get(name)
        tally = TALLIES.get(name)
        key_of = KEYS.get(name)
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            adopted = False
            if key_of is not None and tls.op is None:
                tls.op = inflight.get(key_of(args, kwargs))
                adopted = tls.op is not None
            stack = tls.stack
            span = Span(name if variant is None
                        else name + variant(args, kwargs),
                        perf_counter(), stack[-1] if stack else None,
                        tls.op, get_ident())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    span.counts = tally(args, kwargs, result)
                return result
            finally:
                span.end = perf_counter()
                stack.pop()
                if adopted:
                    tls.op = None
                # handle_request starts before the daemon resolves the op
                if span.parent is not None and span.parent.op is None:
                    span.parent.op = span.op

        return wrapper

    # -- folding -----------------------------------------------------------

    def fold(self) -> Dict[str, float]:
        """Per-layer metrics of the traced ops, per work unit.

        ``X.self_ms`` is the mean self time per unit in ms and ``X.calls``
        the calls per unit; tallies are per unit too, except
        ``core.solver.portfolio_search.workers`` (mean pool workers per
        sweep: what the daemon's ``WorkerBudget`` lease granted) and
        ``sim.engine.simulate.ops_per_s`` (SimOps per host second inside
        ``simulate``).
        """
        units = sum(u for _, _, _, u in self.ops)
        if not units:
            return {}
        wall = {op: end - start for op, start, end, _ in self.ops}
        by_op: Dict[int, List[Span]] = defaultdict(list)
        for span in list(self.spans):
            if span.op in wall:
                by_op[span.op].append(span)
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        counts: Dict[str, float] = defaultdict(float)
        for op_spans in by_op.values():
            for span, own in _self_times(op_spans):
                self_s[span.name] += own
                calls[span.name] += 1
                for metric, value in (span.counts or {}).items():
                    counts[metric] += value
        out: Dict[str, float] = {}
        for name, total in self_s.items():
            out[f"{name}.self_ms"] = total * 1e3 / units
            out[f"{name}.calls"] = calls[name] / units
        for metric, value in counts.items():
            out[metric] = value / units
        if calls["core.solver.portfolio_search"]:
            out["core.solver.portfolio_search.workers"] = (
                counts["core.solver.portfolio_search.workers"]
                / calls["core.solver.portfolio_search"])
        engine = [n for n in self_s if n.startswith("sim.engine.simulate")]
        engine_s = sum(self_s[n] for n in engine)
        out["sim.engine.simulate.calls"] = \
            sum(calls[n] for n in engine) / units
        out["sim.engine.simulate.ops_per_s"] = (
            counts["sim.engine.simulate.ops"] / engine_s if engine_s else 0.0)
        op_wall = sum(wall.values())
        attributed = sum(self_s.values())
        out["trace.op_wall_ms"] = op_wall * 1e3 / units
        out["trace.unattributed_ms"] = (op_wall - attributed) * 1e3 / units
        out["trace.coverage"] = attributed / op_wall if op_wall else 0.0
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """The first :data:`MAX_TRACE_EVENTS` spans as a Chrome trace."""
        spans = list(self.spans)[:MAX_TRACE_EVENTS]
        origin = spans[0].start if spans else 0.0
        tids: Dict[int, int] = {}
        events = [{"name": s.name, "ph": "X", "pid": 1,
                   "tid": tids.setdefault(s.tid, len(tids) + 1),
                   "ts": (s.start - origin) * 1e6,
                   "dur": (s.end - s.start) * 1e6,
                   "args": {"op": s.op}} for s in spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


def _self_times(spans: List[Span]) -> List[Tuple[Span, float]]:
    """Self time of every span of one op.

    A span that is outermost on its thread is a child of the innermost
    span of *another* thread that was open when it started (the client's
    ``call`` causes the server's ``handle_request``, which causes the
    worker's ``plan_config_full``).
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    roots = []
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
        else:
            roots.append(span)
    if len({span.tid for span in spans}) > 1:
        for root in roots:
            cause = None
            for span in spans:
                if (span.tid != root.tid
                        and span.start <= root.start < span.end
                        and (cause is None or span.start > cause.start)):
                    cause = span
            if cause is not None:
                children[id(cause)].append(root)
    out = []
    for span in spans:
        covered, edge = 0.0, span.start
        for child in sorted(children[id(span)], key=lambda c: c.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((span, (span.end - span.start) - covered))
    return out
