"""Multi-tenant planning service: daemon, cluster arbitration, protocol.

The planner-as-a-service layer over the KARMA pipeline: a long-lived
:class:`~repro.service.daemon.PlannerDaemon` with admission control, an
in-process hot LRU tier over the content-addressed plan cache, and
single-flight stampede protection; a collocation-aware
:class:`~repro.service.cluster.ClusterArbiter` placing admitted jobs on
one shared memory hierarchy; and a newline-JSON socket protocol
(:mod:`~repro.service.server` / :mod:`~repro.service.client`) behind
``python -m repro serve``.  See ``docs/service.md`` for the request
lifecycle, knobs and metric names.

Names resolve on first access (PEP 562), so a pure client
(``repro.service.client``) loads neither the daemon nor the planner.
"""

import importlib

#: Each public name and the submodule that defines it.
_EXPORTS = {
    "PlannerDaemon": "daemon",
    "ServiceConfig": "daemon",
    "PlanResponse": "daemon",
    "request_key": "daemon",
    "ClusterArbiter": "cluster",
    "JobDemand": "cluster",
    "JobPlacement": "cluster",
    "demand_from_record": "cluster",
    "place_jobs": "cluster",
    "ServiceRejection": "errors",
    "QueueFull": "errors",
    "DeadlineExpired": "errors",
    "ServiceClosed": "errors",
    "PlanningFailed": "errors",
    "PlacementDenied": "errors",
    "BadRequest": "errors",
    "rejection_for": "errors",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value   # later lookups never come back here
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
