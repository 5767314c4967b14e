"""Client for the planner daemon's newline-JSON socket protocol.

The CLI's ``plan --server`` path and the CI smoke test go through
:class:`PlannerClient`; it is also the reference implementation for the
protocol documented in :mod:`repro.service.server`.  Error replies are
re-raised as the same typed rejections an in-process caller of
:class:`~repro.service.daemon.PlannerDaemon` would catch
(:func:`~repro.service.errors.rejection_for` maps the wire code back to
the class), so switching a caller between in-process and remote planning
changes no exception handling.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Dict, Iterator, Mapping, Optional

from ..obs.metrics import METRICS
from ..obs.trace import TraceContext
from .errors import ServiceRejection, rejection_for
from .server import Address

__all__ = ["PlannerClient", "wait_for_server"]


class PlannerClient:
    """One connection to a running planner daemon.

    Args:
        address: unix-socket path or ``(host, port)`` tuple (the same
            :data:`~repro.service.server.Address` the server binds).
        timeout: socket timeout in seconds for connect and each reply
            (``None`` = block forever; per-request planning deadlines
            are the ``deadline_s`` arguments, not this).
    """

    def __init__(self, address: Address,
                 timeout: Optional[float] = None) -> None:
        self.address = address
        self.timeout = timeout
        self._connect()

    def _connect(self) -> None:
        if isinstance(self.address, str):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.settimeout(self.timeout)
        self._sock.connect(self.address)
        self._rfile = self._sock.makefile("rb")

    def _reconnect(self) -> None:
        """Drop the (possibly dead) connection and dial again."""
        self.close()
        self._connect()

    # -- protocol ----------------------------------------------------------

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request line and decode the reply.

        Raises the typed :class:`~repro.service.errors.ServiceRejection`
        subclass matching the server's error code on failure replies.
        """
        request = {"op": op, **fields}
        self._sock.sendall(
            (json.dumps(request, sort_keys=True) + "\n").encode("utf-8"))
        raw = self._rfile.readline()
        if not raw:
            raise ServiceRejection(
                f"server closed the connection during {op!r}")
        reply = json.loads(raw.decode("utf-8"))
        if not isinstance(reply, dict):
            raise ServiceRejection(f"malformed reply to {op!r}: {reply!r}")
        if not reply.get("ok"):
            err = reply.get("error") or {}
            raise rejection_for(str(err.get("code", "rejected")),
                                str(err.get("message", "request rejected")))
        return reply

    # -- ops ---------------------------------------------------------------

    def ping(self) -> bool:
        """True when the daemon behind the socket is admitting requests."""
        return bool(self.call("ping").get("running"))

    def plan(self, config: Mapping[str, Any], *,
             deadline_s: Optional[float] = None,
             trace: Optional[TraceContext] = None,
             collect_spans: bool = False,
             retries: int = 0, backoff_s: float = 0.05,
             backoff_factor: float = 2.0, backoff_max_s: float = 2.0,
             jitter: float = 0.25) -> Dict[str, Any]:
        """Request one plan; returns the served response dict.

        The reply carries ``record`` (the plan record ``python -m repro
        plan --json`` would print), ``tier`` (hot/warm/cold) and
        ``merged`` (single-flight waiter).

        Args:
            config: the planning request.
            deadline_s: per-request deadline forwarded to the daemon.
            trace: distributed trace context for this request; the
                daemon samples its spans under this trace id.
            collect_spans: ask the daemon to attach the trace's spans to
                the reply (``spans`` field, wire dicts for
                :func:`~repro.obs.trace.span_from_dict`); needs
                ``trace``.
            retries: extra attempts after a *retryable* rejection (a
                shed request, a chaos-crashed worker) or a dropped
                connection; deterministic rejections (bad request,
                planning failure) are never retried.
            backoff_s / backoff_factor / backoff_max_s / jitter:
                exponential-backoff shape between attempts
                (``backoff_s * factor^n``, capped, +/- ``jitter``
                fraction of uniform noise).
        """
        fields: Dict[str, Any] = {"config": dict(config)}
        if deadline_s is not None:
            fields["deadline_s"] = float(deadline_s)
        if trace is not None:
            fields["trace"] = trace.to_dict()
            if collect_spans:
                fields["collect_spans"] = True
        delay = backoff_s
        for attempt in range(retries + 1):
            try:
                reply = self.call("plan", **fields)
                reply.pop("ok", None)
                return reply
            except (ServiceRejection, OSError) as exc:
                retryable = (isinstance(exc, OSError)
                             or getattr(exc, "retryable", False))
                if not retryable or attempt >= retries:
                    raise
                METRICS.counter("service.client_retries").inc()
                time.sleep(min(delay, backoff_max_s)
                           * (1.0 + random.uniform(-jitter, jitter)))
                delay *= backoff_factor
                if isinstance(exc, OSError):
                    self._reconnect()
        raise AssertionError("unreachable")  # loop always returns/raises

    def place(self, job_id: str,
              tier_bytes: Mapping[Any, Any]) -> Dict[str, Any]:
        """Place a job on the daemon's cluster; returns the placement."""
        reply = self.call("place", job_id=job_id,
                          tier_bytes={str(t): float(b)
                                      for t, b in tier_bytes.items()})
        return reply["placement"]

    def release(self, job_id: str) -> Dict[str, Any]:
        """Release a placed job; returns the placement that was freed."""
        return self.call("release", job_id=job_id)["placement"]

    def stats(self) -> Dict[str, Any]:
        """The daemon's JSON stats snapshot (queue, tiers, counters)."""
        return self.call("stats")["stats"]

    def telemetry(self, *, count: int = 1,
                  interval_s: float = 1.0) -> Iterator[Dict[str, Any]]:
        """Stream ``count`` live telemetry frames from the daemon.

        Yields one frame dict (queue/tier gauges + the full metrics
        snapshot, see :meth:`PlannerDaemon.telemetry
        <repro.service.daemon.PlannerDaemon.telemetry>`) every
        ``interval_s`` seconds; ``python -m repro top`` renders these.
        The stream may end early if the server starts shutting down.
        """
        request = {"op": "telemetry", "count": int(count),
                   "interval_s": float(interval_s)}
        self._sock.sendall(
            (json.dumps(request, sort_keys=True) + "\n").encode("utf-8"))
        for _ in range(int(count)):
            raw = self._rfile.readline()
            if not raw:
                return
            reply = json.loads(raw.decode("utf-8"))
            if not isinstance(reply, dict) or not reply.get("ok"):
                err = (reply or {}).get("error") or {}
                raise rejection_for(
                    str(err.get("code", "rejected")),
                    str(err.get("message", "telemetry rejected")))
            yield reply["telemetry"]

    def dump(self, *, write: bool = False) -> Dict[str, Any]:
        """Fetch the daemon's flight-recorder snapshot (``dump`` op).

        With ``write=True`` the daemon also persists a dump artifact and
        the reply carries its ``path``.
        """
        reply = self.call("dump", write=bool(write))
        out = {"flight": reply["flight"]}
        if "path" in reply:
            out["path"] = reply["path"]
        return out

    def shutdown(self) -> None:
        """Ask the server to stop accepting connections."""
        self.call("shutdown")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "PlannerClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def wait_for_server(address: Address, *, timeout: float = 10.0,
                    interval: float = 0.05, backoff_factor: float = 1.5,
                    max_interval: float = 1.0,
                    jitter: float = 0.2) -> bool:
    """Poll until a daemon answers ``ping`` at ``address``.

    Returns True once the server responds, False when ``timeout``
    elapses first — the CI smoke test uses this to sequence a
    just-forked daemon and its first client without sleeps.  Polling
    backs off exponentially (``interval * backoff_factor^n``, capped at
    ``max_interval``) with +/- ``jitter`` fraction of uniform noise, so
    many clients racing one slow daemon don't synchronize into poll
    bursts the way a fixed interval does.
    """
    deadline = time.monotonic() + timeout
    delay = interval
    while time.monotonic() < deadline:
        try:
            with PlannerClient(address, timeout=max(0.5, delay * 10)) \
                    as client:
                client.ping()
                return True
        except (OSError, ServiceRejection, json.JSONDecodeError):
            remaining = deadline - time.monotonic()
            sleep = delay * (1.0 + random.uniform(-jitter, jitter))
            if remaining <= 0:
                break
            time.sleep(min(sleep, max(0.0, remaining)))
            delay = min(delay * backoff_factor, max_interval)
    return False
