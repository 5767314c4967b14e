"""Newline-delimited JSON protocol server in front of the planner daemon.

One daemon process serves many clients over a unix socket (default; no
network surface) or localhost TCP.  The protocol is deliberately dumb —
one JSON object per line in, one per line out — so a shell one-liner,
the bundled :mod:`repro.service.client`, or a scheduler in another
language can all speak it:

Request::

    {"op": "plan", "config": {"model": "unet", "batch": 8}}

Response::

    {"ok": true, "record": {...}, "tier": "hot", "merged": false, ...}
    {"ok": false, "error": {"code": "queue_full", "message": "..."}}

Ops: ``ping``, ``plan``, ``place``, ``release``, ``stats``,
``telemetry``, ``dump``, ``shutdown``.  Rejections cross the wire as
their stable ``code`` (:mod:`repro.service.errors`) and are re-raised as
the matching typed exception by the client, so remote callers and
in-process callers catch the same classes.  Each connection is handled
on its own thread; the daemon underneath is the concurrency boundary.

Two distributed-observability extensions ride on the same line
protocol: a ``plan`` request may carry a ``trace`` context (its reply
then ships the daemon/worker spans for that trace — see
``docs/observability.md``), and ``telemetry`` replies with *several*
lines, one full metrics frame every ``interval_s`` seconds for
``count`` frames (the one op that streams).
"""

from __future__ import annotations

import contextlib
import json
import os
import socketserver
import threading
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    Optional,
    Tuple,
    Union,
    cast,
)

from ..obs.flight import FLIGHT
from ..obs.metrics import METRICS
from ..obs.trace import TraceContext
from .errors import BadRequest, ServiceRejection

if TYPE_CHECKING:  # pragma: no cover - a client imports this module too
    from .daemon import PlannerDaemon

__all__ = ["Address", "parse_address", "PlannerServer", "MAX_FRAME_BYTES"]

#: A unix-socket path, or a ``(host, port)`` localhost TCP endpoint.
Address = Union[str, Tuple[str, int]]

#: Longest request line (excluding its newline) the server will read; a
#: longer line gets one ``bad_request`` reply and its connection closes.
MAX_FRAME_BYTES = 1 << 20


def parse_address(spec: str) -> Address:
    """Parse a CLI address spec into an :data:`Address`.

    ``"1234"`` and ``"host:1234"`` mean TCP (bare ports bind loopback);
    anything else is a unix-socket path.
    """
    spec = spec.strip()
    if spec.isdigit():
        return ("127.0.0.1", int(spec))
    host, sep, port = spec.rpartition(":")
    if sep and port.isdigit() and "/" not in host:
        return (host or "127.0.0.1", int(port))
    return spec


class _ServerState:
    """Class-level contract the request handler reads off ``self.server``."""

    planner_server: "PlannerServer"
    daemon_threads = True
    allow_reuse_address = True


class _ThreadingUnixServer(_ServerState, socketserver.ThreadingMixIn,
                           socketserver.UnixStreamServer):
    """Thread-per-connection unix-socket server (the default transport)."""


class _ThreadingTCPServer(_ServerState, socketserver.ThreadingMixIn,
                          socketserver.TCPServer):
    """Thread-per-connection loopback TCP server."""


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read JSON lines, write JSON replies, until EOF."""

    def handle(self) -> None:
        """Dispatch every line on this connection through the daemon."""
        server = cast(_ServerState, self.server).planner_server
        while True:
            raw = self.rfile.readline(MAX_FRAME_BYTES + 1)
            if not raw:
                return
            if len(raw) > MAX_FRAME_BYTES and not raw.endswith(b"\n"):
                # the line's tail is unread: reply once, drop the connection
                error = server._error(BadRequest(
                    f"request line exceeds {MAX_FRAME_BYTES} bytes"))
                self.wfile.write((error + "\n").encode("utf-8"))
                return
            line = raw.strip()
            if not line:
                continue
            reply = server.handle_request(line.decode("utf-8",
                                                      errors="replace"))
            if isinstance(reply, str):
                reply = iter((reply,))
            for chunk in reply:   # streaming ops flush one line per frame
                self.wfile.write((chunk + "\n").encode("utf-8"))
                self.wfile.flush()


class PlannerServer:
    """Bind a :class:`~repro.service.daemon.PlannerDaemon` to a socket.

    The server owns only the transport; the daemon's lifecycle belongs
    to the caller (the CLI starts the daemon, serves, then stops it).
    Use :meth:`serve_forever` in the foreground (the CLI) or
    :meth:`start` for a background thread (tests).
    """

    def __init__(self, daemon: PlannerDaemon, address: Address) -> None:
        self.daemon = daemon
        self.address = address
        self._server: Optional[socketserver.BaseServer] = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._active = 0
        self._active_cond = threading.Condition()
        self._stop_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def bind(self) -> "PlannerServer":
        """Create and bind the underlying socket server (idempotent)."""
        if self._server is not None:
            return self
        if isinstance(self.address, str):
            if os.path.exists(self.address):
                os.unlink(self.address)   # stale socket from a dead daemon
            srv: socketserver.BaseServer = _ThreadingUnixServer(
                self.address, _Handler)
        else:
            srv = _ThreadingTCPServer(self.address, _Handler)
        cast(_ServerState, srv).planner_server = self
        self._server = srv
        return self

    def start(self) -> "PlannerServer":
        """Bind and serve on a background thread (for tests/embedding)."""
        self.bind()
        assert self._server is not None
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True,
            name="planner-server")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread until :meth:`stop`.

        An unexpected death of the serve loop dumps the flight recorder
        (the postmortem for "the daemon just vanished") before
        re-raising; Ctrl-C counts as a requested stop, not a crash.
        """
        self.bind()
        assert self._server is not None
        try:
            self._server.serve_forever()
        except KeyboardInterrupt:
            raise
        except BaseException as exc:
            FLIGHT.dump("daemon_crash",
                        detail={"error": f"{type(exc).__name__}: {exc}"})
            raise

    @property
    def active_requests(self) -> int:
        """Requests currently inside :meth:`handle_request`."""
        with self._active_cond:
            return self._active

    def stop(self, drain_s: float = 5.0) -> None:
        """Stop accepting connections, drain in-flight requests, close.

        A graceful shutdown: the serve loop stops first (no new
        connections), then requests already inside
        :meth:`handle_request` get up to ``drain_s`` seconds to finish
        and flush their replies before the listening socket closes.
        Requests still running after the window are abandoned (counted
        in ``service.drain_timeouts``); ``drain_s=0`` restores the old
        immediate-close behaviour.

        Idempotent and safe to race (the ``shutdown`` op's helper thread
        and the serving caller both call it): later callers wait for the
        first to finish.
        """
        with self._stop_lock:
            srv, self._server = self._server, None
            if srv is None:
                return
            srv.shutdown()
            deadline = time.monotonic() + max(0.0, drain_s)
            with self._active_cond:
                while self._active:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        METRICS.counter("service.drain_timeouts").inc()
                        break
                    self._active_cond.wait(remaining)
            srv.server_close()
            if self._thread is not None:
                self._thread.join()
                self._thread = None
            if isinstance(self.address, str):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self.address)

    def __enter__(self) -> "PlannerServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- protocol ----------------------------------------------------------

    def handle_request(self, line: str) -> "str | Iterator[str]":
        """Serve one protocol line; returns one JSON reply line, or (for
        the streaming ``telemetry`` op) an iterator of reply lines.

        Tracked in the in-flight counter so :meth:`stop` can drain
        running requests before closing the socket; a streaming reply
        stays counted until its iterator is exhausted or closed.
        """
        with self._active_cond:
            self._active += 1
        streaming = False
        try:
            result = self._handle_line(line)
            if isinstance(result, str):
                return result
            streaming = True
            return self._guard_stream(result)
        finally:
            if not streaming:
                with self._active_cond:
                    self._active -= 1
                    self._active_cond.notify_all()

    def _guard_stream(self, chunks: Iterator[str]) -> Iterator[str]:
        """Keep a streaming reply inside the in-flight counter."""
        try:
            yield from chunks
        finally:
            with self._active_cond:
                self._active -= 1
                self._active_cond.notify_all()

    def _handle_line(self, line: str) -> "str | Iterator[str]":
        try:
            msg = json.loads(line)
        except json.JSONDecodeError as exc:
            return self._error(BadRequest(f"request is not JSON: {exc}"))
        if not isinstance(msg, dict):
            return self._error(BadRequest("request must be a JSON object"))
        op = msg.get("op")
        try:
            result = self._dispatch(op, msg)
            if isinstance(result, dict):
                return json.dumps(result, sort_keys=True)
            return result
        except ServiceRejection as exc:
            return self._error(exc)
        except Exception as exc:  # noqa: BLE001 - typed over the wire
            return self._error(ServiceRejection(
                f"{type(exc).__name__}: {exc}"))

    def _dispatch(self, op: Any, msg: Dict[str, Any]
                  ) -> "Dict[str, Any] | Iterator[str]":
        """Route one decoded request to the daemon; returns the reply
        object (or an iterator of reply lines for streaming ops)."""
        if op == "ping":
            return {"ok": True, "pong": True,
                    "running": self.daemon.running}
        if op == "plan":
            config = msg.get("config")
            if not isinstance(config, dict) or "model" not in config:
                raise BadRequest(
                    "plan needs a config object with at least 'model'")
            wire_trace = msg.get("trace")
            trace = (TraceContext.from_dict(wire_trace)
                     if isinstance(wire_trace, dict) else None)
            resp = self.daemon.request(
                config, deadline_s=msg.get("deadline_s"), trace=trace,
                collect_spans=bool(msg.get("collect_spans"))
                and trace is not None)
            return {"ok": True, **resp.to_dict()}
        if op == "telemetry":
            count = int(msg.get("count", 1))
            interval_s = float(msg.get("interval_s", 1.0))
            if count < 1:
                raise BadRequest("telemetry count must be >= 1")
            if interval_s < 0:
                raise BadRequest("telemetry interval_s must be >= 0")
            return self._telemetry_stream(count, interval_s)
        if op == "dump":
            reply: Dict[str, Any] = {"ok": True,
                                     "flight": FLIGHT.snapshot("on_demand")}
            if msg.get("write"):
                reply["path"] = str(FLIGHT.dump("on_demand"))
            return reply
        if op == "place":
            job_id = msg.get("job_id")
            if not job_id:
                raise BadRequest("place needs a job_id")
            placement = self.daemon.place(str(job_id),
                                          msg.get("tier_bytes") or {})
            return {"ok": True, "placement": placement.to_dict()}
        if op == "release":
            job_id = msg.get("job_id")
            if not job_id:
                raise BadRequest("release needs a job_id")
            placement = self.daemon.release(str(job_id))
            return {"ok": True, "placement": placement.to_dict()}
        if op == "stats":
            return {"ok": True, "stats": self.daemon.stats()}
        if op == "shutdown":
            self._schedule_shutdown()
            return {"ok": True, "stopping": True}
        raise BadRequest(f"unknown op {op!r}; known: ping, plan, place, "
                         "release, stats, telemetry, dump, shutdown")

    # -- internals ---------------------------------------------------------

    def _telemetry_stream(self, count: int,
                          interval_s: float) -> Iterator[str]:
        """Yield ``count`` telemetry frames, one per ``interval_s``.

        Ends early when the server starts shutting down so a slow
        stream never holds the drain window hostage.
        """
        for seq in range(count):
            frame = {"ok": True, "seq": seq, "of": count,
                     "telemetry": self.daemon.telemetry()}
            yield json.dumps(frame, sort_keys=True)
            if seq + 1 < count and self._stopping.wait(interval_s):
                break

    def _error(self, exc: ServiceRejection) -> str:
        """Serialize a typed rejection as the protocol's error reply."""
        return json.dumps(
            {"ok": False,
             "error": {"code": exc.code, "message": str(exc)}},
            sort_keys=True)

    def _schedule_shutdown(self) -> None:
        """Stop the server from a handler thread, after the reply flushes.

        ``BaseServer.shutdown`` must not run on the serving thread and
        would otherwise race the reply write, so a short-lived helper
        thread performs the actual stop.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        threading.Thread(target=self.stop, daemon=True,
                         name="planner-server-shutdown").start()
